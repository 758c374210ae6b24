#include "smst/apps/tree_ops.h"

#include <stdexcept>

#include "smst/runtime/flat/driver.h"
#include "smst/runtime/simulator.h"
#include "smst/sleeping/flat_procedures.h"

namespace smst {

namespace {

constexpr std::uint16_t kTagAppBroadcast = 150;

struct TreeOpsNode {
  int pc = 0;
  BlockCursor cursor{1, 1};
  std::size_t i = 0;  // the request being served
  FlatBroadcast bcast;
  FlatUpcastMin umin;
  FlatUpcastSum usum;
};

// Serves the requests back to back, one schedule block each, over the
// finished forest.
class TreeOpsProgram final : public FlatProgram {
 public:
  TreeOpsProgram(const WeightedGraph& g, const std::vector<LdtState>& forest,
                 const std::vector<TreeOpRequest>& requests,
                 std::vector<TreeOpOutcome>& outcomes)
      : g_(&g),
        forest_(&forest),
        requests_(&requests),
        outcomes_(&outcomes),
        nodes_(g.NumNodes()) {
    for (TreeOpsNode& st : nodes_) st.cursor = BlockCursor(1, g.NumNodes());
  }

  Round Step(NodeIndex v, Round now, std::span<const InMessage> inbox,
             SendLane& sends) override;

 private:
  // Records node v's answer to request i.
  void Answer(std::size_t i, NodeIndex v, std::uint64_t value) {
    TreeOpOutcome& out = (*outcomes_)[i];
    out.per_node[v] = value;
    if ((*forest_)[v].IsRoot()) out.root_value = value;
  }

  const WeightedGraph* g_;
  const std::vector<LdtState>* forest_;
  const std::vector<TreeOpRequest>* requests_;
  std::vector<TreeOpOutcome>* outcomes_;
  std::vector<TreeOpsNode> nodes_;
};

Round TreeOpsProgram::Step(NodeIndex v, Round /*now*/,
                           std::span<const InMessage> inbox, SendLane& sends) {
  TreeOpsNode& st = nodes_[v];
  const FlatNodeRef node{g_, v};
  const LdtState& ldt = (*forest_)[v];
  const std::vector<TreeOpRequest>& reqs = *requests_;

  switch (st.pc) {
    default:
      throw std::logic_error("flat program: corrupt pc");
    case 0:
      for (st.i = 0; st.i < reqs.size(); ++st.i) {
        if (reqs[st.i].kind == TreeOpRequest::Kind::kBroadcast) {
          SMST_FLAT_SUB(st, st.bcast, st.bcast.Begin(node, ldt, st.cursor.TakeBlock(), Message{kTagAppBroadcast, reqs[st.i].broadcast_value, 0, 0}, sends));
          Answer(st.i, v, st.bcast.msg.a);
        } else if (reqs[st.i].kind == TreeOpRequest::Kind::kAggregateMin) {
          SMST_FLAT_SUB(st, st.umin, st.umin.Begin(node, ldt, st.cursor.TakeBlock(), UpcastItem{reqs[st.i].inputs[v], 0, 0}, sends));
          Answer(st.i, v, st.umin.best.key);
        } else {
          SMST_FLAT_SUB(st, st.usum, st.usum.Begin(node, ldt, st.cursor.TakeBlock(), reqs[st.i].inputs[v], sends));
          Answer(st.i, v, st.usum.result.subtree_total);
        }
      }
      return kFlatDone;
  }
}

}  // namespace

TreeOpsReport RunTreeOps(const WeightedGraph& g, const MstRunResult& result,
                         const std::vector<TreeOpRequest>& requests,
                         std::uint64_t seed) {
  if (result.final_ldt.size() != g.NumNodes()) {
    throw std::invalid_argument("result does not belong to this graph");
  }
  for (const LdtState& s : result.final_ldt) {
    if (s.fragment_id != result.final_ldt.front().fragment_id) {
      throw std::invalid_argument(
          "TreeOps needs a single spanning tree (run did not converge)");
    }
  }
  for (const TreeOpRequest& req : requests) {
    if (req.kind != TreeOpRequest::Kind::kBroadcast &&
        req.inputs.size() != g.NumNodes()) {
      throw std::invalid_argument("aggregation inputs must cover every node");
    }
  }

  TreeOpsReport report;
  report.outcomes.resize(requests.size());
  for (auto& out : report.outcomes) {
    out.per_node.assign(g.NumNodes(), 0);
  }
  TreeOpsProgram program(g, result.final_ldt, requests, report.outcomes);
  SimulatorOptions opt;
  opt.seed = seed;
  Simulator sim(g, opt);
  sim.Run(program);
  report.stats = sim.Stats();
  return report;
}

}  // namespace smst
