#include "smst/mst/randomized_mst.h"

#include <cmath>
#include <span>
#include <stdexcept>

#include "smst/mst/detail.h"
#include "smst/runtime/flat/driver.h"
#include "smst/sleeping/flat_procedures.h"
#include "smst/util/prng.h"

namespace smst {

namespace {

constexpr std::uint16_t kTagFragId = 100;
constexpr std::uint16_t kTagPhaseCtl = 101;  // a=MOE weight, b=done, c=tails
constexpr std::uint16_t kTagMoeCoin = 102;   // a=MOE weight, b=tails
constexpr std::uint16_t kTagValidity = 103;

// Safety cap on phases in kEarlyDetect mode, as a multiple of
// ceil(log2 n) + 2: a generous multiple of the w.h.p. bound, exceeded
// only on algorithmic bugs.
constexpr std::uint64_t kMaxPhaseFactor = 64;

// ---------------------------------------------------------------------
// Randomized-MST as a flat state machine (DESIGN §13): one resumable
// script per node, each awake round and toolbox call a (return round,
// case label) pair via the runtime/flat/driver.h macros.

// Everything a node keeps lives inline here (per-port state is in the
// program's CSR arrays), so a wake touches one small record. What most
// wakes read (pc, the LDT, the cursor, the running sub-machine) comes
// first; what a phase reads once or twice comes last.
struct FlatGhsNode {
  int pc = 0;
  bool finished = false;
  bool tails = false;
  std::uint32_t moe_port = kNoPort;
  LdtState ldt;
  BlockCursor cursor{1, 1};
  FlatUpcastMin umin;
  FlatBroadcast bcast;
  FlatMerge merge;
  std::uint64_t phase = 0;
  std::size_t span = 0;
  std::uint64_t last_active_phase = 0;
  std::uint64_t depth_bound = 0;
  Xoshiro256 rng{0};
  Message ctl{};
  Weight moe_weight = 0;
  UpcastItem verdict;
  MergeRole role;
};

class FlatGhsProgram final : public FlatProgram {
 public:
  FlatGhsProgram(const WeightedGraph& g, detail::Shared* sh,
                 const MstOptions& options, detail::SelectionRule rule)
      : g_(&g),
        sh_(sh),
        rule_(rule),
        adaptive_blocks_(options.adaptive_blocks),
        nodes_(g.NumNodes()),
        nbr_frag_(g.NumPorts(), 0) {
    // The same per-node PRNG split Simulator hands coroutine contexts
    // (NodeContext::Rng), so every node has its own seeded coin stream.
    Xoshiro256 root(options.seed);
    for (NodeIndex v = 0; v < g.NumNodes(); ++v) {
      FlatGhsNode& st = nodes_[v];
      st.rng = root.Split(v);
      st.ldt = LdtState::Singleton(g.IdOf(v));
      st.cursor = BlockCursor(1, g.NumNodes());
    }
  }

  Round Step(NodeIndex v, Round now, std::span<const InMessage> inbox,
             SendLane& sends) override;

 private:
  const WeightedGraph* g_;
  detail::Shared* sh_;
  const detail::SelectionRule rule_;
  const bool adaptive_blocks_;
  std::vector<FlatGhsNode> nodes_;
  // Per port (CSR): the fragment ID last heard on it in B1.
  std::vector<NodeId> nbr_frag_;
};

Round FlatGhsProgram::Step(NodeIndex v, Round /*now*/,
                           std::span<const InMessage> inbox, SendLane& sends) {
  FlatGhsNode& st = nodes_[v];
  const FlatNodeRef node{g_, v};
  const std::size_t n = node.NumNodesKnown();
  const std::size_t first_port = g_->PortOffset(v);
  const std::span<NodeId> nbr_frag(nbr_frag_.data() + first_port,
                                   node.Degree());
  const std::span<std::uint8_t> mark(sh_->port_marks.data() + first_port,
                                     node.Degree());

  switch (st.pc) {
    default:
      throw std::logic_error("flat program: corrupt pc");
    case 0:
      for (st.phase = 1; st.phase <= sh_->phase_cap; ++st.phase) {
        // Adaptive blocks: depth_bound bounds every fragment's depth at
        // the start of the phase (see MstOptions::adaptive_blocks). All
        // nodes advance it identically, so block boundaries stay agreed.
        st.span = adaptive_blocks_
                      ? static_cast<std::size_t>(
                            std::min<std::uint64_t>(st.depth_bound + 1, n))
                      : n;
        st.cursor.SetSpan(st.span);
        st.depth_bound =
            std::min<std::uint64_t>(3 * st.depth_bound + 1, n - 1);
        if (st.finished) {  // paper mode: remaining phases are no-ops
          st.cursor.SkipBlocks(kRandomizedBlocksPerPhase);
          continue;
        }
        st.last_active_phase = st.phase;
        if (st.ldt.IsRoot()) sh_->Count(sh_->fragments_at, st.phase);

        // B1: learn adjacent fragment IDs.
        for (std::uint32_t p = 0; p < node.Degree(); ++p) {
          sends.push_back({p, Message{kTagFragId, st.ldt.fragment_id, 0, 0}});
        }
        SMST_FLAT_AWAKE(st, TransmissionSchedule(st.cursor.TakeBlock(), st.ldt.level, st.span).side);
        for (const InMessage& m : inbox) {
          if (m.msg.type == kTagFragId) nbr_frag[m.port] = m.msg.a;
        }

        // B2: fragment MOE converges at the root.
        SMST_FLAT_SUB(st, st.umin, st.umin.Begin(node, st.ldt, st.cursor.TakeBlock(), detail::LocalMoe(node, st.ldt, nbr_frag, rule_), sends, st.span));

        // B3: root announces (MOE edge weight, DONE, coin).
        st.ctl = Message{};
        if (st.ldt.IsRoot()) {
          const bool done = st.umin.best.Absent();  // no outgoing edge
          const bool tails = st.rng.NextCoin();
          st.ctl = Message{kTagPhaseCtl, st.umin.best.b,
                           done ? std::uint64_t{1} : 0,
                           tails ? std::uint64_t{1} : 0};
        }
        SMST_FLAT_SUB(st, st.bcast, st.bcast.Begin(node, st.ldt, st.cursor.TakeBlock(), st.ctl, sends, st.span));
        st.moe_weight = st.bcast.msg.a;
        st.tails = st.bcast.msg.c != 0;
        if (st.bcast.msg.b != 0) {  // done
          st.finished = true;
          sh_->Snapshot(st.phase, v, st.ldt);
          if (sh_->termination == TerminationMode::kEarlyDetect) break;
          st.cursor.SkipBlocks(kRandomizedBlocksPerPhase - 3);
          continue;
        }

        // B4: exchange (MOE weight, coin) with adjacent fragments.
        st.moe_port =
            detail::PortOfOutgoingWeight(node, st.ldt, nbr_frag, st.moe_weight);
        for (std::uint32_t p = 0; p < node.Degree(); ++p) {
          sends.push_back({p, Message{kTagMoeCoin, st.moe_weight, st.tails ? 1u : 0u, 0}});
        }
        SMST_FLAT_AWAKE(st, TransmissionSchedule(st.cursor.TakeBlock(), st.ldt.level, st.span).side);

        // Validity: the MOE is valid iff we flipped tails and the
        // fragment on its far side flipped heads. Decided by the (unique)
        // MOE endpoint from the coin heard over the MOE; the verdict
        // stays absent everywhere else.
        st.verdict = UpcastItem{};
        if (st.moe_port != kNoPort) {
          bool far_tails = false;
          for (const InMessage& m : inbox) {
            if (m.msg.type == kTagMoeCoin && m.port == st.moe_port) {
              far_tails = m.msg.b != 0;
            }
          }
          st.verdict = UpcastItem{st.tails && !far_tails ? 0u : 1u, 0, 0};
        }

        // B5 + B6: verdict to root, then fragment-wide.
        SMST_FLAT_SUB(st, st.umin, st.umin.Begin(node, st.ldt, st.cursor.TakeBlock(), st.verdict, sends, st.span));
        SMST_FLAT_SUB(st, st.bcast, st.bcast.Begin(node, st.ldt, st.cursor.TakeBlock(), Message{kTagValidity, st.umin.best.key, 0, 0}, sends, st.span));

        // B7-B9: merge tails fragments into their heads fragments.
        st.role = MergeRole{};
        st.role.is_tails = st.tails && st.bcast.msg.a == 0;
        if (st.role.is_tails && st.moe_port != kNoPort) {
          st.role.attach_port = st.moe_port;
        }
        SMST_FLAT_SUB(st, st.merge, st.merge.Begin(node, st.ldt, st.cursor, st.role, mark, sends));
        sh_->Snapshot(st.phase, v, st.ldt);
      }

      return sh_->Finish(v, st.finished, st.cursor.NextRound() - 1, st.ldt,
                         st.last_active_phase);
  }
  throw std::logic_error("flat program: unreachable");
}

MstRunResult RunEngine(const WeightedGraph& g, const MstOptions& options,
                       detail::SelectionRule rule) {
  const std::uint64_t phase_cap =
      options.termination == TerminationMode::kPaperPhaseCount
          ? RandomizedPaperPhaseCount(g.NumNodes())
          : kMaxPhaseFactor *
                (static_cast<std::uint64_t>(
                     std::ceil(std::log2(static_cast<double>(g.NumNodes())))) +
                 2);
  detail::Shared sh(g, options, "Randomized-MST", phase_cap);
  FlatGhsProgram program(g, &sh, options, rule);
  return detail::RunProgram(g, options, program, sh);
}

}  // namespace

std::uint64_t RandomizedPaperPhaseCount(std::size_t n) {
  const double log43 = std::log(static_cast<double>(n)) / std::log(4.0 / 3.0);
  return 4 * static_cast<std::uint64_t>(std::ceil(log43)) + 1;
}

MstRunResult RunRandomizedMst(const WeightedGraph& g,
                              const MstOptions& options) {
  return RunEngine(g, options, detail::SelectionRule::kMinWeight);
}

namespace detail {

MstRunResult RunGhsStyle(const WeightedGraph& g, const MstOptions& options,
                         SelectionRule rule) {
  return RunEngine(g, options, rule);
}

}  // namespace detail
}  // namespace smst
