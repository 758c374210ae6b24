#include "smst/mst/deterministic_mst.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <stdexcept>

#include "smst/mst/detail.h"
#include "smst/runtime/flat/driver.h"
#include "smst/sleeping/flat_procedures.h"

namespace smst {

namespace {

constexpr std::uint16_t kTagFragId = 110;
constexpr std::uint16_t kTagPhaseCtl = 111;     // a=MOE weight, b=done
constexpr std::uint16_t kTagMoeAnnounce = 112;  // a=our fragment's MOE weight
constexpr std::uint16_t kTagAllot = 113;        // a=token count for subtree
constexpr std::uint16_t kTagVerdict = 114;      // a=weight, b=selected?
constexpr std::uint16_t kTagValidity = 115;     // a=0 valid/1 invalid, b=target
constexpr std::uint16_t kTagNbrInfo = 116;      // a=weight, b=frag, c=outgoing

// A valid-MOE edge incident to this node.
struct LocalEntry {
  Weight weight = 0;
  NodeId frag = 0;
  bool outgoing = false;
  std::uint32_t port = kNoPort;
};

// ---------------------------------------------------------------------
// Deterministic-MST as a flat state machine (DESIGN §13), with either
// coloring: Fast-Awake-Coloring or the Corollary-1 log* coloring.

// A fragment has at most 4 H-neighbors: its own MOE and at most 3
// accepted incoming MOEs (B6 allots 3 tokens). A node's own entries and
// boundary ports are bounded the same way, so all three lists stay
// inline.
using NbrList = SmallVec<NbrEntry, 4>;
using LocalList = SmallVec<LocalEntry, 4>;
using HPortList = SmallVec<HPort, 4>;

bool NbrAnnounced(const NbrList& nbr_info, Weight w) {
  for (const NbrEntry& e : nbr_info) {
    if (e.weight == w) return true;
  }
  return false;
}

UpcastItem NbrOffer(const LocalList& locals, const NbrList& nbr_info) {
  UpcastItem offer;
  for (const LocalEntry& e : locals) {
    if (NbrAnnounced(nbr_info, e.weight)) continue;
    UpcastItem candidate{e.weight, e.frag, e.outgoing ? 1u : 0u};
    if (candidate < offer) offer = candidate;
  }
  return offer;
}

// Everything a node keeps lives inline here (per-port state is in the
// program's CSR arrays), so a wake touches one record and a run makes no
// allocation per node. What most wakes read (pc, the LDT, the cursor,
// the running sub-machine) comes first; what a phase reads once or twice
// comes last.
struct FlatDetNode {
  int pc = 0;
  int k = 0;
  bool finished = false;
  bool is_blue = false;
  std::uint32_t moe_port = kNoPort;
  LdtState ldt;
  BlockCursor cursor{1, 1};
  FlatUpcastMin umin;
  FlatBroadcast bcast;
  FlatUpcastSum usum;
  FlatMerge merge;
  FlatColoring coloring;
  std::uint64_t phase = 0;
  std::uint64_t last_active_phase = 0;
  Message ctl{};
  Weight moe_weight = 0;
  SmallVec<std::uint32_t, 8> incoming_ports;
  Round b6_down_send = 0;  // B6's Down-Receive is the round before
  std::uint64_t allot = 0;
  SmallVec<std::uint32_t, 8> valid_incoming;
  UpcastItem verdict;
  LocalList locals;
  NbrList nbr_info;
  HPortList h_ports;
  MergeRole role;
  // Allocated only on log* runs, so fast-awake runs stay their size.
  std::unique_ptr<FlatLogStarColoring> logstar;
};

class FlatDetProgram final : public FlatProgram {
 public:
  FlatDetProgram(const WeightedGraph& g, detail::Shared* sh, bool log_star)
      : g_(&g),
        sh_(sh),
        log_star_(log_star),
        cv_iters_(log_star_ ? LogStarCvIterations(g.MaxId()) : 0),
        coloring_blocks_(log_star_ ? LogStarColoringBlocks(g.NumNodes(),
                                                           g.MaxId())
                                   : kColoringBlocksPerStage * g.MaxId()),
        blocks_per_phase_(kDeterministicFixedBlocksPerPhase +
                          coloring_blocks_),
        nodes_(g.NumNodes()),
        nbr_frag_(g.NumPorts(), 0) {
    for (NodeIndex v = 0; v < g.NumNodes(); ++v) {
      FlatDetNode& st = nodes_[v];
      st.ldt = LdtState::Singleton(g.IdOf(v));
      st.cursor = BlockCursor(1, g.NumNodes());
      if (log_star_) st.logstar = std::make_unique<FlatLogStarColoring>();
    }
  }

  Round Step(NodeIndex v, Round now, std::span<const InMessage> inbox,
             SendLane& sends) override;

 private:
  const WeightedGraph* g_;
  detail::Shared* sh_;
  // Per-run constants of the schedule, fixed by (n, N) and the coloring.
  const bool log_star_;
  const std::uint32_t cv_iters_;
  const std::uint64_t coloring_blocks_;
  const std::uint64_t blocks_per_phase_;
  std::vector<FlatDetNode> nodes_;
  // Per port (CSR): the fragment ID last heard on it in B1.
  std::vector<NodeId> nbr_frag_;
};

Round FlatDetProgram::Step(NodeIndex v, Round /*now*/,
                           std::span<const InMessage> inbox, SendLane& sends) {
  FlatDetNode& st = nodes_[v];
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
        if (st.finished) {
          st.cursor.SkipBlocks(blocks_per_phase_);
          continue;
        }
        st.last_active_phase = st.phase;
        if (st.ldt.IsRoot()) sh_->Count(sh_->fragments_at, st.phase);

        // ---- step (i): find the fragment MOE -------------------------
        // B1: learn adjacent fragment IDs.
        for (std::uint32_t p = 0; p < node.Degree(); ++p) {
          sends.push_back({p, Message{kTagFragId, st.ldt.fragment_id, 0, 0}});
        }
        SMST_FLAT_AWAKE(st, TransmissionSchedule(st.cursor.TakeBlock(), st.ldt.level, n).side);
        for (const InMessage& m : inbox) {
          if (m.msg.type == kTagFragId) nbr_frag[m.port] = m.msg.a;
        }

        // B2 + B3: MOE to the root and (MOE weight, DONE) back down.
        SMST_FLAT_SUB(st, st.umin, st.umin.Begin(node, st.ldt, st.cursor.TakeBlock(), detail::LocalMoe(node, st.ldt, nbr_frag, detail::SelectionRule::kMinWeight), sends));
        st.ctl = Message{};
        if (st.ldt.IsRoot()) {
          st.ctl = Message{kTagPhaseCtl, st.umin.best.b,
                           st.umin.best.Absent() ? std::uint64_t{1} : 0, 0};
        }
        SMST_FLAT_SUB(st, st.bcast, st.bcast.Begin(node, st.ldt, st.cursor.TakeBlock(), st.ctl, sends));
        st.moe_weight = st.bcast.msg.a;
        if (st.bcast.msg.b != 0) {  // DONE: this fragment spans the graph
          st.finished = true;
          sh_->Snapshot(st.phase, v, st.ldt);
          if (sh_->termination == TerminationMode::kEarlyDetect) break;
          st.cursor.SkipBlocks(blocks_per_phase_ - 3);
          continue;
        }

        // ---- step (i) continued: sparsify incoming MOEs to at most 3 -
        // B4: announce our MOE weight; detect INCOMING-MOEs.
        st.incoming_ports.clear();
        for (std::uint32_t p = 0; p < node.Degree(); ++p) {
          sends.push_back({p, Message{kTagMoeAnnounce, st.moe_weight, 0, 0}});
        }
        SMST_FLAT_AWAKE(st, TransmissionSchedule(st.cursor.TakeBlock(), st.ldt.level, n).side);
        for (const InMessage& m : inbox) {
          if (m.msg.type == kTagMoeAnnounce &&
              nbr_frag[m.port] != st.ldt.fragment_id &&
              m.msg.a == node.WeightAtPort(m.port)) {
            st.incoming_ports.push_back(m.port);
          }
        }
        std::sort(st.incoming_ports.begin(), st.incoming_ports.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                    return node.WeightAtPort(a) < node.WeightAtPort(b);
                  });

        // B5: incoming-MOE counts converge (per-subtree breakdown kept).
        SMST_FLAT_SUB(st, st.usum, st.usum.Begin(node, st.ldt, st.cursor.TakeBlock(), st.incoming_ports.size(), sends));

        // B6: the root allots at most 3 tokens; each node selects its
        // own incoming edges (lightest first), splits the rest by
        // subtree (st.usum.result holds the B5 counts).
        st.b6_down_send =
            TransmissionSchedule(st.cursor.TakeBlock(), st.ldt.level, n)
                .down_send;
        st.allot = 0;
        if (st.ldt.IsRoot()) {
          st.allot = std::min<std::uint64_t>(3, st.usum.result.subtree_total);
        } else if (st.usum.result.subtree_total > 0) {
          SMST_FLAT_AWAKE(st, st.b6_down_send - 1);
          if (auto m = MessageFromPort(inbox, st.ldt.parent_port);
              m.has_value() && m->type == kTagAllot) {
            st.allot = m->a;
          }
        }
        st.valid_incoming.clear();
        for (std::uint32_t p : st.incoming_ports) {
          if (st.allot == 0) break;
          st.valid_incoming.push_back(p);
          --st.allot;
        }
        for (const auto& [child_port, child_total] :
             st.usum.result.child_totals) {
          const std::uint64_t give = std::min(st.allot, child_total);
          st.allot -= give;
          if (give > 0) {
            sends.push_back({child_port, Message{kTagAllot, give, 0, 0}});
          }
        }
        if (!sends.empty()) {
          SMST_FLAT_AWAKE(st, st.b6_down_send);
        }

        // B7: verdicts cross each incoming-MOE edge to its source.
        st.moe_port = detail::PortOfOutgoingWeight(node, st.ldt, nbr_frag,
                                                   st.moe_weight);
        for (std::uint32_t p : st.incoming_ports) {
          const bool selected =
              std::find(st.valid_incoming.begin(), st.valid_incoming.end(),
                        p) != st.valid_incoming.end();
          sends.push_back({p, Message{kTagVerdict, node.WeightAtPort(p),
                                      selected ? std::uint64_t{1} : 0, 0}});
        }
        SMST_FLAT_AWAKE(st, TransmissionSchedule(st.cursor.TakeBlock(), st.ldt.level, n).side);
        st.verdict = UpcastItem{};
        if (st.moe_port != kNoPort) {
          bool out_valid = false;
          if (auto m = MessageFromPort(inbox, st.moe_port);
              m.has_value() && m->type == kTagVerdict &&
              m->a == st.moe_weight) {
            out_valid = m->b != 0;
          }
          st.verdict =
              UpcastItem{out_valid ? 0u : 1u, nbr_frag[st.moe_port], 0};
        }

        // B8 + B9: outgoing validity to the root and fragment-wide. (The
        // paper encodes this with +-infinity sentinel weights in
        // Upcast-Min; an explicit flag is the same information.)
        SMST_FLAT_SUB(st, st.umin, st.umin.Begin(node, st.ldt, st.cursor.TakeBlock(), st.verdict, sends));
        SMST_FLAT_SUB(st, st.bcast, st.bcast.Begin(node, st.ldt, st.cursor.TakeBlock(), Message{kTagValidity, st.umin.best.key, st.umin.best.b, 0}, sends));

        // ---- NBR-INFO gather: <=4 tuples fragment-wide (8 blocks) ----
        st.locals.clear();
        for (std::uint32_t p : st.valid_incoming) {
          st.locals.push_back({node.WeightAtPort(p), nbr_frag[p], false, p});
        }
        if (st.moe_port != kNoPort && st.bcast.msg.a == 0) {
          st.locals.push_back(
              {st.moe_weight, nbr_frag[st.moe_port], true, st.moe_port});
        }
        st.nbr_info.clear();
        for (st.k = 0; st.k < 4; ++st.k) {
          SMST_FLAT_SUB(st, st.umin, st.umin.Begin(node, st.ldt, st.cursor.TakeBlock(), NbrOffer(st.locals, st.nbr_info), sends));
          SMST_FLAT_SUB(st, st.bcast, st.bcast.Begin(node, st.ldt, st.cursor.TakeBlock(), Message{kTagNbrInfo, st.umin.best.key, st.umin.best.b, st.umin.best.c}, sends));
          if (st.bcast.msg.a != kPlusInfinity &&
              !NbrAnnounced(st.nbr_info, st.bcast.msg.a)) {
            st.nbr_info.push_back(
                {st.bcast.msg.b, st.bcast.msg.a, st.bcast.msg.c != 0});
          }
        }

        // Our own boundary ports in H (deduplicated: a mutual MOE appears
        // in `locals` twice with the same port).
        st.h_ports.clear();
        for (const LocalEntry& e : st.locals) {
          bool dup = false;
          for (const HPort& hp : st.h_ports) dup |= hp.port == e.port;
          if (!dup) st.h_ports.push_back({e.port, e.frag});
        }

        // ---- step (ii): color H, then merge --------------------------
        // The "mover" role (the paper's Blue): merges into a neighbor in
        // wave 1, or along its own MOE in wave 2 if isolated in H. With
        // Fast-Awake-Coloring movers are the Blue fragments; with the
        // Corollary-1 log* coloring they are the local color minima
        // (same independence and >= 1/341-per-component guarantees; see
        // coloring.h).
        if (!log_star_) {
          SMST_FLAT_SUB(st, st.coloring, st.coloring.Begin(node, st.ldt, st.cursor, st.nbr_info, st.h_ports, sends));
          st.is_blue = st.coloring.result.my_color == FragColor::kBlue;
        } else if (st.nbr_info.empty()) {
          st.cursor.SkipBlocks(coloring_blocks_);
          st.is_blue = true;  // isolated: trivially a local minimum
        } else {
          SMST_FLAT_SUB(st, *st.logstar, st.logstar->Begin(node, st.ldt, st.cursor, st.nbr_info, st.h_ports, cv_iters_, sends));
          st.is_blue = st.logstar->result.IsMover();
        }
        if (st.ldt.IsRoot() && st.is_blue) sh_->Count(sh_->blue_at, st.phase);

        // Merge wave 1: Blue fragments with H-neighbors pick the
        // lowest-ID neighbor (any choice works; all its neighbors are
        // non-Blue).
        st.role = MergeRole{};
        if (st.is_blue && !st.nbr_info.empty()) {
          st.role.is_tails = true;
          NbrEntry chosen = st.nbr_info.front();
          for (const NbrEntry& e : st.nbr_info) {
            if (e.frag_id < chosen.frag_id ||
                (e.frag_id == chosen.frag_id && e.weight < chosen.weight)) {
              chosen = e;
            }
          }
          for (const LocalEntry& e : st.locals) {
            if (e.weight == chosen.weight) st.role.attach_port = e.port;
          }
        }
        SMST_FLAT_SUB(st, st.merge, st.merge.Begin(node, st.ldt, st.cursor, st.role, mark, sends));

        // Merge wave 2: Blue singletons (isolated in H) follow their own
        // MOE into whatever fragment now sits at its far end.
        st.role = MergeRole{};
        if (st.is_blue && st.nbr_info.empty()) {
          st.role.is_tails = true;
          if (st.moe_port != kNoPort) st.role.attach_port = st.moe_port;
        }
        SMST_FLAT_SUB(st, st.merge, st.merge.Begin(node, st.ldt, st.cursor, st.role, mark, sends));
        sh_->Snapshot(st.phase, v, st.ldt);
      }

      return sh_->Finish(v, st.finished, st.cursor.NextRound() - 1, st.ldt,
                         st.last_active_phase);
  }
  throw std::logic_error("flat program: unreachable");
}

// Both colorings share the schedule and the merge; `log_star` swaps
// Fast-Awake-Coloring for the Corollary-1 log* coloring.
MstRunResult RunDeterministic(const WeightedGraph& g,
                              const MstOptions& options, bool log_star) {
  if (options.adaptive_blocks) {
    // The deterministic schedule has no depth-bounded blocks to shrink;
    // running without them would silently ignore the option.
    throw std::invalid_argument(
        "adaptive_blocks applies to the randomized engine (randomized, "
        "GHS-baseline, BM spanning tree), not to Deterministic-MST");
  }
  // Each phase with >= 2 fragments retires at least one (every H
  // component loses its Blue fragments; every singleton merges), so n+1
  // phases always suffice; the paper's budget is the w.h.p.-style
  // worst-case constant-factor bound.
  const std::uint64_t phase_cap =
      options.termination == TerminationMode::kPaperPhaseCount
          ? DeterministicPaperPhaseCount(g.NumNodes())
          : g.NumNodes() + 1;
  detail::Shared sh(g, options, "Deterministic-MST", phase_cap);
  FlatDetProgram program(g, &sh, log_star);
  return detail::RunProgram(g, options, program, sh);
}

}  // namespace

std::uint64_t DeterministicPaperPhaseCount(std::size_t n) {
  const double base = 240000.0 / 239999.0;
  const double phases = std::log(static_cast<double>(n)) / std::log(base);
  return static_cast<std::uint64_t>(std::ceil(phases)) + 240000;
}

MstRunResult RunDeterministicMst(const WeightedGraph& g,
                                 const MstOptions& options) {
  return RunDeterministic(g, options, /*log_star=*/false);
}

MstRunResult RunDeterministicLogStarMst(const WeightedGraph& g,
                                        const MstOptions& options) {
  return RunDeterministic(g, options, /*log_star=*/true);
}

}  // namespace smst
