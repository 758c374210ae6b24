// The paper's toolbox (Appendix B) and both colorings, as flat
// (coroutine-less) sub-machines: O(1)-awake, O(n)-round procedures on a
// Forest of Labeled Distance Trees. Every procedure occupies whole
// schedule blocks (2n+1 rounds each; schedule.h), and all fragments run
// the same procedure in the same block, so cross-fragment Side rounds
// line up globally.
//
// Every struct here runs its procedure as a script in the one form all
// flat code uses (runtime/flat/driver.h): Begin captures its arguments,
// sets pc = 0 and runs the script; Resume is one `switch (pc)` whose
// resume points are SMST_FLAT_AWAKE / SMST_FLAT_SUB, with `case 0:` and a
// throwing `default:`, so the flat-* lint rules check every procedure.
// A driver (the flat MST programs in src/smst/mst/, apps/tree_ops, or
// ProcedureProgram below) embeds one instance per node and runs it like
// this:
//
//   Round r = sub.Begin(node, ..., sends);         // may push sends
//   while (r != kFlatDone) {
//     <return r to the engine; next Step delivers round r's inbox>
//     r = sub.Resume(node, inbox, sends);
//   }
//   <read the procedure's result fields>
//
// (SMST_FLAT_SUB is that loop.) Begin/Resume return the next awake round
// with that round's sends already pushed into the driver's out-parameter,
// or kFlatDone when the procedure has finished — the exact contract of
// FlatProgram::Step, so a driver can forward a sub-machine's round
// verbatim. A procedure that never needs to wake (e.g. Upcast-Min at a
// childless root with nothing to send) finishes inside Begin and the
// driver continues synchronously.
//
// Awake costs (asserted by tests):
//   Fragment-Broadcast  <= 2 wakes (1 for root / leaves)   FlatBroadcast
//   Upcast-Min          <= 2 wakes                         FlatUpcastMin
//   Upcast-Sum          <= 2 wakes                         FlatUpcastSum
//   Transmit-Adjacent   == 1 wake: the block's Side round,
//                       TransmissionSchedule(block, level, n).side
//
// A sub-machine holds as little as it can, since every wake of its node
// reads it: of the schedule it keeps one round and derives the others
// from it (schedule.h). State referenced across suspensions (the LDT, the
// cursor, the driver's MST port marks and NbrEntry / HPort lists) is held
// by pointer or std::span; drivers keep those objects at stable addresses
// for the procedure's lifetime.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "smst/runtime/flat/program.h"
#include "smst/runtime/message.h"
#include "smst/sleeping/coloring.h"
#include "smst/sleeping/ldt.h"
#include "smst/sleeping/schedule.h"

namespace smst {

// Message tags used by the toolbox; algorithms use tags >= 100.
enum ProcedureTag : std::uint16_t {
  kTagBroadcast = 1,
  kTagUpcastMin = 2,
  kTagUpcastSum = 3,
  kTagSide = 4,
  kTagMergeSide = 5,
  kTagMergeUp = 6,
  kTagMergeDown = 7,
};

// A value offered to / aggregated by Upcast-Min. Ordered by (key, b, c);
// key == kPlusInfinity means "no value".
struct UpcastItem {
  std::uint64_t key = kPlusInfinity;
  std::uint64_t b = 0;
  std::uint64_t c = 0;

  bool Absent() const { return key == kPlusInfinity; }
  friend bool operator<(const UpcastItem& x, const UpcastItem& y) {
    if (x.key != y.key) return x.key < y.key;
    if (x.b != y.b) return x.b < y.b;
    return x.c < y.c;
  }
};

struct UpcastSumResult {
  std::uint64_t subtree_total = 0;  // own contribution + all descendants
  // (child port, that child's subtree total) in child_ports order; kept
  // so a later down-pass can split an allotment among subtrees. SmallVec:
  // LDT fan-out is small, so this stays inside the node's state.
  SmallVec<std::pair<std::uint32_t, std::uint64_t>, 4> child_totals;
};

// The message that arrived on `port`, if any.
inline std::optional<Message> MessageFromPort(
    std::span<const InMessage> inbox, std::uint32_t port) {
  for (const InMessage& m : inbox) {
    if (m.port == port) return m.msg;
  }
  return std::nullopt;
}

// A node's part in one Merging-Fragments wave.
struct MergeRole {
  // True iff this node's fragment merges into another fragment now.
  bool is_tails = false;
  // On exactly one node of a tails fragment (the node incident to the
  // merge edge): the port of that edge. kNoPort elsewhere.
  std::uint32_t attach_port = kNoPort;
};

// Number of schedule blocks one merge occupies (A, B, C).
inline constexpr std::uint64_t kMergeBlocks = 3;

// Fragment-Broadcast(n): the root's message reaches every fragment node.
// The root passes its message in `root_msg` (ignored elsewhere); after
// completion `msg` holds the broadcast message at every node. Throws
// ProtocolStallError if a non-root node hears nothing from its parent.
// `span` selects the schedule span (0 = the default n); see schedule.h.
struct FlatBroadcast {
  Round down_send = 0;  // Down-Receive is the round before
  Message msg;
  const LdtState* ldt = nullptr;
  std::uint16_t pc = 0;

  Round Begin(const FlatNodeRef& node, const LdtState& l, Round block_start,
              Message root_msg, SendLane& sends, std::size_t span = 0);
  Round Resume(const FlatNodeRef& node, std::span<const InMessage> inbox,
               SendLane& sends);
};

// Upcast-Min(n) (convergecast): the minimum of all offered values reaches
// the root. After completion `best` holds the minimum over this node's
// subtree (at the root: the fragment-wide minimum).
struct FlatUpcastMin {
  Round up_receive = 0;  // Up-Send is the round after
  UpcastItem best;
  const LdtState* ldt = nullptr;
  std::uint16_t pc = 0;

  Round Begin(const FlatNodeRef& node, const LdtState& l, Round block_start,
              UpcastItem own, SendLane& sends, std::size_t span = 0);
  Round Resume(const FlatNodeRef& node, std::span<const InMessage> inbox,
               SendLane& sends);
};

// Upcast-Sum(n): after completion, `result` holds the subtree total and
// the per-child breakdown (at the root: the fragment-wide sum).
struct FlatUpcastSum {
  Round up_receive = 0;  // Up-Send is the round after
  UpcastSumResult result;
  const LdtState* ldt = nullptr;
  std::uint16_t pc = 0;

  Round Begin(const FlatNodeRef& node, const LdtState& l, Round block_start,
              std::uint64_t own, SendLane& sends, std::size_t span = 0);
  Round Resume(const FlatNodeRef& node, std::span<const InMessage> inbox,
               SendLane& sends);
};

// Merging-Fragments(n) (paper §2.2; the protocol is spelled out on the
// script in flat_procedures.cpp): one merge wave over sub-blocks A, B
// and C. Marks newly added MST edges in `marks` (this node's ports, one
// byte each) during sub-block A (both endpoints of a merge edge mark it)
// and updates `ldt` in place when the procedure completes.
struct FlatMerge {
  std::size_t span = 0;
  Round block_a = 0;  // sub-blocks B and C are the next two blocks
  LdtState* ldt = nullptr;
  std::uint8_t* mark = nullptr;
  MergeRole role;
  std::uint32_t new_parent_port = kNoPort;
  bool have_new = false;
  std::uint16_t pc = 0;
  NodeId new_frag = 0;
  std::uint64_t new_level = 0;
  ChildPortList new_children;

  Round Begin(const FlatNodeRef& node, LdtState& l, BlockCursor& cursor,
              MergeRole r, std::span<std::uint8_t> marks, SendLane& sends);
  Round Resume(const FlatNodeRef& node, std::span<const InMessage> inbox,
               SendLane& sends);

 private:
  // Sub-block k's schedule (0 = A, 1 = B, 2 = C) at this node's level,
  // which stays fixed until the script's end.
  ScheduleRounds Sub(std::uint64_t k) const;
};

// Fast-Awake-Coloring(n, N) (coloring.h): after completion, `result`
// holds my_color and the fragment's H-neighbor colors. `nbr_in` lists
// the fragment's H-neighbors (fragment-wide consistent); `h_ports_in`
// this node's own boundary edges.
struct FlatColoring {
  const LdtState* ldt = nullptr;
  std::span<const HPort> h_ports;
  std::size_t n = 0;
  Round base = 0;
  Round block_len = 0;
  // The stages this node takes part in: its own fragment's and its
  // (at most 4) H-neighbors', ascending.
  SmallVec<NodeId, 5> stages;
  std::size_t stage_i = 0;
  NodeId stage = 0;
  Round stage_start = 0;  // the stage's 5 blocks follow one another
  UpcastItem heard;
  ColoringResult result;
  FlatUpcastMin umin;
  FlatBroadcast bcast;
  std::uint16_t pc = 0;

  Round Begin(const FlatNodeRef& node, const LdtState& l, BlockCursor& cursor,
              std::span<const NbrEntry> nbr_in,
              std::span<const HPort> h_ports_in, SendLane& sends);
  Round Resume(const FlatNodeRef& node, std::span<const InMessage> inbox,
               SendLane& sends);

 private:
  // Start of block k of the current stage (0 = Upcast-Min of the choice,
  // ..., 4 = Fragment-Broadcast of the received color).
  Round StageBlock(std::uint64_t k) const {
    return stage_start + k * block_len;
  }
};

// One simultaneous "announce to H-neighbors + make it fragment-wide"
// exchange of the log* coloring (9 schedule blocks): a Side round on the
// valid-MOE edges, then four Upcast-Min + Fragment-Broadcast gathers.
// After completion `result` maps every H-neighbor that announced to its
// value, known fragment-wide; neighbors that did not announce are
// absent. With `announce_in` false this fragment only listens (the
// reduction steps, where a listener's other neighbors may be asleep and
// sending to them would violate the drop-free protocol).
struct FlatExchange {
  const LdtState* ldt = nullptr;
  BlockCursor* cursor = nullptr;
  std::span<const NodeId> sorted_nbr_ids;
  std::span<const HPort> h_ports;
  std::uint64_t own_value = 0;
  bool announce = true;
  // This node's locally heard (neighbor index -> value).
  std::map<std::uint64_t, std::uint64_t> heard;
  std::set<std::uint64_t> done_indices;
  std::map<NodeId, std::uint64_t> result;
  int k = 0;
  FlatUpcastMin umin;
  FlatBroadcast bcast;
  std::uint16_t pc = 0;

  Round Begin(const FlatNodeRef& node, const LdtState& l, BlockCursor& c,
              std::span<const NodeId> sorted_ids,
              std::span<const HPort> h_ports_in, std::uint64_t value,
              bool announce_in, SendLane& sends);
  Round Resume(const FlatNodeRef& node, std::span<const InMessage> inbox,
               SendLane& sends);
};

// The Corollary-1 log* coloring (coloring.h): after completion, `result`
// holds this fragment's final color and its H-neighbors'. Precondition:
// `nbr_in` is non-empty (isolated fragments skip coloring; they are
// movers by definition) and N < 2^48 (4 coordinates must pack into one
// message). `cv_iters` is LogStarCvIterations(N), fixed per run.
struct FlatLogStarColoring {
  const LdtState* ldt = nullptr;
  BlockCursor* cursor = nullptr;
  std::span<const NbrEntry> nbr;
  std::span<const HPort> h_ports;
  std::uint32_t cv_iters = 0;
  NodeId own_frag = 0;
  // Fragment-wide consistent views derived from nbr.
  std::vector<NodeId> sorted_nbr_ids;
  std::vector<NbrEntry> out_edges;  // index = forest 0..3
  // Orientation exchange: in-edge weight -> forest the source assigned.
  std::map<Weight, std::uint32_t> heard_forest;
  std::set<Weight> done_forest;
  std::map<Weight, std::uint32_t> in_forest;
  std::array<std::vector<NodeId>, 4> forest_children;
  std::array<std::uint64_t, 4> coord{};
  std::map<NodeId, std::array<std::uint64_t, 4>> nbr_coord;
  int k = 0;
  std::uint32_t t = 0;
  std::uint64_t retire = 0;
  std::uint32_t step = 0;
  bool announcer = false;
  bool listener = false;
  LogStarResult result;
  FlatExchange xchg;
  FlatUpcastMin umin;
  FlatBroadcast bcast;
  std::uint16_t pc = 0;

  Round Begin(const FlatNodeRef& node, const LdtState& l, BlockCursor& c,
              std::span<const NbrEntry> nbr_in,
              std::span<const HPort> h_ports_in, std::uint32_t iters,
              SendLane& sends);
  Round Resume(const FlatNodeRef& node, std::span<const InMessage> inbox,
               SendLane& sends);
};

// A whole FlatProgram running one sub-machine per node: the round-0
// Step calls `begin` on node v's instance, every later Step resumes it
// until it finishes. Tests and benches drive single procedures with it:
//
//   ProcedureProgram<FlatUpcastMin> program(g, [&](const FlatNodeRef& node,
//       FlatUpcastMin& proc, SendLane& sends) {
//     return proc.Begin(node, states[node.v], 1, own[node.v], sends);
//   });
//   sim.Run(program);  // then read program[v].best
template <typename Proc>
class ProcedureProgram final : public FlatProgram {
 public:
  using BeginFn =
      std::function<Round(const FlatNodeRef&, Proc&, SendLane& sends)>;

  ProcedureProgram(const WeightedGraph& g, BeginFn begin)
      : g_(&g), begin_(std::move(begin)), procs_(g.NumNodes()) {}

  Round Step(NodeIndex v, Round now, std::span<const InMessage> inbox,
             SendLane& sends) override {
    const FlatNodeRef node{g_, v};
    return now == 0 ? begin_(node, procs_[v], sends)
                    : procs_[v].Resume(node, inbox, sends);
  }

  const Proc& operator[](NodeIndex v) const { return procs_[v]; }

 private:
  const WeightedGraph* g_;
  BeginFn begin_;
  std::vector<Proc> procs_;
};

}  // namespace smst
