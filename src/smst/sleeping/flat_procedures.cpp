#include "smst/sleeping/flat_procedures.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "smst/faults/run_outcome.h"
#include "smst/runtime/flat/driver.h"

namespace smst {

namespace {

constexpr auto FromPort = MessageFromPort;

// Drop-free by construction in the sleeping model, so a protocol step
// starved of its expected message is a fault effect (ProtocolStallError
// classifies it as a crashed partition rather than a crash).
[[noreturn]] void MergeProtocolError(const FlatNodeRef& node,
                                     const std::string& what) {
  throw ProtocolStallError("MergingFragments: node " +
                           std::to_string(node.Id()) + ": " + what);
}

}  // namespace

// --- Fragment-Broadcast -----------------------------------------------

Round FlatBroadcast::Begin(const FlatNodeRef& node, const LdtState& l,
                           Round block_start, Message root_msg,
                           SendLane& sends, std::size_t span) {
  ldt = &l;
  down_send = TransmissionSchedule(block_start, l.level,
                                   span == 0 ? node.NumNodesKnown() : span)
                  .down_send;
  msg = root_msg;
  pc = 0;
  return Resume(node, kEmptyInbox, sends);
}

Round FlatBroadcast::Resume(const FlatNodeRef& node,
                            std::span<const InMessage> inbox,
                            SendLane& sends) {
  switch (pc) {
    default:
      throw std::logic_error("flat program: corrupt pc");
    case 0:
      if (!ldt->IsRoot()) {
        SMST_FLAT_AWAKE(*this, down_send - 1);  // Down-Receive
        const auto from_parent = FromPort(inbox, ldt->parent_port);
        if (!from_parent.has_value()) {
          // Drop-free by construction in the sleeping model, so a missing
          // parent message is a fault effect: classified, not a crash.
          throw ProtocolStallError(
              "FragmentBroadcast: node " + std::to_string(node.Id()) +
              " heard nothing from its parent in its Down-Receive round");
        }
        msg = *from_parent;
      }
      if (!ldt->child_ports.empty()) {
        for (std::uint32_t p : ldt->child_ports) sends.push_back({p, msg});
        SMST_FLAT_AWAKE(*this, down_send);
      }
      return kFlatDone;
  }
}

// --- Upcast-Min --------------------------------------------------------

Round FlatUpcastMin::Begin(const FlatNodeRef& node, const LdtState& l,
                           Round block_start, UpcastItem own, SendLane& sends,
                           std::size_t span) {
  ldt = &l;
  up_receive = TransmissionSchedule(block_start, l.level,
                                    span == 0 ? node.NumNodesKnown() : span)
                   .up_receive;
  best = own;
  pc = 0;
  return Resume(node, kEmptyInbox, sends);
}

Round FlatUpcastMin::Resume(const FlatNodeRef& /*node*/,
                            std::span<const InMessage> inbox, SendLane& sends) {
  switch (pc) {
    default:
      throw std::logic_error("flat program: corrupt pc");
    case 0:
      if (!ldt->child_ports.empty()) {
        SMST_FLAT_AWAKE(*this, up_receive);
        for (std::uint32_t p : ldt->child_ports) {
          if (auto m = FromPort(inbox, p); m.has_value()) {
            UpcastItem item{m->a, m->b, m->c};
            if (item < best) best = item;
          }
        }
      }
      if (!ldt->IsRoot() && !best.Absent()) {
        sends.push_back({ldt->parent_port,
                         Message{kTagUpcastMin, best.key, best.b, best.c}});
        SMST_FLAT_AWAKE(*this, up_receive + 1);  // Up-Send
      }
      return kFlatDone;
  }
}

// --- Upcast-Sum --------------------------------------------------------

Round FlatUpcastSum::Begin(const FlatNodeRef& node, const LdtState& l,
                           Round block_start, std::uint64_t own,
                           SendLane& sends, std::size_t span) {
  ldt = &l;
  up_receive = TransmissionSchedule(block_start, l.level,
                                    span == 0 ? node.NumNodesKnown() : span)
                   .up_receive;
  result = UpcastSumResult{};
  result.subtree_total = own;
  pc = 0;
  return Resume(node, kEmptyInbox, sends);
}

Round FlatUpcastSum::Resume(const FlatNodeRef& /*node*/,
                            std::span<const InMessage> inbox, SendLane& sends) {
  switch (pc) {
    default:
      throw std::logic_error("flat program: corrupt pc");
    case 0:
      if (!ldt->child_ports.empty()) {
        SMST_FLAT_AWAKE(*this, up_receive);
        for (std::uint32_t p : ldt->child_ports) {
          std::uint64_t child_total = 0;
          if (auto m = FromPort(inbox, p); m.has_value()) child_total = m->a;
          result.child_totals.emplace_back(p, child_total);
          result.subtree_total += child_total;
        }
      }
      if (!ldt->IsRoot() && result.subtree_total > 0) {
        sends.push_back({ldt->parent_port,
                         Message{kTagUpcastSum, result.subtree_total, 0, 0}});
        SMST_FLAT_AWAKE(*this, up_receive + 1);  // Up-Send
      }
      return kFlatDone;
  }
}

// --- Merging-Fragments --------------------------------------------------

Round FlatMerge::Begin(const FlatNodeRef& node, LdtState& l,
                       BlockCursor& cursor, MergeRole r,
                       std::span<std::uint8_t> marks, SendLane& sends) {
  ldt = &l;
  mark = marks.data();
  role = r;
  // The schedule span comes from the cursor so the adaptive-blocks
  // optimization applies here too.
  span = cursor.Span();
  block_a = cursor.NextRound();
  cursor.SkipBlocks(kMergeBlocks);
  pc = 0;
  return Resume(node, kEmptyInbox, sends);
}

ScheduleRounds FlatMerge::Sub(std::uint64_t k) const {
  return TransmissionSchedule(block_a + k * ScheduleBlockLength(span),
                              ldt->level, span);
}

// Procedure Merging-Fragments(n) (paper §2.2, illustrated in Appendix C).
//
// Merges every "tails" fragment into the "heads" fragment at the far end
// of its merge edge, in O(1) awake rounds and O(n) running time, while
// restoring the LDT invariant of the merged fragment. The script below
// follows the three sub-blocks A (Side), B (Up) and C (Down) in order.
//
// (The paper's prose says nodes with *non-empty* NEW-LEVEL-NUM update in
// the down pass; taken literally that would corrupt the path computed in
// sub-block B, and Appendix C's figures show the intent: only the
// still-empty nodes adopt. We implement the figures. See DESIGN.md §2.)
Round FlatMerge::Resume(const FlatNodeRef& node,
                        std::span<const InMessage> inbox,
                        SendLane& sends) {
  switch (pc) {
    default:
      throw std::logic_error("flat program: corrupt pc");
    case 0:
      // Pending NEW-* values (the paper's NEW-FRAGMENT-ID / NEW-LEVEL-NUM)
      // and re-orientation, applied to the LDT only at the end.
      have_new = false;
      new_frag = 0;
      new_level = 0;
      new_parent_port = ldt->parent_port;
      new_children = ldt->child_ports;

      // Sub-block A (Side): everyone exchanges (fragment ID, level) with
      // neighbors; the tails attachment node u_T also raises an ATTACH
      // flag on the merge edge, so the heads endpoint u_H learns it gains
      // a child and u_T learns its new fragment ID and level.
      for (std::uint32_t p = 0; p < node.Degree(); ++p) {
        const std::uint64_t attach =
            (role.is_tails && p == role.attach_port) ? 1 : 0;
        sends.push_back({p, Message{kTagMergeSide, ldt->fragment_id,
                                    ldt->level, attach}});
      }
      SMST_FLAT_AWAKE(*this, Sub(0).side);
      for (const InMessage& m : inbox) {
        if (m.msg.type != kTagMergeSide) continue;
        if (m.msg.c == 1) {
          // A neighbor attaches to us over this edge: we gain a child.
          if (role.is_tails) {
            MergeProtocolError(node, "a tails node received an ATTACH flag");
          }
          new_children.push_back(m.port);
          mark[m.port] = 1;
        }
      }
      if (role.is_tails && role.attach_port != kNoPort) {
        const auto from_target = FromPort(inbox, role.attach_port);
        if (!from_target.has_value()) {
          MergeProtocolError(node, "merge target silent in the Side round");
        }
        new_frag = from_target->a;
        new_level = from_target->b + 1;
        have_new = true;
        // Re-root: the merge target becomes the parent; all old tree
        // neighbors (old children and old parent) become children.
        new_parent_port = role.attach_port;
        if (ldt->parent_port != kNoPort) {
          new_children.push_back(ldt->parent_port);
        }
        mark[role.attach_port] = 1;
      }

      // Heads fragments keep their identity; their nodes sleep through B
      // and C, keep ID / level / parent, and gain the attach children.
      if (role.is_tails) {
        // Sub-block B (Up): the first Transmission-Schedule instance. The
        // new (fragment ID, level) values propagate from u_T along the
        // old-tree path to the old root; each path node re-orients (its
        // new parent is the child it heard from).
        if (!ldt->child_ports.empty()) {
          SMST_FLAT_AWAKE(*this, Sub(1).up_receive);
          std::uint32_t sender = kNoPort;
          for (std::uint32_t p : ldt->child_ports) {
            if (auto m = FromPort(inbox, p); m.has_value()) {
              if (sender != kNoPort) {
                MergeProtocolError(node, "two children on the re-root path");
              }
              sender = p;
              new_level = m->a + 1;
              new_frag = m->b;
              have_new = true;
            }
          }
          if (sender != kNoPort) {
            // New parent = that child; old parent (if any) becomes a child.
            new_parent_port = sender;
            new_children = ldt->child_ports;
            new_children.erase(
                std::remove(new_children.begin(), new_children.end(), sender),
                new_children.end());
            if (ldt->parent_port != kNoPort) {
              new_children.push_back(ldt->parent_port);
            }
          }
        }
        if (have_new && !ldt->IsRoot()) {
          sends.push_back({ldt->parent_port,
                           Message{kTagMergeUp, new_level, new_frag, 0}});
          SMST_FLAT_AWAKE(*this, Sub(1).up_send);
        }

        // Sub-block C (Down): the second instance. Every remaining tails
        // node with still-empty NEW values adopts its old parent's value +
        // 1 (orientation unchanged).
        if (!have_new) {
          if (ldt->IsRoot()) {
            // The old root is always on the u_T -> root path.
            MergeProtocolError(
                node, "tails root has no NEW values after the up pass");
          }
          SMST_FLAT_AWAKE(*this, Sub(2).down_receive);
          const auto from_parent = FromPort(inbox, ldt->parent_port);
          if (!from_parent.has_value()) {
            MergeProtocolError(node, "no NEW values arrived in the down pass");
          }
          new_level = from_parent->a + 1;
          new_frag = from_parent->b;
          have_new = true;
        }
        // Send down to every old child except the one the NEW values came
        // from (a path node's sender child already has them and sleeps
        // through Down-Receive; skipping it keeps the protocol drop-free).
        // Every Step starts with no sends, so any here are this loop's.
        for (std::uint32_t p : ldt->child_ports) {
          if (p == new_parent_port) continue;
          sends.push_back({p, Message{kTagMergeDown, new_level, new_frag, 0}});
        }
        if (!sends.empty()) SMST_FLAT_AWAKE(*this, Sub(2).down_send);

        ldt->fragment_id = new_frag;
        ldt->level = new_level;
        ldt->parent_port = new_parent_port;
      }
      ldt->child_ports = std::move(new_children);
      return kFlatDone;
  }
}

// --- Fast-Awake-Coloring -------------------------------------------------

Round FlatColoring::Begin(const FlatNodeRef& node, const LdtState& l,
                          BlockCursor& cursor,
                          std::span<const NbrEntry> nbr_in,
                          std::span<const HPort> h_ports_in,
                          SendLane& sends) {
  ldt = &l;
  h_ports = h_ports_in;
  n = node.NumNodesKnown();
  block_len = ScheduleBlockLength(n);
  base = cursor.NextRound();
  // Claim all N stages' blocks up front; the stages this node sleeps
  // through cost nothing but this local arithmetic.
  cursor.SkipBlocks(kColoringBlocksPerStage * node.MaxIdKnown());

  // The (at most 5) stages this node participates in, in stage order.
  stages.clear();
  stages.push_back(l.fragment_id);
  for (const NbrEntry& e : nbr_in) stages.push_back(e.frag_id);
  std::sort(stages.begin(), stages.end());
  stages.erase(std::unique(stages.begin(), stages.end()), stages.end());
  pc = 0;
  return Resume(node, kEmptyInbox, sends);
}

Round FlatColoring::Resume(const FlatNodeRef& node,
                           std::span<const InMessage> inbox,
                           SendLane& sends) {
  switch (pc) {
    default:
      throw std::logic_error("flat program: corrupt pc");
    case 0:
      result = ColoringResult{};
      for (stage_i = 0; stage_i < stages.size(); ++stage_i) {
        stage = stages[stage_i];
        // Blocks 0-4: Upcast-Min (choice), Fragment-Broadcast (choice),
        // Transmit-Adjacent (announce), Upcast-Min (received color),
        // Fragment-Broadcast (received).
        stage_start = base + (stage - 1) * kColoringBlocksPerStage * block_len;

        if (stage == ldt->fragment_id) {
          // Our turn. All earlier-colored neighbors are in
          // neighbor_colors, so every node of the fragment computes the
          // same greedy choice.
          SMST_FLAT_SUB(*this, umin, umin.Begin(node, *ldt, StageBlock(0), UpcastItem{static_cast<std::uint64_t>(ColoringGreedyChoice(result.neighbor_colors)), 0, 0}, sends));
          SMST_FLAT_SUB(*this, bcast, bcast.Begin(node, *ldt, StageBlock(1), Message{kTagColorChoice, umin.best.key, 0, 0}, sends));
          result.my_color = ColoringCheckedColor(bcast.msg.a);
          // Announce to neighbor fragments over the valid-MOE edges.
          if (!h_ports.empty()) {
            for (const HPort& hp : h_ports) {
              sends.push_back(
                  {hp.port,
                   Message{kTagColorAnnounce,
                           static_cast<std::uint64_t>(result.my_color),
                           ldt->fragment_id, 0}});
            }
            SMST_FLAT_AWAKE(*this, TransmissionSchedule(StageBlock(2), ldt->level, n).side);
          }
          // Blocks 3 and 4 belong to the listening side; we sleep.
          continue;
        }

        // A neighbor's turn: learn its color fragment-wide.
        heard = UpcastItem{};  // absent unless we border fragment `stage`
        if (std::any_of(h_ports.begin(), h_ports.end(),
                        [this](const HPort& hp) {
                          return hp.neighbor_frag == stage;
                        })) {
          SMST_FLAT_AWAKE(*this, TransmissionSchedule(StageBlock(2), ldt->level, n).side);
          for (const InMessage& m : inbox) {
            if (m.msg.type == kTagColorAnnounce && m.msg.b == stage) {
              heard = UpcastItem{m.msg.a, stage, 0};
            }
          }
        }
        SMST_FLAT_SUB(*this, umin, umin.Begin(node, *ldt, StageBlock(3), heard, sends));
        SMST_FLAT_SUB(*this, bcast, bcast.Begin(node, *ldt, StageBlock(4), Message{kTagColorNbr, umin.best.key, stage, 0}, sends));
        // Stages ascend, so appending keeps the list in ascending ID order.
        result.neighbor_colors.push_back(
            {stage, ColoringCheckedColor(bcast.msg.a)});
      }
      return kFlatDone;
  }
}

}  // namespace smst
