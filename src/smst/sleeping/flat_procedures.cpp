#include "smst/sleeping/flat_procedures.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "smst/faults/run_outcome.h"

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
                           SendBatch& sends, std::size_t span) {
  ldt = &l;
  down_send = TransmissionSchedule(block_start, l.level,
                                   span == 0 ? node.NumNodesKnown() : span)
                  .down_send;
  msg = root_msg;
  if (!l.IsRoot()) {
    pc = 1;
    return down_send - 1;  // Down-Receive
  }
  return SendDown(sends);
}

Round FlatBroadcast::Resume(const FlatNodeRef& node, const InboxBatch& inbox,
                            SendBatch& sends) {
  if (pc == 1) {
    const auto from_parent = FromPort(inbox, ldt->parent_port);
    if (!from_parent.has_value()) {
      // Drop-free by construction in the sleeping model, so a missing
      // parent message is a fault effect: classified, not a crash.
      throw ProtocolStallError(
          "FragmentBroadcast: node " + std::to_string(node.Id()) +
          " heard nothing from its parent in its Down-Receive round");
    }
    msg = *from_parent;
    return SendDown(sends);
  }
  return kFlatDone;  // pc == 2: the Down-Send awake completed
}

Round FlatBroadcast::SendDown(SendBatch& sends) {
  if (!ldt->child_ports.empty()) {
    for (std::uint32_t p : ldt->child_ports) sends.push_back({p, msg});
    pc = 2;
    return down_send;
  }
  return kFlatDone;
}

// --- Upcast-Min --------------------------------------------------------

Round FlatUpcastMin::Begin(const FlatNodeRef& node, const LdtState& l,
                           Round block_start, UpcastItem own, SendBatch& sends,
                           std::size_t span) {
  ldt = &l;
  up_receive = TransmissionSchedule(block_start, l.level,
                                    span == 0 ? node.NumNodesKnown() : span)
                   .up_receive;
  best = own;
  if (!l.child_ports.empty()) {
    pc = 1;
    return up_receive;
  }
  return SendUp(sends);
}

Round FlatUpcastMin::Resume(const FlatNodeRef& /*node*/,
                            const InboxBatch& inbox, SendBatch& sends) {
  if (pc == 1) {
    for (std::uint32_t p : ldt->child_ports) {
      if (auto m = FromPort(inbox, p); m.has_value()) {
        UpcastItem item{m->a, m->b, m->c};
        if (item < best) best = item;
      }
    }
    return SendUp(sends);
  }
  return kFlatDone;  // pc == 2: the Up-Send awake completed
}

Round FlatUpcastMin::SendUp(SendBatch& sends) {
  if (!ldt->IsRoot() && !best.Absent()) {
    sends.push_back({ldt->parent_port,
                     Message{kTagUpcastMin, best.key, best.b, best.c}});
    pc = 2;
    return up_receive + 1;  // Up-Send
  }
  return kFlatDone;
}

// --- Upcast-Sum --------------------------------------------------------

Round FlatUpcastSum::Begin(const FlatNodeRef& node, const LdtState& l,
                           Round block_start, std::uint64_t own,
                           SendBatch& sends, std::size_t span) {
  ldt = &l;
  up_receive = TransmissionSchedule(block_start, l.level,
                                    span == 0 ? node.NumNodesKnown() : span)
                   .up_receive;
  result = UpcastSumResult{};
  result.subtree_total = own;
  if (!l.child_ports.empty()) {
    pc = 1;
    return up_receive;
  }
  return SendUp(sends);
}

Round FlatUpcastSum::Resume(const FlatNodeRef& /*node*/,
                            const InboxBatch& inbox, SendBatch& sends) {
  if (pc == 1) {
    for (std::uint32_t p : ldt->child_ports) {
      std::uint64_t child_total = 0;
      if (auto m = FromPort(inbox, p); m.has_value()) child_total = m->a;
      result.child_totals.emplace_back(p, child_total);
      result.subtree_total += child_total;
    }
    return SendUp(sends);
  }
  return kFlatDone;  // pc == 2: the Up-Send awake completed
}

Round FlatUpcastSum::SendUp(SendBatch& sends) {
  if (!ldt->IsRoot() && result.subtree_total > 0) {
    sends.push_back({ldt->parent_port,
                     Message{kTagUpcastSum, result.subtree_total, 0, 0}});
    pc = 2;
    return up_receive + 1;  // Up-Send
  }
  return kFlatDone;
}

// --- Merging-Fragments --------------------------------------------------

Round FlatMerge::Begin(const FlatNodeRef& node, LdtState& l,
                       BlockCursor& cursor, MergeRole r,
                       std::span<std::uint8_t> marks, SendBatch& sends) {
  ldt = &l;
  mark = marks.data();
  role = r;
  // The schedule span comes from the cursor so the adaptive-blocks
  // optimization applies here too.
  span = cursor.Span();
  block_a = cursor.NextRound();
  cursor.SkipBlocks(kMergeBlocks);

  // Pending NEW-* values (the paper's NEW-FRAGMENT-ID / NEW-LEVEL-NUM)
  // and re-orientation, applied only in Finalize.
  have_new = false;
  new_frag = 0;
  new_level = 0;
  new_parent_port = l.parent_port;
  new_children = l.child_ports;

  // Sub-block A: Side exchange of (fragment ID, level, ATTACH).
  for (std::uint32_t p = 0; p < node.Degree(); ++p) {
    const std::uint64_t attach =
        (role.is_tails && p == role.attach_port) ? 1 : 0;
    sends.push_back(
        {p, Message{kTagMergeSide, l.fragment_id, l.level, attach}});
  }
  pc = 1;
  return Sub(0).side;
}

Round FlatMerge::Resume(const FlatNodeRef& node, const InboxBatch& inbox,
                        SendBatch& sends) {
  switch (pc) {
    case 1: {  // sub-block A inbox
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
      if (!role.is_tails) return Finalize();  // heads: B and C are sleep
      return EnterB(node, sends);
    }
    case 2: {  // sub-block B Up-Receive inbox (tails only): the NEW values
               // travel from u_T to the old root; each path node
               // re-orients toward the child it heard from
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
      return MaybeUpSend(node, sends);
    }
    case 3:  // sub-block B Up-Send completed
      return EnterC(node, sends);
    case 4: {  // sub-block C Down-Receive inbox: still-empty nodes adopt
               // (old parent's NEW level + 1), orientation unchanged
      const auto m = FromPort(inbox, ldt->parent_port);
      if (!m.has_value()) {
        MergeProtocolError(node, "no NEW values arrived in the down pass");
      }
      new_level = m->a + 1;
      new_frag = m->b;
      have_new = true;
      return SendDownC(sends);
    }
    default:  // pc == 5: sub-block C Down-Send completed
      return Finalize();
  }
}

ScheduleRounds FlatMerge::Sub(std::uint64_t k) const {
  return TransmissionSchedule(block_a + k * ScheduleBlockLength(span),
                              ldt->level, span);
}

Round FlatMerge::EnterB(const FlatNodeRef& node, SendBatch& sends) {
  if (!ldt->child_ports.empty()) {
    pc = 2;
    return Sub(1).up_receive;
  }
  return MaybeUpSend(node, sends);
}

Round FlatMerge::MaybeUpSend(const FlatNodeRef& node, SendBatch& sends) {
  if (have_new && !ldt->IsRoot()) {
    sends.push_back({ldt->parent_port,
                     Message{kTagMergeUp, new_level, new_frag, 0}});
    pc = 3;
    return Sub(1).up_send;
  }
  // Skip straight to sub-block C without pushing anything.
  return EnterC(node, sends);
}

Round FlatMerge::EnterC(const FlatNodeRef& node, SendBatch& sends) {
  if (!have_new) {
    if (ldt->IsRoot()) {
      // The old root is always on the u_T -> root path.
      MergeProtocolError(node, "tails root has no NEW values after the up pass");
    }
    pc = 4;
    return Sub(2).down_receive;
  }
  return SendDownC(sends);
}

Round FlatMerge::SendDownC(SendBatch& sends) {
  // Send down to every old child except the one the NEW values came from
  // (a path node's sender child already has them and sleeps through
  // Down-Receive; skipping it keeps the protocol drop-free).
  const std::size_t before = sends.size();
  for (std::uint32_t p : ldt->child_ports) {
    if (p == new_parent_port) continue;
    sends.push_back({p, Message{kTagMergeDown, new_level, new_frag, 0}});
  }
  if (sends.size() > before) {
    pc = 5;
    return Sub(2).down_send;
  }
  return Finalize();
}

Round FlatMerge::Finalize() {
  if (role.is_tails) {
    ldt->fragment_id = new_frag;
    ldt->level = new_level;
    ldt->parent_port = new_parent_port;
  }
  // Heads fragments keep ID / level / parent, and gain attach children.
  ldt->child_ports = std::move(new_children);
  return kFlatDone;
}

// --- Fast-Awake-Coloring -------------------------------------------------

Round FlatColoring::Begin(const FlatNodeRef& node, const LdtState& l,
                          BlockCursor& cursor,
                          std::span<const NbrEntry> nbr_in,
                          std::span<const HPort> h_ports_in,
                          SendBatch& sends) {
  ldt = &l;
  h_ports = h_ports_in;
  n = node.NumNodesKnown();
  const NodeId max_id = node.MaxIdKnown();
  block_len = ScheduleBlockLength(n);
  base = cursor.NextRound();
  // Claim all N stages' blocks up front; the stages this node sleeps
  // through cost nothing but this local arithmetic.
  cursor.SkipBlocks(kColoringBlocksPerStage * max_id);

  // The (at most 5) stages this node participates in, in stage order.
  stages.clear();
  stages.push_back(l.fragment_id);
  for (const NbrEntry& e : nbr_in) stages.push_back(e.frag_id);
  std::sort(stages.begin(), stages.end());
  stages.erase(std::unique(stages.begin(), stages.end()), stages.end());

  result = ColoringResult{};
  stage_i = 0;
  return NextStage(node, sends);
}

Round FlatColoring::Resume(const FlatNodeRef& node, const InboxBatch& inbox,
                           SendBatch& sends) {
  switch (pc) {
    case 1: {  // own turn: Upcast-Min (choice)
      const Round r = umin.Resume(node, inbox, sends);
      if (r != kFlatDone) return r;
      return OwnAfterUmin(node, sends);
    }
    case 2: {  // own turn: Fragment-Broadcast (choice)
      const Round r = bcast.Resume(node, inbox, sends);
      if (r != kFlatDone) return r;
      return OwnAfterBcast(node, sends);
    }
    case 3:  // own turn: announce Transmit-Adjacent completed
      return EndStage(node, sends);
    case 4:  // listener: Transmit-Adjacent inbox
      for (const InMessage& m : inbox) {
        if (m.msg.type == kTagColorAnnounce && m.msg.b == stage) {
          heard = UpcastItem{m.msg.a, stage, 0};
        }
      }
      return ListenerAfterTransmit(node, sends);
    case 5: {  // listener: Upcast-Min (received color)
      const Round r = umin.Resume(node, inbox, sends);
      if (r != kFlatDone) return r;
      return ListenerAfterUmin(node, sends);
    }
    default: {  // pc == 6: listener: Fragment-Broadcast (received)
      const Round r = bcast.Resume(node, inbox, sends);
      if (r != kFlatDone) return r;
      return ListenerAfterBcast(node, sends);
    }
  }
}

Round FlatColoring::NextStage(const FlatNodeRef& node, SendBatch& sends) {
  if (stage_i == stages.size()) return kFlatDone;
  stage = stages[stage_i];
  // Blocks 0-4: Upcast-Min (choice), Fragment-Broadcast (choice),
  // Transmit-Adjacent (announce), Upcast-Min (received color),
  // Fragment-Broadcast (received).
  stage_start = base + (stage - 1) * kColoringBlocksPerStage * block_len;

  if (stage == ldt->fragment_id) {
    // Our turn. All earlier-colored neighbors are in neighbor_colors,
    // so every node of the fragment computes the same greedy choice.
    const FragColor choice = ColoringGreedyChoice(result.neighbor_colors);
    const UpcastItem offer{static_cast<std::uint64_t>(choice), 0, 0};
    const Round r = umin.Begin(node, *ldt, StageBlock(0), offer, sends);
    if (r != kFlatDone) {
      pc = 1;
      return r;
    }
    return OwnAfterUmin(node, sends);
  }
  // A neighbor's turn: learn its color fragment-wide.
  heard = UpcastItem{};  // absent unless we border fragment `stage`
  bool borders_stage = false;
  for (const HPort& hp : h_ports) borders_stage |= hp.neighbor_frag == stage;
  if (borders_stage) {
    pc = 4;
    return TransmissionSchedule(StageBlock(2), ldt->level, n).side;
  }
  return ListenerAfterTransmit(node, sends);
}

Round FlatColoring::OwnAfterUmin(const FlatNodeRef& node, SendBatch& sends) {
  const Round r = bcast.Begin(node, *ldt, StageBlock(1),
                              Message{kTagColorChoice, umin.best.key, 0, 0},
                              sends);
  if (r != kFlatDone) {
    pc = 2;
    return r;
  }
  return OwnAfterBcast(node, sends);
}

Round FlatColoring::OwnAfterBcast(const FlatNodeRef& node, SendBatch& sends) {
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
    pc = 3;
    return TransmissionSchedule(StageBlock(2), ldt->level, n).side;
  }
  // Blocks 3 and 4 belong to the listening side; we sleep.
  return EndStage(node, sends);
}

Round FlatColoring::ListenerAfterTransmit(const FlatNodeRef& node,
                                          SendBatch& sends) {
  const Round r = umin.Begin(node, *ldt, StageBlock(3), heard, sends);
  if (r != kFlatDone) {
    pc = 5;
    return r;
  }
  return ListenerAfterUmin(node, sends);
}

Round FlatColoring::ListenerAfterUmin(const FlatNodeRef& node,
                                      SendBatch& sends) {
  const Round r = bcast.Begin(node, *ldt, StageBlock(4),
                              Message{kTagColorNbr, umin.best.key, stage, 0},
                              sends);
  if (r != kFlatDone) {
    pc = 6;
    return r;
  }
  return ListenerAfterBcast(node, sends);
}

Round FlatColoring::ListenerAfterBcast(const FlatNodeRef& node,
                                       SendBatch& sends) {
  // Stages ascend, so appending keeps the list in ascending ID order.
  result.neighbor_colors.push_back({stage, ColoringCheckedColor(bcast.msg.a)});
  return EndStage(node, sends);
}

Round FlatColoring::EndStage(const FlatNodeRef& node, SendBatch& sends) {
  ++stage_i;
  return NextStage(node, sends);
}

}  // namespace smst
