// Deterministic fault-injection adversary for the sleeping-model runtime.
//
// A FaultPlan is a composable list of FaultRules installed on
// SchedulerOptions and consulted at message-delivery and wake-registration
// time. Every fault decision is a pure function of
// (plan salt ^ run seed, rule index, event coordinates) hashed through
// SplitMix64 — a counter-based PRNG stream dedicated to the adversary —
// so a faulted run is bit-reproducible and replayable: the same plan and
// seed produce the identical RunOutcome, metrics, and trace regardless of
// thread count or iteration order, and the adversary never perturbs the
// algorithms' own randomness (which flows from the per-node streams).
//
// Rule kinds (see DESIGN.md §10 for the full semantics):
//   kDrop       destroy a message at delivery time
//   kDelay      defer a message by `param` rounds; it is delivered iff the
//               receiver is awake in the deferred round, else it is lost
//               and counted as a model drop charged to the sender
//   kDuplicate  deliver one extra copy of a message in the same round
//   kWakeJitter perturb a node's Awake round by a uniform offset in
//               [-param, +param], clamped to stay strictly in the future
//   kCrash      crash-stop: every wake of the victim at or after
//               `from_round` is suppressed; the node halts forever
//
// Each rule has an activation window [from_round, to_round], an optional
// single-node filter, and a probability applied per eligible event (for
// kCrash the probability is drawn once per node, not per wake).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "smst/graph/graph.h"

namespace smst {

// Also defined (identically) in runtime/scheduler.h; redeclaring an alias
// with the same type is well-formed and avoids a header cycle.
using Round = std::uint64_t;

inline constexpr Round kMaxRound = ~Round{0};

enum class FaultKind : std::uint8_t {
  kDrop,
  kDelay,
  kDuplicate,
  kWakeJitter,
  kCrash,
};

const char* FaultKindName(FaultKind k);

struct FaultRule {
  FaultKind kind = FaultKind::kDrop;
  // Applied per eligible event (per message for kDrop/kDelay/kDuplicate,
  // per wake for kWakeJitter, once per node for kCrash).
  double probability = 1.0;
  // Restrict the rule to one node (the message *sender* for message
  // rules, the victim for kWakeJitter/kCrash); kInvalidNode = any node.
  NodeIndex node = kInvalidNode;
  // Activation window on the event's round (for kCrash: the crash round).
  Round from_round = 1;
  Round to_round = kMaxRound;
  // kDelay: rounds of deferral; kWakeJitter: jitter radius d. Unused
  // otherwise.
  std::uint64_t param = 0;

  friend bool operator==(const FaultRule&, const FaultRule&) = default;
};

struct FaultPlan {
  // Mixed with the run seed into the adversary's dedicated stream; two
  // plans differing only in salt realize independent fault patterns on
  // the same run.
  std::uint64_t salt = 0;
  std::vector<FaultRule> rules;

  bool Empty() const { return rules.empty(); }
  std::string ToString() const;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

// Parses the CLI/bench spec grammar: comma-separated items, each
//   drop=P[@NODE]         probabilistic drop (sender-filtered with @NODE)
//   delay=K[:P][@NODE]    delay by K rounds with probability P (default 1)
//   dup=P[@NODE]          duplicate with probability P
//   jitter=D[:P][@NODE]   wake jitter radius D with probability P (default 1)
//   crash=R[:P][@NODE]    crash-stop at round R (probability drawn once
//                         per node; default 1 — with no @NODE filter and
//                         P=1 every node halts at R)
//   salt=S                adversary stream salt (integer; at most once)
// Every number is one whole token: integers are unsigned decimals (no
// sign, whitespace or hex form), probabilities finite decimals in [0, 1],
// and NODE is below kInvalidNode, which stands for "every node".
// ToString prints a plan this function reads back exactly.
// Example: "drop=0.01,jitter=2". Throws std::invalid_argument on errors.
FaultPlan ParseFaultPlan(const std::string& spec);

// Counters of what the adversary actually did in one run; part of
// RunOutcome so replays can be compared end to end.
struct FaultStats {
  std::uint64_t injected_drops = 0;       // messages destroyed at delivery
  std::uint64_t injected_delays = 0;      // messages deferred
  std::uint64_t delayed_delivered = 0;    // deferred messages that arrived
  std::uint64_t delayed_lost = 0;         // deferred messages that hit sleepers
  std::uint64_t injected_duplicates = 0;  // extra copies created
  std::uint64_t jittered_wakes = 0;       // wakes moved by jitter
  std::uint64_t suppressed_wakes = 0;     // wakes swallowed by crash-stop
  std::uint64_t crashed_nodes = 0;        // nodes with >= 1 suppressed wake

  // Adds `other`'s counters into this object. Every event is counted by
  // exactly one shard session (message verdicts at the sender, delayed
  // bookkeeping at the receiver, wake faults at the owner), so summing
  // per-shard stats reproduces the serial engine's totals.
  void MergeFrom(const FaultStats& other) {
    injected_drops += other.injected_drops;
    injected_delays += other.injected_delays;
    delayed_delivered += other.delayed_delivered;
    delayed_lost += other.delayed_lost;
    injected_duplicates += other.injected_duplicates;
    jittered_wakes += other.jittered_wakes;
    suppressed_wakes += other.suppressed_wakes;
    crashed_nodes += other.crashed_nodes;
  }

  friend bool operator==(const FaultStats&, const FaultStats&) = default;
};

// One run's view of a FaultPlan: owns the derived adversary stream, the
// per-node crash decisions, and the injection counters. Stateless across
// events apart from the counters — every verdict is a hash of the event
// coordinates, which is what makes replays exact.
class FaultSession {
 public:
  // `plan` is borrowed and may be null (the fault-free session; every
  // verdict is then a no-op). `num_nodes` sizes the crash table.
  FaultSession(const FaultPlan* plan, std::uint64_t run_seed,
               std::size_t num_nodes);

  bool Active() const { return active_; }

  // Delivery-time verdict for one message, identified by its invariant
  // coordinates (sender, sender's port, send round).
  struct MessageVerdict {
    bool drop = false;
    Round delay = 0;       // 0 = deliver now
    bool duplicate = false;
  };
  MessageVerdict OnMessage(NodeIndex src, std::uint32_t port, Round round);

  // Wake perturbation: returns the (possibly jittered) round, clamped to
  // at least `min_round`. Counts the wake as jittered iff it moved.
  Round PerturbWake(NodeIndex node, Round requested, Round min_round);

  // True iff `node`'s wake at `round` is swallowed by a crash-stop rule.
  // Counts the suppression (and the node's crash, once).
  bool SuppressWake(NodeIndex node, Round round);

  // Crash round for `node` (kMaxRound = never crashes). Pure query.
  Round CrashRound(NodeIndex node) const;

  const FaultStats& Stats() const { return stats_; }
  // Mutation hooks for the scheduler's delayed-delivery bookkeeping.
  void CountDelayedDelivered() { ++stats_.delayed_delivered; }
  void CountDelayedLost() { ++stats_.delayed_lost; }

 private:
  std::uint64_t EventHash(std::size_t rule_index, std::uint64_t a,
                          std::uint64_t b, std::uint64_t c) const;
  bool Matches(const FaultRule& r, NodeIndex node, Round round) const;

  const FaultPlan* plan_ = nullptr;
  bool active_ = false;
  std::uint64_t stream_seed_ = 0;
  // node -> first round from which its wakes are suppressed (kMaxRound =
  // healthy). Resolved once at construction so SuppressWake is a load.
  std::vector<Round> crash_round_;
  std::vector<std::uint8_t> crash_counted_;
  FaultStats stats_;
};

}  // namespace smst
