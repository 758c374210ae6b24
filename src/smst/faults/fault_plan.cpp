#include "smst/faults/fault_plan.h"

#include <charconv>
#include <sstream>
#include <stdexcept>

#include "smst/util/parse.h"
#include "smst/util/prng.h"

namespace smst {

namespace {

// Counter-based hashing: fold each coordinate into a SplitMix64 walk.
// Every adversary decision is one of these — no sequential generator
// state, so verdicts are independent of the order events are examined in.
std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  SplitMix64 sm(h ^ (v + 0x9e3779b97f4a7c15ULL));
  return sm.Next();
}

double HashToUnit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

const char* FaultKindName(FaultKind k) {
  switch (k) {
    case FaultKind::kDrop: return "drop";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kDuplicate: return "dup";
    case FaultKind::kWakeJitter: return "jitter";
    case FaultKind::kCrash: return "crash";
  }
  return "?";
}

namespace {

// The shortest text that reads back as exactly `p` ("0.003", "1e-05"):
// %g-style, so a short probability prints as it always did.
std::string ProbabilityText(double p) {
  char buf[32];
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof buf, p, std::chars_format::general);
  return std::string(buf, end);
}

}  // namespace

std::string FaultPlan::ToString() const {
  std::ostringstream out;
  bool first = true;
  if (salt != 0) {
    out << "salt=" << salt;
    first = false;
  }
  for (const FaultRule& r : rules) {
    if (!first) out << ",";
    first = false;
    out << FaultKindName(r.kind) << "=";
    switch (r.kind) {
      case FaultKind::kDrop:
      case FaultKind::kDuplicate:
        out << ProbabilityText(r.probability);
        break;
      case FaultKind::kDelay:
      case FaultKind::kWakeJitter:
        out << r.param;
        if (r.probability != 1.0) out << ":" << ProbabilityText(r.probability);
        break;
      case FaultKind::kCrash:
        out << r.from_round;
        if (r.probability != 1.0) out << ":" << ProbabilityText(r.probability);
        break;
    }
    if (r.node != kInvalidNode) out << "@" << r.node;
  }
  return out.str();
}

namespace {

[[noreturn]] void SpecError(const std::string& item, const std::string& why) {
  throw std::invalid_argument("bad fault-plan item '" + item + "': " + why);
}

// A probability: an unsigned finite decimal in [0, 1] ("-0" and NaN are
// not probabilities).
double ParseProb(const std::string& item, const std::string& s) {
  const std::optional<double> p = ParseFiniteDecimal(s);
  if (!p || s.front() == '-' || *p > 1.0) {
    SpecError(item, "probability must be a decimal in [0, 1], got '" + s +
                        "'");
  }
  return *p;
}

std::uint64_t ParseUint(const std::string& item, const std::string& s) {
  const std::optional<std::uint64_t> v = ParseDecimalUint(s);
  if (!v) SpecError(item, "expected an unsigned integer, got '" + s + "'");
  return *v;
}

}  // namespace

FaultPlan ParseFaultPlan(const std::string& spec) {
  FaultPlan plan;
  bool has_salt = false;
  std::istringstream items(spec);
  std::string item;
  while (std::getline(items, item, ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos) SpecError(item, "expected key=value");
    const std::string key = item.substr(0, eq);
    std::string value = item.substr(eq + 1);

    // Peel the optional @NODE and :PROB suffixes (in either order they
    // were written; @ binds last in the grammar).
    NodeIndex node = kInvalidNode;
    if (const auto at = value.find('@'); at != std::string::npos) {
      const std::uint64_t target = ParseUint(item, value.substr(at + 1));
      // kInvalidNode, the top NodeIndex, stands for "every node".
      if (target >= kInvalidNode) {
        SpecError(item, "@NODE must be below " + std::to_string(kInvalidNode));
      }
      node = static_cast<NodeIndex>(target);
      value = value.substr(0, at);
    }
    double prob = 1.0;
    bool has_prob = false;
    if (const auto colon = value.find(':'); colon != std::string::npos) {
      prob = ParseProb(item, value.substr(colon + 1));
      has_prob = true;
      value = value.substr(0, colon);
    }
    if (value.empty()) SpecError(item, "missing value");

    if (key == "salt") {
      if (has_prob || node != kInvalidNode) {
        SpecError(item, "salt takes no :P or @NODE");
      }
      // Rules add up, but a plan has one salt: a second one is an error,
      // not "last one wins".
      if (has_salt) SpecError(item, "salt given more than once");
      has_salt = true;
      plan.salt = ParseUint(item, value);
      continue;
    }
    FaultRule rule;
    rule.node = node;
    rule.probability = prob;
    if (key == "drop" || key == "dup") {
      rule.kind = key == "drop" ? FaultKind::kDrop : FaultKind::kDuplicate;
      if (has_prob) SpecError(item, "use " + key + "=P, not :P");
      rule.probability = ParseProb(item, value);
    } else if (key == "delay" || key == "jitter") {
      rule.kind = key == "delay" ? FaultKind::kDelay : FaultKind::kWakeJitter;
      rule.param = ParseUint(item, value);
      if (rule.param == 0) SpecError(item, key + " needs a positive value");
    } else if (key == "crash") {
      rule.kind = FaultKind::kCrash;
      rule.from_round = ParseUint(item, value);
      if (rule.from_round == 0) SpecError(item, "crash round starts at 1");
    } else {
      SpecError(item, "unknown rule '" + key + "'");
    }
    plan.rules.push_back(rule);
  }
  return plan;
}

FaultSession::FaultSession(const FaultPlan* plan, std::uint64_t run_seed,
                           std::size_t num_nodes)
    : plan_(plan), active_(plan != nullptr && !plan->Empty()) {
  if (!active_) return;
  stream_seed_ = Mix(Mix(0x5eed0fa417ULL, plan->salt), run_seed);
  crash_round_.assign(num_nodes, kMaxRound);
  crash_counted_.assign(num_nodes, 0);
  for (std::size_t i = 0; i < plan_->rules.size(); ++i) {
    const FaultRule& r = plan_->rules[i];
    if (r.kind != FaultKind::kCrash) continue;
    for (NodeIndex v = 0; v < num_nodes; ++v) {
      if (r.node != kInvalidNode && r.node != v) continue;
      // One draw per (rule, node): a crash is a property of the node, not
      // of an individual wake.
      if (r.probability < 1.0 &&
          HashToUnit(EventHash(i, v, 0, 0)) >= r.probability) {
        continue;
      }
      if (r.from_round < crash_round_[v]) crash_round_[v] = r.from_round;
    }
  }
}

std::uint64_t FaultSession::EventHash(std::size_t rule_index, std::uint64_t a,
                                      std::uint64_t b, std::uint64_t c) const {
  return Mix(Mix(Mix(Mix(stream_seed_, rule_index), a), b), c);
}

bool FaultSession::Matches(const FaultRule& r, NodeIndex node,
                           Round round) const {
  if (r.node != kInvalidNode && r.node != node) return false;
  return round >= r.from_round && round <= r.to_round;
}

FaultSession::MessageVerdict FaultSession::OnMessage(NodeIndex src,
                                                     std::uint32_t port,
                                                     Round round) {
  MessageVerdict v;
  if (!active_) return v;
  for (std::size_t i = 0; i < plan_->rules.size(); ++i) {
    const FaultRule& r = plan_->rules[i];
    switch (r.kind) {
      case FaultKind::kDrop:
      case FaultKind::kDelay:
      case FaultKind::kDuplicate:
        break;
      default:
        continue;
    }
    if (!Matches(r, src, round)) continue;
    if (r.probability < 1.0 &&
        HashToUnit(EventHash(i, src, round, port)) >= r.probability) {
      continue;
    }
    switch (r.kind) {
      case FaultKind::kDrop:
        // Drop beats everything else; no need to look further.
        ++stats_.injected_drops;
        v.drop = true;
        return v;
      case FaultKind::kDelay:
        if (v.delay == 0) {
          ++stats_.injected_delays;
          v.delay = r.param;
        }
        break;
      case FaultKind::kDuplicate:
        if (!v.duplicate) {
          ++stats_.injected_duplicates;
          v.duplicate = true;
        }
        break;
      default:
        break;
    }
  }
  return v;
}

Round FaultSession::PerturbWake(NodeIndex node, Round requested,
                                Round min_round) {
  Round r = requested;
  if (active_) {
    for (std::size_t i = 0; i < plan_->rules.size(); ++i) {
      const FaultRule& rule = plan_->rules[i];
      if (rule.kind != FaultKind::kWakeJitter) continue;
      if (!Matches(rule, node, requested)) continue;
      const std::uint64_t h = EventHash(i, node, requested, 1);
      if (rule.probability < 1.0 && HashToUnit(h) >= rule.probability) {
        continue;
      }
      // Uniform offset in [-d, +d] from a second hash (the first decided
      // eligibility; reusing it would bias the offset towards small p).
      const std::uint64_t span = 2 * rule.param + 1;
      const std::int64_t offset =
          static_cast<std::int64_t>(EventHash(i, node, requested, 2) % span) -
          static_cast<std::int64_t>(rule.param);
      if (offset < 0 && r <= static_cast<std::uint64_t>(-offset)) {
        r = 1;
      } else {
        r = static_cast<Round>(static_cast<std::int64_t>(r) + offset);
      }
    }
  }
  if (r < min_round) r = min_round;
  if (r != requested) ++stats_.jittered_wakes;
  return r;
}

Round FaultSession::CrashRound(NodeIndex node) const {
  if (!active_ || crash_round_.empty()) return kMaxRound;
  return crash_round_[node];
}

bool FaultSession::SuppressWake(NodeIndex node, Round round) {
  if (!active_ || round < crash_round_[node]) return false;
  ++stats_.suppressed_wakes;
  if (!crash_counted_[node]) {
    crash_counted_[node] = 1;
    ++stats_.crashed_nodes;
  }
  return true;
}

}  // namespace smst
