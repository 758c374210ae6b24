// perfbench_e2e: one benchmark invocation of one workload.
//
//   perfbench_e2e --workload ring-randomized --seed 1 --seconds 20
//                 [--traced 0|1] [--scale full|tiny] [--corrupt 0|1]
//                 [--spans PATH]
//
// The seed derives a pool of instances, each a (graph seed, MST seed)
// pair. The workload runs closed-loop, back to back, cycling through the
// pool for --seconds of host time (and at least once per instance),
// through the public API only: a Make* generator, then ComputeMst (or,
// for dense-chatter, a Simulator running a NodeProgram kept in this
// file), then a check of the output (VerifyExactMst for the MST
// workloads). Every call is wrapped in a span taken here, from outside
// the library. The pools are large because instances differ: one ring's
// randomized MST has up to 3x the active rounds of another's, and the
// sharded engine pays a barrier per active round.
//
// With --traced 1 every instance runs twice in a row, untraced and then
// traced: the traced run also records wake times
// (MstOptions::record_wake_times / SimulatorOptions::record_wake_times),
// which give the active-round histogram and the tracing overhead.
// Spans are kept in memory and written to --spans as JSON lines when
// the run ends.
//
// After every run, untimed, a fixed speed probe (SpeedProbe below) times
// the host, so run.py can take out the host's slow periods (serial
// workloads only).
//
// Every run's model counters must equal the first run of its instance
// (for ring-sharded: an untimed serial run of the same instance). Prints
// one JSON object on stdout: the workload parameters, each instance's
// model counters (deterministic for a seed), and the per-run wall-clock
// samples. run.py turns it into the benchmark's metrics.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <ranges>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "alloc_count.h"
#include "smst/graph/generators.h"
#include "smst/graph/mst_verify.h"
#include "smst/mst/api.h"
#include "smst/runtime/simulator.h"
#include "smst/util/args.h"
#include "smst/util/prng.h"

namespace {

using namespace smst;
using Clock = std::chrono::steady_clock;

constexpr int kChatterRounds = 32;

enum class Kind {
  kRingRandomized,
  kErDeterministic,
  kRingSharded,
  kDenseChatter
};

struct Workload {
  const char* name;
  Kind kind;
  std::size_t n;          // full size
  std::size_t tiny_n;     // self-test size
  std::size_t instances;  // pool size
};

constexpr Workload kWorkloads[] = {
    {"ring-randomized", Kind::kRingRandomized, std::size_t{1} << 12, 256, 16},
    {"er-deterministic", Kind::kErDeterministic, std::size_t{1} << 11, 128,
     16},
    {"ring-sharded", Kind::kRingSharded, std::size_t{1} << 10, 256, 64},
    {"dense-chatter", Kind::kDenseChatter, std::size_t{1} << 14, 1024, 8},
};

const Workload* FindWorkload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

struct Instance {
  std::uint64_t graph_seed = 0;
  std::uint64_t mst_seed = 0;
};

struct Config {
  const Workload* workload = nullptr;
  std::size_t n = 0;
  bool corrupt = false;
  std::uint32_t shards = 0;
};

// ------------------------------------------------------------------ spans

struct Span {
  std::uint64_t run_id;
  const char* name;
  const char* parent;  // "" for the root
  double start_s;
  double end_s;
};

class SpanLog {
 public:
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  // Records [start, now) under `name`; returns the duration.
  double Close(std::uint64_t run_id, const char* name, const char* parent,
               double start) {
    const double end = Now();
    spans_.push_back({run_id, name, parent, start, end});
    return end - start;
  }
  const std::vector<Span>& Spans() const { return spans_; }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// ---------------------------------------------------------- dense chatter

// A user-written NodeProgram: awake in rounds 1..kChatterRounds, one
// message per port every round; counts what arrives.
Task<void> ChatterNode(NodeContext& ctx, std::uint64_t* received) {
  for (Round r = 1; r <= static_cast<Round>(kChatterRounds); ++r) {
    SendBatch sends;
    for (std::uint32_t p = 0; p < ctx.Degree(); ++p) {
      sends.push_back({p, Message{1, ctx.Id(), r, 0}});
    }
    InboxBatch inbox = co_await ctx.Awake(r, std::move(sends));
    *received += inbox.size();
  }
}

// ------------------------------------------------------------ one run

// Everything deterministic about one run of an instance.
struct Model {
  RunStats stats;
  std::uint64_t phases = 0;
  std::vector<std::uint64_t> fragments_per_phase;
  std::vector<std::uint64_t> blue_per_phase;
  std::vector<EdgeIndex> tree_edges;
};

bool SameModel(const Model& a, const Model& b) {
  const RunStats& x = a.stats;
  const RunStats& y = b.stats;
  return x.rounds == y.rounds && x.max_awake == y.max_awake &&
         x.avg_awake == y.avg_awake && x.total_messages == y.total_messages &&
         x.total_bits == y.total_bits &&
         x.max_message_bits == y.max_message_bits &&
         x.dropped_messages == y.dropped_messages &&
         x.awake_node_rounds == y.awake_node_rounds && a.phases == b.phases &&
         a.fragments_per_phase == b.fragments_per_phase &&
         a.blue_per_phase == b.blue_per_phase && a.tree_edges == b.tree_edges;
}

// Awake-set sizes of the active rounds, folded from per-node wake times.
struct WakeFold {
  std::uint64_t awake_node_rounds = 0;
  std::uint64_t active_rounds = 0;
  std::uint64_t active_le8 = 0;
  std::vector<std::uint64_t> log2_hist;  // bin k: 2^k <= awake < 2^(k+1)
};

template <typename PerNode>
WakeFold FoldWakeTimes(const PerNode& per_node) {
  std::vector<std::uint64_t> all;
  for (const std::vector<std::uint64_t>& w : per_node) {
    all.insert(all.end(), w.begin(), w.end());
  }
  std::sort(all.begin(), all.end());
  WakeFold f;
  f.awake_node_rounds = all.size();
  for (std::size_t i = 0; i < all.size();) {
    std::size_t j = i;
    while (j < all.size() && all[j] == all[i]) ++j;
    const std::uint64_t awake = j - i;
    ++f.active_rounds;
    if (awake <= 8) ++f.active_le8;
    const auto bin = static_cast<std::size_t>(std::bit_width(awake) - 1);
    if (f.log2_hist.size() <= bin) f.log2_hist.resize(bin + 1, 0);
    ++f.log2_hist[bin];
    i = j;
  }
  return f;
}

struct Sample {
  std::size_t instance = 0;
  bool traced = false;
  double probe_s = 0;  // mean of the speed probes just before and after;
                       // 0 when not probed
  double run_s = 0;
  double generate_s = 0;
  double sim_s = 0;
  double verify_s = 0;
  double covered_s = 0;  // time inside the root's child spans
  std::uint64_t allocs = 0;
};

struct Outcome {
  Sample sample;
  Model model;
  std::size_t m = 0;
  NodeId max_id = 0;
  std::optional<WakeFold> wake;
  std::string error;  // "" when every check passed
};

WeightedGraph Generate(const Config& cfg, const Instance& inst) {
  Xoshiro256 rng(inst.graph_seed);
  if (cfg.workload->kind == Kind::kErDeterministic) {
    return MakeErdosRenyi(cfg.n, 8.0 / static_cast<double>(cfg.n), rng);
  }
  return MakeRing(cfg.n, rng);
}

MstOptions MstOptionsFor(const Instance& inst, std::uint32_t shards,
                         bool traced) {
  MstOptions opt;
  opt.seed = inst.mst_seed;
  opt.engine = EngineMode::kFlat;
  opt.audit = AuditMode::kOff;
  opt.shards = shards;
  opt.shard_policy = ShardPolicy::kContiguousBlocks;
  opt.record_wake_times = traced;
  return opt;
}

MstAlgorithm AlgorithmFor(const Config& cfg) {
  return cfg.workload->kind == Kind::kErDeterministic
             ? MstAlgorithm::kDeterministic
             : MstAlgorithm::kRandomized;
}

Model ModelOf(MstRunResult& r) {
  Model m;
  m.stats = r.stats;
  m.phases = r.phases;
  m.fragments_per_phase = r.fragments_per_phase;
  m.blue_per_phase = r.blue_per_phase;
  m.tree_edges = std::move(r.tree_edges);
  return m;
}

// Replaces the first tree edge by the first non-tree edge (self-test of
// the benchmark's own checks).
void CorruptTree(std::vector<EdgeIndex>& tree, std::size_t m) {
  for (EdgeIndex e = 0; e < m; ++e) {
    if (!std::binary_search(tree.begin(), tree.end(), e)) {
      tree.front() = e;
      std::sort(tree.begin(), tree.end());
      return;
    }
  }
}

// One complete run: generate, simulate, check. Spans are closed here;
// the caller closes the root span around this call.
Outcome RunOnce(const Config& cfg, const Instance& inst, bool traced,
                std::uint64_t run_id, SpanLog& log) {
  Outcome out;
  Sample& s = out.sample;
  s.traced = traced;

  double t = log.Now();
  const WeightedGraph g = Generate(cfg, inst);
  s.generate_s = log.Close(run_id, "graph.generate", "run", t);
  out.m = g.NumEdges();
  out.max_id = g.MaxId();

  std::uint64_t received = 0;
  t = log.Now();
  const std::uint64_t allocs0 = bench::AllocCount();
  if (cfg.workload->kind == Kind::kDenseChatter) {
    double fold_s = 0;
    {
      SimulatorOptions opt;
      opt.seed = inst.mst_seed;
      opt.audit = AuditMode::kOff;
      opt.record_wake_times = traced;
      Simulator sim(g, opt);
      sim.Run([&received](NodeContext& ctx) {
        return ChatterNode(ctx, &received);
      });
      s.allocs = bench::AllocCount() - allocs0;
      out.model.stats = sim.Stats();
      if (traced) {
        // Nested in runtime.run: the wake times die with the Simulator.
        const double f = log.Now();
        out.wake = FoldWakeTimes(
            sim.GetMetrics().PerNode() |
            std::views::transform(&NodeMetrics::wake_times));
        fold_s = log.Close(run_id, "trace.fold", "runtime.run", f);
      }
    }
    s.sim_s = log.Close(run_id, "runtime.run", "run", t) - fold_s;
  } else {
    MstRunResult r = ComputeMst(g, AlgorithmFor(cfg),
                                MstOptionsFor(inst, cfg.shards, traced));
    s.allocs = bench::AllocCount() - allocs0;
    s.sim_s = log.Close(run_id, "mst.compute", "run", t);
    if (traced) {
      t = log.Now();
      out.wake = FoldWakeTimes(r.wake_times);
      log.Close(run_id, "trace.fold", "run", t);
    }
    out.model = ModelOf(r);
  }

  t = log.Now();
  if (cfg.workload->kind == Kind::kDenseChatter) {
    // Every node sends on each of its 2m ports (ring: m = n) in each of
    // the 32 rounds, and every neighbour is awake to receive.
    const std::uint64_t expect_messages =
        2 * g.NumEdges() * kChatterRounds + (cfg.corrupt ? 1 : 0);
    const RunStats& st = out.model.stats;
    if (st.total_messages != expect_messages) {
      out.error = "dense-chatter: messages " +
                  std::to_string(st.total_messages) + " != 2*m*32 = " +
                  std::to_string(expect_messages);
    } else if (st.awake_node_rounds != cfg.n * kChatterRounds) {
      out.error = "dense-chatter: awake node-rounds " +
                  std::to_string(st.awake_node_rounds) + " != 32*n";
    } else if (received != expect_messages) {
      out.error = "dense-chatter: received " + std::to_string(received) +
                  " != sent " + std::to_string(expect_messages);
    }
  } else {
    if (cfg.corrupt) CorruptTree(out.model.tree_edges, g.NumEdges());
    const MstCheck check = VerifyExactMst(g, out.model.tree_edges);
    if (!check.ok) out.error = "VerifyExactMst: " + check.error;
  }
  s.verify_s = log.Close(run_id, "graph.verify", "run", t);
  if (out.error.empty() && out.wake &&
      out.wake->awake_node_rounds != out.model.stats.awake_node_rounds) {
    out.error = "wake times hold " +
                std::to_string(out.wake->awake_node_rounds) +
                " awake node-rounds, RunStats " +
                std::to_string(out.model.stats.awake_node_rounds);
  }
  return out;
}

// ------------------------------------------------------ host speed probe

// A fixed kernel, independent of the library, timed between runs: a
// chain of dependent loads around one random cycle through 32 KiB, which
// fits one core's 48 KiB L1d. On a shared host (a 4-vCPU Xeon VM,
// measured) the same code runs up to 1.5x slower for minutes at a time,
// and this chain slows with it: an invocation whose ring-randomized runs
// took 43 % longer than those of two earlier ones on the same seed was
// within 8 % of them once each run was divided by its probe; an ALU-only
// kernel removed a quarter of that gap, chains through 1 MiB and 32 MiB
// a half and a third. run.py divides each run's times by the probe
// times around it.
class SpeedProbe {
 public:
  SpeedProbe() : next_(kNodes) {
    std::vector<std::uint32_t> order(kNodes);
    for (std::uint32_t i = 0; i < kNodes; ++i) order[i] = i;
    Xoshiro256 rng(0x5eed);
    for (std::uint32_t i = kNodes - 1; i > 0; --i) {
      std::swap(order[i], order[rng.NextBelow(i + 1)]);
    }
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      next_[order[i]] = order[(i + 1) % kNodes];
    }
  }

  // Host seconds for kSteps loads.
  double Measure() {
    const auto t0 = Clock::now();
    std::uint32_t p = 0;
    for (std::uint32_t k = 0; k < kSteps; ++k) p = next_[p];
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    sink_ = p;  // keeps the loads
    return s;
  }

 private:
  static constexpr std::uint32_t kNodes = 8192;     // 32 KiB of uint32_t
  static constexpr std::uint32_t kSteps = 1 << 20;  // 1.8 ms on a quiet host
  std::vector<std::uint32_t> next_;
  volatile std::uint32_t sink_ = 0;
};

// ------------------------------------------------------------ output

std::string Num(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

template <typename T>
std::string Array(const std::vector<T>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) s += ",";
    s += std::to_string(v[i]);
  }
  return s + "]";
}

std::string Quote(const std::string& s) {
  std::string q = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') q += '\\';
    q += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return q + "\"";
}

std::string ModelJson(const Model& m) {
  const RunStats& s = m.stats;
  std::ostringstream os;
  os << "{\"awake_node_rounds\":" << s.awake_node_rounds
     << ",\"max_awake\":" << s.max_awake << ",\"avg_awake\":"
     << Num(s.avg_awake) << ",\"rounds\":" << s.rounds
     << ",\"messages\":" << s.total_messages << ",\"bits\":" << s.total_bits
     << ",\"max_message_bits\":" << s.max_message_bits
     << ",\"dropped_messages\":" << s.dropped_messages
     << ",\"phases\":" << m.phases
     << ",\"tree_edges\":" << m.tree_edges.size()
     << ",\"fragments_per_phase\":" << Array(m.fragments_per_phase)
     << ",\"blue_per_phase\":" << Array(m.blue_per_phase) << "}";
  return os.str();
}

std::string WakeJson(const WakeFold& w) {
  std::ostringstream os;
  os << "{\"active_rounds\":" << w.active_rounds
     << ",\"active_le8\":" << w.active_le8
     << ",\"awake_set_log2_hist\":" << Array(w.log2_hist) << "}";
  return os.str();
}

std::string SampleJson(const Sample& s) {
  std::ostringstream os;
  os << "{\"instance\":" << s.instance
     << ",\"traced\":" << (s.traced ? "true" : "false")
     << ",\"probe_s\":" << Num(s.probe_s)
     << ",\"run_s\":" << Num(s.run_s) << ",\"generate_s\":"
     << Num(s.generate_s) << ",\"sim_s\":" << Num(s.sim_s)
     << ",\"verify_s\":" << Num(s.verify_s)
     << ",\"covered_s\":" << Num(s.covered_s) << ",\"allocs\":" << s.allocs
     << "}";
  return os.str();
}

void WriteSpans(const std::string& path, const SpanLog& log) {
  std::ofstream os(path);
  for (const Span& s : log.Spans()) {
    os << "{\"run_id\":" << s.run_id << ",\"name\":\"" << s.name
       << "\",\"parent\":\"" << s.parent << "\",\"start_s\":"
       << Num(s.start_s) << ",\"end_s\":" << Num(s.end_s) << "}\n";
  }
  if (!os) throw std::runtime_error("cannot write spans to " + path);
}

// Per instance: what the first run (or the serial reference) recorded.
struct InstanceRecord {
  Instance inst;
  std::size_t m = 0;
  NodeId max_id = 0;
  std::optional<Model> model;
  std::optional<WakeFold> wake;
};

int Main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  Config cfg;
  const std::string name = args.GetString("workload", "");
  cfg.workload = FindWorkload(name);
  if (cfg.workload == nullptr) {
    std::cerr << "unknown --workload '" << name << "'\n";
    return 2;
  }
  const std::string scale = args.GetString("scale", "full");
  if (scale != "full" && scale != "tiny") {
    std::cerr << "--scale must be full or tiny\n";
    return 2;
  }
  cfg.n = scale == "tiny" ? cfg.workload->tiny_n : cfg.workload->n;
  cfg.corrupt = args.GetUint("corrupt", 0) != 0;
  // Two shards, not nproc: with a thread on every vCPU of a shared host,
  // each barrier waits on whichever vCPU the hypervisor holds back
  // (measured interleaved on 4 vCPUs: spread across seeds 43 % with 4
  // shards, 7 % with 2).
  cfg.shards = cfg.workload->kind == Kind::kRingSharded ? 2 : 0;
  const std::uint64_t seed = args.GetUint("seed", 1);
  const double seconds = args.GetDouble("seconds", 10);
  const bool traced_mode = args.GetUint("traced", 0) != 0;
  const std::string spans_path = args.GetString("spans", "");
  if (!args.UnusedFlags().empty()) {
    std::cerr << "unknown flag --" << args.UnusedFlags().front() << "\n";
    return 2;
  }

  std::vector<InstanceRecord> pool(cfg.workload->instances);
  SplitMix64 derive(seed);
  for (auto& rec : pool) {
    rec.inst.graph_seed = derive.Next();
    rec.inst.mst_seed = derive.Next();
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  auto fail = [&](const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  };

  // ring-sharded: the serial flat run of the same instance is the
  // reference every sharded run must reproduce field for field
  // (untimed, once per instance).
  if (cfg.shards != 0) {
    for (auto& rec : pool) {
      ++attempted;
      try {
        const WeightedGraph g = Generate(cfg, rec.inst);
        MstRunResult r = ComputeMst(g, AlgorithmFor(cfg),
                                    MstOptionsFor(rec.inst, 0, false));
        rec.model = ModelOf(r);
      } catch (const std::exception& e) {
        fail(std::string("serial reference: ") + e.what());
      }
    }
  }

  // Untraced mode cycles the pool; traced mode runs each instance
  // untraced, then traced.
  const std::uint64_t per_instance = traced_mode ? 2 : 1;
  const std::uint64_t min_runs = per_instance * pool.size();
  // The probe times this thread's core. A sharded run works on other
  // threads, and barrier waits set its time, which the probe does not
  // track: scaling widened ring-sharded's spread across seeds from 9 % to
  // 12 % (measured), so its times stay raw (probe_s = 0).
  const bool probed = cfg.shards == 0;
  SpeedProbe probe;
  double probe_before = probed ? probe.Measure() : 0;
  SpanLog log;
  std::vector<Sample> samples;
  const double deadline = log.Now() + seconds;
  for (std::uint64_t run_id = 0; log.Now() < deadline || run_id < min_runs;
       ++run_id) {
    const std::size_t i = (run_id / per_instance) % pool.size();
    const bool traced = traced_mode && run_id % 2 == 1;
    InstanceRecord& rec = pool[i];
    ++attempted;
    try {
      const double t = log.Now();
      Outcome out = RunOnce(cfg, rec.inst, traced, run_id, log);
      out.sample.instance = i;
      out.sample.run_s = log.Close(run_id, "run", "", t);
      if (probed) {
        const double probe_after = probe.Measure();
        out.sample.probe_s = (probe_before + probe_after) / 2;
        probe_before = probe_after;
      }
      for (auto it = log.Spans().rbegin(); it != log.Spans().rend(); ++it) {
        if (it->run_id != run_id) break;
        if (std::string_view(it->parent) == "run") {
          out.sample.covered_s += it->end_s - it->start_s;
        }
      }
      rec.m = out.m;
      rec.max_id = out.max_id;
      if (out.wake) rec.wake = std::move(out.wake);
      if (!out.error.empty()) {
        fail(out.error);
      } else if (!rec.model) {
        rec.model = std::move(out.model);
      } else if (!SameModel(out.model, *rec.model)) {
        fail(std::string(traced ? "traced " : "") + "run " +
             std::to_string(run_id) + " of instance " + std::to_string(i) +
             ": model counters differ from " +
             (cfg.shards ? "the serial reference" : "its first run"));
      }
      samples.push_back(out.sample);
    } catch (const std::exception& e) {
      fail(e.what());
    }
  }
  if (!spans_path.empty()) WriteSpans(spans_path, log);

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  std::ostringstream os;
  os << "{\"workload\":" << Quote(cfg.workload->name) << ",\"seed\":" << seed
     << ",\"params\":{\"n\":" << cfg.n << ",\"graph\":\""
     << (cfg.workload->kind == Kind::kErDeterministic ? "erdos-renyi"
                                                      : "ring")
     << "\",\"algorithm\":\""
     << (cfg.workload->kind == Kind::kDenseChatter
             ? "dense-chatter"
             : MstAlgorithmName(AlgorithmFor(cfg)))
     << "\",\"engine\":\""
     << (cfg.workload->kind == Kind::kDenseChatter ? "coroutine" : "flat")
     << "\",\"shards\":" << cfg.shards << ",\"instances\":" << pool.size()
     << "},\"instances\":[";
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const InstanceRecord& rec = pool[i];
    os << (i ? "," : "") << "{\"graph_seed\":" << rec.inst.graph_seed
       << ",\"mst_seed\":" << rec.inst.mst_seed << ",\"m\":" << rec.m
       << ",\"max_id\":" << rec.max_id
       << ",\"model\":" << (rec.model ? ModelJson(*rec.model) : "null")
       << ",\"wake\":" << (rec.wake ? WakeJson(*rec.wake) : "null") << "}";
  }
  os << "],\"attempted\":" << attempted << ",\"failed\":" << failed
     << ",\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    os << (i ? "," : "") << Quote(errors[i]);
  }
  os << "],\"peak_rss_kb\":" << usage.ru_maxrss << ",\"samples\":[";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    os << (i ? "," : "") << SampleJson(samples[i]);
  }
  os << "]}";
  std::cout << os.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_e2e: " << e.what() << "\n";
    return 2;
  }
}
