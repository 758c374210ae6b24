#include "harness.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <utility>

#include "alloc_count.h"
#include "smst/graph/mst_verify.h"
#include "smst/runtime/simulator.h"
#include "smst/util/args.h"

namespace smst::bench {

void RejectArguments(int argc, char** argv) {
  if (argc <= 1) return;
  std::cerr << "usage: " << argv[0] << " (a fixed sweep: takes no flags, got '"
            << argv[1] << "')\n";
  std::exit(2);
}

Harness::Harness(std::string experiment, int argc, char** argv)
    : experiment_(std::move(experiment)) {
  std::string json_path;
  try {
    ArgParser args(argc, argv);
    runner_ = ParallelRunner(args.GetUint32("threads", 0));
    seeds_override_ = args.GetUint("seeds", 0);
    shards_ = args.GetUint32("shards", 0);
    shard_policy_ = ParseShardPolicy(args.GetString("shard-policy", "block"));
    json_path = args.GetString("json", "");
    if (auto unused = args.UnusedFlags(); !unused.empty()) {
      // A misspelled flag must not run the full sweep as if it were
      // absent.
      throw std::invalid_argument(
          "unknown flag --" + unused.front() +
          " (harness flags: --threads N, --seeds K, --json PATH, "
          "--shards K, --shard-policy block|rr)");
    }
  } catch (const std::invalid_argument& e) {
    // Bad user input, not a bug: exit cleanly instead of letting the
    // exception abort the bench with a terminate() backtrace.
    std::cerr << "error: " << e.what() << "\n";
    std::exit(2);
  }
  if (!json_path.empty()) {
    json_.open(json_path);
    if (!json_) {
      std::cerr << "error: cannot write --json file '" << json_path << "'\n";
      std::exit(2);
    }
  }
}

Harness::~Harness() = default;

void Harness::JsonRecord(const std::string& record_type,
                         const std::string& fields) {
  if (!json_.is_open()) return;
  json_ << "{\"experiment\":" << JsonStr(experiment_)
        << ",\"record\":" << JsonStr(record_type) << "," << fields << "}\n";
}

SweepOutput Harness::Sweep(MstAlgorithm algo,
                           const std::vector<std::size_t>& sizes,
                           std::uint64_t seeds, const GraphFactory& factory,
                           const MstOptions& base, bool verify) {
  SweepOutput out;
  out.cells.resize(sizes.size() * seeds);

  // Workers fill disjoint cells; graphs are built inside the cell so
  // generation parallelizes too. Everything a cell computes depends only
  // on (n, seed), so the result set is independent of thread count.
  runner_.ForEach(out.cells.size(), [&](std::size_t i) {
    const std::size_t n = sizes[i / seeds];
    const std::uint64_t seed = 1 + i % seeds;
    const WeightedGraph g = factory(n, seed);
    MstOptions options = base;
    options.seed = seed;
    // Sharded engine selection is an execution detail: results are
    // bit-identical for every shard count, so the sweep's cells stay a
    // pure function of (n, seed) either way.
    options.shards = shards_;
    options.shard_policy = shard_policy_;
    // Each cell runs wholly on this worker thread, so the thread-local
    // counter difference is exactly this run's allocations. Graph
    // generation (above) and verification (below) are excluded: the
    // budget under regression watch is the simulated run's.
    const std::uint64_t allocs_before = AllocCount();
    MstRunResult run = ComputeMst(g, algo, options);
    const std::uint64_t allocs = AllocCount() - allocs_before;
    if (verify) {
      auto check = VerifyExactMst(g, run.tree_edges);
      if (!check.ok) {
        throw std::runtime_error(std::string("MST verification failed (") +
                                 MstAlgorithmName(algo) +
                                 ", n=" + std::to_string(n) +
                                 ", seed=" + std::to_string(seed) +
                                 "): " + check.error);
      }
    }
    out.cells[i] = SweepCell{n, seed, allocs, std::move(run)};
  });

  const std::string algo_field = "\"algo\":" + JsonStr(MstAlgorithmName(algo));
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    SweepAggregate agg;
    agg.n = sizes[i];
    agg.runs = seeds;
    double awake_round_sum = 0;
    for (std::uint64_t s = 0; s < seeds; ++s) {
      const SweepCell& cell = out.cells[i * seeds + s];
      const RunStats& st = cell.run.stats;
      agg.max_awake += static_cast<double>(st.max_awake);
      agg.avg_awake += st.avg_awake;
      agg.rounds += static_cast<double>(st.rounds);
      agg.messages += static_cast<double>(st.total_messages);
      agg.bits += static_cast<double>(st.total_bits);
      agg.dropped += static_cast<double>(st.dropped_messages);
      agg.phases += static_cast<double>(cell.run.phases);
      agg.allocs += static_cast<double>(cell.allocs);
      awake_round_sum += static_cast<double>(st.awake_node_rounds);
      const double cell_apar =
          st.awake_node_rounds == 0
              ? 0.0
              : static_cast<double>(cell.allocs) /
                    static_cast<double>(st.awake_node_rounds);
      JsonRecord(
          "run",
          algo_field + ",\"n\":" + std::to_string(cell.n) +
              ",\"seed\":" + std::to_string(cell.seed) +
              ",\"max_awake\":" + std::to_string(st.max_awake) +
              ",\"avg_awake\":" + JsonNum(st.avg_awake) +
              ",\"rounds\":" + std::to_string(st.rounds) +
              ",\"messages\":" + std::to_string(st.total_messages) +
              ",\"bits\":" + std::to_string(st.total_bits) +
              ",\"dropped\":" + std::to_string(st.dropped_messages) +
              ",\"phases\":" + std::to_string(cell.run.phases) +
              ",\"allocs\":" + std::to_string(cell.allocs) +
              ",\"allocs_per_awake_round\":" + JsonNum(cell_apar));
    }
    const double k = static_cast<double>(seeds);
    agg.allocs_per_awake_round =
        awake_round_sum == 0 ? 0.0 : agg.allocs / awake_round_sum;
    agg.max_awake /= k;
    agg.avg_awake /= k;
    agg.rounds /= k;
    agg.messages /= k;
    agg.bits /= k;
    agg.dropped /= k;
    agg.phases /= k;
    agg.allocs /= k;
    JsonRecord("aggregate",
               algo_field + ",\"n\":" + std::to_string(agg.n) +
                   ",\"runs\":" + std::to_string(agg.runs) +
                   ",\"max_awake\":" + JsonNum(agg.max_awake) +
                   ",\"avg_awake\":" + JsonNum(agg.avg_awake) +
                   ",\"rounds\":" + JsonNum(agg.rounds) +
                   ",\"messages\":" + JsonNum(agg.messages) +
                   ",\"bits\":" + JsonNum(agg.bits) +
                   ",\"dropped\":" + JsonNum(agg.dropped) +
                   ",\"phases\":" + JsonNum(agg.phases) +
                   ",\"allocs\":" + JsonNum(agg.allocs) +
                   ",\"allocs_per_awake_round\":" +
                   JsonNum(agg.allocs_per_awake_round));
    out.by_n.push_back(agg);
  }
  return out;
}

}  // namespace smst::bench
