// Shared sweep harness for the bench binaries.
//
// Every bench is ultimately a sweep over (algorithm × n × seed) cells;
// this harness owns the loop so the binaries only declare *what* to
// sweep and how to present it. It provides:
//
//  * flag parsing shared by all benches:
//      --threads N   worker threads (default: hardware concurrency)
//      --seeds K     override the bench's per-cell seed count
//      --json PATH   write JSON-lines records (schema: DESIGN.md §8)
//      --shards K    run every cell on the K-shard simulator backend
//                    (<= 1: one shard on the calling thread; results
//                    are bit-identical either way)
//      --shard-policy block|rr   node-to-shard partition policy
//    any other flag exits 2 before the sweep starts;
//  * parallel execution of the cells via smst::ParallelRunner, with
//    results identical to the serial loops the benches used to run
//    (each cell's graph and randomness derive only from (n, seed));
//  * one JSON record per run plus one aggregate record per (algo, n),
//    so sweep output is machine-readable without scraping tables.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "smst/graph/graph.h"
#include "smst/mst/api.h"
#include "smst/mst/options.h"
#include "smst/mst/result.h"
#include "smst/runtime/parallel_runner.h"
#include "smst/util/json.h"

namespace smst::bench {

// Builds the graph for one sweep cell. Called from worker threads; must
// be a pure function of (n, seed).
using GraphFactory =
    std::function<WeightedGraph(std::size_t n, std::uint64_t seed)>;

// One finished (algorithm, n, seed) cell.
struct SweepCell {
  std::size_t n = 0;
  std::uint64_t seed = 0;
  // Heap allocations made by the MST run itself (graph generation and
  // verification excluded), measured with the thread-local counter in
  // alloc_count.h. The awake hot path is designed to be allocation-free,
  // so this stays near the per-run setup cost.
  std::uint64_t allocs = 0;
  MstRunResult run;
};

// Seed-averaged view of one size, in the shape the tables print.
struct SweepAggregate {
  std::size_t n = 0;
  std::uint64_t runs = 0;
  double max_awake = 0;
  double avg_awake = 0;
  double rounds = 0;
  double messages = 0;
  double bits = 0;
  double dropped = 0;
  double phases = 0;
  double allocs = 0;
  // Seed-summed allocations over seed-summed awake node-rounds: the
  // regression-pinned "allocations per awake node-round" number.
  double allocs_per_awake_round = 0;
};

// For the fixed sweeps that read no flags: exits 2 with a one-line usage
// if any argument is given, so a flag meant for the harness sweeps (or a
// misspelled one) fails before the sweep instead of being ignored.
void RejectArguments(int argc, char** argv);

struct SweepOutput {
  // Row-major: sizes × seeds (cells[i * seeds + s] is sizes[i], seed s+1).
  std::vector<SweepCell> cells;
  std::vector<SweepAggregate> by_n;  // one entry per size
};

class Harness {
 public:
  // `experiment` tags every JSON record; argv supplies the shared flags.
  Harness(std::string experiment, int argc, char** argv);
  ~Harness();

  unsigned Threads() const { return runner_.Threads(); }
  const ParallelRunner& Runner() const { return runner_; }

  // The bench's default seed count unless --seeds overrode it.
  std::uint64_t Seeds(std::uint64_t fallback) const {
    return seeds_override_ != 0 ? seeds_override_ : fallback;
  }

  // Simulator shard count applied to every sweep cell (<= 1: one shard
  // on the calling thread).
  std::uint32_t Shards() const { return shards_; }
  ShardPolicy GetShardPolicy() const { return shard_policy_; }

  // Runs `algo` on factory(n, seed) for every n in `sizes` and seed in
  // [1, seeds], in parallel. With `verify`, every result is checked
  // against the reference MST (throws std::runtime_error on mismatch);
  // pass false for algorithms that only promise a spanning tree.
  SweepOutput Sweep(MstAlgorithm algo, const std::vector<std::size_t>& sizes,
                    std::uint64_t seeds, const GraphFactory& factory,
                    const MstOptions& base = {}, bool verify = true);

  // Appends one free-form record to the JSON stream (no-op without
  // --json). `fields` is the record body after the experiment/record
  // envelope, e.g. R"("n":64,"rounds":123)".
  void JsonRecord(const std::string& record_type, const std::string& fields);

 private:
  std::string experiment_;
  ParallelRunner runner_{1};  // replaced from --threads in the constructor
  std::uint64_t seeds_override_ = 0;
  std::uint32_t shards_ = 0;
  ShardPolicy shard_policy_ = ShardPolicy::kContiguousBlocks;
  std::ofstream json_;
};

}  // namespace smst::bench
