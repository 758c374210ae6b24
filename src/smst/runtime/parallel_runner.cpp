#include "smst/runtime/parallel_runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <thread>

namespace smst {

ParallelRunner::ParallelRunner(unsigned threads) : threads_(threads) {
  if (threads_ == 0) threads_ = std::thread::hardware_concurrency();
  if (threads_ == 0) threads_ = 1;
}

void ParallelRunner::ForEach(
    std::size_t count, const std::function<void(std::size_t)>& fn) const {
  if (count == 0) return;

  // Each index owns a slot, so a failure is reported for exactly the job
  // that raised it and rethrown in submission order below.
  std::vector<std::exception_ptr> failures(count);

  const std::size_t workers =
      std::min<std::size_t>(threads_, count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) {
      try {
        fn(i);
      } catch (...) {
        failures[i] = std::current_exception();
      }
    }
  } else {
    std::atomic<std::size_t> cursor{0};
    auto worker = [&]() {
      for (;;) {
        const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        try {
          fn(i);
        } catch (...) {
          failures[i] = std::current_exception();
        }
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    try {
      for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
    } catch (...) {
      // A worker could not start (the host is out of threads or address
      // space): stop the started ones after their current job, join
      // them and rethrow.
      cursor.store(count, std::memory_order_relaxed);
      for (std::thread& t : pool) t.join();
      throw;
    }
    for (std::thread& t : pool) t.join();
  }

  for (const std::exception_ptr& e : failures) {
    if (e) std::rethrow_exception(e);
  }
}

std::vector<MstRunResult> ParallelRunner::RunAll(
    const std::vector<RunSpec>& specs) const {
  std::vector<MstRunResult> results(specs.size());
  ForEach(specs.size(), [&](std::size_t i) {
    const RunSpec& spec = specs[i];
    if (spec.graph == nullptr) {
      throw std::invalid_argument("RunSpec.graph is null");
    }
    MstOptions options = spec.options;
    if (spec.seed != 0) options.seed = spec.seed;
    results[i] = ComputeMst(*spec.graph, spec.algorithm, options);
  });
  return results;
}

}  // namespace smst
