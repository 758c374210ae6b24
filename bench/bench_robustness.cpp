// Experiment R1-robustness — fault-injection degradation curves.
//
// The paper's algorithms are drop-free by construction: the sleeping
// model loses a message only if the protocol *chose* mismatched wake
// schedules, and the transmission schedules are designed so that never
// happens. This bench measures how far that brittleness carries under an
// adversary: for each fault intensity (message drop rate, wake jitter
// radius) it runs both MST algorithms over many seeds and reports the
// outcome mix (completed / wrong-result / non-termination /
// crashed-partition), the fraction of runs whose output is still the
// exact MST, and the awake inflation of surviving runs relative to the
// fault-free baseline.
//
// JSON records (one per (algorithm, axis, intensity) config, schema
// DESIGN.md §8): record "robustness" with the outcome histogram and the
// degradation measurements.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "harness.h"
#include "smst/faults/fault_plan.h"
#include "smst/graph/generators.h"
#include "smst/graph/mst_verify.h"
#include "smst/mst/api.h"
#include "smst/runtime/parallel_runner.h"
#include "smst/util/table.h"

namespace {

struct ConfigResult {
  std::uint64_t completed = 0;
  std::uint64_t wrong = 0;
  std::uint64_t nonterm = 0;
  std::uint64_t crashed = 0;
  std::uint64_t mst_correct = 0;
  double mean_awake_completed = 0;  // over completed runs (0 if none)
  double mean_injected = 0;         // drops+delays+dups+jitters per run
};

ConfigResult Summarize(const smst::WeightedGraph& g,
                       const std::vector<smst::MstRunResult>& runs) {
  ConfigResult c;
  double awake_sum = 0;
  double injected_sum = 0;
  for (const auto& r : runs) {
    const auto& f = r.outcome.faults;
    injected_sum += static_cast<double>(f.injected_drops + f.injected_delays +
                                        f.injected_duplicates +
                                        f.jittered_wakes + f.suppressed_wakes);
    switch (r.outcome.status) {
      case smst::RunStatus::kCompleted: {
        ++c.completed;
        awake_sum += static_cast<double>(r.stats.max_awake);
        if (smst::VerifyExactMst(g, r.tree_edges).ok) ++c.mst_correct;
        break;
      }
      case smst::RunStatus::kWrongResult: ++c.wrong; break;
      case smst::RunStatus::kNonTermination: ++c.nonterm; break;
      case smst::RunStatus::kCrashedPartition: ++c.crashed; break;
    }
  }
  if (c.completed > 0) {
    c.mean_awake_completed = awake_sum / static_cast<double>(c.completed);
  }
  c.mean_injected = injected_sum / static_cast<double>(runs.size());
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  smst::bench::Harness h("robustness", argc, argv);
  std::cout << "== R1-robustness: fault-injection degradation curves ==\n\n";

  const std::uint64_t seeds = h.Seeds(10);
  const std::vector<double> drop_rates = {0,      1e-5, 3e-5, 1e-4,
                                          3e-4,   1e-3, 3e-3};
  const std::vector<std::uint64_t> jitters = {0, 1, 2, 4};

  struct AlgoCase {
    smst::MstAlgorithm algo;
    std::size_t n;
  };
  const std::vector<AlgoCase> cases = {
      {smst::MstAlgorithm::kRandomized, 128},
      {smst::MstAlgorithm::kDeterministic, 64},
  };

  for (const AlgoCase& ac : cases) {
    smst::Xoshiro256 gen_rng(1);
    const auto g = smst::MakeErdosRenyi(
        ac.n, 8.0 / static_cast<double>(ac.n), gen_rng);
    const char* algo_name = smst::MstAlgorithmName(ac.algo);
    std::cout << algo_name << " on n=" << ac.n << " m=" << g.NumEdges()
              << ", " << seeds << " seeds per intensity\n";

    double baseline_awake = 0;
    smst::Table t({"axis", "intensity", "completed", "wrong", "non-term",
                   "crashed", "MST-correct", "awake x baseline"});

    // Axis 1: message drop rate (jitter 0). Axis 2: wake jitter (drop 0).
    // Intensity 0 on either axis is the shared fault-free baseline.
    for (int axis = 0; axis < 2; ++axis) {
      const std::size_t count =
          axis == 0 ? drop_rates.size() : jitters.size();
      for (std::size_t i = axis == 0 ? 0 : 1; i < count; ++i) {
        const double drop = axis == 0 ? drop_rates[i] : 0.0;
        const std::uint64_t jitter = axis == 0 ? 0 : jitters[i];
        smst::FaultPlan plan;
        if (drop > 0) {
          smst::FaultRule rule;
          rule.kind = smst::FaultKind::kDrop;
          rule.probability = drop;
          plan.rules.push_back(rule);
        }
        if (jitter > 0) {
          smst::FaultRule rule;
          rule.kind = smst::FaultKind::kWakeJitter;
          rule.param = jitter;
          plan.rules.push_back(rule);
        }

        smst::MstOptions opt;
        if (!plan.Empty()) opt.fault_plan = &plan;
        std::vector<smst::RunSpec> specs(seeds);
        for (std::uint64_t s = 0; s < seeds; ++s) {
          specs[s] = smst::RunSpec{&g, ac.algo, opt, s + 1};
        }
        const auto runs = h.Runner().RunAll(specs);
        const ConfigResult c = Summarize(g, runs);
        if (axis == 0 && i == 0) {
          baseline_awake = c.mean_awake_completed;
        }
        const double inflation =
            baseline_awake > 0 && c.completed > 0
                ? c.mean_awake_completed / baseline_awake
                : 0.0;

        const std::string axis_name = axis == 0 ? "drop" : "jitter";
        const std::string intensity =
            axis == 0 ? smst::Table::Num(drop, 5)
                      : smst::Table::Num(jitter);
        t.AddRow({axis_name, intensity, smst::Table::Num(c.completed),
                  smst::Table::Num(c.wrong), smst::Table::Num(c.nonterm),
                  smst::Table::Num(c.crashed),
                  smst::Table::Num(static_cast<double>(c.mst_correct) /
                                       static_cast<double>(seeds),
                                   2),
                  c.completed > 0 ? smst::Table::Num(inflation, 3) : "-"});

        h.JsonRecord(
            "robustness",
            "\"algo\":" + smst::JsonStr(algo_name) +
                ",\"n\":" + smst::JsonNum(double(ac.n)) +
                ",\"axis\":" + smst::JsonStr(axis_name) +
                ",\"drop\":" + smst::JsonNum(drop) +
                ",\"jitter\":" + smst::JsonNum(double(jitter)) +
                ",\"seeds\":" + smst::JsonNum(double(seeds)) +
                ",\"completed\":" + smst::JsonNum(double(c.completed)) +
                ",\"wrong_result\":" + smst::JsonNum(double(c.wrong)) +
                ",\"non_termination\":" +
                smst::JsonNum(double(c.nonterm)) +
                ",\"crashed_partition\":" +
                smst::JsonNum(double(c.crashed)) +
                ",\"mst_correct_fraction\":" +
                smst::JsonNum(double(c.mst_correct) / double(seeds)) +
                ",\"mean_awake_completed\":" +
                smst::JsonNum(c.mean_awake_completed) +
                ",\"awake_inflation\":" + smst::JsonNum(inflation) +
                ",\"mean_injected_events\":" +
                smst::JsonNum(c.mean_injected));
      }
    }
    t.Print(std::cout);
    std::cout << "\n";
  }

  std::cout
      << "Expected: both algorithms are drop-free by construction, so the\n"
         "degradation threshold is sharp — survival at drop rates around\n"
         "1e-5..1e-4 (a few total drops per run, absorbed only when they\n"
         "hit redundant fragment-ID exchanges), collapse to crashed-\n"
         "partition well before 1e-3; surviving runs near the threshold\n"
         "pay a small awake-inflation premium from extra merge phases.\n"
         "Wake jitter >= 1 desynchronizes the transmission schedules and\n"
         "kills every run outright — there is no graceful regime on that\n"
         "axis.\n";
  return 0;
}
