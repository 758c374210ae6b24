// smst_cli — run any algorithm in the library on any graph family, with
// verification, energy billing, and an awake histogram.
//
//   smst_cli --algo randomized --graph er --n 512 --seed 7
//   smst_cli --algo deterministic --graph ring --n 128 --max-id 1024
//   smst_cli --algo logstar --graph grc --rows 4 --cols 64 --energy mote
//   smst_cli --algo randomized --n 1024 --seeds 16 --threads 8
//   smst_cli --help
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <fstream>

#include "smst/energy/energy.h"
#include "smst/graph/generators.h"
#include "smst/graph/io.h"
#include "smst/graph/mst_verify.h"
#include "smst/graph/properties.h"
#include "smst/lower_bounds/grc.h"
#include "smst/mst/api.h"
#include "smst/runtime/parallel_runner.h"
#include "smst/runtime/simulator.h"
#include "smst/util/args.h"
#include "smst/util/json.h"
#include "smst/util/stats.h"
#include "smst/util/table.h"

namespace {

constexpr const char* kHelp = R"(smst_cli — sleeping-model distributed MST runner

flags:
  --algo     randomized | deterministic | logstar | ghs | spanning   [randomized]
  --graph    er | ring | path | grid | geometric | complete | tree |
             hypercube | caterpillar | lollipop | barbell | grc       [er]
  --input    load an edge-list file instead of generating (see graph/io.h)
  --dot      write the graph + tree as Graphviz DOT to this path
  --adaptive use depth-bounded schedule blocks (randomized, ghs,
             spanning; deterministic and logstar reject it)
  --n        node count (family-dependent meaning)                   [256]
  --p        Erdos-Renyi edge probability in [0, 1] (0 = min(1, 8/n)) [0]
  --radius   geometric radius, >= 0                                  [0.16]
  --rows/--cols  G_rc shape (grc takes no --n or --max-id)         [4/64]
  --max-id   N, the ID range (0 = n)                                 [0]
  --seed     run & generator seed                                    [1]
  --seeds    run K seeded runs (seed .. seed+K-1) on the same graph  [1]
  --threads  worker threads for multi-seed runs (0 = all cores)      [0]
  --paper-phases    use the paper's fixed phase budget instead of early
             termination detection (every --algo)
  --fault-plan      adversary spec, e.g. 'drop=0.01,jitter=2' — comma-
             separated drop=P | delay=K[:P] | dup=P | jitter=D[:P] |
             crash=R[:P] items, each with optional @NODE filter, plus
             salt=S (see faults/fault_plan.h). The run is classified
             (completed / wrong-result / non-termination /
             crashed-partition) instead of verified-or-die.
  --audit    force the runtime invariant auditor on (Debug has it on)
  --shards   simulator worker shards (<= 1: one shard on the calling
             thread); results are bit-identical for every value      [0]
  --shard-policy  block | rr — node-to-shard partition policy        [block]
  --energy   off | mote | wifi | ble (single runs only)              [off]
  --quiet    only the summary line
)";

smst::MstAlgorithm ParseAlgo(const std::string& s) {
  if (s == "randomized") return smst::MstAlgorithm::kRandomized;
  if (s == "deterministic") return smst::MstAlgorithm::kDeterministic;
  if (s == "logstar") return smst::MstAlgorithm::kDeterministicLogStar;
  if (s == "ghs") return smst::MstAlgorithm::kGhsBaseline;
  if (s == "spanning") return smst::MstAlgorithm::kBmSpanningTree;
  throw std::invalid_argument("unknown --algo '" + s + "'");
}

// The energy model --energy names; nullopt for "off".
std::optional<smst::EnergyModel> ParseEnergy(const std::string& s) {
  if (s == "off") return std::nullopt;
  if (s == "mote") return smst::EnergyModel::SensorMote();
  if (s == "wifi") return smst::EnergyModel::WifiStation();
  if (s == "ble") return smst::EnergyModel::BleBeacon();
  throw std::invalid_argument("unknown --energy '" + s +
                              "' (off | mote | wifi | ble)");
}

smst::WeightedGraph MakeGraph(const smst::ArgParser& args,
                              smst::Xoshiro256& rng) {
  const std::string family = args.GetString("graph", "er");
  if (family == "grc") {
    // G_rc's size is rows * cols + |I| by construction and it assigns its
    // own IDs; a size or ID range given for it would be ignored.
    for (const char* flag : {"n", "max-id"}) {
      if (args.Has(flag)) {
        throw std::invalid_argument(std::string("--") + flag +
                                    " has no effect on --graph grc (its "
                                    "shape is --rows x --cols)");
      }
    }
    auto inst = smst::BuildGrc(args.GetUint("rows", 4),
                               args.GetUint("cols", 64), rng);
    return std::move(inst.graph);
  }
  const std::size_t n = args.GetUint("n", 256);
  smst::GeneratorOptions opt;
  opt.max_id = args.GetUint("max-id", 0);
  if (family == "er") {
    double p = args.GetDouble("p", 0.0);
    if (p < 0.0 || p > 1.0) {
      throw std::invalid_argument("--p must lie in [0, 1], got " +
                                  smst::JsonNum(p));
    }
    if (p == 0.0) p = std::min(1.0, 8.0 / static_cast<double>(n));
    return smst::MakeErdosRenyi(n, p, rng, opt);
  }
  if (family == "ring") return smst::MakeRing(n, rng, opt);
  if (family == "path") return smst::MakePath(n, rng, opt);
  if (family == "grid") {
    const std::size_t side = std::max<std::size_t>(
        2, static_cast<std::size_t>(std::sqrt(double(n))));
    return smst::MakeGrid(side, (n + side - 1) / side, rng, opt);
  }
  if (family == "geometric") {
    const double radius = args.GetDouble("radius", 0.16);
    if (radius < 0.0) {
      throw std::invalid_argument("--radius must be >= 0, got " +
                                  smst::JsonNum(radius));
    }
    return smst::MakeRandomGeometric(n, radius, rng, opt);
  }
  if (family == "complete") return smst::MakeComplete(n, rng, opt);
  if (family == "tree") return smst::MakeRandomTree(n, rng, opt);
  if (family == "hypercube") {
    std::size_t d = 0;
    while ((std::size_t{1} << (d + 1)) <= n) ++d;
    return smst::MakeHypercube(d, rng, opt);
  }
  if (family == "caterpillar") return smst::MakeCaterpillar(n / 2, rng, opt);
  if (family == "lollipop") return smst::MakeLollipop(n, rng, opt);
  if (family == "barbell") return smst::MakeBarbell(n, rng, opt);
  throw std::invalid_argument("unknown --graph '" + family + "'");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    smst::ArgParser args(argc, argv);
    if (args.Has("help")) {
      std::cout << kHelp;
      return 0;
    }
    const auto algo = ParseAlgo(args.GetString("algo", "randomized"));
    const std::uint64_t seed = args.GetUint("seed", 1);
    const bool quiet = args.GetBool("quiet", false);
    const std::string energy = args.GetString("energy", "off");
    const auto energy_model = ParseEnergy(energy);
    const std::string dot_path = args.GetString("dot", "");
    const std::uint64_t num_seeds = args.GetUint("seeds", 1);
    if (num_seeds == 0) {
      throw std::invalid_argument("--seeds expects at least 1 run, got 0");
    }
    // A multi-seed sweep reports one row per seed: there is no single
    // tree to draw and no single run to bill.
    if (num_seeds > 1 && !dot_path.empty()) {
      throw std::invalid_argument("--dot needs a single run, not --seeds " +
                                  std::to_string(num_seeds));
    }
    if (num_seeds > 1 && energy_model) {
      throw std::invalid_argument("--energy " + energy +
                                  " needs a single run, not --seeds " +
                                  std::to_string(num_seeds));
    }
    // Only a multi-seed sweep has runs to spread over threads.
    if (num_seeds == 1 && args.Has("threads")) {
      throw std::invalid_argument(
          "--threads has no effect on a single run (add --seeds K > 1)");
    }

    smst::Xoshiro256 rng(seed);
    const std::string input = args.GetString("input", "");
    auto g = input.empty() ? MakeGraph(args, rng)
                           : smst::ReadEdgeListFile(input);

    smst::MstOptions opt;
    opt.seed = seed;
    opt.adaptive_blocks = args.GetBool("adaptive", false);
    if (args.GetBool("paper-phases", false)) {
      opt.termination = smst::TerminationMode::kPaperPhaseCount;
    }
    smst::FaultPlan fault_plan;
    const std::string fault_spec = args.GetString("fault-plan", "");
    if (!fault_spec.empty()) {
      fault_plan = smst::ParseFaultPlan(fault_spec);
      opt.fault_plan = &fault_plan;
    }
    const bool faulted = !fault_plan.Empty();
    if (args.GetBool("audit", false)) opt.audit = smst::AuditMode::kOn;
    opt.shards = args.GetUint32("shards", 0);
    opt.shard_policy =
        smst::ParseShardPolicy(args.GetString("shard-policy", "block"));
    const unsigned threads = args.GetUint32("threads", 0);
    if (auto unused = args.UnusedFlags(); !unused.empty()) {
      std::cerr << "unknown flag --" << unused.front() << " (see --help)\n";
      return 2;
    }

    if (num_seeds > 1) {
      // Multi-seed sweep: the same graph under seeds seed..seed+K-1, run
      // across the thread pool; per-seed rows plus a mean/worst summary.
      std::vector<smst::RunSpec> specs(num_seeds);
      for (std::uint64_t s = 0; s < num_seeds; ++s) {
        specs[s] = smst::RunSpec{&g, algo, opt, seed + s};
      }
      smst::ParallelRunner runner(threads);
      const auto runs = runner.RunAll(specs);

      smst::Table t({"seed", "awake max", "awake avg", "rounds", "messages",
                     "phases", "verdict"});
      double awake_sum = 0, rounds_sum = 0;
      std::uint64_t awake_worst = 0;
      bool all_ok = true;
      for (std::uint64_t s = 0; s < num_seeds; ++s) {
        const auto& r = runs[s];
        std::string verdict = "spanning tree";
        if (faulted) {
          // Under an adversary the verdict is the classified outcome; a
          // completed run that is not the exact MST is a wrong result.
          auto status = r.outcome.status;
          if (status == smst::RunStatus::kCompleted &&
              algo != smst::MstAlgorithm::kBmSpanningTree &&
              !smst::VerifyExactMst(g, r.tree_edges).ok) {
            status = smst::RunStatus::kWrongResult;
          }
          verdict = smst::RunStatusName(status);
        } else if (algo != smst::MstAlgorithm::kBmSpanningTree) {
          auto check = smst::VerifyExactMst(g, r.tree_edges);
          verdict = check.ok ? "exact MST" : "FAILED: " + check.error;
          all_ok = all_ok && check.ok;
        }
        awake_sum += static_cast<double>(r.stats.max_awake);
        rounds_sum += static_cast<double>(r.stats.rounds);
        awake_worst = std::max(awake_worst, r.stats.max_awake);
        t.AddRow({smst::Table::Num(seed + s),
                  smst::Table::Num(r.stats.max_awake),
                  smst::Table::Num(r.stats.avg_awake, 2),
                  smst::Table::Num(r.stats.rounds),
                  smst::Table::Num(r.stats.total_messages),
                  smst::Table::Num(r.phases), verdict});
      }
      std::cout << smst::MstAlgorithmName(algo) << " on n=" << g.NumNodes()
                << " m=" << g.NumEdges() << " N=" << g.MaxId() << ": "
                << num_seeds << " seeded runs on " << runner.Threads()
                << " threads\n";
      if (!quiet) t.Print(std::cout);
      std::cout << "mean awake=" << awake_sum / double(num_seeds)
                << " worst awake=" << awake_worst
                << " mean rounds=" << rounds_sum / double(num_seeds)
                << (all_ok ? "" : "  [VERIFICATION FAILURES]") << "\n";
      return all_ok ? 0 : 1;
    }

    const auto r = smst::ComputeMst(g, algo, opt);
    std::string verdict = "spanning tree";
    smst::RunOutcome outcome = r.outcome;
    if (faulted) {
      if (outcome.Ok() && algo != smst::MstAlgorithm::kBmSpanningTree) {
        auto check = smst::VerifyExactMst(g, r.tree_edges);
        if (!check.ok) {
          outcome.status = smst::RunStatus::kWrongResult;
          outcome.detail = check.error;
        }
      }
      verdict = std::string("outcome=") + smst::RunStatusName(outcome.status);
    } else if (algo != smst::MstAlgorithm::kBmSpanningTree) {
      auto check = smst::VerifyExactMst(g, r.tree_edges);
      verdict = check.ok ? "exact MST (verified)" : "FAILED: " + check.error;
    }

    std::cout << smst::MstAlgorithmName(algo) << " on n=" << g.NumNodes()
              << " m=" << g.NumEdges() << " N=" << g.MaxId() << ": " << verdict
              << " | awake=" << r.stats.max_awake
              << " rounds=" << r.stats.rounds << " phases=" << r.phases
              << "\n";
    if (!quiet) {
      smst::Table t({"metric", "value"});
      t.AddRow({"tree weight",
                smst::Table::Num(g.TotalWeight(r.tree_edges))});
      t.AddRow({"awake complexity (max)", smst::Table::Num(r.stats.max_awake)});
      t.AddRow({"awake (node-averaged)",
                smst::Table::Num(r.stats.avg_awake, 2)});
      t.AddRow({"round complexity", smst::Table::Num(r.stats.rounds)});
      t.AddRow({"messages", smst::Table::Num(r.stats.total_messages)});
      t.AddRow({"bits sent", smst::Table::Num(r.stats.total_bits)});
      t.AddRow({"largest message (bits)",
                smst::Table::Num(r.stats.max_message_bits)});
      t.AddRow({"dropped messages", smst::Table::Num(r.stats.dropped_messages)});
      std::vector<double> awakes;
      for (const auto& m : r.node_metrics) {
        awakes.push_back(static_cast<double>(m.awake_rounds));
      }
      const auto s = smst::Summarize(awakes);
      t.AddRow({"awake per node min/median/max",
                smst::Table::Num(s.min, 0) + " / " +
                    smst::Table::Num(s.median, 0) + " / " +
                    smst::Table::Num(s.max, 0)});
      t.Print(std::cout);
    }
    if (faulted) {
      const smst::FaultStats& f = outcome.faults;
      std::cout << "fault-plan '" << fault_plan.ToString() << "': "
                << smst::RunStatusName(outcome.status)
                << (outcome.detail.empty() ? "" : " (" + outcome.detail + ")")
                << "\n  injected: drops=" << f.injected_drops
                << " delays=" << f.injected_delays << " (delivered "
                << f.delayed_delivered << ", lost " << f.delayed_lost
                << ") dups=" << f.injected_duplicates
                << " jittered=" << f.jittered_wakes
                << " crashed=" << f.crashed_nodes << " ("
                << f.suppressed_wakes << " wakes suppressed)"
                << "\n  unfinished nodes=" << outcome.unfinished_nodes
                << " last round=" << outcome.last_round;
      if (outcome.audited_awake_node_rounds != 0 ||
          outcome.audit_violations != 0) {
        std::cout << " | audit: awake node-rounds="
                  << outcome.audited_awake_node_rounds
                  << " model drops=" << outcome.audited_model_drops
                  << " violations=" << outcome.audit_violations;
      }
      std::cout << "\n";
    }
    if (!dot_path.empty()) {
      std::ofstream dot(dot_path);
      if (!dot) {
        std::cerr << "cannot write '" << dot_path << "'\n";
        return 2;
      }
      smst::WriteDot(g, r.tree_edges, dot);
      std::cout << "wrote " << dot_path << " (render: dot -Tsvg " << dot_path
                << " -o tree.svg)\n";
    }
    if (energy_model) {
      const auto bill = smst::BillRun(r.stats, r.node_metrics, *energy_model);
      std::cout << "energy(" << energy << "): total=" << bill.total
                << "uJ worst-node=" << bill.max_per_node
                << "uJ awake-share=" << bill.awake_share
                << " runs-per-1J-battery="
                << smst::RunsPerBattery(bill, 1.0) << "\n";
    }
    return verdict.rfind("FAILED", 0) == 0 ? 1 : 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
