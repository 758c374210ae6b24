// Experiment L7-phase — Lemmas 3 and 7: every toolbox procedure costs
// O(1) awake rounds and O(n) running time; a whole phase costs O(1)
// awake rounds. We run each procedure in isolation on path-shaped LDTs
// of growing n (the deepest trees, i.e. the worst case for the
// schedule), and print the measured constants.
#include <functional>
#include <iostream>
#include <vector>

#include "harness.h"
#include "smst/graph/generators.h"
#include "smst/mst/deterministic_mst.h"
#include "smst/mst/randomized_mst.h"
#include "smst/runtime/simulator.h"
#include "smst/sleeping/flat_procedures.h"
#include "smst/sleeping/forest_builder.h"
#include "smst/util/table.h"

namespace {

using namespace smst;

using States = std::vector<LdtState>;

struct ProcedureProbe {
  const char* name;
  // Runs the procedure once on every node of the LDT; returns the stats.
  std::function<RunStats(const WeightedGraph&, const States&)> run;
};

template <typename Proc>
RunStats RunProcedure(const WeightedGraph& g,
                      typename ProcedureProgram<Proc>::BeginFn begin) {
  ProcedureProgram<Proc> program(g, std::move(begin));
  Simulator sim(g);
  sim.Run(program);
  return sim.Stats();
}

// Transmit-Adjacent: the block's Side round, nothing after it.
struct SideRound {
  Round Resume(const FlatNodeRef&, std::span<const InMessage>, SendLane&) {
    return kFlatDone;
  }
};

RunStats RunBroadcast(const WeightedGraph& g, const States& states) {
  return RunProcedure<FlatBroadcast>(
      g, [&](const FlatNodeRef& node, FlatBroadcast& proc, SendLane& sends) {
        return proc.Begin(node, states[node.v], 1, Message{1, 99, 0, 0},
                          sends);
      });
}
RunStats RunUpcast(const WeightedGraph& g, const States& states) {
  return RunProcedure<FlatUpcastMin>(
      g, [&](const FlatNodeRef& node, FlatUpcastMin& proc, SendLane& sends) {
        return proc.Begin(node, states[node.v], 1,
                          UpcastItem{node.Id(), 0, 0}, sends);
      });
}
RunStats RunUpcastSum(const WeightedGraph& g, const States& states) {
  return RunProcedure<FlatUpcastSum>(
      g, [&](const FlatNodeRef& node, FlatUpcastSum& proc, SendLane& sends) {
        return proc.Begin(node, states[node.v], 1, 1, sends);
      });
}
RunStats RunSide(const WeightedGraph& g, const States& states) {
  return RunProcedure<SideRound>(
      g, [&](const FlatNodeRef& node, SideRound&, SendLane& sends) {
        for (std::uint32_t p = 0; p < node.Degree(); ++p) {
          sends.push_back({p, Message{2, node.Id(), 0, 0}});
        }
        return TransmissionSchedule(1, states[node.v].level,
                                    node.NumNodesKnown())
            .side;
      });
}

}  // namespace

int main(int argc, char** argv) {
  smst::bench::RejectArguments(argc, argv);
  std::cout << "== L7-phase: Lemmas 3/7 — O(1) awake rounds per procedure "
               "and per phase ==\n\n";

  // --- toolbox procedures on a path LDT (depth n-1) -------------------
  {
    smst::Table t({"procedure", "n", "max awake", "rounds",
                   "rounds/(2n+1)"});
    const ProcedureProbe probes[] = {
        {"Fragment-Broadcast", RunBroadcast},
        {"Upcast-Min", RunUpcast},
        {"Upcast-Sum", RunUpcastSum},
        {"Transmit-Adjacent", RunSide},
    };
    for (const auto& probe : probes) {
      for (std::size_t n : {64u, 512u, 4096u}) {
        Xoshiro256 rng(n);
        GeneratorOptions opt;
        opt.shuffle_ids = false;
        auto g = MakePath(n, rng, opt);
        std::vector<EdgeIndex> tree;
        for (EdgeIndex e = 0; e < g.NumEdges(); ++e) tree.push_back(e);
        auto states = BuildForest(g, tree, {0});
        const RunStats s = probe.run(g, states);
        t.AddRow({probe.name, Table::Num(static_cast<std::uint64_t>(n)),
                  Table::Num(s.max_awake), Table::Num(s.rounds),
                  Table::Num(double(s.rounds) / double(2 * n + 1), 2)});
      }
    }
    t.Print(std::cout);
    std::cout << "(max awake is a constant <= 2 at every n; each procedure "
                 "spans at most one (2n+1)-round block)\n\n";
  }

  // --- awake rounds per phase, whole algorithms ------------------------
  {
    std::cout << "-- awake rounds per phase (awake complexity / phases):\n";
    smst::Table t({"algorithm", "n", "phases", "max awake",
                   "awake per phase"});
    for (std::size_t n : {128u, 512u}) {
      Xoshiro256 rng(n + 3);
      auto g = MakeErdosRenyi(n, 8.0 / double(n), rng);
      auto rr = RunRandomizedMst(g, {.seed = 1});
      auto dr = RunDeterministicMst(g, {.seed = 1});
      t.AddRow({"Randomized-MST", Table::Num(static_cast<std::uint64_t>(n)),
                Table::Num(rr.phases), Table::Num(rr.stats.max_awake),
                Table::Num(double(rr.stats.max_awake) / double(rr.phases), 2)});
      t.AddRow({"Deterministic-MST", Table::Num(static_cast<std::uint64_t>(n)),
                Table::Num(dr.phases), Table::Num(dr.stats.max_awake),
                Table::Num(double(dr.stats.max_awake) / double(dr.phases), 2)});
    }
    t.Print(std::cout);
    std::cout << "(the per-phase awake constant is flat in n — Lemma 7; "
                 "multiplied by O(log n) phases it gives Theorem 1/2's "
                 "O(log n) awake complexity)\n";
  }
  return 0;
}
