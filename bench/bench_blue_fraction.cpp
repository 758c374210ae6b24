// Experiment L4-blue — Lemmas 4 and 5.
//
// In Deterministic-MST, every connected subgraph H' of the valid-MOE
// supergraph H with |H'| >= 342 has at least |H'|/342 Blue fragments, and
// all Blue fragments merge away. We measure the per-phase Blue fraction
// (it is far above the worst-case 1/342 floor in practice) and the phase
// counts vs the paper's astronomically conservative budget.
#include <iostream>
#include <vector>

#include "harness.h"
#include "smst/graph/generators.h"
#include "smst/mst/deterministic_mst.h"
#include "smst/util/table.h"

int main(int argc, char** argv) {
  smst::bench::RejectArguments(argc, argv);
  std::cout << "== L4-blue: Lemmas 4/5 — Blue fragments per phase "
               "(Deterministic-MST) ==\n\n";

  smst::Table t({"graph", "n", "phase", "fragments", "Blue", "Blue fraction",
                 "Lemma 4 floor"});
  struct Family {
    const char* name;
    smst::WeightedGraph g;
  };
  smst::Xoshiro256 rng(5);
  std::vector<Family> families;
  families.push_back({"ErdosRenyi(256, 8/n)",
                      smst::MakeErdosRenyi(256, 8.0 / 256.0, rng)});
  families.push_back({"Ring(256)", smst::MakeRing(256, rng)});
  families.push_back({"Grid(16x16)", smst::MakeGrid(16, 16, rng)});

  for (const auto& fam : families) {
    auto r = smst::RunDeterministicMst(fam.g, {.seed = 9});
    for (std::uint64_t p = 1; p <= r.phases; ++p) {
      const auto frags = r.fragments_per_phase[p];
      const auto blue = r.blue_per_phase[p];
      if (frags == 0) continue;
      t.AddRow({fam.name,
                smst::Table::Num(
                    static_cast<std::uint64_t>(fam.g.NumNodes())),
                smst::Table::Num(p), smst::Table::Num(frags),
                smst::Table::Num(blue),
                smst::Table::Num(double(blue) / double(frags), 3),
                "0.003"});
    }
  }
  t.Print(std::cout);

  std::cout << "\nphase budget comparison (measured vs the paper's "
               "ceil(log_{240000/239999} n) + 240000):\n";
  smst::Table b({"n", "measured phases", "paper budget"});
  for (std::size_t n : {64u, 256u, 1024u}) {
    smst::Xoshiro256 r2(n);
    auto g = smst::MakeErdosRenyi(n, 8.0 / double(n), r2);
    auto run = smst::RunDeterministicMst(g, {.seed = 2});
    b.AddRow({smst::Table::Num(static_cast<std::uint64_t>(n)),
              smst::Table::Num(run.phases),
              smst::Table::Num(smst::DeterministicPaperPhaseCount(n))});
  }
  b.Print(std::cout);
  std::cout << "\nExpected: Blue fractions around 1/3-1/2 (greedy coloring "
               "makes many local minima Blue), vastly above the\nadversarial "
               "1/342 floor — which is why the measured phase counts are "
               "~log(n) with a small constant.\n";
  return 0;
}
