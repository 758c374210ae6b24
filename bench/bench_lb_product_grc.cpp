// Experiment T1-lb-product — Table 1, "AT x RT Lower Bound" (Theorem 4).
//
// On the G_rc family, any algorithm running in T = o(c) rounds must have
// awake complexity Omega(r / log^2 n), i.e. awake x rounds = Omega~(n).
// We measure (a) the awake x rounds product of our algorithms on G_rc —
// all sit above the Omega~(n) frontier; (b) the mechanism: the bits that
// must cross the O(log n)-node tree bottleneck I, as per-node message
// load at I vs elsewhere.
#include <cmath>
#include <iostream>

#include "harness.h"
#include "smst/graph/mst_reference.h"
#include "smst/lower_bounds/grc.h"
#include "smst/lower_bounds/set_disjointness.h"
#include "smst/mst/api.h"
#include "smst/mst/randomized_mst.h"
#include "smst/util/table.h"

int main(int argc, char** argv) {
  smst::bench::RejectArguments(argc, argv);
  std::cout << "== T1-lb-product: Theorem 4 — awake x rounds = Omega~(n) on "
               "G_rc ==\n\n";

  {
    std::cout << "-- awake x rounds vs the n floor (Randomized-MST and GHS "
                 "baseline)\n";
    smst::Table t({"n", "r", "c", "algorithm", "awake", "rounds",
                   "awake x rounds", "product / n"});
    for (std::size_t target : {200u, 400u, 800u, 1600u}) {
      auto [rows, cols] = smst::GrcRegimeForSize(target);
      smst::Xoshiro256 rng(target);
      auto inst = smst::BuildGrc(rows, cols, rng);
      const std::size_t n = inst.graph.NumNodes();
      for (auto algo : {smst::MstAlgorithm::kRandomized,
                        smst::MstAlgorithm::kGhsBaseline}) {
        auto r = smst::ComputeMst(inst.graph, algo, {.seed = 3});
        const double product = static_cast<double>(r.stats.max_awake) *
                               static_cast<double>(r.stats.rounds);
        t.AddRow({smst::Table::Num(static_cast<std::uint64_t>(n)),
                  smst::Table::Num(static_cast<std::uint64_t>(rows)),
                  smst::Table::Num(static_cast<std::uint64_t>(cols)),
                  smst::MstAlgorithmName(algo),
                  smst::Table::Num(r.stats.max_awake),
                  smst::Table::Num(r.stats.rounds),
                  smst::Table::Num(product, 0),
                  smst::Table::Num(product / static_cast<double>(n), 1)});
      }
    }
    t.Print(std::cout);
    std::cout << "(product/n stays bounded away from 0 and grows ~log "
                 "factors: the Omega~(n) trade-off frontier; no algorithm "
                 "can be simultaneously round-optimal and awake-optimal)\n\n";
  }

  {
    std::cout << "-- the congestion mechanism: message load at the tree "
                 "bottleneck I (SD instance encoded as MST weights)\n";
    smst::Table t({"n", "|I|", "max msgs at I", "mean msgs at I",
                   "mean msgs elsewhere", "I/elsewhere"});
    for (std::size_t target : {200u, 800u}) {
      auto [rows, cols] = smst::GrcRegimeForSize(target);
      smst::Xoshiro256 rng(target + 9);
      auto inst = smst::BuildGrc(rows, cols, rng);
      auto sd = smst::RandomSdInstance(rows - 1, rng, false);
      auto enc = smst::EncodeCssAsMstWeights(inst, sd, rng);
      auto run = smst::RunRandomizedMst(enc.graph, {.seed = 4});
      if (run.tree_edges != smst::KruskalMst(enc.graph)) {
        std::cerr << "MST mismatch\n";
        return 1;
      }
      std::vector<bool> in_i(enc.graph.NumNodes(), false);
      for (auto v : inst.tree_internal) in_i[v] = true;
      std::uint64_t max_i = 0, sum_i = 0, count_i = 0, sum_o = 0, count_o = 0;
      for (smst::NodeIndex v = 0; v < enc.graph.NumNodes(); ++v) {
        const std::uint64_t msgs = run.node_metrics[v].messages_sent;
        if (in_i[v]) {
          max_i = std::max(max_i, msgs);
          sum_i += msgs;
          ++count_i;
        } else {
          sum_o += msgs;
          ++count_o;
        }
      }
      t.AddRow({smst::Table::Num(
                    static_cast<std::uint64_t>(enc.graph.NumNodes())),
                smst::Table::Num(static_cast<std::uint64_t>(count_i)),
                smst::Table::Num(max_i),
                smst::Table::Num(double(sum_i) / double(count_i), 1),
                smst::Table::Num(double(sum_o) / double(count_o), 1),
                smst::Table::Num((double(sum_i) / double(count_i)) /
                                     (double(sum_o) / double(count_o)),
                                 2)});
    }
    t.Print(std::cout);
    std::cout << "(our algorithm spreads load: it pays with rounds instead "
                 "of congesting I — a fast algorithm would be forced to "
                 "concentrate Omega(r) bits there)\n";
  }
  return 0;
}
