#include "smst/graph/generators.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace smst {

namespace {

using EdgeList = std::vector<std::pair<NodeIndex, NodeIndex>>;

// Edges of a clique on k nodes, k(k-1)/2, without overflow for any k.
std::size_t CliqueEdges(std::size_t k) {
  return k % 2 == 0 ? k / 2 * (k - 1) : (k - 1) / 2 * k;
}

// Weights are sampled distinct from a poly-sized range so they fit in the
// O(log n)-bit messages the model allows.
std::vector<Weight> DrawWeights(std::size_t m, Xoshiro256& rng) {
  const std::uint64_t hi = std::max<std::uint64_t>(1u << 20, m) * 16;
  auto sorted = SampleDistinct(1, hi, m, rng);
  Shuffle(sorted, rng);
  return sorted;
}

WeightedGraph BuildFrom(std::size_t n, const EdgeList& edges, Xoshiro256& rng,
                        const GeneratorOptions& opt) {
  GraphBuilder b(n);
  // Draws weights, then IDs. Both are sampled before the builder's edge
  // list grows, so its growth reuses the samplers' freed scratch, and the
  // weights are freed before Build() sizes the port tables: set-up's peak
  // RSS stays at the builder's own.
  {
    const auto weights = DrawWeights(edges.size(), rng);
    const NodeId max_id = opt.max_id == 0 ? n : opt.max_id;
    if (max_id < n) throw std::invalid_argument("max_id must be >= n");
    if (opt.shuffle_ids || max_id != n) {
      b.SetIds(SampleIds(n, max_id, rng), max_id);
    }
    for (std::size_t i = 0; i < edges.size(); ++i) {
      b.AddEdge(edges[i].first, edges[i].second, weights[i]);
    }
  }
  return std::move(b).Build();
}

// Connects the components of `edges` with minimum extra edges chosen at
// random representatives, so random families are always usable.
void PatchConnectivity(std::size_t n, EdgeList& edges, Xoshiro256& rng) {
  std::vector<NodeIndex> parent(n);
  for (NodeIndex v = 0; v < n; ++v) parent[v] = v;
  auto find = [&](NodeIndex v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  };
  for (auto [u, v] : edges) parent[find(u)] = find(v);
  std::vector<NodeIndex> reps;
  for (NodeIndex v = 0; v < n; ++v) {
    if (find(v) == v) reps.push_back(v);
  }
  Shuffle(reps, rng);
  for (std::size_t i = 1; i < reps.size(); ++i) {
    edges.emplace_back(reps[i - 1], reps[i]);
    parent[find(reps[i - 1])] = find(reps[i]);
  }
}

}  // namespace

WeightedGraph MakePath(std::size_t n, Xoshiro256& rng,
                       const GeneratorOptions& opt) {
  CheckNodeCount(n, "path");
  EdgeList edges;
  for (NodeIndex v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  return BuildFrom(n, edges, rng, opt);
}

WeightedGraph MakeRing(std::size_t n, Xoshiro256& rng,
                       const GeneratorOptions& opt) {
  if (n < 3) throw std::invalid_argument("ring needs n >= 3");
  CheckNodeCount(n, "ring");
  EdgeList edges;
  for (NodeIndex v = 0; v < n; ++v) {
    edges.emplace_back(v, static_cast<NodeIndex>((v + 1) % n));
  }
  return BuildFrom(n, edges, rng, opt);
}

WeightedGraph MakeStar(std::size_t n, Xoshiro256& rng,
                       const GeneratorOptions& opt) {
  CheckNodeCount(n, "star");
  EdgeList edges;
  for (NodeIndex v = 1; v < n; ++v) edges.emplace_back(0, v);
  return BuildFrom(n, edges, rng, opt);
}

WeightedGraph MakeComplete(std::size_t n, Xoshiro256& rng,
                           const GeneratorOptions& opt) {
  CheckNodeCount(n, "complete graph");
  CheckEdgeCount(CliqueEdges(n), "complete graph");
  EdgeList edges;
  for (NodeIndex u = 0; u < n; ++u) {
    for (NodeIndex v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  return BuildFrom(n, edges, rng, opt);
}

WeightedGraph MakeBinaryTree(std::size_t n, Xoshiro256& rng,
                             const GeneratorOptions& opt) {
  CheckNodeCount(n, "binary tree");
  EdgeList edges;
  for (NodeIndex v = 1; v < n; ++v) edges.emplace_back((v - 1) / 2, v);
  return BuildFrom(n, edges, rng, opt);
}

WeightedGraph MakeGrid(std::size_t rows, std::size_t cols, Xoshiro256& rng,
                       const GeneratorOptions& opt) {
  CheckNodeCount(rows, cols, "grid");
  if (rows > 0 && cols > 0) {
    CheckEdgeCount(rows * (cols - 1) + (rows - 1) * cols, "grid");
  }
  auto at = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeIndex>(r * cols + c);
  };
  EdgeList edges;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.emplace_back(at(r, c), at(r, c + 1));
      if (r + 1 < rows) edges.emplace_back(at(r, c), at(r + 1, c));
    }
  }
  return BuildFrom(rows * cols, edges, rng, opt);
}

WeightedGraph MakeBarbell(std::size_t n, Xoshiro256& rng,
                          const GeneratorOptions& opt) {
  if (n < 4) throw std::invalid_argument("barbell needs n >= 4");
  CheckNodeCount(n, "barbell");
  const std::size_t half = n / 2;
  CheckEdgeCount(CliqueEdges(half) + CliqueEdges(n - half) + 1, "barbell");
  EdgeList edges;
  auto clique = [&](NodeIndex lo, NodeIndex hi) {
    for (NodeIndex u = lo; u < hi; ++u) {
      for (NodeIndex v = u + 1; v < hi; ++v) edges.emplace_back(u, v);
    }
  };
  clique(0, static_cast<NodeIndex>(half));
  clique(static_cast<NodeIndex>(half), static_cast<NodeIndex>(n));
  edges.emplace_back(static_cast<NodeIndex>(half - 1),
                     static_cast<NodeIndex>(half));
  return BuildFrom(n, edges, rng, opt);
}

WeightedGraph MakeHypercube(std::size_t dimensions, Xoshiro256& rng,
                            const GeneratorOptions& opt) {
  if (dimensions == 0 || dimensions > 20) {
    throw std::invalid_argument("hypercube needs 1 <= d <= 20");
  }
  const std::size_t n = std::size_t{1} << dimensions;
  EdgeList edges;
  for (NodeIndex v = 0; v < n; ++v) {
    for (std::size_t d = 0; d < dimensions; ++d) {
      const NodeIndex u = v ^ (NodeIndex{1} << d);
      if (v < u) edges.emplace_back(v, u);
    }
  }
  return BuildFrom(n, edges, rng, opt);
}

WeightedGraph MakeCaterpillar(std::size_t spine, Xoshiro256& rng,
                              const GeneratorOptions& opt) {
  if (spine == 0) throw std::invalid_argument("caterpillar needs spine >= 1");
  CheckNodeCount(2, spine, "caterpillar");
  EdgeList edges;
  for (NodeIndex v = 0; v + 1 < spine; ++v) edges.emplace_back(v, v + 1);
  for (NodeIndex v = 0; v < spine; ++v) {
    edges.emplace_back(v, static_cast<NodeIndex>(spine + v));
  }
  return BuildFrom(2 * spine, edges, rng, opt);
}

WeightedGraph MakeLollipop(std::size_t n, Xoshiro256& rng,
                           const GeneratorOptions& opt) {
  if (n < 4) throw std::invalid_argument("lollipop needs n >= 4");
  CheckNodeCount(n, "lollipop");
  const std::size_t head = n / 2;
  CheckEdgeCount(CliqueEdges(head) + (n - head), "lollipop");
  EdgeList edges;
  for (NodeIndex u = 0; u < head; ++u) {
    for (NodeIndex v = u + 1; v < head; ++v) edges.emplace_back(u, v);
  }
  for (NodeIndex v = static_cast<NodeIndex>(head) - 1; v + 1 < n; ++v) {
    edges.emplace_back(v, v + 1);
  }
  return BuildFrom(n, edges, rng, opt);
}

WeightedGraph MakeErdosRenyi(std::size_t n, double p, Xoshiro256& rng,
                             const GeneratorOptions& opt) {
  if (!(p >= 0.0)) {
    throw std::invalid_argument("Erdos-Renyi needs p >= 0, got " +
                                std::to_string(p));
  }
  CheckNodeCount(n, "Erdos-Renyi graph");
  // Pair (u, v) is an edge when NextDouble() < p. NextDouble() is
  // k * 2^-53 for k = Next() >> 11, and p * 2^53 is exact, so that is
  // k < ceil(p * 2^53): an integer compare with the same outcome for
  // every p in [0, 1). Every k is below 2^53, so p >= 1 takes every pair.
  const std::uint64_t below =
      p < 1.0 ? static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53))
              : std::uint64_t{1} << 53;
  // Draws from a local copy, written back after the loop, so the state
  // stays in registers instead of being reloaded around every append.
  Xoshiro256 local = rng;
  EdgeList edges;
  for (NodeIndex u = 0; u < n; ++u) {
    for (NodeIndex v = u + 1; v < n; ++v) {
      if ((local.Next() >> 11) < below) edges.emplace_back(u, v);
    }
  }
  rng = local;
  PatchConnectivity(n, edges, rng);
  return BuildFrom(n, edges, rng, opt);
}

WeightedGraph MakeRandomTree(std::size_t n, Xoshiro256& rng,
                             const GeneratorOptions& opt) {
  CheckNodeCount(n, "random tree");
  EdgeList edges;
  for (NodeIndex v = 1; v < n; ++v) {
    edges.emplace_back(static_cast<NodeIndex>(rng.NextBelow(v)), v);
  }
  return BuildFrom(n, edges, rng, opt);
}

WeightedGraph MakeRandomGeometric(std::size_t n, double radius,
                                  Xoshiro256& rng,
                                  const GeneratorOptions& opt) {
  if (!(radius >= 0.0)) {
    throw std::invalid_argument(
        "random geometric graph needs radius >= 0, got " +
        std::to_string(radius));
  }
  CheckNodeCount(n, "random geometric graph");
  std::vector<std::pair<double, double>> pts(n);
  for (auto& [x, y] : pts) {
    x = rng.NextDouble();
    y = rng.NextDouble();
  }
  const double r2 = radius * radius;
  EdgeList edges;
  for (NodeIndex u = 0; u < n; ++u) {
    for (NodeIndex v = u + 1; v < n; ++v) {
      const double dx = pts[u].first - pts[v].first;
      const double dy = pts[u].second - pts[v].second;
      if (dx * dx + dy * dy <= r2) edges.emplace_back(u, v);
    }
  }
  PatchConnectivity(n, edges, rng);
  return BuildFrom(n, edges, rng, opt);
}

WeightedGraph FromEdgeList(std::size_t n, const EdgeList& edges,
                           Xoshiro256& rng, const GeneratorOptions& opt) {
  return BuildFrom(n, edges, rng, opt);
}

}  // namespace smst
