#include "smst/lower_bounds/grc.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace smst {

namespace {

// Smallest power of two >= v (v >= 1).
std::size_t CeilPow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

GrcInstance BuildGrc(std::size_t rows, std::size_t cols, Xoshiro256& rng) {
  if (rows < 2 || cols < 4) {
    throw std::invalid_argument("G_rc needs rows >= 2 and cols >= 4");
  }
  CheckNodeCount(rows, cols, "G_rc");
  GrcInstance inst;
  inst.rows = rows;
  inst.cols = cols;

  // |X| = Theta(log n), a power of two, at most cols.
  const std::size_t approx_n = rows * cols;
  std::size_t x_count = CeilPow2(static_cast<std::size_t>(
      std::max(2.0, std::ceil(std::log2(static_cast<double>(approx_n))))));
  x_count = std::min(x_count, CeilPow2(cols) / 2 >= 2 ? CeilPow2(cols) / 2
                                                      : 2);
  while (x_count > cols) x_count /= 2;
  // Equally spaced columns including the first and last.
  for (std::size_t i = 0; i < x_count; ++i) {
    inst.x_cols.push_back(i * (cols - 1) / (x_count - 1));
  }
  inst.x_cols.erase(std::unique(inst.x_cols.begin(), inst.x_cols.end()),
                    inst.x_cols.end());
  // Keep |X| a power of two (duplicates can only arise for tiny cols).
  while ((inst.x_cols.size() & (inst.x_cols.size() - 1)) != 0) {
    inst.x_cols.pop_back();
  }
  const std::size_t x_size = inst.x_cols.size();

  // Node layout: rows*cols grid nodes, then x_size-1 tree internals
  // (a balanced binary tree over x_size leaves has x_size-1 internals).
  const std::size_t grid_nodes = rows * cols;
  const std::size_t internals = x_size - 1;
  const std::size_t n = grid_nodes + internals;
  CheckNodeCount(n, "G_rc");

  inst.node_at.assign(rows, std::vector<NodeIndex>(cols));
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      inst.node_at[r][c] = static_cast<NodeIndex>(r * cols + c);
    }
  }
  for (std::size_t i = 0; i < internals; ++i) {
    inst.tree_internal.push_back(static_cast<NodeIndex>(grid_nodes + i));
  }
  inst.alice = inst.node_at[0][0];
  inst.bob = inst.node_at[0][cols - 1];

  std::vector<std::pair<NodeIndex, NodeIndex>> edges;
  std::vector<bool> is_backbone;
  auto add = [&](NodeIndex a, NodeIndex b, bool backbone) {
    edges.emplace_back(a, b);
    is_backbone.push_back(backbone);
    return static_cast<EdgeIndex>(edges.size() - 1);
  };

  // Row paths (backbone).
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c + 1 < cols; ++c) {
      add(inst.node_at[r][c], inst.node_at[r][c + 1], true);
    }
  }
  // Alice / Bob attachments to rows 2..r (the SD-encoding edges).
  for (std::size_t r = 1; r < rows; ++r) {
    inst.alice_row_edges.push_back(add(inst.alice, inst.node_at[r][0], false));
    inst.bob_row_edges.push_back(
        add(inst.bob, inst.node_at[r][cols - 1], false));
  }
  // X columns down to every other row (not backbone, never marked).
  for (std::size_t xc : inst.x_cols) {
    for (std::size_t r = 1; r < rows; ++r) {
      if (xc == 0 || xc == cols - 1) continue;  // Alice/Bob already attach
      add(inst.node_at[0][xc], inst.node_at[r][xc], false);
    }
  }
  // Balanced binary tree over X (backbone). Heap-style: internals are a
  // complete binary tree with x_size leaves below.
  {
    // Build bottom-up: level 0 = the X nodes in row 1.
    std::vector<NodeIndex> level;
    for (std::size_t xc : inst.x_cols) level.push_back(inst.node_at[0][xc]);
    std::size_t next_internal = 0;
    while (level.size() > 1) {
      std::vector<NodeIndex> above;
      for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
        NodeIndex parent = inst.tree_internal[next_internal++];
        add(parent, level[i], true);
        add(parent, level[i + 1], true);
        above.push_back(parent);
      }
      if (level.size() % 2 == 1) above.push_back(level.back());
      level = std::move(above);
    }
  }

  // Random distinct weights; IDs 1..n unshuffled (IDs are irrelevant to
  // the lower-bound experiments, and fixed IDs keep them reproducible).
  GraphBuilder builder(n);
  {
    const std::uint64_t hi = std::max<std::uint64_t>(1u << 20, edges.size()) * 16;
    auto weights = SampleDistinct(1, hi, edges.size(), rng);
    Shuffle(weights, rng);
    for (std::size_t i = 0; i < edges.size(); ++i) {
      builder.AddEdge(edges[i].first, edges[i].second, weights[i]);
    }
  }
  inst.graph = std::move(builder).Build();
  for (EdgeIndex e = 0; e < is_backbone.size(); ++e) {
    if (is_backbone[e]) inst.backbone_edges.push_back(e);
  }
  return inst;
}

std::pair<std::size_t, std::size_t> GrcRegimeForSize(std::size_t n) {
  // c ~ sqrt(n) * log^2(n) clipped so that r = n/c >= 2; for the modest n
  // a simulation reaches, this keeps c >> r as the regime demands.
  const double logn = std::max(1.0, std::log2(static_cast<double>(n)));
  double c = std::sqrt(static_cast<double>(n)) * logn;
  std::size_t cols = static_cast<std::size_t>(c);
  std::size_t rows = std::max<std::size_t>(2, n / std::max<std::size_t>(cols, 4));
  cols = std::max<std::size_t>(4, n / rows);
  return {rows, cols};
}

}  // namespace smst
