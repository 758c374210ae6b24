#include "smst/graph/io.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "smst/util/parse.h"

namespace smst {

namespace {

[[noreturn]] void Fail(std::size_t line, const std::string& what) {
  throw std::invalid_argument("edge list line " + std::to_string(line) +
                              ": " + what);
}

// `tok` read as one whole unsigned decimal number: digits only (no sign,
// fraction or trailing characters) and within uint64.
std::uint64_t Number(std::size_t line, const std::string& tok,
                     const char* what) {
  const std::optional<std::uint64_t> value = ParseDecimalUint(tok);
  if (!value) Fail(line, std::string("bad ") + what + " '" + tok + "'");
  return *value;
}

// The 'id' lines as read, checked once the input ends: nothing n-sized
// is allocated before the edges are in, so a header naming billions of
// nodes costs nothing until the builder's edge count rejects it.
struct IdLine {
  NodeIndex node;
  NodeId id;
  std::size_t line;
};

// One ID per node: throws on a node named twice (at the later line of
// the earliest such repeat) or missing; otherwise the IDs by node.
std::vector<NodeId> CollectIds(std::vector<IdLine> lines, std::size_t n) {
  std::stable_sort(lines.begin(), lines.end(),
                   [](const IdLine& x, const IdLine& y) {
                     return x.node < y.node;
                   });
  const IdLine* repeat = nullptr;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].node == lines[i - 1].node &&
        (repeat == nullptr || lines[i].line < repeat->line)) {
      repeat = &lines[i];
    }
  }
  if (repeat != nullptr) {
    Fail(repeat->line,
         "second 'id' line for node " + std::to_string(repeat->node));
  }
  // Sorted by node and distinct, so the first missing node is the first
  // v that lines[v] does not name (found within lines.size() + 1 steps).
  for (std::size_t v = 0; v < n; ++v) {
    if (v == lines.size() || lines[v].node != v) {
      throw std::invalid_argument("node " + std::to_string(v) +
                                  " has no 'id' line");
    }
  }
  std::vector<NodeId> ids(n);
  for (const IdLine& l : lines) ids[l.node] = l.id;
  return ids;
}

}  // namespace

WeightedGraph ReadEdgeList(std::istream& in) {
  std::optional<GraphBuilder> builder;
  std::size_t n = 0;
  NodeId max_id = 0;
  std::vector<IdLine> id_lines;

  std::string line;
  std::size_t line_no = 0;
  std::vector<std::string> tok;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    tok.clear();
    for (std::string t; ls >> t;) tok.push_back(std::move(t));
    if (tok.empty()) continue;  // blank / comment-only

    if (tok[0] == "n") {
      if (builder.has_value()) Fail(line_no, "duplicate 'n' header");
      if (tok.size() < 2 || tok.size() > 3) {
        Fail(line_no, "expected 'n count [max-id]'");
      }
      const std::uint64_t count = Number(line_no, tok[1], "node count");
      if (count == 0) Fail(line_no, "bad node count");
      if (count > std::numeric_limits<NodeIndex>::max()) {
        Fail(line_no, "node count " + tok[1] + " exceeds the node index range");
      }
      n = count;
      max_id = tok.size() == 3 ? Number(line_no, tok[2], "max-id") : n;
      if (max_id < n) Fail(line_no, "max-id below node count");
      builder.emplace(n);
      continue;
    }
    if (!builder.has_value()) Fail(line_no, "edges before the 'n' header");
    if (tok[0] == "id") {
      if (tok.size() != 3) Fail(line_no, "expected 'id node id'");
      const std::uint64_t v = Number(line_no, tok[1], "node");
      if (v >= n) Fail(line_no, "bad id line");
      id_lines.push_back({static_cast<NodeIndex>(v),
                          Number(line_no, tok[2], "id"), line_no});
      continue;
    }
    // Edge line: u v w.
    if (tok.size() != 3) Fail(line_no, "expected 'u v weight'");
    const std::uint64_t u = Number(line_no, tok[0], "endpoint");
    const std::uint64_t v = Number(line_no, tok[1], "endpoint");
    const Weight w = Number(line_no, tok[2], "weight");
    if (u >= n || v >= n) Fail(line_no, "edge endpoint out of range");
    try {
      builder->AddEdge(static_cast<NodeIndex>(u), static_cast<NodeIndex>(v),
                       w);
    } catch (const std::invalid_argument& e) {
      Fail(line_no, e.what());
    }
  }
  if (!builder.has_value()) throw std::invalid_argument("empty edge list");
  if (id_lines.empty()) {
    builder->SetMaxId(max_id);
  } else {
    builder->SetIds(CollectIds(std::move(id_lines), n), max_id);
  }
  return std::move(*builder).Build();
}

WeightedGraph ReadEdgeListFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open '" + path + "'");
  return ReadEdgeList(in);
}

void WriteEdgeList(const WeightedGraph& g, std::ostream& out) {
  out << "# sleeping-mst edge list\n";
  out << "n " << g.NumNodes() << " " << g.MaxId() << "\n";
  for (NodeIndex v = 0; v < g.NumNodes(); ++v) {
    out << "id " << v << " " << g.IdOf(v) << "\n";
  }
  for (const Edge& e : g.Edges()) {
    out << e.u << " " << e.v << " " << e.weight << "\n";
  }
}

void WriteDot(const WeightedGraph& g, const std::vector<EdgeIndex>& tree_edges,
              std::ostream& out) {
  std::vector<bool> in_tree(g.NumEdges(), false);
  for (EdgeIndex e : tree_edges) in_tree[e] = true;
  out << "graph smst {\n  node [shape=circle fontsize=10];\n";
  for (NodeIndex v = 0; v < g.NumNodes(); ++v) {
    out << "  " << v << " [label=\"" << v << " (" << g.IdOf(v) << ")\"];\n";
  }
  for (EdgeIndex e = 0; e < g.NumEdges(); ++e) {
    const Edge& edge = g.GetEdge(e);
    out << "  " << edge.u << " -- " << edge.v << " [label=\"" << edge.weight
        << "\"";
    if (in_tree[e]) out << " penwidth=2.5 color=\"#2166ac\"";
    else out << " color=\"#bbbbbb\"";
    out << "];\n";
  }
  out << "}\n";
}

}  // namespace smst
