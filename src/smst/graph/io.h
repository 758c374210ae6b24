// Graph serialization: a plain edge-list text format for loading user
// networks (CLI `--input`), and Graphviz DOT export with optional MST
// highlighting for inspection.
//
// Edge-list format (whitespace-separated, '#' comments; every field is
// one unsigned decimal number and a line has no further tokens):
//   n <node-count> [<max-id>]           (max-id is N; default node-count)
//   [id <node-index> <node-id>]...      (optional, one per node if any;
//                                        default IDs 1..n)
//   <u> <v> <weight>                    (one line per edge, 0-based)
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "smst/graph/graph.h"

namespace smst {

// Parses the edge-list format; throws std::invalid_argument with a line
// number on malformed input (and propagates GraphBuilder's validation:
// distinct weights, connectivity, ...).
WeightedGraph ReadEdgeList(std::istream& in);
WeightedGraph ReadEdgeListFile(const std::string& path);

// Writes a graph in the same format (round-trips through ReadEdgeList).
void WriteEdgeList(const WeightedGraph& g, std::ostream& out);

// Graphviz DOT. Tree edges (if provided) are drawn bold/colored; node
// labels show "index (id)".
void WriteDot(const WeightedGraph& g, const std::vector<EdgeIndex>& tree_edges,
              std::ostream& out);

}  // namespace smst
