// Golden records for the toolbox procedures, each run one instance per
// node under ProcedureProgram, and the exact text of every stall they
// throw.
//
// A record is one FNV-1a digest per (procedure, shape) over the run's last
// round and, node by node: its awake rounds, messages, bits, model drops
// and wake times; every round its sub-machine requested and every message
// it pushed, in order; and its result fields (Fragment-Broadcast's msg,
// Upcast-Min's best, Upcast-Sum's subtree and per-child totals,
// Merging-Fragments' merged LDT and MST marks, Fast-Awake-Coloring's own
// and neighbor colors). A rewrite of a procedure must leave every row as
// it is; on a mismatch the test prints the actual rows in table syntax.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <iostream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "smst/faults/run_outcome.h"
#include "smst/graph/generators.h"
#include "smst/runtime/simulator.h"
#include "smst/sleeping/flat_procedures.h"
#include "tests/test_util.h"

namespace smst {
namespace {

using testing::BuildForest;
using testing::PortTo;

struct ProcedureGolden {
  const char* cell;
  std::uint64_t rounds;
  std::uint64_t digest;
};

// clang-format off
const ProcedureGolden kProcedureGolden[] = {
    {"broadcast/path-33", 32, 0xceb869d0a55b0185ull},
    {"broadcast/star-10", 1, 0xa25a5d68b15a883cull},
    {"broadcast/random-tree-40", 6, 0xd84b8cb6996b525cull},
    {"broadcast/random-tree-40/short-span", 8, 0x1bcf139194e30723ull},
    {"broadcast/random-forest-40", 5, 0x6c3f7791514411aeull},
    {"upcast-min/path-33", 68, 0xa3e14acbf48c2f12ull},
    {"upcast-min/star-10", 22, 0xa63abf213f6f521eull},
    {"upcast-min/random-tree-40", 82, 0x827148f06611d840ull},
    {"upcast-min/random-tree-40/short-span", 20, 0x56df6cee2919b7d0ull},
    {"upcast-min/random-forest-40", 82, 0xed0f007826d8ec66ull},
    {"upcast-sum/path-33", 69, 0xbda94ba9f20cc09bull},
    {"upcast-sum/star-10", 23, 0x3a2f5dea506afe85ull},
    {"upcast-sum/random-tree-40", 83, 0xa7f295a76c190fd8ull},
    {"upcast-sum/random-tree-40/short-span", 21, 0xeabc3d6392828fdcull},
    {"upcast-sum/random-forest-40", 83, 0x2e03744d699ecc8dull},
    {"merge/heads-only-4", 5, 0xc97a129448540e0aull},
    {"merge/attach-4", 19, 0x250ab874d7928672ull},
    {"merge/path-reversal-6", 26, 0xa060df4f529acb16ull},
    {"merge/star-merge-4", 5, 0xea57a8ff23887cc9ull},
    {"merge/branches-6", 28, 0xa6e29a720a31e93ull},
    {"merge/path-33", 134, 0x145798eb7c434a02ull},
    {"merge/star-10", 11, 0xdf9018d543d85df8ull},
    {"merge/random-forest-40", 167, 0x15d3abafdfed35b1ull},
    {"merge/random-forest-40/short-span", 35, 0x4442bd64599ae4aull},
    {"coloring/path-8", 638, 0xa73d89437e54b793ull},
    {"coloring/star-5", 248, 0xcf615c653bf9e34dull},
    {"coloring/isolated-4", 0, 0xbc506e5b7fbf0a05ull},
    {"coloring/ring-12", 1438, 0x18520e175ff2ccc1ull},
    {"coloring/sparse-ids-6", 2568, 0xf41ac8508e48e1aaull},
    {"coloring/path-33", 7648, 0xefc00e5fb4cb298ull},
    {"coloring/star-10", 1030, 0x915fcee48998e8f1ull},
    {"coloring/random-forest-40", 15717, 0x940e05653330e328ull},
};
// clang-format on

class Digest {
 public:
  void Word(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void Msg(const Message& m) {
    Word(m.type);
    Word(m.a);
    Word(m.b);
    Word(m.c);
  }
  std::uint64_t Value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// A graph, an LDT forest over it, and every procedure's other inputs.
struct Shape {
  explicit Shape(WeightedGraph graph)
      : g(std::move(graph)),
        roles(g.NumNodes()),
        nbr(g.NumNodes()),
        h_ports(g.NumNodes()) {}

  WeightedGraph g;
  std::vector<LdtState> forest;
  std::size_t span = 0;  // the schedule span; 0 = n
  // Merging-Fragments.
  std::vector<MergeRole> roles;
  // Fast-Awake-Coloring: the fragment-wide H-neighbor lists and each
  // node's own boundary ports.
  std::vector<std::vector<NbrEntry>> nbr;
  std::vector<std::vector<HPort>> h_ports;
};

// One fragment spanning the whole tree `g`, rooted at `root`.
Shape OneTree(WeightedGraph g, NodeIndex root) {
  Shape s(std::move(g));
  std::vector<EdgeIndex> all(s.g.NumEdges());
  std::iota(all.begin(), all.end(), EdgeIndex{0});
  s.forest = BuildForest(s.g, all, {root});
  return s;
}

Shape Forest(WeightedGraph g, const std::vector<EdgeIndex>& tree_edges,
             const std::vector<NodeIndex>& roots) {
  Shape s(std::move(g));
  s.forest = BuildForest(s.g, tree_edges, roots);
  return s;
}

// The smallest span that holds every level.
std::size_t ShortSpan(const Shape& s) {
  std::uint64_t top = 0;
  for (const LdtState& l : s.forest) top = std::max(top, l.level);
  return static_cast<std::size_t>(top + 1);
}

// Makes every edge of `h_edges` (each joining two fragments) an H-edge:
// its endpoints get the boundary port, and every node of either fragment
// lists the other one.
void AddHEdges(Shape& s, const std::vector<EdgeIndex>& h_edges) {
  for (EdgeIndex e : h_edges) {
    const Edge& edge = s.g.GetEdge(e);
    const NodeId fu = s.forest[edge.u].fragment_id;
    const NodeId fv = s.forest[edge.v].fragment_id;
    s.h_ports[edge.u].push_back({PortTo(s.g, edge.u, edge.v), fv});
    s.h_ports[edge.v].push_back({PortTo(s.g, edge.v, edge.u), fu});
    for (NodeIndex x = 0; x < s.g.NumNodes(); ++x) {
      if (s.forest[x].fragment_id == fu) {
        s.nbr[x].push_back({fv, edge.weight, true});
      }
      if (s.forest[x].fragment_id == fv) {
        s.nbr[x].push_back({fu, edge.weight, false});
      }
    }
  }
}

// `attach`'s fragment merges into `target`'s over the edge between them.
void Tails(Shape& s, NodeIndex attach, NodeIndex target) {
  const NodeId frag = s.forest[attach].fragment_id;
  for (NodeIndex v = 0; v < s.g.NumNodes(); ++v) {
    if (s.forest[v].fragment_id == frag) s.roles[v].is_tails = true;
  }
  s.roles[attach].attach_port = PortTo(s.g, attach, target);
}

// A seeded random tree cut into fragments. Walking down from node 0, each
// edge is cut with probability 1/3 unless the fragment above already has
// 4 H-edges (H's degree bound, which the coloring needs). A fragment is
// rooted at a random member other than its top node, so attaching over
// the top edge re-roots it. Fragments an odd number of cuts below node 0
// are tails and attach over their top edge to the heads fragment above;
// the cut edges are the H-edges.
Shape RandomForest(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  WeightedGraph g = MakeRandomTree(n, rng);
  // Breadth-first from node 0: parents come before their children.
  std::vector<NodeIndex> order{0};
  std::vector<NodeIndex> parent(n, kInvalidNode);
  std::vector<EdgeIndex> up(n, kInvalidEdge);
  parent[0] = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (const Port& p : g.PortsOf(order[i])) {
      if (parent[p.neighbor] != kInvalidNode) continue;
      parent[p.neighbor] = order[i];
      up[p.neighbor] = p.edge;
      order.push_back(p.neighbor);
    }
  }
  std::vector<NodeIndex> top(n, 0);  // the first node of v's fragment
  std::vector<int> h_degree(n, 0);   // per fragment top
  std::vector<int> depth(n, 0);      // cuts above v
  std::vector<EdgeIndex> kept;
  std::vector<EdgeIndex> cut;
  for (std::size_t i = 1; i < n; ++i) {
    const NodeIndex v = order[i];
    const NodeIndex p = parent[v];
    if (h_degree[top[p]] < 4 && rng.NextBelow(3) == 0) {
      ++h_degree[top[p]];
      h_degree[v] = 1;
      top[v] = v;
      depth[v] = depth[p] + 1;
      cut.push_back(up[v]);
    } else {
      top[v] = top[p];
      depth[v] = depth[p];
      kept.push_back(up[v]);
    }
  }
  std::vector<NodeIndex> roots;
  for (NodeIndex t : order) {
    if (top[t] != t) continue;
    std::vector<NodeIndex> below;  // the fragment's other members
    for (NodeIndex v = 0; v < n; ++v) {
      if (top[v] == t && v != t) below.push_back(v);
    }
    roots.push_back(below.empty() ? t : below[rng.NextBelow(below.size())]);
  }
  Shape s = Forest(std::move(g), kept, roots);
  AddHEdges(s, cut);
  for (NodeIndex t : order) {
    if (top[t] == t && depth[t] % 2 == 1) Tails(s, t, parent[t]);
  }
  return s;
}

WeightedGraph Ordered(WeightedGraph (*make)(std::size_t, Xoshiro256&,
                                            const GeneratorOptions&),
                      std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  GeneratorOptions opt;
  opt.shuffle_ids = false;
  return make(n, rng, opt);
}

WeightedGraph PathOf(std::size_t n, const std::vector<Weight>& weights) {
  GraphBuilder b(n);
  for (NodeIndex v = 0; v + 1 < n; ++v) b.AddEdge(v, v + 1, weights[v]);
  return std::move(b).Build();
}

// --- the shapes --------------------------------------------------------

// Fragment-Broadcast, Upcast-Min and Upcast-Sum: a deep path, a hub whose
// 9 children spill past the child list's inline 4, a seeded random tree
// (also with the shortest span its levels allow) and a random forest.
std::vector<std::pair<std::string, Shape>> TreeShapes() {
  std::vector<std::pair<std::string, Shape>> shapes;
  shapes.emplace_back("path-33", OneTree(Ordered(MakePath, 33, 1), 0));
  shapes.emplace_back("star-10", OneTree(Ordered(MakeStar, 10, 2), 0));
  Xoshiro256 rng(3);
  shapes.emplace_back("random-tree-40", OneTree(MakeRandomTree(40, rng), 0));
  Shape short_span = OneTree(MakeRandomTree(40, rng), 5);
  short_span.span = ShortSpan(short_span);
  shapes.emplace_back("random-tree-40/short-span", std::move(short_span));
  shapes.emplace_back("random-forest-40", RandomForest(40, 4));
  return shapes;
}

// Merging-Fragments: sleeping_test's inputs, a deep re-root path, 9 tails
// singletons attaching to one hub, and the random forest (also with its
// shortest span).
std::vector<std::pair<std::string, Shape>> MergeShapes() {
  std::vector<std::pair<std::string, Shape>> shapes;
  {
    Shape s = Forest(PathOf(4, {1, 2, 3}), {0, 2}, {0, 2});
    shapes.emplace_back("heads-only-4", s);
    Tails(s, 2, 1);
    shapes.emplace_back("attach-4", std::move(s));
  }
  {
    Shape s = Forest(PathOf(6, {1, 2, 3, 4, 5}), {0, 2, 3, 4}, {0, 5});
    Tails(s, 2, 1);
    shapes.emplace_back("path-reversal-6", std::move(s));
  }
  {
    GraphBuilder b(4);
    b.AddEdge(0, 1, 1).AddEdge(0, 2, 2).AddEdge(0, 3, 3);
    Shape s = Forest(std::move(b).Build(), {}, {0, 1, 2, 3});
    for (NodeIndex v : {1u, 2u, 3u}) Tails(s, v, 0);
    shapes.emplace_back("star-merge-4", std::move(s));
  }
  {
    GraphBuilder b(6);
    b.AddEdge(0, 1, 1).AddEdge(1, 2, 2).AddEdge(2, 3, 3).AddEdge(3, 4, 4)
        .AddEdge(3, 5, 5);
    Shape s = Forest(std::move(b).Build(), {0, 2, 3, 4}, {0, 4});
    Tails(s, 2, 1);
    shapes.emplace_back("branches-6", std::move(s));
  }
  {
    std::vector<EdgeIndex> kept(32);
    std::iota(kept.begin(), kept.end(), EdgeIndex{0});
    kept.erase(kept.begin() + 15);  // the edge 15-16
    Shape s = Forest(Ordered(MakePath, 33, 5), kept, {0, 32});
    Tails(s, 16, 15);
    shapes.emplace_back("path-33", std::move(s));
  }
  {
    Shape s = Forest(Ordered(MakeStar, 10, 6), {},
                     {0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
    for (NodeIndex v = 1; v < 10; ++v) Tails(s, v, 0);
    shapes.emplace_back("star-10", std::move(s));
  }
  {
    Shape s = RandomForest(40, 3);
    shapes.emplace_back("random-forest-40", s);
    s.span = ShortSpan(s);
    shapes.emplace_back("random-forest-40/short-span", std::move(s));
  }
  return shapes;
}

// Fast-Awake-Coloring: sleeping_test's inputs (singleton fragments), a
// path of three 11-node fragments, a hub fragment with 5 children and 4
// singleton H-neighbors, and the random forest.
std::vector<std::pair<std::string, Shape>> ColoringShapes() {
  std::vector<std::pair<std::string, Shape>> shapes;
  auto singletons = [](WeightedGraph g, const std::vector<EdgeIndex>& h) {
    std::vector<NodeIndex> roots(g.NumNodes());
    std::iota(roots.begin(), roots.end(), NodeIndex{0});
    Shape s = Forest(std::move(g), {}, roots);
    AddHEdges(s, h);
    return s;
  };
  auto every_edge = [](const WeightedGraph& g) {
    std::vector<EdgeIndex> all(g.NumEdges());
    std::iota(all.begin(), all.end(), EdgeIndex{0});
    return all;
  };
  {
    WeightedGraph g = Ordered(MakePath, 8, 1);
    const auto h = every_edge(g);
    shapes.emplace_back("path-8", singletons(std::move(g), h));
  }
  shapes.emplace_back("star-5",
                      singletons(Ordered(MakeStar, 5, 2), {0, 1, 2, 3}));
  shapes.emplace_back("isolated-4", singletons(Ordered(MakePath, 4, 3), {}));
  {
    WeightedGraph g = Ordered(MakeRing, 12, 4);
    const auto h = every_edge(g);
    shapes.emplace_back("ring-12", singletons(std::move(g), h));
  }
  {
    GraphBuilder b(6);
    b.AddEdge(0, 1, 1).AddEdge(1, 2, 2).AddEdge(2, 3, 3).AddEdge(3, 4, 4)
        .AddEdge(4, 5, 5);
    b.SetIds({40, 3, 17, 8, 25, 11}, 40);
    shapes.emplace_back("sparse-ids-6",
                        singletons(std::move(b).Build(), {0, 1, 2, 3, 4}));
  }
  {
    std::vector<EdgeIndex> kept(32);
    std::iota(kept.begin(), kept.end(), EdgeIndex{0});
    kept.erase(kept.begin() + 21);  // the edge 21-22
    kept.erase(kept.begin() + 10);  // the edge 10-11
    Shape s = Forest(Ordered(MakePath, 33, 8), kept, {0, 21, 22});
    AddHEdges(s, {10, 21});
    shapes.emplace_back("path-33", std::move(s));
  }
  {
    // MakeStar joins the hub to leaf v + 1 by edge v.
    Shape s = Forest(Ordered(MakeStar, 10, 9), {0, 1, 2, 3, 4},
                     {0, 6, 7, 8, 9});
    AddHEdges(s, {5, 6, 7, 8});
    shapes.emplace_back("star-10", std::move(s));
  }
  shapes.emplace_back("random-forest-40", RandomForest(40, 10));
  return shapes;
}

// --- running and digesting ----------------------------------------------

// One procedure instance plus a log of what it asked of the engine: each
// round it requested and each message it pushed, in order.
template <typename Proc>
struct Logged {
  Proc proc;
  Digest log;

  Round Note(Round r, const SendLane& sends) {
    log.Word(r);
    log.Word(sends.size());
    for (const OutMessage& out : sends) {
      log.Word(out.port);
      log.Msg(out.msg);
    }
    return r;
  }
  Round Resume(const FlatNodeRef& node, std::span<const InMessage> inbox,
               SendLane& sends) {
    return Note(proc.Resume(node, inbox, sends), sends);
  }
};

template <typename Proc>
using BeginFn =
    std::function<Round(const FlatNodeRef&, Proc&, SendLane& sends)>;
template <typename Proc>
using ResultFn = std::function<void(Digest&, NodeIndex, const Proc&)>;

struct Pin {
  std::uint64_t rounds = 0;
  std::uint64_t digest = 0;
};

// Runs `begin` on every node's instance and digests the run; `result`
// folds node v's result fields in.
template <typename Proc>
Pin DigestRun(const WeightedGraph& g, const BeginFn<Proc>& begin,
              const ResultFn<Proc>& result) {
  ProcedureProgram<Logged<Proc>> program(
      g, [&](const FlatNodeRef& node, Logged<Proc>& p, SendLane& sends) {
        return p.Note(begin(node, p.proc, sends), sends);
      });
  SimulatorOptions opt;
  opt.record_wake_times = true;
  Simulator sim(g, opt);
  sim.Run(program);
  Digest d;
  const std::uint64_t rounds = sim.Stats().rounds;
  d.Word(rounds);
  for (NodeIndex v = 0; v < g.NumNodes(); ++v) {
    const NodeMetrics& m = sim.GetMetrics().Node(v);
    d.Word(m.awake_rounds);
    d.Word(m.messages_sent);
    d.Word(m.bits_sent);
    d.Word(m.messages_dropped);
    d.Word(m.wake_times.size());
    for (std::uint64_t t : m.wake_times) d.Word(t);
    d.Word(program[v].log.Value());
    result(d, v, program[v].proc);
  }
  return {rounds, d.Value()};
}

std::size_t SpanOf(const Shape& s) {
  return s.span == 0 ? s.g.NumNodes() : s.span;
}

Pin Broadcast(const Shape& s) {
  return DigestRun<FlatBroadcast>(
      s.g,
      [&](const FlatNodeRef& node, FlatBroadcast& proc, SendLane& sends) {
        const NodeId id = node.Id();
        return proc.Begin(node, s.forest[node.v], 1,
                          Message{100, 4000 + id, id, 7}, sends, s.span);
      },
      [](Digest& d, NodeIndex, const FlatBroadcast& proc) {
        d.Msg(proc.msg);
      });
}

Pin UpcastMin(const Shape& s) {
  return DigestRun<FlatUpcastMin>(
      s.g,
      [&](const FlatNodeRef& node, FlatUpcastMin& proc, SendLane& sends) {
        // Every fourth ID offers nothing; keys collide now and then.
        const NodeId id = node.Id();
        const UpcastItem own = id % 4 == 0
                                   ? UpcastItem{}
                                   : UpcastItem{id * 7919 % 13 + 1, id, id % 3};
        return proc.Begin(node, s.forest[node.v], 2, own, sends, s.span);
      },
      [](Digest& d, NodeIndex, const FlatUpcastMin& proc) {
        d.Word(proc.best.key);
        d.Word(proc.best.b);
        d.Word(proc.best.c);
      });
}

Pin UpcastSum(const Shape& s) {
  return DigestRun<FlatUpcastSum>(
      s.g,
      [&](const FlatNodeRef& node, FlatUpcastSum& proc, SendLane& sends) {
        return proc.Begin(node, s.forest[node.v], 3, node.Id() % 3, sends,
                          s.span);
      },
      [](Digest& d, NodeIndex, const FlatUpcastSum& proc) {
        d.Word(proc.result.subtree_total);
        d.Word(proc.result.child_totals.size());
        for (const auto& [port, total] : proc.result.child_totals) {
          d.Word(port);
          d.Word(total);
        }
      });
}

Pin Merge(const Shape& s) {
  std::vector<LdtState> ldt = s.forest;
  std::vector<std::vector<std::uint8_t>> marks;
  for (NodeIndex v = 0; v < s.g.NumNodes(); ++v) {
    marks.emplace_back(s.g.DegreeOf(v), 0);
  }
  return DigestRun<FlatMerge>(
      s.g,
      [&](const FlatNodeRef& node, FlatMerge& proc, SendLane& sends) {
        BlockCursor cursor(1, SpanOf(s));
        return proc.Begin(node, ldt[node.v], cursor, s.roles[node.v],
                          marks[node.v], sends);
      },
      [&](Digest& d, NodeIndex v, const FlatMerge&) {
        d.Word(ldt[v].fragment_id);
        d.Word(ldt[v].level);
        d.Word(ldt[v].parent_port);
        d.Word(ldt[v].child_ports.size());
        for (std::uint32_t p : ldt[v].child_ports) d.Word(p);
        for (std::uint8_t mark : marks[v]) d.Word(mark);
      });
}

Pin Coloring(const Shape& s) {
  return DigestRun<FlatColoring>(
      s.g,
      [&](const FlatNodeRef& node, FlatColoring& proc, SendLane& sends) {
        BlockCursor cursor(1, node.NumNodesKnown());
        return proc.Begin(node, s.forest[node.v], cursor, s.nbr[node.v],
                          s.h_ports[node.v], sends);
      },
      [](Digest& d, NodeIndex, const FlatColoring& proc) {
        d.Word(static_cast<std::uint64_t>(proc.result.my_color));
        d.Word(proc.result.neighbor_colors.size());
        for (const auto& [id, color] : proc.result.neighbor_colors) {
          d.Word(id);
          d.Word(static_cast<std::uint64_t>(color));
        }
      });
}

TEST(ProcedureGoldenTest, RunsMatchTheRecords) {
  std::vector<std::pair<std::string, std::function<Pin()>>> cells;
  const auto tree = TreeShapes();
  const auto merge = MergeShapes();
  const auto coloring = ColoringShapes();
  for (const auto& [name, s] : tree) {
    ASSERT_EQ(CheckForestInvariant(s.g, s.forest), "") << name;
    cells.emplace_back("broadcast/" + name, [&s = s] { return Broadcast(s); });
  }
  for (const auto& [name, s] : tree) {
    cells.emplace_back("upcast-min/" + name, [&s = s] { return UpcastMin(s); });
  }
  for (const auto& [name, s] : tree) {
    cells.emplace_back("upcast-sum/" + name, [&s = s] { return UpcastSum(s); });
  }
  for (const auto& [name, s] : merge) {
    ASSERT_EQ(CheckForestInvariant(s.g, s.forest), "") << name;
    cells.emplace_back("merge/" + name, [&s = s] { return Merge(s); });
  }
  for (const auto& [name, s] : coloring) {
    ASSERT_EQ(CheckForestInvariant(s.g, s.forest), "") << name;
    cells.emplace_back("coloring/" + name, [&s = s] { return Coloring(s); });
  }

  EXPECT_EQ(std::size(kProcedureGolden), cells.size()) << "table out of date";
  std::ostringstream actual;
  for (const auto& [name, run] : cells) {
    const Pin got = run();
    std::ostringstream row;
    row << "{\"" << name << "\", " << got.rounds << ", 0x" << std::hex
        << got.digest << "ull},";
    actual << "    " << row.str() << "\n";
    const ProcedureGolden* want = nullptr;
    for (const ProcedureGolden& pg : kProcedureGolden) {
      if (name == pg.cell) want = &pg;
    }
    if (want == nullptr) {
      ADD_FAILURE() << "no record for " << name;
      continue;
    }
    EXPECT_EQ(got.rounds, want->rounds) << row.str();
    EXPECT_EQ(got.digest, want->digest) << row.str();
  }
  if (HasFailure()) std::cout << "actual rows:\n" << actual.str();
}

// --- throw sites -----------------------------------------------------------
//
// Each stall is driven by hand-built inputs that no fault-free run
// produces, so exactly one node (or, for the coloring, one fragment)
// fails; the test pins the exception's type and its full text.

template <typename Proc>
std::string ThrownBy(const WeightedGraph& g,
                     typename ProcedureProgram<Proc>::BeginFn begin) {
  ProcedureProgram<Proc> program(g, std::move(begin));
  Simulator sim(g);
  try {
    sim.Run(program);
  } catch (const ProtocolStallError& e) {
    return std::string("ProtocolStallError: ") + e.what();
  } catch (const std::runtime_error& e) {
    return std::string("runtime_error: ") + e.what();
  }
  return "nothing thrown";
}

// Runs one merge wave over `s` with every node's cursor at round 1,
// except `late`'s at round 1000.
std::string MergeThrows(Shape& s, NodeIndex late = kInvalidNode) {
  std::vector<std::vector<std::uint8_t>> marks;
  for (NodeIndex v = 0; v < s.g.NumNodes(); ++v) {
    marks.emplace_back(s.g.DegreeOf(v), 0);
  }
  return ThrownBy<FlatMerge>(
      s.g, [&](const FlatNodeRef& node, FlatMerge& proc, SendLane& sends) {
        BlockCursor cursor(node.v == late ? 1000 : 1, node.NumNodesKnown());
        return proc.Begin(node, s.forest[node.v], cursor, s.roles[node.v],
                          marks[node.v], sends);
      });
}

TEST(ProcedureStallTest, BroadcastParentSilent) {
  // Node 1 has node 0 for its parent, but node 0 lists no children.
  Shape s = Forest(PathOf(2, {1}), {}, {0, 1});
  s.forest[1].parent_port = PortTo(s.g, 1, 0);
  s.forest[1].level = 1;
  s.forest[1].fragment_id = s.g.IdOf(0);
  EXPECT_EQ(ThrownBy<FlatBroadcast>(
                s.g,
                [&](const FlatNodeRef& node, FlatBroadcast& proc,
                    SendLane& sends) {
                  return proc.Begin(node, s.forest[node.v], 1,
                                    Message{100, 9, 0, 0}, sends);
                }),
            "ProtocolStallError: FragmentBroadcast: node 2 heard nothing "
            "from its parent in its Down-Receive round");
}

TEST(ProcedureStallTest, MergeTailsNodeReceivesAttach) {
  // Node 0 attaches to node 1, which is itself tails (toward node 2).
  Shape s = Forest(PathOf(3, {1, 2}), {}, {0, 1, 2});
  Tails(s, 0, 1);
  Tails(s, 1, 2);
  EXPECT_EQ(MergeThrows(s),
            "ProtocolStallError: MergingFragments: node 2: a tails node "
            "received an ATTACH flag");
}

TEST(ProcedureStallTest, MergeTargetSilentInTheSideRound) {
  // The target's cursor is elsewhere, so it sleeps through the Side round.
  Shape s = Forest(PathOf(2, {1}), {}, {0, 1});
  Tails(s, 1, 0);
  EXPECT_EQ(MergeThrows(s, 0),
            "ProtocolStallError: MergingFragments: node 2: merge target "
            "silent in the Side round");
}

TEST(ProcedureStallTest, MergeTwoChildrenOnTheReRootPath) {
  // Tails fragment 1-2-3 rooted at 2 with two attachment nodes, 1 and 3.
  Shape s = Forest(PathOf(5, {1, 2, 3, 4}), {1, 2}, {0, 2, 4});
  Tails(s, 1, 0);
  s.roles[3].attach_port = PortTo(s.g, 3, 4);
  EXPECT_EQ(MergeThrows(s),
            "ProtocolStallError: MergingFragments: node 3: two children on "
            "the re-root path");
}

TEST(ProcedureStallTest, MergeNoNewValuesInTheDownPass) {
  // Node 2 has node 1 for its parent, but node 1 lists no children.
  Shape s = Forest(PathOf(3, {1, 2}), {1}, {0, 1});
  s.forest[1].child_ports.clear();
  Tails(s, 1, 0);
  EXPECT_EQ(MergeThrows(s),
            "ProtocolStallError: MergingFragments: node 3: no NEW values "
            "arrived in the down pass");
}

TEST(ProcedureStallTest, MergeTailsRootWithoutNewValues) {
  // A tails fragment with no attachment node.
  Shape s = Forest(PathOf(2, {1}), {}, {0, 1});
  s.roles[0].is_tails = true;
  EXPECT_EQ(MergeThrows(s),
            "ProtocolStallError: MergingFragments: node 1: tails root has no "
            "NEW values after the up pass");
}

TEST(ProcedureStallTest, ColoringInvalidColorValue) {
  // Fragment {0, 1} lists fragment {2} as an H-neighbor, but no node of
  // it has a boundary port there, so no color reaches its listeners.
  Shape s = Forest(PathOf(3, {1, 2}), {0}, {0, 2});
  const NbrEntry far{s.g.IdOf(2), 2, true};
  s.nbr[0] = {far};
  s.nbr[1] = {far};
  EXPECT_EQ(ThrownBy<FlatColoring>(
                s.g,
                [&](const FlatNodeRef& node, FlatColoring& proc,
                    SendLane& sends) {
                  BlockCursor cursor(1, node.NumNodesKnown());
                  return proc.Begin(node, s.forest[node.v], cursor,
                                    s.nbr[node.v], s.h_ports[node.v], sends);
                }),
            "runtime_error: FastAwakeColoring: invalid color value "
            "18446744073709551615");
}

}  // namespace
}  // namespace smst
