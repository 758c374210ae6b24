#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "smst/graph/generators.h"
#include "smst/graph/io.h"
#include "smst/graph/mst_reference.h"

namespace smst {
namespace {

TEST(EdgeListTest, ParsesMinimalGraph) {
  std::istringstream in(R"(# comment
n 3
0 1 10
1 2 20   # trailing comment
)");
  auto g = ReadEdgeList(in);
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(g.IdOf(0), 1u);  // default IDs
  EXPECT_EQ(g.MaxId(), 3u);
}

TEST(EdgeListTest, HeaderMaxIdSetsNWithDefaultIds) {
  std::istringstream in(R"(n 4 1000
0 1 5
1 2 3
2 3 7
)");
  auto g = ReadEdgeList(in);
  EXPECT_EQ(g.MaxId(), 1000u);
  for (NodeIndex v = 0; v < g.NumNodes(); ++v) EXPECT_EQ(g.IdOf(v), v + 1);
}

TEST(EdgeListTest, ParsesExplicitIds) {
  std::istringstream in(R"(n 2 50
id 0 7
id 1 42
0 1 5
)");
  auto g = ReadEdgeList(in);
  EXPECT_EQ(g.IdOf(0), 7u);
  EXPECT_EQ(g.IdOf(1), 42u);
  EXPECT_EQ(g.MaxId(), 50u);
}

TEST(EdgeListTest, RoundTripsThroughWrite) {
  Xoshiro256 rng(1);
  GeneratorOptions opt;
  opt.max_id = 500;
  auto g = MakeErdosRenyi(30, 0.2, rng, opt);
  std::ostringstream out;
  WriteEdgeList(g, out);
  std::istringstream in(out.str());
  auto g2 = ReadEdgeList(in);
  ASSERT_EQ(g2.NumNodes(), g.NumNodes());
  ASSERT_EQ(g2.NumEdges(), g.NumEdges());
  EXPECT_EQ(g2.MaxId(), g.MaxId());
  for (EdgeIndex e = 0; e < g.NumEdges(); ++e) {
    EXPECT_EQ(g2.GetEdge(e).u, g.GetEdge(e).u);
    EXPECT_EQ(g2.GetEdge(e).v, g.GetEdge(e).v);
    EXPECT_EQ(g2.GetEdge(e).weight, g.GetEdge(e).weight);
  }
  for (NodeIndex v = 0; v < g.NumNodes(); ++v) {
    EXPECT_EQ(g2.IdOf(v), g.IdOf(v));
  }
}

TEST(EdgeListTest, ErrorsCarryLineNumbers) {
  {
    std::istringstream in("0 1 5\n");
    EXPECT_THROW(ReadEdgeList(in), std::invalid_argument);  // edge before n
  }
  {
    std::istringstream in("n 0\n");
    EXPECT_THROW(ReadEdgeList(in), std::invalid_argument);
  }
  {
    std::istringstream in("n 3\n0 1\n");
    try {
      ReadEdgeList(in);
      FAIL();
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    }
  }
  {
    std::istringstream in("n 2\nn 2\n");
    EXPECT_THROW(ReadEdgeList(in), std::invalid_argument);
  }
  {
    std::istringstream in("n 2 1\n0 1 5\n");  // max-id < n
    EXPECT_THROW(ReadEdgeList(in), std::invalid_argument);
  }
  {
    std::istringstream in("n 2\nid 0 9\n0 1 5\n");  // partial ids
    EXPECT_THROW(ReadEdgeList(in), std::invalid_argument);
  }
  {
    std::istringstream in("");
    EXPECT_THROW(ReadEdgeList(in), std::invalid_argument);
  }
}

// Every field is one whole unsigned decimal token; anything else fails
// naming its line instead of being read as some other number.
void ExpectLineError(const std::string& text, const std::string& line) {
  std::istringstream in(text);
  try {
    ReadEdgeList(in);
    ADD_FAILURE() << "accepted:\n" << text;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(line), std::string::npos)
        << e.what();
  }
}

TEST(EdgeListTest, RejectsNegativeWeight) {
  // An unsigned stream read wraps "-1" to 2^64-1.
  ExpectLineError("n 3\n0 1 -1\n1 2 7\n", "line 2");
}

TEST(EdgeListTest, RejectsFractionalWeight) {
  ExpectLineError("n 3\n0 1 1.5\n1 2 7\n", "line 2");
}

TEST(EdgeListTest, RejectsTrailingTokenOnEdgeLine) {
  ExpectLineError("n 3\n0 1 5 junk\n1 2 7\n", "line 2");
}

TEST(EdgeListTest, RejectsTrailingTokenOnHeader) {
  ExpectLineError("n 3 junk\n0 1 5\n1 2 7\n", "line 1");
}

TEST(EdgeListTest, RejectsNodeCountBeyondNodeIndex) {
  // 2^32 + 1 nodes: no NodeIndex can address them.
  ExpectLineError("n 4294967297\n0 1 5\n", "line 1");
}

// One 'id' line per node: a second one for the same node fails on its
// line instead of silently replacing the first.
TEST(EdgeListTest, RejectsRepeatedIdLine) {
  ExpectLineError("n 2 9\nid 0 5\nid 0 7\nid 1 3\n0 1 5\n", "line 3");
}

// ID 0 is an ID outside [1, N] like any other, not a missing 'id' line.
TEST(EdgeListTest, IdZeroIsOutOfRange) {
  std::istringstream in("n 2\nid 0 1\nid 1 0\n0 1 5\n");
  try {
    ReadEdgeList(in);
    ADD_FAILURE() << "accepted ID 0";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "node ID 0 outside [1, N]");
  }
}

TEST(EdgeListTest, BuilderValidationPropagates) {
  // Disconnected graph: the builder's connectivity check fires.
  std::istringstream in("n 4\n0 1 1\n2 3 2\n");
  EXPECT_THROW(ReadEdgeList(in), std::invalid_argument);
}

// A header may name up to 2^32 - 1 nodes, but nothing n-sized is
// allocated before the edges are in: fewer than n - 1 edges fail as a
// disconnected graph at once (the first file once asked for 32 GiB of
// IDs), and so do id lines for some of the nodes only.
TEST(EdgeListTest, HugeHeaderFailsBeforeAnyNodeSizedAllocation) {
  const std::pair<const char*, const char*> cases[] = {
      {"n 4294967295\n", "graph is not connected"},
      {"n 4294967295\n0 1 5\n1 2 6\n", "graph is not connected"},
      {"n 4294967295 4294967295\nid 0 1\nid 1 2\n0 1 5\n",
       "node 2 has no 'id' line"},
      {"n 4294967295 18446744073709551615\n0 1 5\n1 2 6\n",
       "graph is not connected"}};
  for (const auto& [text, error] : cases) {
    std::istringstream in(text);
    try {
      ReadEdgeList(in);
      ADD_FAILURE() << "accepted:\n" << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), error);
    }
  }
}

// ------------------------------------------------ seeded parser fuzzing --
// Mutants of valid edge lists, drawn from one fixed seed: each must end in
// std::invalid_argument or in a graph that writes back to a list that
// reads as the same graph. Any other exception fails the test; a crash or
// a hang fails the suite (the ASan/UBSan job runs it too).

using Lines = std::vector<std::vector<std::string>>;  // tokens per line

Lines Tokenize(const std::string& text) {
  Lines lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    std::istringstream ls(line);
    std::vector<std::string>& tokens = lines.emplace_back();
    for (std::string t; ls >> t;) tokens.push_back(std::move(t));
  }
  return lines;
}

std::string Join(const Lines& lines) {
  std::string text;
  for (const std::vector<std::string>& tokens : lines) {
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      if (i > 0) text += ' ';
      text += tokens[i];
    }
    text += '\n';
  }
  return text;
}

// A random token of a random non-empty line, or null if there is none.
std::string* PickToken(Lines& lines, Xoshiro256& rng) {
  std::size_t total = 0;
  for (const auto& tokens : lines) total += tokens.size();
  if (total == 0) return nullptr;
  std::size_t k = rng.NextBelow(total);
  for (auto& tokens : lines) {
    if (k < tokens.size()) return &tokens[k];
    k -= tokens.size();
  }
  return nullptr;
}

// A random line whose first token is `head` ("n" or "id"), or null.
const std::vector<std::string>* PickLine(const Lines& lines,
                                         const std::string& head,
                                         Xoshiro256& rng) {
  std::vector<const std::vector<std::string>*> found;
  for (const auto& tokens : lines) {
    if (!tokens.empty() && tokens[0] == head) found.push_back(&tokens);
  }
  return found.empty() ? nullptr : found[rng.NextBelow(found.size())];
}

void MutateOnce(Lines& lines, Xoshiro256& rng) {
  static const char* const kHuge[] = {
      "0",          "4294967295",           "4294967296",
      "2147483648", "18446744073709551615", "18446744073709551616",
      "99999999999999999999999"};
  const std::size_t at = rng.NextBelow(lines.size() + 1);
  switch (rng.NextBelow(9)) {
    case 0:  // drop a token
      if (std::string* t = PickToken(lines, rng)) t->clear();
      break;
    case 1:  // duplicate a token
      if (std::string* t = PickToken(lines, rng)) *t = *t + " " + *t;
      break;
    case 2:  // swap two tokens
      if (std::string* x = PickToken(lines, rng)) {
        std::swap(*x, *PickToken(lines, rng));
      }
      break;
    case 3:  // flip, insert or delete one character
      if (std::string* t = PickToken(lines, rng); t != nullptr) {
        static const char kChars[] = "0123456789-+.x#";
        const std::size_t pos = rng.NextBelow(t->size() + 1);
        const char c = kChars[rng.NextBelow(sizeof kChars - 1)];
        switch (rng.NextBelow(3)) {
          case 0:
            if (pos < t->size()) (*t)[pos] = c;
            break;
          case 1:
            t->insert(t->begin() + static_cast<std::ptrdiff_t>(pos), c);
            break;
          default:
            if (pos < t->size()) t->erase(pos, 1);
        }
      }
      break;
    case 4:  // a huge (or reserved) number
      if (std::string* t = PickToken(lines, rng)) {
        *t = kHuge[rng.NextBelow(std::size(kHuge))];
      }
      break;
    case 5:  // repeat the 'n' header
      if (const auto* n = PickLine(lines, "n", rng)) {
        const std::vector<std::string> copy = *n;
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), copy);
      }
      break;
    case 6:  // repeat an 'id' line, or add one for a random node
      if (const auto* id = PickLine(lines, "id", rng)) {
        const std::vector<std::string> copy = *id;
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), copy);
      } else {
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                     {"id", std::to_string(rng.NextBelow(8)),
                      std::to_string(1 + rng.NextBelow(8))});
      }
      break;
    case 7:  // comment out the rest of a line, or add a comment line
      if (std::string* t = PickToken(lines, rng); t != nullptr &&
                                                  rng.NextBelow(2) == 0) {
        *t = "#" + *t;
      } else {
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                     {"#", "n", "1"});
      }
      break;
    default:  // drop or repeat a whole line
      if (lines.empty()) break;
      if (const std::size_t i = rng.NextBelow(lines.size());
          rng.NextBelow(2) == 0) {
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        const std::vector<std::string> copy = lines[i];
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), copy);
      }
  }
}

TEST(EdgeListFuzzTest, MutantsEndInRejectionOrARoundTrip) {
  std::vector<std::string> corpus = {
      "# default IDs\nn 4\n0 1 3\n1 2 5\n2 3 7\n0 3 11\n",
      "n 1\n",
      "n 3 9\nid 0 4\nid 1 9\nid 2 1\n0 1 2   # c\n1 2 3\n",
  };
  Xoshiro256 gen(24);
  GeneratorOptions sparse;
  sparse.max_id = 60;
  for (const WeightedGraph& g :
       {MakeRing(6, gen), MakeRandomTree(8, gen),
        MakeErdosRenyi(10, 0.4, gen, sparse)}) {
    std::ostringstream out;
    WriteEdgeList(g, out);
    corpus.push_back(out.str());
  }

  Xoshiro256 rng(2024);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < 2000; ++i) {
    Lines lines = Tokenize(corpus[i % corpus.size()]);
    for (std::uint64_t k = 1 + rng.NextBelow(3); k > 0; --k) {
      MutateOnce(lines, rng);
    }
    const std::string text = Join(lines);
    std::istringstream in(text);
    std::optional<WeightedGraph> g;
    try {
      g.emplace(ReadEdgeList(in));
    } catch (const std::invalid_argument&) {
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " threw '" << e.what() << "':\n"
                    << text;
      continue;
    }
    ++accepted;
    std::ostringstream first;
    WriteEdgeList(*g, first);
    std::istringstream back(first.str());
    std::ostringstream second;
    WriteEdgeList(ReadEdgeList(back), second);
    EXPECT_EQ(first.str(), second.str()) << "mutant " << i << ":\n" << text;
  }
  // Both outcomes are exercised, not just the parser's first checks.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 1000u);
}

TEST(DotTest, HighlightsTreeEdges) {
  Xoshiro256 rng(2);
  auto g = MakeRing(5, rng);
  auto mst = KruskalMst(g);
  std::ostringstream out;
  WriteDot(g, mst, out);
  const std::string dot = out.str();
  EXPECT_NE(dot.find("graph smst {"), std::string::npos);
  // 4 tree edges bold, 1 non-tree edge grey.
  std::size_t bold = 0, pos = 0;
  while ((pos = dot.find("penwidth", pos)) != std::string::npos) {
    ++bold;
    ++pos;
  }
  EXPECT_EQ(bold, 4u);
  EXPECT_NE(dot.find("#bbbbbb"), std::string::npos);
  // Every node declared.
  for (NodeIndex v = 0; v < 5; ++v) {
    EXPECT_NE(dot.find("label=\"" + std::to_string(v) + " ("),
              std::string::npos);
  }
}

TEST(FileIoTest, ReadEdgeListFileErrorsOnMissing) {
  EXPECT_THROW(ReadEdgeListFile("/nonexistent/path/graph.txt"),
               std::invalid_argument);
}

}  // namespace
}  // namespace smst
