// Tests for tools/smst_lint: exact fixture-corpus findings, suppression
// and baseline semantics, JSON output, and the shipped-tree-clean
// guarantee (src/ + tools/ + tests/ + bench/ modulo
// tools/smst_lint/baseline.txt).
//
// The analyzer binary is exercised end to end: each test invokes it the
// way CI and the `lint` target do. SMST_LINT_BIN and SMST_REPO_ROOT are
// injected by tests/CMakeLists.txt.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <sys/wait.h>

namespace {

struct LintRun {
  int exit_code = -1;
  std::string stdout_text;
};

// Runs the analyzer and reads its stdout. Its stderr is dropped, or with
// `keep_stderr` merged into the same text.
LintRun RunLint(const std::string& args, bool keep_stderr = false) {
  const std::string cmd =
      std::string(SMST_LINT_BIN) + " --root " + SMST_REPO_ROOT + " " + args +
      (keep_stderr ? " 2>&1" : " 2>/dev/null");
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  LintRun run;
  char buf[4096];
  std::size_t got;
  while ((got = fread(buf, 1, sizeof buf, pipe)) > 0) {
    run.stdout_text.append(buf, got);
  }
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

// Extracts "file:line:[rule]" triples from text-mode output.
std::set<std::string> FindingTriples(const std::string& text) {
  std::set<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t bracket = line.find(" [");
    const std::size_t close = line.find(']', bracket);
    if (bracket == std::string::npos || close == std::string::npos) continue;
    // "file:line: [rule] message" -> "file:line:[rule]"
    out.insert(line.substr(0, bracket - 1) + ":" +
               line.substr(bracket + 1, close - bracket));
  }
  return out;
}

std::string FixturePath(const std::string& name) {
  return std::string("tests/lint_fixtures/") + name;
}

TEST(SmstLint, FixtureCorpusExactFindingSet) {
  const LintRun run = RunLint("tests/lint_fixtures");
  EXPECT_EQ(run.exit_code, 1);
  const std::set<std::string> expected = {
      "tests/lint_fixtures/baseline_case.cpp:11:[det-rand]",
      "tests/lint_fixtures/baseline_case.cpp:15:[det-wall-clock]",
      "tests/lint_fixtures/coro_bad.cpp:21:[coro-ref-capture]",
      "tests/lint_fixtures/coro_bad.cpp:27:[coro-missing-co-return]",
      "tests/lint_fixtures/coro_bad.cpp:35:[coro-ref-capture]",
      "tests/lint_fixtures/coro_bad.cpp:41:[coro-local-addr]",
      "tests/lint_fixtures/det_bad.cpp:14:[det-rand]",
      "tests/lint_fixtures/det_bad.cpp:15:[det-rand]",
      "tests/lint_fixtures/det_bad.cpp:16:[det-random-device]",
      "tests/lint_fixtures/det_bad.cpp:21:[det-wall-clock]",
      "tests/lint_fixtures/det_bad.cpp:22:[det-wall-clock]",
      "tests/lint_fixtures/det_bad.cpp:23:[det-wall-clock]",
      "tests/lint_fixtures/det_bad.cpp:32:[det-unordered-iter]",
      "tests/lint_fixtures/det_bad.cpp:37:[det-unordered-iter]",
      "tests/lint_fixtures/det_bad.cpp:45:[det-pointer-key]",
      "tests/lint_fixtures/flat/flat_bad.cpp:17:[flat-missing-case]",
      "tests/lint_fixtures/flat/flat_bad.cpp:38:[flat-fallthrough]",
      "tests/lint_fixtures/flat/flat_bad.cpp:53:[flat-local-across-resume]",
      "tests/lint_fixtures/mst/congest_bad.cpp:9:[congest-scheduler-access]",
      "tests/lint_fixtures/mst/congest_bad.cpp:12:[congest-scheduler-access]",
      "tests/lint_fixtures/mst/congest_bad.cpp:19:[det-unordered-iter]",
      "tests/lint_fixtures/mst/congest_bad.cpp:22:[det-unordered-protocol]",
      "tests/lint_fixtures/mst/congest_bad.cpp:27:[congest-lane-pack]",
      "tests/lint_fixtures/sharded/shard_bad.cpp:26:[shard-barrier-order]",
      "tests/lint_fixtures/sharded/shard_bad.cpp:33:[shard-barrier-order]",
      "tests/lint_fixtures/sharded/shard_bad.cpp:40:[shard-local-escape]",
  };
  EXPECT_EQ(FindingTriples(run.stdout_text), expected);
}

TEST(SmstLint, FlatLocalAcrossResumeMinimalRepro) {
  // The acceptance repro: a switch-local read after an SMST_FLAT_AWAKE
  // resume point must fire, pointing at the read.
  const LintRun run = RunLint(FixturePath("flat/flat_bad.cpp"));
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.stdout_text.find(
                "flat_bad.cpp:53: [flat-local-across-resume] local 'total'"),
            std::string::npos)
      << run.stdout_text;
}

TEST(SmstLint, GoodFixturesAreClean) {
  for (const char* name :
       {"det_good.cpp", "coro_good.cpp", "mst/congest_good.cpp",
        "flat/flat_good.cpp", "sharded/shard_good.cpp"}) {
    const LintRun run = RunLint(FixturePath(name));
    EXPECT_EQ(run.exit_code, 0) << name << "\n" << run.stdout_text;
    EXPECT_TRUE(FindingTriples(run.stdout_text).empty()) << name;
  }
}

TEST(SmstLint, SuppressionCommentsSilenceFindings) {
  const LintRun run = RunLint(FixturePath("suppress.cpp"));
  EXPECT_EQ(run.exit_code, 0) << run.stdout_text;
  EXPECT_TRUE(FindingTriples(run.stdout_text).empty());
}

TEST(SmstLint, BaselineFiltersListedFindingsOnly) {
  const std::string target = FixturePath("baseline_case.cpp");
  // Without the baseline: both findings, exit 1.
  EXPECT_EQ(RunLint(target).exit_code, 1);
  EXPECT_EQ(FindingTriples(RunLint(target).stdout_text).size(), 2u);

  // With it: only the non-baselined det-wall-clock survives.
  const LintRun filtered = RunLint(
      "--baseline " + std::string(SMST_REPO_ROOT) +
      "/tests/lint_fixtures/baseline_case.txt " + target);
  EXPECT_EQ(filtered.exit_code, 1);
  const std::set<std::string> expected = {
      "tests/lint_fixtures/baseline_case.cpp:15:[det-wall-clock]"};
  EXPECT_EQ(FindingTriples(filtered.stdout_text), expected);
}

TEST(SmstLint, WriteBaselineRoundTripsToClean) {
  const std::string tmp = testing::TempDir() + "smst_lint_baseline_rt.txt";
  const LintRun write =
      RunLint("--write-baseline " + tmp + " tests/lint_fixtures");
  EXPECT_EQ(write.exit_code, 1);  // findings exist; they just got recorded
  const LintRun reread =
      RunLint("--baseline " + tmp + " tests/lint_fixtures");
  EXPECT_EQ(reread.exit_code, 0) << reread.stdout_text;
  EXPECT_TRUE(FindingTriples(reread.stdout_text).empty());
  std::remove(tmp.c_str());
}

TEST(SmstLint, TextKeyedBaselineLineIsAParseError) {
  // Entries key on a content hash only; a line keyed on the source text
  // itself is malformed, not a second key form.
  const std::string tmp = testing::TempDir() + "smst_lint_text_key.txt";
  {
    std::ofstream out(tmp);
    out << "# one text-keyed entry\n"
           "tests/lint_fixtures/det_good.cpp|det-rand|return rand();\n";
  }
  const LintRun run = RunLint(
      "--baseline " + tmp + " " + FixturePath("det_good.cpp"),
      /*keep_stderr=*/true);
  EXPECT_EQ(run.exit_code, 2) << run.stdout_text;
  EXPECT_NE(run.stdout_text.find("baseline line 2:"), std::string::npos)
      << run.stdout_text;
  std::remove(tmp.c_str());
}

TEST(SmstLint, ShippedTreeIsCleanModuloBaseline) {
  const LintRun run =
      RunLint("--baseline " + std::string(SMST_REPO_ROOT) +
              "/tools/smst_lint/baseline.txt src tools tests bench");
  EXPECT_EQ(run.exit_code, 0) << run.stdout_text;
  EXPECT_TRUE(FindingTriples(run.stdout_text).empty()) << run.stdout_text;
}

TEST(SmstLint, JsonOutputReportsRulesAndCounts) {
  const LintRun run = RunLint(
      "--json --baseline " + std::string(SMST_REPO_ROOT) +
      "/tests/lint_fixtures/baseline_case.txt " +
      FixturePath("baseline_case.cpp"));
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.stdout_text.find("\"rule\": \"det-wall-clock\""),
            std::string::npos);
  EXPECT_NE(run.stdout_text.find("\"rule\": \"det-rand\""), std::string::npos);
  EXPECT_NE(run.stdout_text.find("\"baselined\": true"), std::string::npos);
  EXPECT_NE(run.stdout_text.find("\"active\": 1, \"baselined\": 1"),
            std::string::npos);
  EXPECT_NE(run.stdout_text.find("\"files_scanned\": 1}"), std::string::npos)
      << run.stdout_text;
}

TEST(SmstLint, ListRulesCoversAllPacks) {
  const LintRun run = RunLint("--list-rules");
  EXPECT_EQ(run.exit_code, 0);
  for (const char* rule :
       {"det-rand", "det-random-device", "det-wall-clock",
        "det-unordered-iter", "det-unordered-protocol", "det-pointer-key",
        "congest-scheduler-access", "congest-lane-pack", "coro-ref-capture",
        "coro-missing-co-return", "coro-local-addr", "flat-missing-case",
        "flat-fallthrough", "flat-local-across-resume", "shard-barrier-order",
        "shard-local-escape"}) {
    EXPECT_NE(run.stdout_text.find(rule), std::string::npos) << rule;
  }
}

}  // namespace
