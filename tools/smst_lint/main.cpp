// smst_lint: project-specific static analysis for the sleeping-model MST
// reproduction. See rules.h for the rule packs and DESIGN.md §11/§14 for
// the architecture and the static-vs-runtime split with the fault Auditor.
//
// Usage:
//   smst_lint [options] [path...]   paths default to: src tools tests bench
//   --root DIR             repo root; findings report DIR-relative paths
//   --baseline FILE        filter findings through a baseline file
//   --write-baseline FILE  write all current findings as the new baseline
//   --prune-baseline       rewrite --baseline FILE keeping only entries
//                          that still match a finding (migrates legacy
//                          keys to the v2 hash form)
//   --json                 machine-readable output on stdout
//   --sarif FILE           write a SARIF 2.1.0 log to FILE
//   --jobs N               analyze files on N worker threads (default 1);
//                          output is byte-identical for any N
//   --cache DIR            incremental cache: reuse per-file results when
//                          mtime or content hash is unchanged
//   --list-rules           print rule ids and summaries
//
// Directory walks skip subdirectories named lint_fixtures (the test
// corpus of intentional findings); pass such a directory explicitly to
// lint it.
//
// Exit status: 0 clean (after suppressions + baseline), 1 findings,
// 2 usage or I/O error.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baseline.h"
#include "cache.h"
#include "lexer.h"
#include "rules.h"
#include "sarif.h"

namespace fs = std::filesystem;
using smst_lint::AllRules;
using smst_lint::AnalyzeFile;
using smst_lint::Baseline;
using smst_lint::FileAnalysis;
using smst_lint::Finding;
using smst_lint::Lex;
using smst_lint::LexedFile;
using smst_lint::SarifReport;

namespace {

constexpr std::string_view kVersion = "2.0.0";

bool HasSourceExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc" ||
         ext == ".cxx";
}

std::optional<std::string> ReadFile(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Recursive walk that skips subdirectories named lint_fixtures — the test
// corpus of intentional findings. The starting directory itself is never
// skipped, so explicitly passing tests/lint_fixtures walks it fully.
void WalkDir(const fs::path& dir, std::vector<fs::path>* out) {
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const fs::directory_entry& entry = *it;
    if (entry.is_directory(ec)) {
      if (entry.path().filename() == "lint_fixtures") continue;
      WalkDir(entry.path(), out);
    } else if (entry.is_regular_file(ec) &&
               HasSourceExtension(entry.path())) {
      out->push_back(entry.path());
    }
  }
}

std::int64_t MtimeNs(const fs::path& p) {
  std::error_code ec;
  const auto t = fs::last_write_time(p, ec);
  if (ec) return 0;
  return static_cast<std::int64_t>(t.time_since_epoch().count());
}

struct Options {
  fs::path root = fs::current_path();
  std::vector<std::string> paths;
  std::optional<fs::path> baseline_path;
  std::optional<fs::path> write_baseline_path;
  std::optional<fs::path> sarif_path;
  std::optional<fs::path> cache_dir;
  bool prune_baseline = false;
  bool json = false;
  int jobs = 1;
};

int Fail(const std::string& message) {
  std::cerr << "smst_lint: " << message << "\n";
  return 2;
}

struct Slot {
  FileAnalysis analysis;
  bool from_cache = false;
  std::string error;  // non-empty: I/O failure for this file
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool paths_defaulted = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "smst_lint: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--root") {
      opt.root = value("--root");
    } else if (arg == "--baseline") {
      opt.baseline_path = value("--baseline");
    } else if (arg == "--write-baseline") {
      opt.write_baseline_path = value("--write-baseline");
    } else if (arg == "--prune-baseline") {
      opt.prune_baseline = true;
    } else if (arg == "--sarif") {
      opt.sarif_path = value("--sarif");
    } else if (arg == "--cache") {
      opt.cache_dir = value("--cache");
    } else if (arg == "--jobs") {
      opt.jobs = std::atoi(value("--jobs"));
      if (opt.jobs < 1) return Fail("--jobs needs a positive integer");
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--list-rules") {
      for (const auto& r : AllRules()) {
        std::cout << r.id << "  " << r.summary << "\n";
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: smst_lint [--root DIR] [--baseline FILE] "
                   "[--write-baseline FILE] [--prune-baseline] "
                   "[--sarif FILE] [--jobs N] [--cache DIR] [--json] "
                   "[--list-rules] [path...]\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return Fail("unknown option " + arg);
    } else {
      opt.paths.push_back(arg);
    }
  }
  if (opt.paths.empty()) {
    opt.paths = {"src", "tools", "tests", "bench"};
    paths_defaulted = true;
  }
  if (opt.prune_baseline && !opt.baseline_path) {
    return Fail("--prune-baseline needs --baseline FILE");
  }

  std::error_code ec;
  opt.root = fs::canonical(opt.root, ec);
  if (ec) return Fail("bad --root: " + ec.message());

  // Collect the file set, sorted for deterministic output.
  std::vector<fs::path> files;
  for (const std::string& p : opt.paths) {
    fs::path abs = fs::path(p).is_absolute() ? fs::path(p) : opt.root / p;
    if (fs::is_directory(abs, ec)) {
      WalkDir(abs, &files);
    } else if (fs::is_regular_file(abs, ec)) {
      files.push_back(abs);
    } else if (!paths_defaulted) {
      return Fail("no such file or directory: " + p);
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  Baseline baseline;
  if (opt.baseline_path) {
    auto text = ReadFile(*opt.baseline_path);
    if (!text) {
      return Fail("cannot read baseline " + opt.baseline_path->string());
    }
    std::vector<std::string> errors;
    baseline = Baseline::Parse(*text, &errors);
    for (const std::string& e : errors) std::cerr << "smst_lint: " << e << "\n";
    if (!errors.empty()) return 2;
  }

  // Per-file analysis, optionally parallel: an atomic cursor over the
  // sorted file list (the parallel runner's ForEach idiom), results
  // land in file order, everything downstream is serial — so output is
  // byte-identical for any --jobs value.
  std::vector<Slot> slots(files.size());
  std::atomic<std::size_t> cursor{0};
  auto work = [&] {
    for (std::size_t idx = cursor.fetch_add(1); idx < files.size();
         idx = cursor.fetch_add(1)) {
      const fs::path& file = files[idx];
      Slot& slot = slots[idx];
      std::error_code rec;
      const std::string rel =
          fs::relative(file, opt.root, rec).generic_string();
      const std::string path = rec ? file.generic_string() : rel;

      std::int64_t mtime = 0;
      if (opt.cache_dir) {
        mtime = MtimeNs(file);
        if (auto hit = smst_lint::cache::LoadByMtime(*opt.cache_dir, path,
                                                     mtime)) {
          slot.analysis = std::move(*hit);
          slot.from_cache = true;
          continue;
        }
      }
      auto source = ReadFile(file);
      if (!source) {
        slot.error = "cannot read " + file.string();
        continue;
      }
      std::uint64_t hash = 0;
      if (opt.cache_dir) {
        hash = Baseline::Fnv1a64(*source);
        if (auto hit = smst_lint::cache::LoadByContent(*opt.cache_dir, path,
                                                       mtime, hash)) {
          slot.analysis = std::move(*hit);
          slot.from_cache = true;
          continue;
        }
      }
      slot.analysis = AnalyzeFile(Lex(path, *source));
      if (opt.cache_dir) {
        smst_lint::cache::Store(*opt.cache_dir, path, mtime, hash,
                                slot.analysis);
      }
    }
  };
  const std::size_t jobs =
      std::min<std::size_t>(static_cast<std::size_t>(opt.jobs),
                            std::max<std::size_t>(files.size(), 1));
  if (jobs <= 1) {
    work();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (std::size_t w = 0; w < jobs; ++w) pool.emplace_back(work);
    for (std::thread& th : pool) th.join();
  }

  std::size_t analyzed = 0, cached = 0;
  std::vector<FileAnalysis> analyses;
  analyses.reserve(slots.size());
  for (Slot& slot : slots) {
    if (!slot.error.empty()) return Fail(slot.error);
    (slot.from_cache ? cached : analyzed)++;
    analyses.push_back(std::move(slot.analysis));
  }

  // Baseline matching and aggregation, in file order (serial).
  std::vector<Finding> findings;
  Baseline next_baseline;
  for (FileAnalysis& fa : analyses) {
    for (Finding& f : fa.findings) {
      f.baselined = baseline.Matches(f);
      next_baseline.Insert(Baseline::KeyFor(f));
      findings.push_back(std::move(f));
    }
  }

  if (opt.write_baseline_path) {
    std::ofstream out(*opt.write_baseline_path);
    if (!out) {
      return Fail("cannot write " + opt.write_baseline_path->string());
    }
    out << next_baseline.Serialize();
  }
  if (opt.prune_baseline) {
    std::size_t dropped = 0;
    const std::string pruned = baseline.SerializeUsed(&dropped);
    std::ofstream out(*opt.baseline_path, std::ios::trunc);
    if (!out) {
      return Fail("cannot write " + opt.baseline_path->string());
    }
    out << pruned;
    std::cerr << "smst_lint: pruned " << dropped
              << " stale baseline entr" << (dropped == 1 ? "y" : "ies")
              << "\n";
  }

  std::size_t active = 0, baselined = 0;
  for (const Finding& f : findings) {
    (f.baselined ? baselined : active)++;
  }

  if (opt.sarif_path) {
    std::ofstream out(*opt.sarif_path, std::ios::trunc);
    if (!out) return Fail("cannot write " + opt.sarif_path->string());
    out << SarifReport(findings, kVersion);
  }

  if (opt.json) {
    std::ostream& out = std::cout;
    out << "{\n  \"findings\": [\n";
    for (std::size_t i = 0; i < findings.size(); ++i) {
      const Finding& f = findings[i];
      out << "    {\"file\": \"" << JsonEscape(f.file) << "\", \"line\": "
          << f.line << ", \"rule\": \"" << JsonEscape(f.rule)
          << "\", \"baselined\": " << (f.baselined ? "true" : "false")
          << ", \"message\": \"" << JsonEscape(f.message) << "\"}"
          << (i + 1 < findings.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"counts\": {\"active\": " << active
        << ", \"baselined\": " << baselined
        << ", \"files_scanned\": " << files.size()
        << ", \"files_analyzed\": " << analyzed
        << ", \"files_cached\": " << cached << "}\n}\n";
  } else {
    for (const Finding& f : findings) {
      if (f.baselined) continue;
      std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
                << f.message << "\n";
    }
    std::cerr << "smst_lint: " << files.size() << " files ("
              << analyzed << " analyzed, " << cached << " cached), "
              << active << " finding(s), " << baselined << " baselined\n";
  }
  return active == 0 ? 0 : 1;
}
