// smst_lint: project-specific static analysis for the sleeping-model MST
// reproduction. See rules.h for the rule packs and DESIGN.md §11/§14 for
// the architecture and the static-vs-runtime split with the fault Auditor.
//
// Usage:
//   smst_lint [options] [path...]   paths default to: src tools tests bench
//   --root DIR             repo root; findings report DIR-relative paths
//   --baseline FILE        filter findings through a baseline file
//   --write-baseline FILE  write all current findings as the new baseline
//   --json                 machine-readable output on stdout
//   --list-rules           print rule ids and summaries
//
// Every file is read and analyzed once, serially, in sorted path order.
// Directory walks skip subdirectories named lint_fixtures (the test
// corpus of intentional findings); pass such a directory explicitly to
// lint it.
//
// Exit status: 0 clean (after suppressions + baseline), 1 findings,
// 2 usage or I/O error.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "baseline.h"
#include "lexer.h"
#include "rules.h"

namespace fs = std::filesystem;
using smst_lint::AllRules;
using smst_lint::AnalyzeFile;
using smst_lint::Baseline;
using smst_lint::Finding;
using smst_lint::Lex;

namespace {

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

struct Options {
  fs::path root = fs::current_path();
  std::vector<std::string> paths;
  std::optional<fs::path> baseline_path;
  std::optional<fs::path> write_baseline_path;
  bool json = false;
};

int Fail(const std::string& message) {
  std::cerr << "smst_lint: " << message << "\n";
  return 2;
}

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
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--list-rules") {
      for (const auto& r : AllRules()) {
        std::cout << r.id << "  " << r.summary << "\n";
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: smst_lint [--root DIR] [--baseline FILE] "
                   "[--write-baseline FILE] [--json] [--list-rules] "
                   "[path...]\n";
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

  // Analysis and baseline matching, one file at a time in file order.
  std::vector<Finding> findings;
  Baseline next_baseline;
  for (const fs::path& file : files) {
    auto source = ReadFile(file);
    if (!source) return Fail("cannot read " + file.string());
    std::error_code rec;
    const std::string rel = fs::relative(file, opt.root, rec).generic_string();
    for (Finding& f :
         AnalyzeFile(Lex(rec ? file.generic_string() : rel, *source))) {
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

  std::size_t active = 0, baselined = 0;
  for (const Finding& f : findings) {
    (f.baselined ? baselined : active)++;
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
        << ", \"files_scanned\": " << files.size() << "}\n}\n";
  } else {
    for (const Finding& f : findings) {
      if (f.baselined) continue;
      std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
                << f.message << "\n";
    }
    std::cerr << "smst_lint: " << files.size() << " files, " << active
              << " finding(s), " << baselined << " baselined\n";
  }
  return active == 0 ? 0 : 1;
}
