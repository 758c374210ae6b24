#include "cache.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "baseline.h"  // Fnv1a64

namespace smst_lint::cache {
namespace {

constexpr std::string_view kVersion = "smst-lint-cache-v3";

// Space-separated line format needs whitespace-free fields.
std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case ' ': out += "\\s"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string Unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out.push_back(s[i]);
      continue;
    }
    switch (s[++i]) {
      case '\\': out.push_back('\\'); break;
      case 'n': out.push_back('\n'); break;
      case 't': out.push_back('\t'); break;
      case 's': out.push_back(' '); break;
      default: out.push_back(s[i]);
    }
  }
  return out;
}

std::vector<std::string> Fields(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string f;
  while (in >> f) out.push_back(std::move(f));
  return out;
}

struct Entry {
  std::int64_t mtime_ns = 0;
  std::uint64_t content_hash = 0;
  FileAnalysis analysis;
};

std::optional<Entry> ParseEntry(const std::filesystem::path& entry_path) {
  std::ifstream in(entry_path);
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line) || line != kVersion) return std::nullopt;

  Entry e;
  bool have_meta = false;
  while (std::getline(in, line)) {
    const std::vector<std::string> f = Fields(line);
    if (f.empty()) continue;
    if (f[0] == "meta" && f.size() == 4) {
      e.mtime_ns = std::strtoll(f[1].c_str(), nullptr, 10);
      e.content_hash = std::strtoull(f[2].c_str(), nullptr, 16);
      e.analysis.path = Unescape(f[3]);
      have_meta = true;
    } else if (f[0] == "finding" && f.size() == 6) {
      Finding fd;
      fd.line = static_cast<std::uint32_t>(std::strtoul(f[1].c_str(),
                                                        nullptr, 10));
      fd.rule = Unescape(f[2]);
      fd.norm_text = Unescape(f[3]);
      fd.message = Unescape(f[4]);
      fd.file = Unescape(f[5]);
      e.analysis.findings.push_back(std::move(fd));
    } else {
      return std::nullopt;  // unknown record: treat as corrupt
    }
  }
  if (!have_meta) return std::nullopt;
  return e;
}

void WriteEntry(const std::filesystem::path& entry_path, const Entry& e) {
  std::error_code ec;
  std::filesystem::create_directories(entry_path.parent_path(), ec);
  std::ofstream out(entry_path, std::ios::trunc);
  if (!out) return;
  char hash_buf[24];
  std::snprintf(hash_buf, sizeof hash_buf, "%016llx",
                static_cast<unsigned long long>(e.content_hash));
  out << kVersion << "\n"
      << "meta " << e.mtime_ns << " " << hash_buf << " "
      << Escape(e.analysis.path) << "\n";
  for (const Finding& fd : e.analysis.findings) {
    out << "finding " << fd.line << " " << Escape(fd.rule) << " "
        << Escape(fd.norm_text) << " " << Escape(fd.message) << " "
        << Escape(fd.file) << "\n";
  }
}

}  // namespace

std::filesystem::path EntryPath(const std::filesystem::path& dir,
                                const std::string& rel_path) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(
                    Baseline::Fnv1a64(rel_path)));
  return dir / (std::string(buf) + ".lint");
}

std::optional<FileAnalysis> LoadByMtime(const std::filesystem::path& dir,
                                        const std::string& rel_path,
                                        std::int64_t mtime_ns) {
  auto e = ParseEntry(EntryPath(dir, rel_path));
  if (!e || e->analysis.path != rel_path || e->mtime_ns != mtime_ns) {
    return std::nullopt;
  }
  return std::move(e->analysis);
}

std::optional<FileAnalysis> LoadByContent(const std::filesystem::path& dir,
                                          const std::string& rel_path,
                                          std::int64_t mtime_ns,
                                          std::uint64_t content_hash) {
  auto e = ParseEntry(EntryPath(dir, rel_path));
  if (!e || e->analysis.path != rel_path ||
      e->content_hash != content_hash) {
    return std::nullopt;
  }
  // Touch without an edit: re-stamp so the next run takes the mtime
  // fast path.
  e->mtime_ns = mtime_ns;
  WriteEntry(EntryPath(dir, rel_path), *e);
  return std::move(e->analysis);
}

void Store(const std::filesystem::path& dir, const std::string& rel_path,
           std::int64_t mtime_ns, std::uint64_t content_hash,
           const FileAnalysis& analysis) {
  Entry e;
  e.mtime_ns = mtime_ns;
  e.content_hash = content_hash;
  e.analysis = analysis;
  WriteEntry(EntryPath(dir, rel_path), e);
}

}  // namespace smst_lint::cache
