// smst_lint incremental cache: per-file analysis results under a cache
// directory (conventionally build/lint_cache).
//
// One entry file per analyzed source file, named by a hash of the
// repo-relative path. An entry stores freshness info (mtime in
// nanoseconds, FNV-1a 64 of the file contents) plus the complete
// FileAnalysis: findings, with their normalized line text, so baseline
// keys re-derive without re-reading the source.
//
// Lookup is mtime-first: an exact mtime match is a hit with no source
// read at all. On mtime mismatch the caller re-reads the file and retries
// by content hash (a touch without an edit re-stamps the entry instead of
// re-analyzing). Any parse problem or version mismatch is simply a miss.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>

#include "rules.h"

namespace smst_lint::cache {

// Entry path for a repo-relative source path.
std::filesystem::path EntryPath(const std::filesystem::path& dir,
                                const std::string& rel_path);

// mtime-only probe: returns the cached analysis when the entry exists,
// is version-current, and records exactly `mtime_ns`.
std::optional<FileAnalysis> LoadByMtime(const std::filesystem::path& dir,
                                        const std::string& rel_path,
                                        std::int64_t mtime_ns);

// content probe: returns the cached analysis when the entry's content
// hash matches `content_hash`; re-stamps the entry with `mtime_ns` so the
// next run hits the mtime fast path.
std::optional<FileAnalysis> LoadByContent(const std::filesystem::path& dir,
                                          const std::string& rel_path,
                                          std::int64_t mtime_ns,
                                          std::uint64_t content_hash);

// Writes/overwrites the entry. Failures are silent (the cache is an
// optimization, never a correctness dependency).
void Store(const std::filesystem::path& dir, const std::string& rel_path,
           std::int64_t mtime_ns, std::uint64_t content_hash,
           const FileAnalysis& analysis);

}  // namespace smst_lint::cache
