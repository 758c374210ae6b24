// smst_lint baseline: pre-existing findings that don't block the build.
//
// Entries key on (file, rule, content hash of the normalized source
// line) rather than line numbers, so unrelated edits above a baselined
// site don't invalidate the baseline and long lines don't bloat the file.
// Format, one entry per line:
//
//   path|rule-id|h:<16 hex digits>
//
// The hash is FNV-1a 64 over the line text with ALL whitespace stripped,
// so reformatting alone doesn't unbaseline a finding (changing the code
// does — which is the point).
//
// `#` starts a comment; blank lines are ignored. Any other line that is
// not an entry of this form is a parse error.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "rules.h"

namespace smst_lint {

class Baseline {
 public:
  // Parses baseline text (the file's contents). Unparseable lines are
  // reported via `errors`.
  static Baseline Parse(const std::string& text,
                        std::vector<std::string>* errors);

  // Key for a finding: path|rule|h:<hash of norm_text sans whitespace>.
  static std::string KeyFor(const Finding& f);

  bool Matches(const Finding& f) const { return keys_.count(KeyFor(f)) != 0; }
  void Insert(std::string key) { keys_.insert(std::move(key)); }

  // Serialized, sorted, with a header comment — for --write-baseline.
  std::string Serialize() const;

 private:
  std::set<std::string> keys_;
};

}  // namespace smst_lint
