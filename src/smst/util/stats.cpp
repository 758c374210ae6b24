#include "smst/util/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace smst {

Summary Summarize(const std::vector<double>& values) {
  Summary s;
  if (values.empty()) return s;
  s.count = values.size();
  s.min = values.front();
  s.max = values.front();
  double sum = 0.0;
  for (double v : values) {
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
    sum += v;
  }
  s.mean = sum / static_cast<double>(s.count);
  double ss = 0.0;
  for (double v : values) ss += (v - s.mean) * (v - s.mean);
  s.stddev = std::sqrt(ss / static_cast<double>(s.count));
  s.median = Quantile(values, 0.5);
  return s;
}

double Quantile(std::vector<double> values, double q) {
  assert(!values.empty());
  assert(q >= 0.0 && q <= 1.0);
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

}  // namespace smst
