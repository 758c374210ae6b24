// Small descriptive-statistics helpers used by the benches (means over
// seeds, spread of awake distributions, percentiles of wake times).
#pragma once

#include <cstdint>
#include <vector>

namespace smst {

struct Summary {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;  // population standard deviation
  double median = 0.0;
};

// Summarizes a sample; empty input yields a zero Summary.
Summary Summarize(const std::vector<double>& values);

// The q-quantile (0 <= q <= 1) by linear interpolation on the sorted
// sample. Precondition: values non-empty.
double Quantile(std::vector<double> values, double q);

}  // namespace smst
