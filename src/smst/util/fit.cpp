#include "smst/util/fit.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace smst {

std::vector<ScalingModel> StandardModels() {
  return {
      {"1", [](double) { return 1.0; }},
      {"log n", [](double n) { return std::log2(n); }},
      {"log n * log* n",
       [](double n) {
         // iterated log (base 2), standard definition
         int k = 0;
         while (n > 1.0) {
           n = std::log2(n);
           ++k;
         }
         return k;
       }},
      {"sqrt n", [](double n) { return std::sqrt(n); }},
      {"n", [](double n) { return n; }},
      {"n log n", [](double n) { return n * std::log2(n); }},
      {"n^2", [](double n) { return n * n; }},
  };
}

ScalingFit FitOne(const std::vector<double>& x, const std::vector<double>& y,
                  const ScalingModel& model) {
  assert(x.size() == y.size());
  assert(!x.empty());
  // Minimize sum (y_i - a f(x_i))^2  =>  a = sum(y f) / sum(f^2).
  double sfy = 0.0, sff = 0.0, sy = 0.0;
  std::vector<double> f(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    f[i] = model.shape(x[i]);
    sfy += f[i] * y[i];
    sff += f[i] * f[i];
    sy += y[i];
  }
  ScalingFit fit;
  fit.model = model.name;
  fit.constant = (sff > 0.0) ? sfy / sff : 0.0;
  const double mean = sy / static_cast<double>(y.size());
  double ss_res = 0.0, ss_tot = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double e = y[i] - fit.constant * f[i];
    ss_res += e * e;
    const double d = y[i] - mean;
    ss_tot += d * d;
  }
  fit.r_squared = (ss_tot > 0.0) ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

std::vector<ScalingFit> FitAll(const std::vector<double>& x,
                               const std::vector<double>& y,
                               const std::vector<ScalingModel>& models) {
  std::vector<ScalingFit> fits;
  fits.reserve(models.size());
  for (const auto& m : models) fits.push_back(FitOne(x, y, m));
  std::sort(fits.begin(), fits.end(),
            [](const ScalingFit& a, const ScalingFit& b) {
              return a.r_squared > b.r_squared;
            });
  return fits;
}

}  // namespace smst
