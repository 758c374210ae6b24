// Least-squares scaling fits.
//
// The paper states asymptotic bounds (Table 1); the benches validate them
// by sweeping n and fitting the measurements against candidate model
// curves (log n, n, n log n, ...). FitScaling returns, for y ≈ a·f(n),
// the constant a and the coefficient of determination R², so a bench can
// report which shape explains the data.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace smst {

struct ScalingModel {
  std::string name;                          // e.g. "log n"
  std::function<double(double)> shape;       // f(n)
};

struct ScalingFit {
  std::string model;
  double constant = 0.0;   // a in y ≈ a·f(n)
  double r_squared = 0.0;  // 1 - SS_res/SS_tot (can be negative: bad fit)
};

// Standard model set used across benches.
std::vector<ScalingModel> StandardModels();

// Fits y ≈ a·f(x) (no intercept) for one model.
ScalingFit FitOne(const std::vector<double>& x, const std::vector<double>& y,
                  const ScalingModel& model);

// Fits all models and returns them sorted by descending R².
std::vector<ScalingFit> FitAll(const std::vector<double>& x,
                               const std::vector<double>& y,
                               const std::vector<ScalingModel>& models);

}  // namespace smst
