// Whole-token number parsing shared by the input parsers: command-line
// flags (util/args.h), edge lists (graph/io.h) and fault plans
// (faults/fault_plan.h). A token is a number only if all of it is: no
// leading or trailing whitespace, no '+', no hex form, nothing after the
// number.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string_view>
#include <system_error>

namespace smst {

// An unsigned decimal integer within uint64: digits only, no sign.
inline std::optional<std::uint64_t> ParseDecimalUint(std::string_view s) {
  std::uint64_t value = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

// A finite decimal number such as "0.25", ".5", "1e-3" or "-2": an
// optional '-', then digits with an optional point and exponent. NaN,
// infinities, hex floats and out-of-range values are rejected.
inline std::optional<double> ParseFiniteDecimal(std::string_view s) {
  double value = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] =
      std::from_chars(s.data(), end, value, std::chars_format::general);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace smst
