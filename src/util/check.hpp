// Acceptance checks of the validation grids (sim::ValidationRunner and
// cell::CellValidationRunner): each grid cell compares simulated
// statistics against their analytic counterparts under a tolerance band.
#pragma once

#include <cmath>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "util/record.hpp"
#include "util/sink.hpp"

namespace tv::util {

/// One simulated-vs-analytic comparison.
struct Check {
  std::string name;
  double simulated = 0.0;
  double analytic = 0.0;
  double tolerance = 0.0;  ///< acceptance band halfwidth.
  bool ok = false;
};

/// A check that passes when |simulated - analytic| <= tolerance.
[[nodiscard]] inline Check check(std::string name, double simulated,
                                 double analytic, double tolerance) {
  return {std::move(name), simulated, analytic, tolerance,
          std::abs(simulated - analytic) <= tolerance};
}

[[nodiscard]] inline std::size_t failed_count(
    const std::vector<Check>& checks) {
  std::size_t failed = 0;
  for (const Check& c : checks) failed += c.ok ? 0 : 1;
  return failed;
}

/// The checks as a record array, one object per check.
[[nodiscard]] inline Value::Array to_array(const std::vector<Check>& checks) {
  Value::Array out;
  for (const Check& c : checks) {
    Record check;
    check.add("name", c.name)
        .add("simulated", c.simulated)
        .add("analytic", c.analytic)
        .add("tolerance", c.tolerance)
        .add("ok", c.ok);
    out.push_back(std::move(check));
  }
  return out;
}

/// Folds one cell's checks into a grid summary.
inline void tally(GridSummary& summary, const std::vector<Check>& checks) {
  const std::size_t failed = failed_count(checks);
  if (failed == 0) ++summary.passed_cells;
  summary.failed_checks += failed;
}

}  // namespace tv::util
