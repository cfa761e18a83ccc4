// Cross-check grid: the heterogeneous Bianchi fixed point against the
// multi-station DCF discrete-event simulator (docs/cell.md).
//
// A CellValidationSpec declares a cartesian grid over (n video stations,
// CWmin, backoff stages), each optionally sharing the cell with a
// background class.  For every grid cell the runner solves
// wifi::solve_dcf_classes and simulates wifi::simulate_dcf_classes on the
// same population (with a warmup prefix discarded, see dcf_sim.hpp), then
// compares every per-class statistic — attempt probability tau_c,
// conditional collision probability p_c — and the cell-wide success
// fraction under an acceptance band of
//
//   tol = z * SE_hat + rel * |analytic| + abs_floor
//
// where SE_hat is the binomial standard-error estimate of the simulated
// statistic and the relative term absorbs the decoupling bias of the
// fixed-point approximation itself (the DES has real inter-station
// coupling; Bianchi assumes independence).  Same determinism contract as
// sim::run_validation: derived per-cell seeds, strictly ordered sink
// calls, byte-identical output at any thread count.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/sink.hpp"
#include "wifi/dcf_model.hpp"
#include "wifi/dcf_sim.hpp"

namespace tv::util {
class ThreadPool;
}

namespace tv::cell {

/// Declarative fixed-point-vs-DES grid.  The defaults form the CI gate:
/// 16 cells (>= the 12 the acceptance criteria require) covering light to
/// heavy contention at two window geometries.
struct CellValidationSpec {
  // Grid axes, row-major cell order (contenders, cw_min, stages).
  std::vector<int> contenders{2, 3, 5, 8};
  std::vector<int> cw_mins{16, 32};
  std::vector<int> stage_counts{3, 6};
  /// Background cross-traffic class present in every cell (0 disables).
  int background_stations = 0;
  int background_cw_min = 32;
  int background_stages = 6;

  std::uint64_t slots = 300000;   ///< measured slots per cell.
  std::uint64_t warmup = 20000;   ///< discarded cold-start slots.
  double z = 3.0;                 ///< multiplier on the SE estimate.
  std::uint64_t seed = 1;

  /// Throws std::invalid_argument on empty axes or unusable knobs.
  void validate() const;
  [[nodiscard]] std::size_t cell_count() const;
};

/// One fully-resolved grid point.
struct CellValidationCell {
  std::size_t index = 0;  ///< row-major position in the grid.
  int contenders = 0;
  int cw_min = 16;
  int stages = 6;
  std::uint64_t seed = 0;  ///< derive_seed(spec.seed, index).
};

/// Expand the grid (row-major, with derived seeds).  Pure.
[[nodiscard]] std::vector<CellValidationCell> enumerate_validation_cells(
    const CellValidationSpec& spec);

using CellValidationCheck = util::Check;

struct CellValidationCellResult {
  CellValidationCell cell;
  wifi::MultiDcfSolution model;
  wifi::MultiDcfSimResult sim;
  std::vector<CellValidationCheck> checks;
  [[nodiscard]] bool passed() const { return util::failed_count(checks) == 0; }
};

/// Consumers of validation results (util/sink.hpp); calls arrive strictly
/// in cell order.
using CellValidationSink =
    util::Sink<CellValidationSpec, CellValidationCellResult>;

/// One grid cell as a record (JSONL at %.17g, CSV flattening).
[[nodiscard]] util::Record to_record(const CellValidationCellResult& result);
/// The aligned table, one row per grid cell.
void table_header(std::ostream& out, const CellValidationSpec& spec);
void table_row(std::ostream& out, const CellValidationSpec& spec,
               const CellValidationCellResult& result);

/// Runs one grid cell end to end (solve + simulate + band checks).  Pure
/// in (spec, cell); exposed for tests.
[[nodiscard]] CellValidationCellResult run_cell_validation_cell(
    const CellValidationSpec& spec, const CellValidationCell& cell);

/// Runs every grid cell of `spec`, streaming results to `sink` in cell
/// order.  `pool == nullptr` runs serially; any pool size yields
/// byte-identical sink output.
util::GridSummary run_cell_validation(const CellValidationSpec& spec,
                                      CellValidationSink& sink,
                                      util::ThreadPool* pool = nullptr);

}  // namespace tv::cell
