// The fixed-point-vs-DES cross-check grid behind `thriftyvid cell
// --validate` (docs/cell.md): cell enumeration, acceptance bands, the CI
// gate grid itself and the runner's ordering/threading contract.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "cell/validation.hpp"
#include "util/thread_pool.hpp"

namespace tv::cell {
namespace {

CellValidationSpec tiny_spec() {
  CellValidationSpec spec;
  spec.contenders = {2, 3};
  spec.cw_mins = {16};
  spec.stage_counts = {6};
  spec.slots = 120000;
  spec.warmup = 8000;
  return spec;
}

TEST(CellValidationSpec, DefaultGridMeetsTheAcceptanceFloor) {
  const CellValidationSpec spec;
  EXPECT_GE(spec.cell_count(), 12u);  // the ISSUE's CI-gate floor.
  EXPECT_EQ(enumerate_validation_cells(spec).size(), spec.cell_count());
}

TEST(CellValidationSpec, RejectsBadSpecs) {
  CellValidationSpec spec = tiny_spec();
  spec.contenders = {};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = tiny_spec();
  spec.contenders = {0};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = tiny_spec();
  spec.slots = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = tiny_spec();
  spec.z = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(CellValidationSpec, EnumerationIsRowMajorWithDerivedSeeds) {
  CellValidationSpec spec = tiny_spec();
  spec.cw_mins = {16, 32};
  const auto cells = enumerate_validation_cells(spec);
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].contenders, 2);
  EXPECT_EQ(cells[0].cw_min, 16);
  EXPECT_EQ(cells[1].cw_min, 32);
  EXPECT_EQ(cells[2].contenders, 3);
  EXPECT_NE(cells[0].seed, cells[1].seed);
  EXPECT_EQ(cells[3].index, 3u);
}

TEST(CellValidation, SingleCellPassesItsBands) {
  const CellValidationSpec spec = tiny_spec();
  const auto cells = enumerate_validation_cells(spec);
  const CellValidationCellResult r =
      run_cell_validation_cell(spec, cells[0]);
  // One video class: tau, p and the cell-wide success fraction.
  ASSERT_EQ(r.checks.size(), 3u);
  EXPECT_TRUE(r.passed()) << "n=" << r.cell.contenders;
  for (const CellValidationCheck& c : r.checks) {
    EXPECT_GT(c.tolerance, 0.0) << c.name;
    EXPECT_LE(std::abs(c.simulated - c.analytic), c.tolerance) << c.name;
  }
}

TEST(CellValidation, BackgroundClassAddsItsOwnChecks) {
  CellValidationSpec spec = tiny_spec();
  spec.background_stations = 3;
  const auto cells = enumerate_validation_cells(spec);
  const CellValidationCellResult r =
      run_cell_validation_cell(spec, cells[0]);
  // Two classes: tau and p for each, plus the success fraction.
  ASSERT_EQ(r.checks.size(), 5u);
  EXPECT_TRUE(r.passed());
}

// The CI gate itself: the full default grid — 16 cells from light to heavy
// contention at two window geometries — must hold every band.  This is the
// same grid `thriftyvid cell --validate` exits 0 on.
TEST(CellValidation, DefaultGridAllCellsPass) {
  const CellValidationSpec spec;
  util::ThreadPool pool{4};
  util::CollectSink<CellValidationSpec, CellValidationCellResult> sink;
  const util::GridSummary summary = run_cell_validation(spec, sink, &pool);
  EXPECT_EQ(summary.cells, spec.cell_count());
  EXPECT_EQ(summary.failed_checks, 0u);
  EXPECT_TRUE(summary.all_passed());
  for (const CellValidationCellResult& r : sink.results) {
    EXPECT_TRUE(r.passed()) << "cell " << r.cell.index << " (n="
                            << r.cell.contenders << " W=" << r.cell.cw_min
                            << " m=" << r.cell.stages << ")";
  }
}

TEST(CellValidation, RunnerOutputIsThreadInvariant) {
  const CellValidationSpec spec = tiny_spec();

  std::ostringstream serial;
  {
    util::JsonlSink<CellValidationSpec, CellValidationCellResult> sink{serial};
    const auto summary = run_cell_validation(spec, sink);
    EXPECT_EQ(summary.threads, 1u);
  }

  std::ostringstream pooled;
  {
    util::ThreadPool pool{8};
    util::JsonlSink<CellValidationSpec, CellValidationCellResult> sink{pooled};
    const auto summary = run_cell_validation(spec, sink, &pool);
    EXPECT_EQ(summary.threads, 8u);
  }

  EXPECT_EQ(serial.str(), pooled.str());
  EXPECT_FALSE(serial.str().empty());
}

TEST(CellValidation, JsonlSinkEmitsOneObjectPerCell) {
  const CellValidationSpec spec = tiny_spec();
  std::ostringstream out;
  util::JsonlSink<CellValidationSpec, CellValidationCellResult> sink{out};
  (void)run_cell_validation(spec, sink);
  const std::string s = out.str();
  std::size_t lines = 0;
  for (char c : s) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, spec.cell_count());
  EXPECT_NE(s.find("\"checks\":["), std::string::npos);
  EXPECT_NE(s.find("\"passed\":true"), std::string::npos);
}

}  // namespace
}  // namespace tv::cell
