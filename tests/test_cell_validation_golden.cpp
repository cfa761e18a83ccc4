// Golden-file regression for the fixed-point-vs-DES grid's JSONL output
// (`thriftyvid cell --validate --format=jsonl`).
//
// The fixture tests/data/cell_validation_golden.jsonl pins a two-cell grid
// with a background class and fixed seeds: every per-class check of the
// Bianchi solution against the multi-station DCF simulator, at %.17g.
// Regenerate after an intentional change with
//
//     TV_UPDATE_GOLDEN=1 ./build/tests/tv_cell_tests
//         --gtest_filter='CellValidationGolden.*'   (one command line)
//
// and review the fixture diff.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "cell/validation.hpp"
#include "golden.hpp"

namespace tv::cell {
namespace {

// Do not edit casually — the fixture encodes these exact axes and knobs.
CellValidationSpec golden_spec() {
  CellValidationSpec spec;
  spec.contenders = {2, 5};
  spec.cw_mins = {16};
  spec.stage_counts = {6};
  spec.background_stations = 2;
  spec.slots = 20000;
  spec.warmup = 2000;
  spec.seed = 43;
  return spec;
}

TEST(CellValidationGolden, JsonlOutputMatchesFixture) {
  std::ostringstream out;
  util::JsonlSink<CellValidationSpec, CellValidationCellResult> sink{out};
  CellValidationRunner runner;
  (void)runner.run(golden_spec(), sink);
  test::check_golden(test::data_path("cell_validation_golden.jsonl"),
                     out.str());
}

}  // namespace
}  // namespace tv::cell
