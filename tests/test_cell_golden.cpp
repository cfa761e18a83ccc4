// Golden-file regression for the cell capacity sweep's JSONL output.
//
// The fixture tests/data/cell_golden.jsonl pins the byte-exact output of a
// small but representative capacity sweep — heterogeneous flows, a
// background class, fading, mixed deadlines, quality evaluation on.
// CellJsonlSink prints at %.17g and the engine's determinism contract
// makes the bytes independent of thread count, so any difference is a real
// behaviour change (contention, scheduling, seed derivation, statistics or
// serialization) and must be reviewed, not absorbed.  After an intentional
// change, regenerate with
//
//     TV_UPDATE_GOLDEN=1 ./build/tests/tv_cell_tests
//         --gtest_filter='CellGolden.*'   (one command line)
//
// and inspect the fixture diff.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "cell/cell.hpp"
#include "golden.hpp"

namespace tv::cell {
namespace {

// The pinned sweep: three population sizes over two motion levels, two
// policy shapes x two ciphers, background cross-traffic, block fading and
// a deadline mix tight enough to exercise the scheduler.  Do not edit
// casually — the fixture encodes these exact axes.
CapacitySpec golden_spec() {
  CapacitySpec spec;
  spec.flow_counts = {1, 2, 4};
  spec.base.motions = {video::MotionLevel::kLow, video::MotionLevel::kHigh};
  spec.base.gop_sizes = {10};
  spec.base.policies = {
      {policy::Mode::kIFrames, crypto::Algorithm::kAes256, 0.0},
      {policy::Mode::kAll, crypto::Algorithm::kAes256, 0.0}};
  spec.base.algorithms = {crypto::Algorithm::kAes128,
                          crypto::Algorithm::kTripleDes};
  spec.base.deadlines_s = {2.0, 0.0};
  spec.base.frames = 20;
  spec.base.repetitions = 2;
  spec.base.seed = 61;
  spec.base.background_stations = 2;
  spec.base.channel_error_prob = 0.02;
  spec.base.fade_prob = 0.25;
  spec.base.mean_fade_reps = 2.0;
  spec.base.fade_error_prob = 0.3;
  spec.base.evaluate_quality = true;
  return spec;
}

std::string run_golden_sweep() {
  std::ostringstream out;
  CellJsonlSink sink{out};
  CellRunner runner;
  (void)runner.run(golden_spec(), sink);
  return out.str();
}

TEST(CellGolden, JsonlOutputMatchesFixture) {
  test::check_golden(test::data_path("cell_golden.jsonl"),
                     run_golden_sweep());
}

}  // namespace
}  // namespace tv::cell
