// Golden-file regression for the sweep engine's JSONL output.
//
// The fixture tests/data/sweep_golden.jsonl pins the byte-exact output of a
// small but representative sweep.  Because JsonlSink prints every statistic
// at %.17g and the sweep's determinism contract makes results independent
// of thread count, any byte difference is a real behaviour change — a
// statistics change, a seed-derivation change, or a serialization change —
// and must be reviewed, not absorbed.  After an intentional change,
// regenerate with
//
//     TV_UPDATE_GOLDEN=1 ./build/tests/tv_validation_tests
//         --gtest_filter='SweepGolden.*'   (one command line)
//
// and inspect the fixture diff.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/sweep.hpp"
#include "golden.hpp"

namespace tv::core {
namespace {

// The pinned grid: both motion levels, two policies x two ciphers, one
// lossy channel cell, quality evaluation on.  Do not edit casually — the
// fixture encodes these exact axes.
SweepSpec golden_spec() {
  SweepSpec spec;
  spec.motions = {video::MotionLevel::kLow, video::MotionLevel::kHigh};
  spec.gop_sizes = {30};
  spec.policies = {{policy::Mode::kNone, crypto::Algorithm::kAes256, 0.0},
                   {policy::Mode::kIFrames, crypto::Algorithm::kAes256, 0.0}};
  spec.algorithms = {crypto::Algorithm::kAes128,
                     crypto::Algorithm::kTripleDes};
  spec.frames = 60;
  spec.repetitions = 3;
  spec.seed = 97;
  return spec;
}

std::string run_golden_sweep() {
  std::ostringstream out;
  JsonlSink sink{out};
  SweepRunner runner;
  (void)runner.run(golden_spec(), sink);
  return out.str();
}

TEST(SweepGolden, JsonlOutputMatchesFixture) {
  test::check_golden(test::data_path("sweep_golden.jsonl"),
                     run_golden_sweep());
}

}  // namespace
}  // namespace tv::core
