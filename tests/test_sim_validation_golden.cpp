// Golden-file regression for the model-validation grid's JSONL output
// (`thriftyvid simulate --events=N --format=jsonl`).
//
// The fixture tests/data/sim_validation_golden.jsonl pins a two-cell grid
// with fixed seeds: the analytic 2-MMPP/G/1 and distortion-chain values,
// both discrete-event simulators' statistics and every acceptance check,
// all at %.17g.  Regenerate after an intentional change with
//
//     TV_UPDATE_GOLDEN=1 ./build/tests/tv_validation_tests
//         --gtest_filter='SimValidationGolden.*'   (one command line)
//
// and review the fixture diff.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "golden.hpp"
#include "sim/validation.hpp"

namespace tv::sim {
namespace {

// Do not edit casually — the fixture encodes these exact axes and knobs.
ValidationSpec golden_spec() {
  ValidationSpec spec;
  spec.lambda1s = {2400.0};
  spec.lambda2s = {160.0};
  spec.events = 20000;
  spec.warmup = 2000;
  spec.batches = 20;
  spec.eavesdropper_repetitions = 40;
  spec.seed = 29;
  return spec;
}

TEST(SimValidationGolden, JsonlOutputMatchesFixture) {
  std::ostringstream out;
  util::JsonlSink<ValidationSpec, ValidationCellResult> sink{out};
  (void)run_validation(golden_spec(), sink);
  test::check_golden(test::data_path("sim_validation_golden.jsonl"),
                     out.str());
}

}  // namespace
}  // namespace tv::sim
