// Full-grid convergence run (the slow validation tier): simulate every cell
// of a 16-point (lambda1, lambda2, policy, cipher) grid at full effort and
// require each simulated statistic to land inside its analytic acceptance
// band.  This is the end-to-end cross-check of eqs. 3-28 described in
// docs/validation.md; the cheap per-component checks live in
// test_sim_validation.cpp.
#include <gtest/gtest.h>

#include "sim/validation.hpp"
#include "util/thread_pool.hpp"

namespace tv::sim {
namespace {

TEST(ValidationGrid, FullGridMatchesAnalyticModel) {
  ValidationSpec spec;
  spec.lambda1s = {2400.0, 4000.0};
  spec.lambda2s = {160.0, 320.0};
  // Both eavesdropper regimes crossed with the fastest and slowest cipher.
  // (policy "all" with 3DES is unstable at these rates, so the policy axis
  // stays on none/I-frames; the worst cell here is I + 3DES at rho ~ 0.7.)
  spec.algorithms = {crypto::Algorithm::kAes256,
                     crypto::Algorithm::kTripleDes};
  spec.seed = 20260807;
  ASSERT_EQ(spec.cell_count(), 16u);

  util::ThreadPool pool;
  util::CollectSink<ValidationSpec, ValidationCellResult> sink;
  const ValidationSummary summary =
      ValidationRunner{&pool}.run(spec, sink);

  EXPECT_EQ(summary.cells, 16u);
  ASSERT_EQ(sink.results.size(), 16u);
  for (const ValidationCellResult& result : sink.results) {
    for (const ValidationCheck& check : result.checks) {
      EXPECT_TRUE(check.ok)
          << "cell " << result.cell.index << " (lambda1 "
          << result.cell.lambda1 << ", lambda2 " << result.cell.lambda2
          << "): " << check.name << " simulated " << check.simulated
          << " vs analytic " << check.analytic << " (tolerance "
          << check.tolerance << ")";
    }
  }
  EXPECT_TRUE(summary.all_passed());
}

}  // namespace
}  // namespace tv::sim
