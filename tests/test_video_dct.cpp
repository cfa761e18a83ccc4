#include "video/dct.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "proptest.hpp"
#include "util/rng.hpp"

namespace tv::video {
namespace {

Block8x8 random_block(std::uint64_t seed) {
  util::Rng rng{seed};
  Block8x8 b{};
  for (auto& v : b) v = rng.uniform(0.0, 255.0);
  return b;
}

class DctRoundtrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DctRoundtrip, InverseRecoversSpatialBlock) {
  const Block8x8 spatial = random_block(GetParam());
  const Block8x8 back = inverse_dct(forward_dct(spatial));
  for (int i = 0; i < 64; ++i) {
    EXPECT_NEAR(back[i], spatial[i], 1e-9);
  }
}

TEST_P(DctRoundtrip, ParsevalEnergyPreservation) {
  const Block8x8 spatial = random_block(GetParam() + 100);
  const Block8x8 coeffs = forward_dct(spatial);
  double es = 0.0;
  double ec = 0.0;
  for (int i = 0; i < 64; ++i) {
    es += spatial[i] * spatial[i];
    ec += coeffs[i] * coeffs[i];
  }
  EXPECT_NEAR(es, ec, es * 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DctRoundtrip,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(Dct, FlatBlockHasOnlyDc) {
  Block8x8 flat{};
  flat.fill(100.0);
  const Block8x8 coeffs = forward_dct(flat);
  EXPECT_NEAR(coeffs[0], 800.0, 1e-9);  // orthonormal DC = 8 * value.
  for (int i = 1; i < 64; ++i) {
    EXPECT_NEAR(coeffs[i], 0.0, 1e-9);
  }
}

TEST(Quantize, ErrorBoundedByHalfStep) {
  const Block8x8 spatial = random_block(42);
  const Block8x8 coeffs = forward_dct(spatial);
  const double qstep = 10.0;
  const Block8x8 recon = dequantize(quantize(coeffs, qstep), qstep);
  for (int i = 0; i < 64; ++i) {
    const double step = i == 0 ? qstep * 0.5 : qstep;
    EXPECT_LE(std::abs(recon[i] - coeffs[i]), step * 0.5 + 1e-9);
  }
}

TEST(Quantize, ZeroStaysZero) {
  Block8x8 zero{};
  const QuantBlock q = quantize(zero, 8.0);
  for (auto v : q) EXPECT_EQ(v, 0);
}

TEST(QuantizeDeadzone, SmallCoefficientsVanish) {
  Block8x8 coeffs{};
  coeffs[5] = 9.9;
  coeffs[9] = -9.9;
  coeffs[11] = 10.1;
  const QuantBlock q = quantize_deadzone(coeffs, 10.0);
  EXPECT_EQ(q[5], 0);   // |c| < qstep -> dead zone.
  EXPECT_EQ(q[9], 0);
  EXPECT_EQ(q[11], 1);  // just above.
}

TEST(QuantizeDeadzone, ReconstructionErrorBounded) {
  const Block8x8 spatial = random_block(77);
  const Block8x8 coeffs = forward_dct(spatial);
  const double qstep = 12.0;
  const Block8x8 recon =
      dequantize_deadzone(quantize_deadzone(coeffs, qstep), qstep);
  for (int i = 0; i < 64; ++i) {
    // Dead zone: uncoded error < qstep; coded error <= qstep/2.
    EXPECT_LE(std::abs(recon[i] - coeffs[i]), qstep + 1e-9);
  }
}

TEST(QuantizeDeadzone, NegativeSymmetry) {
  Block8x8 coeffs{};
  coeffs[3] = 25.0;
  Block8x8 neg{};
  neg[3] = -25.0;
  const double qstep = 10.0;
  const Block8x8 a = dequantize_deadzone(quantize_deadzone(coeffs, qstep), qstep);
  const Block8x8 b = dequantize_deadzone(quantize_deadzone(neg, qstep), qstep);
  EXPECT_NEAR(a[3], -b[3], 1e-12);
}

TEST(QuantizeResidualDeadzone, MatchesFullTransformAtTheEnergyBound) {
  // Residuals whose energy sits just below, at and above qstep²: a flat
  // residual k puts all of it in the DC coefficient (c = 8k = sqrt of the
  // energy, the tightest case of the bound), a random one spreads it.
  const auto config = proptest::Config::from_env(0xdc7, 400);
  int below_bound = 0;
  proptest::check(
      "quantize_residual_deadzone == quantize_deadzone(forward_dct)", config,
      [&below_bound](util::Rng& rng, std::uint64_t) {
        Block8x8 prediction{};
        for (auto& v : prediction) {
          v = static_cast<double>(rng.uniform_int(256));
        }
        const bool flat = rng.bernoulli(0.5);
        const int amplitude = 1 + static_cast<int>(rng.uniform_int(12));
        const int k = static_cast<int>(rng.uniform_int(
                          2 * static_cast<std::uint64_t>(amplitude) + 1)) -
                      amplitude;
        Block8x8 source{};
        double energy = 0.0;
        for (std::size_t i = 0; i < 64; ++i) {
          const int d =
              flat ? k
                   : static_cast<int>(rng.uniform_int(
                         2 * static_cast<std::uint64_t>(amplitude) + 1)) -
                         amplitude;
          source[i] = std::clamp(prediction[i] + d, 0.0, 255.0);
          const double diff = source[i] - prediction[i];
          energy += diff * diff;
        }
        // qstep within a few 1e-6 of sqrt(energy), or anywhere up to 2x.
        const double norm = std::sqrt(energy);
        const double qstep =
            rng.bernoulli(0.5)
                ? std::max(0.5, norm + rng.uniform(-3e-6, 3e-6))
                : rng.uniform(0.5, 2.0 * norm + 1.0);
        const double limit = qstep - 1e-6;
        if (limit > 0.0 && energy < limit * limit) ++below_bound;

        Block8x8 diff{};
        for (std::size_t i = 0; i < 64; ++i) {
          diff[i] = source[i] - prediction[i];
        }
        EXPECT_EQ(quantize_residual_deadzone(source, prediction, qstep),
                  quantize_deadzone(forward_dct(diff), qstep))
            << "qstep " << qstep << " energy " << energy;
      });
  EXPECT_GT(below_bound, config.cases / 10);  // the shortcut was exercised.
}

TEST(Zigzag, IsAPermutationStartingAtDc) {
  std::set<int> seen(kZigzag.begin(), kZigzag.end());
  EXPECT_EQ(seen.size(), 64u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 63);
  EXPECT_EQ(kZigzag[0], 0);
  EXPECT_EQ(kZigzag[1], 1);   // right.
  EXPECT_EQ(kZigzag[2], 8);   // down-left.
  EXPECT_EQ(kZigzag[63], 63);
}

}  // namespace
}  // namespace tv::video
