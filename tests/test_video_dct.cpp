#include "video/dct.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
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

// The oracle: the full transform and dequantizers, both passes summing
// over all eight rows and columns, each output from +0.0 in index order.
struct FullInverse {
  double basis[8][8];  // basis[u][x] = c(u) * cos((2x+1) u pi / 16).
  FullInverse() {
    for (int u = 0; u < 8; ++u) {
      const double cu = u == 0 ? std::sqrt(1.0 / 8.0) : std::sqrt(2.0 / 8.0);
      for (int x = 0; x < 8; ++x) {
        basis[u][x] = cu * std::cos((2.0 * x + 1.0) * u * std::numbers::pi / 16.0);
      }
    }
  }

  [[nodiscard]] Block8x8 operator()(const Block8x8& c) const {
    Block8x8 tmp{};
    for (int y = 0; y < 8; ++y) {
      for (int col = 0; col < 8; ++col) {
        double acc = 0.0;
        for (int v = 0; v < 8; ++v) acc += basis[v][y] * c[v * 8 + col];
        tmp[y * 8 + col] = acc;
      }
    }
    Block8x8 out{};
    for (int r = 0; r < 8; ++r) {
      for (int x = 0; x < 8; ++x) {
        double acc = 0.0;
        for (int u = 0; u < 8; ++u) acc += tmp[r * 8 + u] * basis[u][x];
        out[r * 8 + x] = acc;
      }
    }
    return out;
  }
};

Block8x8 full_dequantize(const QuantBlock& levels, double qstep) {
  Block8x8 out{};
  for (int i = 0; i < 64; ++i) {
    const double step = i == 0 ? qstep * 0.5 : qstep;
    out[i] = static_cast<double>(levels[i]) * step;
  }
  return out;
}

Block8x8 full_dequantize_deadzone(const QuantBlock& levels, double qstep) {
  Block8x8 out{};
  for (int i = 0; i < 64; ++i) {
    const double l = levels[i];
    if (l == 0.0) {
      out[i] = 0.0;
    } else {
      const double sign = l > 0.0 ? 1.0 : -1.0;
      out[i] = (l + 0.5 * sign) * qstep;
    }
  }
  return out;
}

bool same_bits(const Block8x8& a, const Block8x8& b) {
  return std::memcmp(a.data(), b.data(), sizeof(double) * 64) == 0;
}

// Random levels whose extent is exactly n: nonzeros only inside the top-left
// n x n square, one of them in its last row or column.
QuantBlock random_levels(util::Rng& rng, int n) {
  QuantBlock q{};
  if (n == 0) return q;
  // Magnitudes from 1 up to the int16 limit, spread over decades.
  static constexpr std::uint64_t kLimits[] = {1, 4, 40, 1000, 32767};
  const std::uint64_t limit = kLimits[rng.uniform_int(5)];
  auto level = [&] {
    const auto magnitude = static_cast<int>(
        rng.bernoulli(0.1) ? limit : 1 + rng.uniform_int(limit));
    return static_cast<std::int16_t>(rng.bernoulli(0.5) ? magnitude
                                                        : -magnitude);
  };
  const double density = rng.bernoulli(0.5) ? 0.15 : 1.0;
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      if (rng.bernoulli(density)) q[r * 8 + c] = level();
    }
  }
  const int k = static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(n)));
  q[rng.bernoulli(0.5) ? (n - 1) * 8 + k : k * 8 + n - 1] = level();
  return q;
}

TEST(Dct, BoundedInverseMatchesFullTransformBitwise) {
  const FullInverse full;
  const auto config = proptest::Config::from_env(0xe87e, 150);
  proptest::check(
      "inverse_dct(dequantize(l, q, n), n) == full transform", config,
      [&full](util::Rng& rng, std::uint64_t) {
        for (int n = 0; n <= 8; ++n) {
          const QuantBlock levels = random_levels(rng, n);
          ASSERT_EQ(level_extent(levels), n);
          for (const double qstep : {0.5, 8.0, 14.0, 24.0, 1000.0}) {
            for (const bool deadzone : {false, true}) {
              const Block8x8 expected =
                  full(deadzone ? full_dequantize_deadzone(levels, qstep)
                                : full_dequantize(levels, qstep));
              // Every extent that covers the levels gives the same bits,
              // the default (whole-block) forms included.
              for (int m = n; m <= 8; ++m) {
                const Block8x8 coefficients =
                    deadzone ? dequantize_deadzone(levels, qstep, m)
                             : dequantize(levels, qstep, m);
                EXPECT_TRUE(same_bits(inverse_dct(coefficients, m), expected))
                    << "extent " << n << " read as " << m << " qstep "
                    << qstep << " deadzone " << deadzone;
              }
              const Block8x8 whole = deadzone
                                         ? dequantize_deadzone(levels, qstep)
                                         : dequantize(levels, qstep);
              EXPECT_TRUE(same_bits(inverse_dct(whole), expected))
                  << "extent " << n << " qstep " << qstep;
            }
          }
        }
      });
}

TEST(Dct, LevelExtentIsTheSmallestCoveringSquare) {
  EXPECT_EQ(level_extent(QuantBlock{}), 0);
  static constexpr std::int16_t kValues[] = {1, -1, 32767, -32768};
  for (int i = 0; i < 64; ++i) {
    QuantBlock q{};
    q[i] = kValues[i % 4];
    EXPECT_EQ(level_extent(q), std::max(i / 8, i % 8) + 1) << "position " << i;
  }
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
