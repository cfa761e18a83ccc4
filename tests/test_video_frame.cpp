#include "video/frame.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "util/rng.hpp"

namespace tv::video {
namespace {

TEST(Frame, ConstructionAndPlaneSizes) {
  Frame f(352, 288);
  EXPECT_EQ(f.width(), 352);
  EXPECT_EQ(f.height(), 288);
  EXPECT_EQ(f.chroma_width(), 176);
  EXPECT_EQ(f.chroma_height(), 144);
  EXPECT_EQ(f.y_plane().size(), 352u * 288u);
  EXPECT_EQ(f.u_plane().size(), 176u * 144u);
}

TEST(Frame, RejectsBadDimensions) {
  EXPECT_THROW(Frame(0, 16), std::invalid_argument);
  EXPECT_THROW(Frame(17, 16), std::invalid_argument);
  EXPECT_THROW(Frame(32, 24), std::invalid_argument);
}

TEST(Frame, FillAndPixelAccess) {
  Frame f(32, 32);
  f.fill(10, 20, 30);
  EXPECT_EQ(f.y(5, 7), 10);
  EXPECT_EQ(f.u(3, 3), 20);
  EXPECT_EQ(f.v(0, 15), 30);
  f.y(5, 7) = 200;
  EXPECT_EQ(f.y(5, 7), 200);
}

TEST(LumaMse, ZeroForIdenticalFrames) {
  Frame a(32, 32);
  a.fill(100, 128, 128);
  EXPECT_DOUBLE_EQ(luma_mse(a, a), 0.0);
}

TEST(LumaMse, ConstantOffsetSquared) {
  Frame a(32, 32);
  Frame b(32, 32);
  a.fill(100, 128, 128);
  b.fill(110, 0, 255);  // chroma must not matter for luma MSE.
  EXPECT_DOUBLE_EQ(luma_mse(a, b), 100.0);
}

// The double-accumulating loop luma_mse used before its integer kernel:
// the oracle it must match bit for bit.
double luma_mse_double_oracle(const Frame& a, const Frame& b) {
  const auto& ya = a.y_plane();
  const auto& yb = b.y_plane();
  double acc = 0.0;
  for (std::size_t i = 0; i < ya.size(); ++i) {
    const double d = static_cast<double>(ya[i]) - static_cast<double>(yb[i]);
    acc += d * d;
  }
  return acc / static_cast<double>(ya.size());
}

TEST(LumaMse, IntegerKernelMatchesDoubleOracle) {
  util::Rng rng{0x5eed};
  // 16x16 is one partial chunk; CIF and 640x480 span several 2^16-pixel
  // chunks, the last one partial.
  for (const auto& [w, h] : {std::pair{16, 16}, std::pair{352, 288},
                             std::pair{640, 480}}) {
    for (int trial = 0; trial < 4; ++trial) {
      Frame a(w, h);
      Frame b(w, h);
      for (auto& p : a.y_plane()) {
        p = static_cast<std::uint8_t>(rng.uniform_int(256));
      }
      for (auto& p : b.y_plane()) {
        p = static_cast<std::uint8_t>(rng.uniform_int(256));
      }
      EXPECT_EQ(luma_mse(a, b), luma_mse_double_oracle(a, b)) << w << "x" << h;
    }
    // Extremes: every difference is +-255, the largest partial sums.
    Frame black(w, h);
    Frame white(w, h);
    black.fill(0, 128, 128);
    white.fill(255, 128, 128);
    EXPECT_EQ(luma_mse(black, white), 255.0 * 255.0);
    EXPECT_EQ(luma_mse(white, black), luma_mse_double_oracle(white, black));
  }
}

TEST(LumaMse, RejectsDimensionMismatch) {
  Frame a(32, 32);
  Frame b(64, 32);
  EXPECT_THROW((void)luma_mse(a, b), std::invalid_argument);
}

TEST(Psnr, Equation28Values) {
  // PSNR = 20 log10(255 / sqrt(MSE)).
  EXPECT_NEAR(psnr_from_mse(1.0), 48.1308, 1e-3);
  EXPECT_NEAR(psnr_from_mse(100.0), 28.1308, 1e-3);
  EXPECT_TRUE(std::isinf(psnr_from_mse(0.0)));
}

TEST(Psnr, RoundtripWithMse) {
  for (double mse : {0.5, 3.0, 42.0, 2000.0}) {
    EXPECT_NEAR(mse_from_psnr(psnr_from_mse(mse)), mse, 1e-9);
  }
}

TEST(SequencePsnr, AveragesMseFirst) {
  Frame a(32, 32);
  Frame b0(32, 32);
  Frame b1(32, 32);
  a.fill(100, 128, 128);
  b0.fill(100, 128, 128);  // MSE 0.
  b1.fill(120, 128, 128);  // MSE 400.
  const double psnr = sequence_psnr({a, a}, {b0, b1});
  EXPECT_NEAR(psnr, psnr_from_mse(200.0), 1e-9);
}

TEST(AsciiThumbnail, ShapeAndBrightnessOrdering) {
  Frame dark(32, 32);
  dark.fill(0, 128, 128);
  Frame bright(32, 32);
  bright.fill(255, 128, 128);
  const auto d = ascii_thumbnail(dark, 10, 4);
  const auto b = ascii_thumbnail(bright, 10, 4);
  ASSERT_EQ(d.size(), 4u);
  ASSERT_EQ(d[0].size(), 10u);
  EXPECT_EQ(d[0][0], ' ');
  EXPECT_EQ(b[0][0], '@');
}

}  // namespace
}  // namespace tv::video
