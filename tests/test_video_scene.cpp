#include "video/scene.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "util/thread_pool.hpp"
#include "video/frame.hpp"
#include "video/motion.hpp"

namespace tv::video {
namespace {

TEST(Scene, DeterministicPerSeedAndIndex) {
  const SceneGenerator a{SceneParameters::preset(MotionLevel::kMedium), 5};
  const SceneGenerator b{SceneParameters::preset(MotionLevel::kMedium), 5};
  const Frame fa = a.render(17);
  const Frame fb = b.render(17);
  EXPECT_DOUBLE_EQ(luma_mse(fa, fb), 0.0);
}

TEST(Scene, DifferentSeedsProduceDifferentContent) {
  const SceneGenerator a{SceneParameters::preset(MotionLevel::kMedium), 5};
  const SceneGenerator b{SceneParameters::preset(MotionLevel::kMedium), 6};
  EXPECT_GT(luma_mse(a.render(0), b.render(0)), 100.0);
}

TEST(Scene, RenderIsIndexPure) {
  const SceneGenerator g{SceneParameters::preset(MotionLevel::kHigh), 9};
  const Frame direct = g.render(40);
  const auto clip = g.render_clip(41);
  EXPECT_DOUBLE_EQ(luma_mse(direct, clip[40]), 0.0);
}

// FNV-1a over every plane of every frame.
std::uint64_t clip_digest(const FrameSequence& clip) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Frame& f : clip) {
    for (const auto* plane : {&f.y_plane(), &f.u_plane(), &f.v_plane()}) {
      for (const std::uint8_t b : *plane) {
        h ^= b;
        h *= 0x100000001b3ULL;
      }
    }
  }
  return h;
}

TEST(Scene, RenderClipMatchesPinnedDigests) {
  // Digests of the renderer as it was before objects far from a pixel were
  // skipped and clips were rendered on a pool; the skip must be exact.
  const std::pair<MotionLevel, std::uint64_t> pinned[] = {
      {MotionLevel::kLow, 0xe0b7022096db1605ULL},
      {MotionLevel::kMedium, 0x8510c5a698467288ULL},
      {MotionLevel::kHigh, 0x6575a15b8ac74577ULL}};
  util::ThreadPool pool{4};
  for (const auto& [level, digest] : pinned) {
    const SceneGenerator g{SceneParameters::preset(level), 7};
    EXPECT_EQ(clip_digest(g.render_clip(30)), digest) << to_string(level);
    EXPECT_EQ(clip_digest(g.render_clip(30, &pool)), digest)
        << to_string(level) << " on a pool";
  }
}

TEST(Scene, FrameDifferencesOrderByMotionLevel) {
  const int n = 30;
  double change[3] = {};
  int idx = 0;
  for (auto level : {MotionLevel::kLow, MotionLevel::kMedium,
                     MotionLevel::kHigh}) {
    const SceneGenerator g{SceneParameters::preset(level), 11};
    const auto clip = g.render_clip(n);
    double acc = 0.0;
    for (int i = 1; i < n; ++i) acc += luma_mse(clip[i - 1], clip[i]);
    change[idx++] = acc / (n - 1);
  }
  EXPECT_LT(change[0], change[1]);
  EXPECT_LT(change[1], change[2]);
}

TEST(Scene, ClassifierRecoversPresetLevels) {
  for (auto level : {MotionLevel::kLow, MotionLevel::kMedium,
                     MotionLevel::kHigh}) {
    const SceneGenerator g{SceneParameters::preset(level), 23};
    const auto clip = g.render_clip(40);
    const MotionReport report = classify_motion(clip);
    EXPECT_EQ(report.level, level) << "score " << report.score;
  }
}

TEST(Scene, SceneCutsCauseLargeJumps) {
  SceneParameters p = SceneParameters::preset(MotionLevel::kHigh);
  p.scene_cut_period = 10;
  const SceneGenerator g{p, 31};
  const Frame before = g.render(9);
  const Frame after = g.render(10);  // first frame of the next scene.
  const Frame within = g.render(8);
  EXPECT_GT(luma_mse(before, after), 4.0 * luma_mse(within, before));
}

TEST(Scene, CustomDimensionsRespected) {
  SceneParameters p = SceneParameters::preset(MotionLevel::kLow);
  p.width = 64;
  p.height = 48;
  const SceneGenerator g{p, 1};
  const Frame f = g.render(0);
  EXPECT_EQ(f.width(), 64);
  EXPECT_EQ(f.height(), 48);
}

TEST(MotionScore, ZeroForIdenticalFrames) {
  Frame f(32, 32);
  f.fill(90, 128, 128);
  EXPECT_DOUBLE_EQ(motion_score(f, f), 0.0);
}

TEST(MotionScore, OneForCompletelyDifferentFrames) {
  Frame a(32, 32);
  Frame b(32, 32);
  a.fill(0, 128, 128);
  b.fill(255, 128, 128);
  EXPECT_DOUBLE_EQ(motion_score(a, b), 1.0);
}

TEST(ClassifyMotion, RejectsShortClips) {
  Frame f(32, 32);
  EXPECT_THROW((void)classify_motion({f}), std::invalid_argument);
}

}  // namespace
}  // namespace tv::video
