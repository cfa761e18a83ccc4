#include "video/scene.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"
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

// The oracle: the renderer as it was before value noise was evaluated row
// by row — every pixel hashes its own four lattice points per octave and
// takes its cell by std::floor.  render() must match it bit for bit.
namespace oracle {

double lattice_noise(std::int64_t ix, std::int64_t iy, std::uint64_t seed) {
  std::uint64_t h = seed;
  h ^= static_cast<std::uint64_t>(ix) * 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h ^= static_cast<std::uint64_t>(iy) * 0xc2b2ae3d27d4eb4fULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

double smoothstep(double t) { return t * t * (3.0 - 2.0 * t); }

double value_noise(double x, double y, double scale, std::uint64_t seed) {
  const double fx = x / scale;
  const double fy = y / scale;
  const auto ix = static_cast<std::int64_t>(std::floor(fx));
  const auto iy = static_cast<std::int64_t>(std::floor(fy));
  const double tx = smoothstep(fx - static_cast<double>(ix));
  const double ty = smoothstep(fy - static_cast<double>(iy));
  const double n00 = lattice_noise(ix, iy, seed);
  const double n10 = lattice_noise(ix + 1, iy, seed);
  const double n01 = lattice_noise(ix, iy + 1, seed);
  const double n11 = lattice_noise(ix + 1, iy + 1, seed);
  const double a = n00 + (n10 - n00) * tx;
  const double b = n01 + (n11 - n01) * tx;
  return a + (b - a) * ty;
}

double background_luma(double x, double y, double scale, std::uint64_t seed) {
  const double coarse = value_noise(x, y, scale, seed);
  const double fine = value_noise(x, y, scale / 4.0, seed ^ 0xabcdULL);
  return 40.0 + 170.0 * (0.7 * coarse + 0.3 * fine);
}

std::uint8_t clamp_pixel(double v) {
  if (v < 0.0) return 0;
  if (v > 255.0) return 255;
  return static_cast<std::uint8_t>(v + 0.5);
}

struct Object {
  double x0, y0, vx, vy, radius;
  std::uint8_t luma, cb, cr;
  std::uint64_t texture_seed;
};

Frame render(const SceneParameters& params, std::uint64_t seed, int index) {
  const std::uint64_t scene =
      params.scene_cut_period > 0
          ? static_cast<std::uint64_t>(index / params.scene_cut_period)
          : 0;
  const int frame_in_scene =
      params.scene_cut_period > 0 ? index % params.scene_cut_period : index;
  const std::uint64_t bg_seed = seed ^ (scene * 0x9e3779b97f4a7c15ULL);
  const double pan_x = params.pan_speed * frame_in_scene;
  const double pan_y = 0.37 * params.pan_speed * frame_in_scene;

  util::Rng rng{seed ^ (scene * 0x2545f4914f6cdd1dULL + 0x1234ULL)};
  std::vector<Object> objects;
  for (int i = 0; i < params.object_count; ++i) {
    Object o{};
    o.x0 = rng.uniform(0.0, params.width);
    o.y0 = rng.uniform(0.0, params.height);
    const double angle = rng.uniform(0.0, 6.283185307);
    const double speed = params.object_speed * rng.uniform(0.6, 1.4);
    o.vx = speed * std::cos(angle);
    o.vy = speed * std::sin(angle);
    o.radius = rng.uniform(14.0, 34.0);
    o.luma = static_cast<std::uint8_t>(rng.uniform_int(180) + 60);
    o.cb = static_cast<std::uint8_t>(rng.uniform_int(160) + 48);
    o.cr = static_cast<std::uint8_t>(rng.uniform_int(160) + 48);
    o.texture_seed = rng();
    objects.push_back(o);
  }
  std::vector<std::pair<double, double>> centres;
  for (const Object& o : objects) {
    const double cx = o.x0 + o.vx * frame_in_scene;
    const double cy = o.y0 + o.vy * frame_in_scene;
    const double w = params.width;
    const double h = params.height;
    centres.emplace_back(cx - w * std::floor(cx / w),
                         cy - h * std::floor(cy / h));
  }

  Frame frame(params.width, params.height);
  for (int yy = 0; yy < params.height; ++yy) {
    for (int xx = 0; xx < params.width; ++xx) {
      double value = background_luma(xx + pan_x, yy + pan_y,
                                     params.texture_scale, bg_seed);
      for (std::size_t k = 0; k < objects.size(); ++k) {
        const Object& o = objects[k];
        const double dx = xx - centres[k].first;
        const double dy = yy - centres[k].second;
        const double dist = std::sqrt(dx * dx + dy * dy);
        if (dist < o.radius) {
          const double tex =
              value_noise(dx + 100.0, dy + 100.0, 6.0, o.texture_seed);
          const double object_value = o.luma + 40.0 * (tex - 0.5);
          const double edge = o.radius - dist;
          const double alpha = edge >= 3.0 ? 1.0 : smoothstep(edge / 3.0);
          value = value + alpha * (object_value - value);
        }
      }
      const double grain =
          params.noise_amplitude *
          (lattice_noise(xx + 7919 * index, yy, bg_seed ^ 0x5a5aULL) - 0.5);
      frame.y(xx, yy) = clamp_pixel(value + grain);
    }
  }
  for (int yy = 0; yy < frame.chroma_height(); ++yy) {
    for (int xx = 0; xx < frame.chroma_width(); ++xx) {
      const double wx = 2.0 * xx;
      const double wy = 2.0 * yy;
      double cb = 118.0 + 24.0 * value_noise(wx + pan_x, wy + pan_y,
                                             params.texture_scale * 3.0,
                                             bg_seed ^ 0xbeefULL);
      double cr = 118.0 + 24.0 * value_noise(wx + pan_x, wy + pan_y,
                                             params.texture_scale * 3.0,
                                             bg_seed ^ 0xfeedULL);
      for (std::size_t k = 0; k < objects.size(); ++k) {
        const Object& o = objects[k];
        const double dx = wx - centres[k].first;
        const double dy = wy - centres[k].second;
        if (dx * dx + dy * dy < o.radius * o.radius) {
          cb = o.cb;
          cr = o.cr;
        }
      }
      frame.u(xx, yy) = clamp_pixel(cb);
      frame.v(xx, yy) = clamp_pixel(cr);
    }
  }
  return frame;
}

}  // namespace oracle

void expect_matches_oracle(const SceneParameters& params, std::uint64_t seed,
                           int index) {
  const Frame expected = oracle::render(params, seed, index);
  const Frame got = SceneGenerator{params, seed}.render(index);
  EXPECT_EQ(got.y_plane(), expected.y_plane()) << "seed " << seed << " frame "
                                               << index;
  EXPECT_EQ(got.u_plane(), expected.u_plane()) << "seed " << seed << " frame "
                                               << index;
  EXPECT_EQ(got.v_plane(), expected.v_plane()) << "seed " << seed << " frame "
                                               << index;
}

TEST(Scene, PresetsMatchPerPixelOracle) {
  for (const auto level :
       {MotionLevel::kLow, MotionLevel::kMedium, MotionLevel::kHigh}) {
    const SceneParameters p = SceneParameters::preset(level);
    for (const std::uint64_t seed : {1ULL, 7ULL, 2013ULL, ~0ULL}) {
      for (const int index : {0, 13}) {
        SCOPED_TRACE(to_string(level));
        expect_matches_oracle(p, seed, index);
      }
    }
  }
  // Around the high preset's scene cut at frame 45.
  for (const int index : {44, 45, 46}) {
    expect_matches_oracle(SceneParameters::preset(MotionLevel::kHigh), 3,
                          index);
  }
}

TEST(Scene, CustomParametersMatchPerPixelOracle) {
  const SceneParameters base = SceneParameters::preset(MotionLevel::kMedium);
  SceneParameters negative_pan = base;  // world x < 0: the floor branch.
  negative_pan.pan_speed = -2.5;
  SceneParameters odd_scale = base;
  odd_scale.texture_scale = 17.3;
  SceneParameters empty = base;
  empty.object_count = 0;
  SceneParameters crowded = base;
  crowded.object_count = 9;
  SceneParameters small = base;
  small.width = 96;
  small.height = 64;
  small.object_speed = 7.0;
  // Shorter than one coarse lattice cell (24 rows): the background's
  // lattice-row tables hold two rows, or three where the rows straddle a
  // cell edge.
  SceneParameters short_frame = base;
  short_frame.height = 16;
  SceneParameters fine_scale = base;  // fine octave cells of 1.375 px.
  fine_scale.texture_scale = 5.5;
  for (const SceneParameters& p : {negative_pan, odd_scale, empty, crowded,
                                   small, short_frame, fine_scale}) {
    for (const int index : {0, 9, 31}) expect_matches_oracle(p, 5, index);
  }
  // Far under the negative pan: pan_x = -500 puts every column left of
  // zero, and pan_y = -185 starts the rows far below lattice row zero.
  expect_matches_oracle(negative_pan, 5, 200);
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
