#include "video/scene.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tv::video {

namespace {

// Integer coordinate hash -> [0, 1).  Deterministic spatial noise basis.
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

// Bilinear value noise at continuous world coordinates.
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

// Two-octave fractal noise, mapped to [0, 255].
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

}  // namespace

const char* to_string(MotionLevel level) {
  switch (level) {
    case MotionLevel::kLow: return "low";
    case MotionLevel::kMedium: return "medium";
    case MotionLevel::kHigh: return "high";
  }
  return "?";
}

MotionLevel motion_from_string(std::string_view name) {
  if (name == "low" || name == "slow") return MotionLevel::kLow;
  if (name == "medium") return MotionLevel::kMedium;
  if (name == "high" || name == "fast") return MotionLevel::kHigh;
  throw std::invalid_argument{"unknown motion level: " + std::string{name} +
                              " (low|medium|high)"};
}

SceneParameters SceneParameters::preset(MotionLevel level) {
  SceneParameters p;
  switch (level) {
    // Note on pan speeds: the codec uses full-pel motion compensation (no
    // sub-pel interpolation), so a fractional global pan would defeat MC in
    // every macroblock and inflate P-frames unrealistically.  Camera pans
    // are therefore 0 (static, "slow" surveillance-style content) or whole
    // pixels per frame; content motion comes from the objects and cuts.
    case MotionLevel::kLow:
      p.pan_speed = 0.0;
      p.object_speed = 0.9;
      p.object_count = 3;
      p.scene_cut_period = 0;
      p.noise_amplitude = 4.0;
      break;
    case MotionLevel::kMedium:
      p.pan_speed = 1.0;
      p.object_speed = 3.5;
      p.object_count = 4;
      p.scene_cut_period = 0;
      break;
    case MotionLevel::kHigh:
      p.pan_speed = 4.0;
      p.object_speed = 11.0;
      p.object_count = 6;
      p.scene_cut_period = 45;  // 1.5 s at 30 fps between hard cuts.
      break;
  }
  return p;
}

SceneGenerator::SceneGenerator(SceneParameters params, std::uint64_t seed)
    : params_(params), seed_(seed) {}

std::vector<SceneGenerator::Object> SceneGenerator::objects_for_scene(
    std::uint64_t scene) const {
  util::Rng rng{seed_ ^ (scene * 0x2545f4914f6cdd1dULL + 0x1234ULL)};
  std::vector<Object> objects;
  objects.reserve(static_cast<std::size_t>(params_.object_count));
  for (int i = 0; i < params_.object_count; ++i) {
    Object o;
    o.x0 = rng.uniform(0.0, params_.width);
    o.y0 = rng.uniform(0.0, params_.height);
    const double angle = rng.uniform(0.0, 6.283185307);
    const double speed = params_.object_speed * rng.uniform(0.6, 1.4);
    o.vx = speed * std::cos(angle);
    o.vy = speed * std::sin(angle);
    o.radius = rng.uniform(14.0, 34.0);
    o.luma = static_cast<std::uint8_t>(rng.uniform_int(180) + 60);
    o.cb = static_cast<std::uint8_t>(rng.uniform_int(160) + 48);
    o.cr = static_cast<std::uint8_t>(rng.uniform_int(160) + 48);
    o.texture_seed = rng();
    objects.push_back(o);
  }
  return objects;
}

Frame SceneGenerator::render(int index) const {
  Frame frame(params_.width, params_.height);
  render_into(index, frame);
  return frame;
}

void SceneGenerator::render_into(int index, Frame& frame) const {
  const std::uint64_t scene =
      params_.scene_cut_period > 0
          ? static_cast<std::uint64_t>(index / params_.scene_cut_period)
          : 0;
  const int frame_in_scene =
      params_.scene_cut_period > 0 ? index % params_.scene_cut_period : index;
  const std::uint64_t bg_seed = seed_ ^ (scene * 0x9e3779b97f4a7c15ULL);
  const double pan_x = params_.pan_speed * frame_in_scene;
  const double pan_y = 0.37 * params_.pan_speed * frame_in_scene;

  // Each object's center in this frame.  Objects wrap around the frame so
  // they never leave the picture.
  struct Placed {
    const Object* object;
    double ox;
    double oy;
    double reach;  ///< beyond this |dx| or |dy| a point is surely outside.
  };
  const std::vector<Object> objects = objects_for_scene(scene);
  std::vector<Placed> placed;
  placed.reserve(objects.size());
  for (const Object& o : objects) {
    const double cx = o.x0 + o.vx * frame_in_scene;
    const double cy = o.y0 + o.vy * frame_in_scene;
    const double w = params_.width;
    const double h = params_.height;
    placed.push_back({&o, cx - w * std::floor(cx / w),
                      cy - h * std::floor(cy / h), o.radius + 1.0});
  }

  // Luma plane: background + objects + sensor noise.
  for (int yy = 0; yy < params_.height; ++yy) {
    for (int xx = 0; xx < params_.width; ++xx) {
      double value = background_luma(xx + pan_x, yy + pan_y,
                                     params_.texture_scale, bg_seed);
      for (const Placed& p : placed) {
        const double dx = xx - p.ox;
        const double dy = yy - p.oy;
        // Skipping is exact: such a point has dist >= |dx| > radius.
        if (std::abs(dx) > p.reach || std::abs(dy) > p.reach) continue;
        const Object& o = *p.object;
        const double dist = std::sqrt(dx * dx + dy * dy);
        if (dist < o.radius) {
          const double tex = value_noise(dx + 100.0, dy + 100.0, 6.0,
                                         o.texture_seed);
          const double object_value = o.luma + 40.0 * (tex - 0.5);
          // Soft 3-pixel rim: sub-pixel object motion then produces small,
          // quantizable residuals instead of hard-edge spikes.
          const double edge = o.radius - dist;
          const double alpha =
              edge >= 3.0 ? 1.0 : smoothstep(edge / 3.0);
          value = value + alpha * (object_value - value);
        }
      }
      // Deterministic per-pixel, per-frame noise (sensor grain).
      const double grain =
          params_.noise_amplitude *
          (lattice_noise(xx + 7919 * index, yy, bg_seed ^ 0x5a5aULL) - 0.5);
      frame.y(xx, yy) = clamp_pixel(value + grain);
    }
  }

  // Chroma planes: smooth background tint + object colors.
  for (int yy = 0; yy < frame.chroma_height(); ++yy) {
    for (int xx = 0; xx < frame.chroma_width(); ++xx) {
      const double wx = 2.0 * xx;
      const double wy = 2.0 * yy;
      double cb = 118.0 + 24.0 * value_noise(wx + pan_x, wy + pan_y,
                                             params_.texture_scale * 3.0,
                                             bg_seed ^ 0xbeefULL);
      double cr = 118.0 + 24.0 * value_noise(wx + pan_x, wy + pan_y,
                                             params_.texture_scale * 3.0,
                                             bg_seed ^ 0xfeedULL);
      for (const Placed& p : placed) {
        const double dx = wx - p.ox;
        const double dy = wy - p.oy;
        if (std::abs(dx) > p.reach || std::abs(dy) > p.reach) continue;
        const Object& o = *p.object;
        if (dx * dx + dy * dy < o.radius * o.radius) {
          cb = o.cb;
          cr = o.cr;
        }
      }
      frame.u(xx, yy) = clamp_pixel(cb);
      frame.v(xx, yy) = clamp_pixel(cr);
    }
  }
}

FrameSequence SceneGenerator::render_clip(int count,
                                          util::ThreadPool* pool) const {
  // Frames are allocated here, on the calling thread, and only filled on
  // the pool: rendering is a pure function of the index.
  FrameSequence clip;
  clip.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    clip.emplace_back(params_.width, params_.height);
  }
  util::parallel_for(pool, clip.size(), [&](std::size_t i) {
    render_into(static_cast<int>(i), clip[i]);
  });
  return clip;
}

}  // namespace tv::video
