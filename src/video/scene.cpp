#include "video/scene.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tv::video {

namespace {

// Integer coordinate hash -> [0, 1), the deterministic spatial noise
// basis, in two halves: the column half mixes in ix, and the row half
// mixes iy into it.  A caller that visits many rows of one column keeps
// the column half.
std::uint64_t lattice_column(std::int64_t ix, std::uint64_t seed) {
  std::uint64_t h = seed;
  h ^= static_cast<std::uint64_t>(ix) * 0x9e3779b97f4a7c15ULL;
  return (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
}

double lattice_row(std::uint64_t column, std::int64_t iy) {
  std::uint64_t h = column;
  h ^= static_cast<std::uint64_t>(iy) * 0xc2b2ae3d27d4eb4fULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

double smoothstep(double t) { return t * t * (3.0 - 2.0 * t); }

// Bilinear value noise sampled at x = xs[c] and y = ys[r], both
// non-decreasing.  The lerp along x between lattice points (ix, j) and
// (ix + 1, j) depends only on the column and the lattice row j, so it is
// tabulated once for every lattice row the rows touch; a sample then
// takes one lerp in y between two table rows.  Operands, expression and
// order are value noise's, so every sample equals it bit for bit; the
// callers compute each coordinate as the per-pixel form does.
class NoiseGrid {
 public:
  /// Lattice rows iy and iy + 1 of one sample row, and its weight in y.
  struct Row {
    const double* a;
    const double* b;
    double ty;

    [[nodiscard]] double at(int c) const { return a[c] + (b[c] - a[c]) * ty; }
  };

  NoiseGrid(double scale, std::uint64_t seed, const std::vector<double>& xs,
            const std::vector<double>& ys)
      : columns_(static_cast<int>(xs.size())) {
    if (xs.empty() || ys.empty()) return;
    fy_.reserve(ys.size());
    for (const double y : ys) fy_.push_back(y / scale);
    // The cell of each column; ix is monotonic in c, so its range is
    // that of the end columns.
    std::vector<std::int64_t> ix(xs.size());
    std::vector<double> tx(xs.size());
    for (std::size_t c = 0; c < ix.size(); ++c) {
      const double fx = xs[c] / scale;
      ix[c] = cell(fx);
      tx[c] = smoothstep(fx - static_cast<double>(ix[c]));
    }
    const std::int64_t ix_lo = std::min(ix.front(), ix.back());
    const std::int64_t ix_hi = std::max(ix.front(), ix.back());
    const std::int64_t iy_first = cell(fy_.front());
    const std::int64_t iy_last = cell(fy_.back());
    iy_lo_ = std::min(iy_first, iy_last);
    const std::int64_t lattice_rows = std::max(iy_first, iy_last) - iy_lo_ + 2;

    values_.resize(static_cast<std::size_t>(lattice_rows) *
                   xs.size());
    std::vector<std::uint64_t> column_halves(
        static_cast<std::size_t>(ix_hi - ix_lo + 2));
    for (std::size_t k = 0; k < column_halves.size(); ++k) {
      column_halves[k] =
          lattice_column(ix_lo + static_cast<std::int64_t>(k), seed);
    }
    std::vector<double> n(column_halves.size());
    double* out = values_.data();
    for (std::int64_t j = iy_lo_; j < iy_lo_ + lattice_rows; ++j) {
      for (std::size_t k = 0; k < n.size(); ++k) {
        n[k] = lattice_row(column_halves[k], j);
      }
      for (std::size_t c = 0; c < ix.size(); ++c, ++out) {
        const auto k = static_cast<std::size_t>(ix[c] - ix_lo);
        *out = n[k] + (n[k + 1] - n[k]) * tx[c];
      }
    }
  }

  [[nodiscard]] Row row(int r) const {
    const double y = fy_[static_cast<std::size_t>(r)];
    const std::int64_t iy = cell(y);
    const double* a =
        values_.data() + static_cast<std::size_t>(iy - iy_lo_) *
                             static_cast<std::size_t>(columns_);
    return {a, a + columns_, smoothstep(y - static_cast<double>(iy))};
  }

 private:
  static std::int64_t cell(double f) {
    return static_cast<std::int64_t>(std::floor(f));
  }

  int columns_;
  std::vector<double> fy_;      ///< ys / scale.
  std::int64_t iy_lo_ = 0;      ///< the first tabulated lattice row.
  std::vector<double> values_;  ///< lattice rows x columns_, row-major.
};

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

  // Sample coordinates step * i + origin for i < n.
  const auto samples = [](int n, double step, double origin) {
    std::vector<double> at;
    at.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) at.push_back(step * i + origin);
    return at;
  };
  // Each object's texture is sampled at ((xx - ox) + 100, (yy - oy) + 100)
  // over the columns and rows within `reach` of its center (an interval),
  // starting at column x0 and row y0.
  struct Texture {
    int x0 = 0;
    int y0 = 0;
    NoiseGrid grid;
  };
  const auto offsets = [](int n, double center, double reach, int& first) {
    std::vector<double> at;
    for (int i = 0; i < n; ++i) {
      const double d = i - center;
      if (std::abs(d) > reach) continue;
      if (at.empty()) first = i;
      at.push_back(d + 100.0);
    }
    return at;
  };
  std::vector<Texture> textures;
  textures.reserve(placed.size());
  for (const Placed& p : placed) {
    int x0 = 0;
    int y0 = 0;
    const std::vector<double> xs = offsets(params_.width, p.ox, p.reach, x0);
    const std::vector<double> ys = offsets(params_.height, p.oy, p.reach, y0);
    textures.push_back(
        {x0, y0, NoiseGrid{6.0, p.object->texture_seed, xs, ys}});
  }

  // Luma plane: background + objects + sensor noise, one row at a time.
  // An object more than `reach` rows away cannot touch the row; the rest
  // take their texture's row, in object order.
  struct Active {
    const Placed* placed;
    double dy;
    NoiseGrid::Row texture;
    int x0;
  };
  std::vector<Active> active;
  active.reserve(placed.size());
  // The two background octaves, sampled at (xx + pan_x, yy + pan_y).
  const std::vector<double> luma_xs = samples(params_.width, 1.0, pan_x);
  const std::vector<double> luma_ys = samples(params_.height, 1.0, pan_y);
  const NoiseGrid coarse_grid{params_.texture_scale, bg_seed, luma_xs,
                              luma_ys};
  const NoiseGrid fine_grid{params_.texture_scale / 4.0, bg_seed ^ 0xabcdULL,
                            luma_xs, luma_ys};
  // Sensor grain hashes lattice point (xx + 7919 index, yy); each
  // column's half of the hash is taken once per frame.
  std::vector<std::uint64_t> grain_columns(
      static_cast<std::size_t>(params_.width));
  for (int xx = 0; xx < params_.width; ++xx) {
    grain_columns[static_cast<std::size_t>(xx)] =
        lattice_column(xx + 7919 * index, bg_seed ^ 0x5a5aULL);
  }
  for (int yy = 0; yy < params_.height; ++yy) {
    const NoiseGrid::Row coarse = coarse_grid.row(yy);
    const NoiseGrid::Row fine = fine_grid.row(yy);
    active.clear();
    for (std::size_t k = 0; k < placed.size(); ++k) {
      const Placed& p = placed[k];
      const double dy = yy - p.oy;
      // Skipping is exact: such a point has dist >= |dy| > radius.
      if (std::abs(dy) > p.reach) continue;
      const Texture& t = textures[k];
      active.push_back({&p, dy, t.grid.row(yy - t.y0), t.x0});
    }
    for (int xx = 0; xx < params_.width; ++xx) {
      // Two-octave fractal noise, mapped to [0, 255].
      double value = 40.0 + 170.0 * (0.7 * coarse.at(xx) + 0.3 * fine.at(xx));
      for (const Active& a : active) {
        const Placed& p = *a.placed;
        const double dx = xx - p.ox;
        if (std::abs(dx) > p.reach) continue;
        const Object& o = *p.object;
        const double dist = std::sqrt(dx * dx + a.dy * a.dy);
        if (dist < o.radius) {
          const double tex = a.texture.at(xx - a.x0);
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
          (lattice_row(grain_columns[static_cast<std::size_t>(xx)], yy) -
           0.5);
      frame.y(xx, yy) = clamp_pixel(value + grain);
    }
  }

  // Chroma planes: smooth background tint, sampled at
  // (2 xx + pan_x, 2 yy + pan_y), + object colors.
  const std::vector<double> chroma_xs =
      samples(frame.chroma_width(), 2.0, pan_x);
  const std::vector<double> chroma_ys =
      samples(frame.chroma_height(), 2.0, pan_y);
  const NoiseGrid tint_b_grid{params_.texture_scale * 3.0, bg_seed ^ 0xbeefULL,
                              chroma_xs, chroma_ys};
  const NoiseGrid tint_r_grid{params_.texture_scale * 3.0, bg_seed ^ 0xfeedULL,
                              chroma_xs, chroma_ys};
  // As for luma, only objects within `reach` rows can touch a row; the
  // later of two overlapping objects still wins.
  struct Near {
    const Placed* placed;
    double dy;
  };
  std::vector<Near> near;
  near.reserve(placed.size());
  for (int yy = 0; yy < frame.chroma_height(); ++yy) {
    const double wy = 2.0 * yy;
    const NoiseGrid::Row tint_b = tint_b_grid.row(yy);
    const NoiseGrid::Row tint_r = tint_r_grid.row(yy);
    near.clear();
    for (const Placed& p : placed) {
      const double dy = wy - p.oy;
      if (std::abs(dy) > p.reach) continue;
      near.push_back({&p, dy});
    }
    for (int xx = 0; xx < frame.chroma_width(); ++xx) {
      const double wx = 2.0 * xx;
      double cb = 118.0 + 24.0 * tint_b.at(xx);
      double cr = 118.0 + 24.0 * tint_r.at(xx);
      for (const Near& n : near) {
        const Placed& p = *n.placed;
        const double dx = wx - p.ox;
        if (std::abs(dx) > p.reach) continue;
        const Object& o = *p.object;
        if (dx * dx + n.dy * n.dy < o.radius * o.radius) {
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
