// Synthetic YUV scene generator — the stand-in for the paper's CIF
// reference clips (Section 2 of DESIGN.md).
//
// The paper distinguishes slow-, medium- and high-motion content: motion
// level drives (a) P-frame sizes relative to I-frames and (b) how fast the
// reference-substitution distortion (Fig. 2) grows with distance.  Both
// effects come purely from how much pixel content changes between frames,
// so a procedural world with a panning camera, moving textured objects and
// optional scene cuts exercises the identical code paths.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "video/frame.hpp"

namespace tv::util {
class ThreadPool;
}

namespace tv::video {

/// Paper's three content classes (Section 4.3.2, Fig. 2).
enum class MotionLevel { kLow, kMedium, kHigh };

[[nodiscard]] const char* to_string(MotionLevel level);

/// Inverse of to_string; also accepts the paper's "slow"/"fast" aliases.
/// Throws std::invalid_argument on anything else.
[[nodiscard]] MotionLevel motion_from_string(std::string_view name);

/// Tunable generator parameters; use the presets unless you are making a
/// custom workload.
struct SceneParameters {
  int width = kCifWidth;
  int height = kCifHeight;
  double pan_speed = 0.3;        ///< camera pan, luma pixels per frame.
  double object_speed = 1.0;     ///< object translation, pixels per frame.
  int object_count = 3;          ///< moving textured objects.
  int scene_cut_period = 0;      ///< frames between hard cuts; 0 = never.
  double texture_scale = 24.0;   ///< background feature size in pixels.
  double noise_amplitude = 6.0;  ///< per-pixel sensor-noise level.

  [[nodiscard]] static SceneParameters preset(MotionLevel level);
};

/// Deterministic procedural video source.
class SceneGenerator {
 public:
  SceneGenerator(SceneParameters params, std::uint64_t seed);

  /// Render frame `index` (0-based).  Rendering is a pure function of
  /// (params, seed, index), so frames can be generated in any order.
  [[nodiscard]] Frame render(int index) const;

  /// Render frames [0, count), on `pool` when given (same frames either
  /// way).
  [[nodiscard]] FrameSequence render_clip(
      int count, util::ThreadPool* pool = nullptr) const;

  [[nodiscard]] const SceneParameters& parameters() const { return params_; }

 private:
  struct Object {
    double x0 = 0.0;  ///< initial center.
    double y0 = 0.0;
    double vx = 0.0;  ///< velocity, px/frame.
    double vy = 0.0;
    double radius = 20.0;
    std::uint8_t luma = 200;
    std::uint8_t cb = 128;
    std::uint8_t cr = 128;
    std::uint64_t texture_seed = 0;
  };

  [[nodiscard]] std::vector<Object> objects_for_scene(std::uint64_t scene) const;
  /// Render frame `index` into `frame`, which already has the clip's
  /// dimensions; every pixel is overwritten.
  void render_into(int index, Frame& frame) const;

  SceneParameters params_;
  std::uint64_t seed_;
};

}  // namespace tv::video
