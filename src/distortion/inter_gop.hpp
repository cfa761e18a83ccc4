// Inter-GOP (reference-substitution) distortion vs. distance — Fig. 2 and
// the degree-5 polynomial regression of Section 4.3.2.
//
// When a frame is concealed by an older frame, the distortion depends on
// how far apart they are and on the content's motion level.  The paper
// measures MSE between frames at increasing distances on reference clips,
// then fits D(d) = sum a_i d^i (degree 5).  We run the identical procedure
// on synthetic clips.
#pragma once

#include <vector>

#include "util/polynomial.hpp"
#include "video/frame.hpp"

namespace tv::util {
class ThreadPool;
}

namespace tv::distortion {

/// (distance, mean MSE) samples measured from a clip.
struct DistanceSamples {
  std::vector<double> distances;
  std::vector<double> mse;
};

/// Average luma MSE between each frame t and frame t-d, for d = 1..max
/// (the paper's "artificially created frame losses ... substitutions from
/// various distances").  With `pool` the distances run on it; each
/// distance's sum is folded in t order either way, so the samples match.
[[nodiscard]] DistanceSamples measure_substitution_distortion(
    const video::FrameSequence& clip, int max_distance,
    util::ThreadPool* pool = nullptr);

/// The fitted distance-to-distortion curve.  Evaluation clamps the
/// distance into [1, saturation_distance]: the polynomial is only trusted
/// on the fitted range, and beyond it the distortion has physically
/// saturated (frames are simply "different scenes").
class DistanceDistortion {
 public:
  /// Default: zero distortion at any distance (placeholder until fitted).
  DistanceDistortion() : poly_{util::Polynomial{{0.0}}}, saturation_(1.0) {}

  DistanceDistortion(util::Polynomial polynomial, double saturation_distance);

  /// Build by degree-`degree` regression on measured samples (Fig. 2's
  /// "multinomial regression" with degree 5).
  [[nodiscard]] static DistanceDistortion fit(const DistanceSamples& samples,
                                              std::size_t degree = 5);

  /// D(d): expected MSE of substituting a frame `distance` frames away.
  [[nodiscard]] double operator()(double distance) const;

  [[nodiscard]] const util::Polynomial& polynomial() const { return poly_; }
  [[nodiscard]] double saturation_distance() const { return saturation_; }
  /// Maximum distortion (at the saturation distance).
  [[nodiscard]] double max_distortion() const;

 private:
  util::Polynomial poly_;
  double saturation_;
};

}  // namespace tv::distortion
