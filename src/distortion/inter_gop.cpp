#include "distortion/inter_gop.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace tv::distortion {

DistanceSamples measure_substitution_distortion(
    const video::FrameSequence& clip, int max_distance,
    util::ThreadPool* pool) {
  if (max_distance < 1 ||
      clip.size() <= static_cast<std::size_t>(max_distance)) {
    throw std::invalid_argument{
        "measure_substitution_distortion: clip too short for max_distance"};
  }
  const std::size_t n = static_cast<std::size_t>(max_distance);
  DistanceSamples samples;
  samples.distances.resize(n);
  samples.mse.resize(n);
  // One independent sum per distance, each folded in t order.
  const auto measure = [&](std::size_t i) {
    const std::size_t d = i + 1;
    double acc = 0.0;
    for (std::size_t t = d; t < clip.size(); ++t) {
      acc += video::luma_mse(clip[t], clip[t - d]);
    }
    samples.distances[i] = static_cast<double>(d);
    samples.mse[i] = acc / static_cast<double>(clip.size() - d);
  };
  util::parallel_for(pool, n, measure);
  return samples;
}

DistanceDistortion::DistanceDistortion(util::Polynomial polynomial,
                                       double saturation_distance)
    : poly_(std::move(polynomial)), saturation_(saturation_distance) {
  if (saturation_ < 1.0) {
    throw std::invalid_argument{"DistanceDistortion: saturation < 1"};
  }
}

DistanceDistortion DistanceDistortion::fit(const DistanceSamples& samples,
                                           std::size_t degree) {
  if (samples.distances.size() != samples.mse.size() ||
      samples.distances.empty()) {
    throw std::invalid_argument{"DistanceDistortion::fit: bad samples"};
  }
  // The regression needs more samples than coefficients; degrade the degree
  // gracefully for short sample sets (the paper fits degree 5 on its data).
  const std::size_t usable_degree =
      std::min(degree, samples.distances.size() - 1);
  util::Polynomial poly =
      util::polyfit(samples.distances, samples.mse, usable_degree);
  const double saturation =
      *std::max_element(samples.distances.begin(), samples.distances.end());
  return DistanceDistortion{std::move(poly), saturation};
}

double DistanceDistortion::operator()(double distance) const {
  const double d = std::clamp(distance, 1.0, saturation_);
  const double value = poly_(d);
  return value > 0.0 ? value : 0.0;
}

double DistanceDistortion::max_distortion() const {
  // The measured curves are increasing in distance, but a degree-5 fit can
  // wiggle; scan the clamped range.
  double best = 0.0;
  for (double d = 1.0; d <= saturation_; d += 0.25) {
    best = std::max(best, (*this)(d));
  }
  return best;
}

}  // namespace tv::distortion
