// Fig. 2: average distortion (MSE) vs. reference-substitution distance for
// low / medium / high motion content, plus the degree-5 polynomial
// regression of Section 4.3.2.
#include <cstdio>

#include "bench/common.hpp"
#include "distortion/inter_gop.hpp"
#include "util/polynomial.hpp"
#include "video/motion.hpp"
#include "video/scene.hpp"

using namespace tv;

int main(int argc, char** argv) {
  // Three clips measured serially: no grid, no pool, no machine output.
  const auto options =
      bench::BenchOptions::parse(argc, argv, bench::BenchOptions::kNoExtras);
  bench::print_banner("Figure 2", "average distortion vs. distance", options);

  for (auto level : {video::MotionLevel::kLow, video::MotionLevel::kMedium,
                     video::MotionLevel::kHigh}) {
    const video::SceneGenerator scene{video::SceneParameters::preset(level),
                                      options.seed};
    const video::FrameSequence clip = scene.render_clip(options.frames);
    const auto report = video::classify_motion(clip);
    const auto samples = distortion::measure_substitution_distortion(clip, 12);
    const auto fit = distortion::DistanceDistortion::fit(samples, 5);
    const double r2 =
        util::r_squared(fit.polynomial(), samples.distances, samples.mse);

    std::printf("\n(%s motion, classifier score %.3f -> %s)\n",
                video::to_string(level), report.score,
                video::to_string(report.level));
    std::printf("%-10s %-14s %-14s\n", "distance", "measured MSE",
                "poly fit D(d)");
    for (std::size_t i = 0; i < samples.distances.size(); ++i) {
      std::printf("%-10.0f %-14.2f %-14.2f\n", samples.distances[i],
                  samples.mse[i], fit(samples.distances[i]));
    }
    std::printf("degree-5 coefficients:");
    for (double c : fit.polynomial().coefficients()) std::printf(" %.4g", c);
    std::printf("   R^2 = %.4f\n", r2);
  }

  bench::print_expectation(
      "distortion grows with distance; the curves rise faster and saturate "
      "higher as motion increases (low << medium << high), and degree-5 "
      "polynomials fit the curves closely.");
  return 0;
}
