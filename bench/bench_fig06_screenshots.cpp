// Fig. 6: "screenshots" of the video at the eavesdropper's site for slow
// and fast motion under each encryption level (GOP=30).  With no display
// we emit ASCII luma thumbnails of a mid-clip frame side by side with the
// original, plus the frame's PSNR.
#include <cstdio>

#include "bench/common.hpp"
#include "video/quality.hpp"

using namespace tv;

namespace {

void show_pair(const video::Frame& original, const video::Frame& seen,
               const char* label) {
  const auto left = video::ascii_thumbnail(original, 38, 14);
  const auto right = video::ascii_thumbnail(seen, 38, 14);
  std::printf("\n[%s]  frame PSNR at eavesdropper: %.1f dB\n", label,
              video::luma_psnr(original, seen));
  std::printf("%-40s %s\n", "original:", "eavesdropper sees:");
  for (std::size_t i = 0; i < left.size(); ++i) {
    std::printf("%-40s %s\n", left[i].c_str(), right[i].c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  // A handful of single transfers: no grid, no pool, no machine output.
  auto options =
      bench::BenchOptions::parse(argc, argv, bench::BenchOptions::kNoExtras);
  options.quality_reps = 1;  // one transfer per policy is a screenshot.
  bench::print_banner("Figure 6", "eavesdropper view (ASCII screenshots)",
                      options);
  core::PipelineConfig pipeline;
  pipeline.device = core::samsung_galaxy_s2();

  for (bool fast : {false, true}) {
    const core::Workload workload = core::build_workload(
        bench::motion_for(fast), 30, options.frames, options.seed);
    const int mid = options.frames / 2;
    std::printf("\n================ %s motion ================\n",
                fast ? "FAST" : "SLOW");
    for (const auto& pol :
         policy::headline_policies(crypto::Algorithm::kAes256)) {
      // Rebuild the eavesdropper's decode for this policy.
      const core::Flow flow{workload, pol, options.seed};
      const auto transfer =
          core::simulate_transfer(pipeline, flow.packets(), options.seed);
      const auto seen =
          flow.decode(transfer.eavesdropper_captured, /*decrypt=*/false);
      show_pair(workload.clip[static_cast<std::size_t>(mid)],
                seen[static_cast<std::size_t>(mid)],
                policy::to_string(pol.mode));
    }
  }

  bench::print_expectation(
      "with 'none' the eavesdropper sees the content; I-frame encryption "
      "leaves slow motion unrecognizable while fast motion retains coarse "
      "structure (intra-refreshed blocks); 'all' shows nothing.");
  return 0;
}
