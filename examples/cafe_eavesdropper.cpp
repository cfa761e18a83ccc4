// Cafe scenario: you are uploading a video over open WiFi while someone at
// the next table runs tcpdump.  Renders what each party actually sees
// (ASCII luma thumbnails) under three protection levels, for slow- and
// fast-motion content — the live version of the paper's Fig. 6.
#include <cstdio>
#include <vector>

#include "core/experiment.hpp"
#include "video/quality.hpp"

using namespace tv;

namespace {

void show(const video::Frame& frame, const char* title) {
  std::printf("--- %s ---\n", title);
  for (const auto& line : video::ascii_thumbnail(frame, 56, 18)) {
    std::printf("%s\n", line.c_str());
  }
}

}  // namespace

int main() {
  for (auto motion : {video::MotionLevel::kLow, video::MotionLevel::kHigh}) {
    const auto workload = core::build_workload(motion, 30, 90, 7);
    const int shot = 45;
    std::printf("\n############ %s-motion clip ############\n",
                video::to_string(motion));
    show(workload.clip[shot], "original frame 45");

    const std::vector<policy::EncryptionPolicy> policies = {
        {policy::Mode::kNone, crypto::Algorithm::kAes256, 0.0},
        {policy::Mode::kIFrames, crypto::Algorithm::kAes256, 0.0},
        {policy::Mode::kIPlusFractionP, crypto::Algorithm::kAes256, 0.20},
    };
    for (const auto& pol : policies) {
      const core::Flow flow{workload, pol, 99};
      core::PipelineConfig pipeline;
      pipeline.device = core::samsung_galaxy_s2();
      const auto transfer =
          core::simulate_transfer(pipeline, flow.packets(), 1234);
      const auto seen =
          flow.decode(transfer.eavesdropper_captured, /*decrypt=*/false);
      char title[128];
      std::snprintf(title, sizeof title,
                    "eavesdropper under '%s'  (clip PSNR %.1f dB, MOS %.2f)",
                    pol.label().c_str(),
                    video::sequence_psnr(workload.clip, seen),
                    video::sequence_mos(workload.clip, seen));
      show(seen[shot], title);
    }
  }
  std::printf(
      "\nTakeaway: I-frame-only encryption blanks slow-motion content; fast "
      "motion needs I+20%%P before the snooper's screen turns to mush.\n");
  return 0;
}
