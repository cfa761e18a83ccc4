// Fig. 4 (a-d): distortion (PSNR) at the eavesdropper for slow/fast motion
// and GOP 30/50 under the none / P / I / all encryption levels, analysis
// vs. experiment (AES256, RTP/UDP, Samsung Galaxy S-II).
#include <cstdio>

#include "bench/common.hpp"

using namespace tv;

int main(int argc, char** argv) {
  const auto options = bench::BenchOptions::parse(argc, argv);
  bench::print_banner("Figure 4",
                      "eavesdropper PSNR vs. encryption level", options);
  bench::BenchEngine engine{options};
  const auto spec =
      bench::eavesdropper_spec(options, core::Transport::kRtpUdp);
  const auto cells = engine.run(spec);

  for (bool fast : {false, true}) {
    for (int gop : spec.gop_sizes) {
      std::printf("\n(%s-motion, GOP=%d)  [receiver PSNR shown for the "
                  "legitimate decode]\n",
                  fast ? "Fast" : "Slow", gop);
      std::printf("%-8s | %-12s %-12s | %-12s %-12s\n", "level",
                  "analysis dB", "experiment", "rx analysis", "rx exper.");
      for (const auto& pol : spec.policies) {
        const auto& r = bench::find_cell(cells, bench::motion_for(fast), gop,
                                         pol, spec.devices.front());
        std::printf("%-8s | %-12.2f %-12s | %-12.2f %-12s\n",
                    policy::to_string(pol.mode),
                    r.predicted_eavesdropper.psnr_db,
                    bench::fmt_ci(r.eavesdropper_psnr_db, 2).c_str(),
                    r.predicted_receiver.psnr_db,
                    bench::fmt_ci(r.receiver_psnr_db, 2).c_str());
      }
    }
  }

  bench::print_expectation(
      "analysis tracks experiment.  Encrypting I-frames crushes slow-motion "
      "PSNR far more (paper: up to 80% drop, ~= 'all') than fast motion "
      "(~30%); encrypting only P-frames hurts fast motion more than slow "
      "(up to 40%).  'none' stays near the receiver's PSNR.");
  engine.print_summary();
  return 0;
}
