// Fig. 14 (a,b): distortion (PSNR) at the eavesdropper for HTTP/TCP
// transfers, slow and fast motion, GOP 30/50 (AES256).
#include <cstdio>

#include "bench/common.hpp"

using namespace tv;

int main(int argc, char** argv) {
  const auto options = bench::BenchOptions::parse(argc, argv);
  bench::print_banner("Figure 14", "eavesdropper PSNR over HTTP/TCP",
                      options);
  bench::BenchEngine engine{options};
  const auto spec =
      bench::eavesdropper_spec(options, core::Transport::kHttpTcp);
  bench::print_slow_fast(spec, engine.run(spec), "slow PSNR (dB)",
                         "fast PSNR (dB)", 16,
                         &core::ExperimentResult::eavesdropper_psnr_db);

  bench::print_expectation(
      "the RTP/UDP trends of Fig. 4 persist under HTTP/TCP: I-frame "
      "encryption crushes slow motion, P-frame encryption hurts fast "
      "motion more, and the eavesdropper benefits slightly from overheard "
      "retransmissions on the unencrypted packets.");
  engine.print_summary();
  return 0;
}
