// Fig. 5 (a,b): Mean Opinion Score at the eavesdropper's site for slow and
// fast motion flows, GOP 30 and 50 (EvalVid PSNR->MOS banding).
#include <cstdio>

#include "bench/common.hpp"

using namespace tv;

int main(int argc, char** argv) {
  const auto options = bench::BenchOptions::parse(argc, argv);
  bench::print_banner("Figure 5", "eavesdropper MOS vs. encryption level",
                      options);
  bench::BenchEngine engine{options};
  const auto spec =
      bench::eavesdropper_spec(options, core::Transport::kRtpUdp);
  bench::print_slow_fast(spec, engine.run(spec), "slow MOS", "fast MOS", 14,
                         &core::ExperimentResult::eavesdropper_mos);

  bench::print_expectation(
      "MOS drops to ~1 (unviewable) for every policy that encrypts "
      "I-frames; for slow motion even I-only reaches ~1, while for fast "
      "motion P-only is the more damaging single-class policy.");
  engine.print_summary();
  return 0;
}
