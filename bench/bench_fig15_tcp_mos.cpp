// Fig. 15 (a,b): Mean Opinion Score at the eavesdropper over HTTP/TCP,
// slow and fast motion, GOP 30/50 (AES256).
#include <cstdio>

#include "bench/common.hpp"

using namespace tv;

int main(int argc, char** argv) {
  const auto options = bench::BenchOptions::parse(argc, argv);
  bench::print_banner("Figure 15", "eavesdropper MOS over HTTP/TCP",
                      options);
  bench::BenchEngine engine{options};
  const auto spec =
      bench::eavesdropper_spec(options, core::Transport::kHttpTcp);
  bench::print_slow_fast(spec, engine.run(spec), "slow MOS", "fast MOS", 14,
                         &core::ExperimentResult::eavesdropper_mos);

  bench::print_expectation(
      "as with RTP/UDP (Fig. 5): every policy touching I-frames pins the "
      "MOS near 1; 'none' keeps it high.");
  engine.print_summary();
  return 0;
}
