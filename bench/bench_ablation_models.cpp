// Ablations of the analytic machinery (DESIGN.md Section 4, "ablation"):
//  (a) 2-MMPP/G/1 mean delay: exact solver vs. discrete-event simulation
//      across utilizations, and vs. a naive M/G/1 that ignores burstiness;
//  (b) 802.11 DCF fixed point vs. slotted event simulation across station
//      counts;
//  (c) distortion flow DP (eq. 26 done in O(N * age)) vs. Monte Carlo of
//      the literal GOP state chain.
//
// The rows of (a) and (b) are independent simulations seeded per row, so
// they run concurrently on the thread pool (--threads=N) and print in
// row order; (c) threads one Rng through its rows and stays serial.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "distortion/gop_model.hpp"
#include "queueing/mg1.hpp"
#include "queueing/mmpp_g1.hpp"
#include "queueing/queue_sim.hpp"
#include "util/thread_pool.hpp"
#include "wifi/dcf_model.hpp"
#include "wifi/dcf_sim.hpp"

using namespace tv;

int main(int argc, char** argv) {
  // Rows run on --threads; they are printed text, with no --json/--csv.
  const auto options =
      bench::BenchOptions::parse(argc, argv, bench::BenchOptions::kThreads);
  bench::print_banner("Ablation", "model accuracy checks", options);
  std::optional<util::ThreadPool> pool;
  if (options.threads > 1) pool.emplace(options.threads);
  util::ThreadPool* pool_ptr = pool ? &*pool : nullptr;
  const auto print = [](const std::string& line) {
    std::fputs(line.c_str(), stdout);
  };

  std::printf("\n(a) 2-MMPP/G/1: solver vs. DES vs. naive M/G/1\n");
  std::printf("%-8s %-12s %-14s %-12s %-10s\n", "rho", "solver ms",
              "DES ms", "M/G/1 ms", "err vs DES");
  const std::vector<double> scales = {1.0, 2.0, 4.0, 5.5, 6.3};
  util::run_ordered(pool_ptr, scales.size(), [&](std::size_t i) {
    const double scale = scales[i];
    queueing::Mmpp2 mmpp{.r12 = 260.0, .r21 = 1.05,
                         .lambda1 = 4400.0 * scale, .lambda2 = 40.0 * scale};
    queueing::ServiceTimeModel svc{
        {{0.35, 3.3e-3, 1.2e-4}, {0.65, 1.1e-3, 0.9e-4}},
        queueing::BackoffModel{0.78, 420.0}};
    const queueing::MmppG1Solver solver{mmpp, svc};
    const auto sol = solver.solve();
    const auto sim = queueing::simulate_queue(mmpp, svc, 2000000, 100000,
                                              options.seed);
    const auto pk = queueing::solve_mg1(mmpp.mean_rate(), svc.mean(),
                                        svc.moment2(), svc.moment3());
    return util::fmt("%-8.3f %-12.3f %-14.3f %-12.3f %9.1f%%\n",
                     sol.utilization, sol.mean_wait * 1e3,
                     sim.wait.mean() * 1e3, pk.mean_wait * 1e3,
                     100.0 * (sol.mean_wait - sim.wait.mean()) /
                         sim.wait.mean());
  }, print);
  std::printf("-> the MMPP solver matches the DES; the Poisson M/G/1 "
              "misses the burstiness premium entirely.\n");

  std::printf("\n(b) 802.11 DCF: fixed point vs. slotted simulation\n");
  std::printf("%-6s %-12s %-12s %-12s %-12s\n", "n", "tau (model)",
              "tau (sim)", "p (model)", "p (sim)");
  const std::vector<int> stations = {2, 4, 8, 16, 32};
  util::run_ordered(pool_ptr, stations.size(), [&](std::size_t i) {
    const int n = stations[i];
    wifi::DcfParameters params{.contenders = n};
    const auto model = wifi::solve_dcf(params);
    const auto sim = wifi::simulate_dcf(params, 400000, options.seed);
    return util::fmt("%-6d %-12.5f %-12.5f %-12.5f %-12.5f\n", n,
                     model.attempt_probability, sim.attempt_probability,
                     model.collision_probability, sim.collision_probability);
  }, print);

  std::printf("\n(c) distortion flow model: exact DP vs. Monte Carlo\n");
  std::printf("%-22s %-12s %-14s\n", "(P_I, P_P)", "DP MSE", "MC MSE");
  util::Rng rng{options.seed};
  for (auto [pi, pp] : {std::pair{0.95, 0.995}, std::pair{0.6, 0.95},
                        std::pair{0.2, 0.9}, std::pair{0.0, 0.98}}) {
    distortion::DistanceSamples samples;
    for (int d = 1; d <= 12; ++d) {
      samples.distances.push_back(d);
      samples.mse.push_back(40.0 * d + 2.0 * d * d);
    }
    auto inter = distortion::DistanceDistortion::fit(samples, 5);
    distortion::FlowModelParameters fp;
    fp.gop_size = 30;
    fp.p_i_success = pi;
    fp.p_p_success = pp;
    fp.d_min = inter(1.0);
    fp.d_max = inter(29.0);
    fp.null_reference_mse = 2200.0;
    const distortion::FlowDistortionModel model{fp, inter};
    const double dp = model.flow_average_distortion(10);
    const double mc = model.flow_average_distortion_mc(10, 20000, rng);
    std::printf("(%.2f, %.3f)%9s %-12.2f %-14.2f\n", pi, pp, "", dp, mc);
  }
  std::printf("-> the O(N*age) DP reproduces the exponential-state-space "
              "expectation of eq. (26).\n");
  return 0;
}
