#include "sim/validation.hpp"

#include <cmath>
#include <stdexcept>

#include "core/calibration.hpp"
#include "core/predictor.hpp"
#include "distortion/gop_model.hpp"
#include "queueing/mmpp_g1.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tv::sim {

namespace {

// Per-cell RNG substreams (folded onto the cell's derived seed).
constexpr std::uint64_t kSenderStream = 1;
constexpr std::uint64_t kEavesdropperStream = 2;

using util::fmt;

core::TrafficCalibration make_traffic(const ValidationSpec& spec,
                                      const ValidationCell& cell) {
  core::TrafficCalibration traffic;
  traffic.mmpp =
      queueing::Mmpp2{spec.r12, spec.r21, cell.lambda1, cell.lambda2};
  traffic.p_i = spec.p_i;
  traffic.mean_i_payload = spec.mean_i_payload;
  traffic.mean_p_payload = spec.mean_p_payload;
  traffic.mean_i_packets_per_frame =
      static_cast<double>(spec.i_packets_per_frame);
  traffic.mean_p_packets_per_frame =
      static_cast<double>(spec.p_packets_per_frame);
  return traffic;
}

core::ServiceCalibration make_service(const ValidationSpec& spec,
                                      crypto::Algorithm algorithm) {
  core::ServiceCalibration service;
  service.enc_i_mean = spec.device.encryption_seconds(
      algorithm, static_cast<std::size_t>(spec.mean_i_payload));
  service.enc_p_mean = spec.device.encryption_seconds(
      algorithm, static_cast<std::size_t>(spec.mean_p_payload));
  service.enc_i_stddev = spec.device.speed(algorithm).jitter_stddev_s;
  service.enc_p_stddev = spec.device.speed(algorithm).jitter_stddev_s;
  service.tx_i_mean = spec.tx_i_mean;
  service.tx_i_stddev = spec.tx_i_stddev;
  service.tx_p_mean = spec.tx_p_mean;
  service.tx_p_stddev = spec.tx_p_stddev;
  service.mac_success_prob = spec.mac_success_prob;
  service.backoff_rate = spec.backoff_rate;
  return service;
}

SenderSimSpec make_sender_spec(const ValidationSpec& spec,
                               const ValidationCell& cell) {
  const core::TrafficCalibration traffic = make_traffic(spec, cell);
  const core::ServiceCalibration service =
      make_service(spec, cell.policy.algorithm);
  SenderSimSpec out;
  out.arrivals = traffic.mmpp;
  out.service =
      core::service_parameters(traffic, service,
                               cell.policy.i_packet_fraction(),
                               cell.policy.p_packet_fraction());
  out.events = spec.events;
  out.warmup = spec.warmup;
  out.batches = spec.batches;
  out.seed = util::derive_seed(cell.seed, kSenderStream);
  return out;
}

EavesdropperSimSpec make_eavesdropper_spec(const ValidationSpec& spec,
                                           const ValidationCell& cell) {
  EavesdropperSimSpec out;
  out.gop_size = spec.gop_size;
  out.n_gops = spec.n_gops;
  out.repetitions = spec.eavesdropper_repetitions;
  out.i_packets_per_frame = spec.i_packets_per_frame;
  out.p_packets_per_frame = spec.p_packets_per_frame;
  out.sensitivity_fraction = spec.sensitivity_fraction;
  out.packet_success_rate = spec.packet_success_rate;
  out.q_i = cell.policy.i_packet_fraction();
  out.q_p = cell.policy.p_packet_fraction();
  out.base_mse = spec.base_mse;
  out.null_reference_mse = spec.null_reference_mse;
  out.d_min = spec.inter(1.0);
  out.d_max = spec.inter(static_cast<double>(spec.gop_size - 1));
  out.age_cap_gops = spec.age_cap_gops;
  out.inter = spec.inter;
  out.seed = util::derive_seed(cell.seed, kEavesdropperStream);
  return out;
}

void add_check(ValidationCellResult& r, std::string name, double simulated,
               double analytic, double tolerance) {
  r.checks.push_back(
      util::check(std::move(name), simulated, analytic, tolerance));
}

}  // namespace

void ValidationSpec::validate() const {
  const auto require = [](bool ok, const char* what) {
    if (!ok) {
      throw std::invalid_argument{std::string{"ValidationSpec: "} + what};
    }
  };
  require(!lambda1s.empty(), "no lambda1 values");
  require(!lambda2s.empty(), "no lambda2 values");
  require(!policies.empty(), "no policies");
  require(!algorithms.empty(), "no algorithms");
  require(r12 > 0.0 && r21 > 0.0, "transition rates must be positive");
  require(p_i > 0.0 && p_i < 1.0, "p_i must be in (0, 1)");
  require(mean_i_payload > 0.0 && mean_p_payload > 0.0,
          "payload sizes must be positive");
  require(i_packets_per_frame >= 1 && p_packets_per_frame >= 1,
          "packets per frame must be >= 1");
  require(z > 0.0, "z must be positive");
  require(eavesdropper_repetitions >= 2, "need >= 2 eavesdropper flows");
  for (const policy::EncryptionPolicy& p : policies) p.validate();
  // Per-cell knobs (stability, truncation constraints, distortion ranges)
  // are validated fail-fast by run_validation before any cell
  // executes, via the component specs' own validate().
}

std::size_t ValidationSpec::cell_count() const {
  return lambda1s.size() * lambda2s.size() * policies.size() *
         algorithms.size();
}

std::vector<ValidationCell> enumerate_cells(const ValidationSpec& spec) {
  return util::cartesian(
      [&](std::size_t index, double l1, double l2,
          const policy::EncryptionPolicy& shape, crypto::Algorithm algorithm) {
        ValidationCell cell;
        cell.index = index;
        cell.lambda1 = l1;
        cell.lambda2 = l2;
        cell.policy = shape;
        cell.policy.algorithm = algorithm;
        cell.seed = util::derive_seed(spec.seed, index);
        return cell;
      },
      spec.lambda1s, spec.lambda2s, spec.policies, spec.algorithms);
}

ValidationCellResult run_validation_cell(const ValidationSpec& spec,
                                         const ValidationCell& cell) {
  ValidationCellResult r;
  r.cell = cell;
  const double z = spec.z;

  // --- Sender side: exact 2-MMPP/G/1 solution vs. event simulation. -------
  SenderSimSpec sender_spec = make_sender_spec(spec, cell);
  core::StampTraceSink stamp{spec.trace, nullptr,
                             static_cast<int>(cell.index)};
  if (spec.trace != nullptr) sender_spec.trace = &stamp;
  const queueing::ServiceTimeModel model =
      queueing::ServiceTimeModel::from_parameters(sender_spec.service);
  const queueing::MmppG1Solver solver{sender_spec.arrivals, model};
  const queueing::MmppG1Solution sol = solver.solve();
  const util::Vector pi = sender_spec.arrivals.stationary();
  const double lambda_bar = sender_spec.arrivals.mean_rate();

  r.analytic_wait = sol.mean_wait;
  r.analytic_wait_state1 = sol.phase_wait[0];
  r.analytic_wait_state2 = sol.phase_wait[1];
  r.analytic_utilization = sol.utilization;
  r.analytic_state1_fraction = pi[0];
  r.analytic_arrival_state1_fraction = pi[0] * cell.lambda1 / lambda_bar;
  r.analytic_service_mean = model.mean();

  r.sender = simulate_sender(sender_spec);

  // E[W]: batch means give the honest standard error; a small relative
  // slack absorbs the residual correlation between adjacent batches.
  const double batch_sem = r.sender.wait_batch_means.stderr_mean();
  add_check(r, "mean_wait", r.sender.wait.mean(), r.analytic_wait,
            z * batch_sem + 0.01 * r.analytic_wait + 1e-6);

  // Per-state waits: their naive standard errors share (approximately) the
  // autocorrelation structure of the pooled sequence, so inflate them by
  // the pooled batch-to-naive ratio.
  const double naive_sem = r.sender.wait.stderr_mean();
  const double inflation = naive_sem > 0.0 ? batch_sem / naive_sem : 1.0;
  add_check(r, "wait_state1", r.sender.wait_state1.mean(),
            r.analytic_wait_state1,
            z * inflation * r.sender.wait_state1.stderr_mean() +
                0.02 * r.analytic_wait_state1 + 1e-6);
  add_check(r, "wait_state2", r.sender.wait_state2.mean(),
            r.analytic_wait_state2,
            z * inflation * r.sender.wait_state2.stderr_mean() +
                0.02 * r.analytic_wait_state2 + 1e-6);

  // Service draws are iid, so their naive standard error is exact.
  add_check(r, "service_mean", r.sender.service.mean(),
            r.analytic_service_mean,
            z * r.sender.service.stderr_mean() + 1e-9);
  add_check(r, "mean_sojourn", r.sender.sojourn.mean(), sol.mean_sojourn,
            z * (batch_sem + r.sender.service.stderr_mean()) +
                0.01 * sol.mean_sojourn + 1e-6);

  // Chain occupancy: the time fraction in state 1 over N sojourn cycles has
  // sd ~ f (1 - f) sqrt(2 / N) (ratio of iid exponential sums).
  const double cycle_mean = 1.0 / spec.r12 + 1.0 / spec.r21;
  const double cycles =
      r.sender.chain_time > 0.0 ? r.sender.chain_time / cycle_mean : 1.0;
  const double f = r.analytic_state1_fraction;

  // Utilization: the simulator measures a fixed *packet count*, so busy/T
  // inherits the randomness of the window length T, which is dominated by
  // the phase-occupancy fluctuation of the mean arrival rate
  // (d lambda_bar / d f = lambda1 - lambda2); the iid service-draw noise
  // adds a smaller term on top.
  const double busy_sd =
      r.sender.measured_time > 0.0
          ? std::sqrt(static_cast<double>(r.sender.service.count()) *
                      r.sender.service.variance()) /
                r.sender.measured_time
          : 0.0;
  const double rel_rate_sd = std::abs(cell.lambda1 - cell.lambda2) * f *
                             (1.0 - f) * std::sqrt(2.0 / cycles) /
                             lambda_bar;
  add_check(r, "utilization", r.sender.utilization(), r.analytic_utilization,
            z * (r.analytic_utilization * rel_rate_sd + 2.0 * busy_sd) +
                0.005 * r.analytic_utilization + 1e-4);
  add_check(r, "state1_fraction", r.sender.state1_fraction(), f,
            z * f * (1.0 - f) * std::sqrt(2.0 / cycles) + 1e-3);
  const double a = r.analytic_arrival_state1_fraction;
  add_check(r, "arrival_state1_fraction", r.sender.arrival_state1_fraction(),
            a, z * std::sqrt(a * (1.0 - a) / cycles) + 1e-3);

  // --- Eavesdropper side: eqs. (20)-(28) vs. packet simulation. -----------
  const core::TrafficCalibration traffic = make_traffic(spec, cell);
  core::DistortionInputs inputs;
  inputs.gop_size = spec.gop_size;
  inputs.n_gops = spec.n_gops;
  inputs.sensitivity_fraction = spec.sensitivity_fraction;
  inputs.base_mse = spec.base_mse;
  inputs.null_mse = spec.null_reference_mse;
  inputs.inter = spec.inter;
  const core::DistortionPrediction prediction = core::predict_distortion(
      inputs, traffic, spec.packet_success_rate,
      cell.policy.i_packet_fraction(), cell.policy.p_packet_fraction());
  r.analytic_i_frame_success = prediction.p_i_frame_success;
  r.analytic_p_frame_success = prediction.p_p_frame_success;
  r.analytic_flow_mse = prediction.mse;

  distortion::FlowModelParameters fp;
  fp.gop_size = spec.gop_size;
  fp.p_i_success = prediction.p_i_frame_success;
  fp.p_p_success = prediction.p_p_frame_success;
  fp.d_min = spec.inter(1.0);
  fp.d_max = spec.inter(static_cast<double>(spec.gop_size - 1));
  fp.base_mse = spec.base_mse;
  fp.null_reference_mse = spec.null_reference_mse;
  fp.age_cap_gops = spec.age_cap_gops;
  r.analytic_gop_state_pmf =
      distortion::FlowDistortionModel{fp, spec.inter}.gop_state_pmf();

  r.eavesdropper = simulate_eavesdropper(make_eavesdropper_spec(spec, cell));

  // Per-flow statistics are iid across repetitions.
  add_check(r, "i_frame_success", r.eavesdropper.i_frame_success.mean(),
            r.analytic_i_frame_success,
            z * r.eavesdropper.i_frame_success.stderr_mean() + 5e-3);
  add_check(r, "p_frame_success", r.eavesdropper.p_frame_success.mean(),
            r.analytic_p_frame_success,
            z * r.eavesdropper.p_frame_success.stderr_mean() + 5e-3);
  add_check(r, "flow_mse", r.eavesdropper.flow_mse.mean(),
            r.analytic_flow_mse,
            z * r.eavesdropper.flow_mse.stderr_mean() +
                0.02 * r.analytic_flow_mse + 1e-3);

  // GOP-state occupancy: intact and I-lost corners binomially, plus the
  // total-variation distance of the whole empirical pmf.
  const double n_gop_samples =
      r.eavesdropper.gops > 0 ? static_cast<double>(r.eavesdropper.gops) : 1.0;
  const auto binom_sd = [&](double p) {
    return std::sqrt(std::max(p * (1.0 - p), 0.0) / n_gop_samples);
  };
  const std::vector<double>& apmf = r.analytic_gop_state_pmf;
  const std::vector<double>& spmf = r.eavesdropper.gop_state_pmf;
  add_check(r, "gop_pmf_intact", spmf.front(), apmf.front(),
            z * binom_sd(apmf.front()) + 2e-3);
  add_check(r, "gop_pmf_i_lost", spmf.back(), apmf.back(),
            z * binom_sd(apmf.back()) + 2e-3);
  double tv = 0.0;
  double tv_tol = 0.0;
  for (std::size_t i = 0; i < apmf.size() && i < spmf.size(); ++i) {
    tv += 0.5 * std::abs(spmf[i] - apmf[i]);
    tv_tol += 0.5 * binom_sd(apmf[i]);
  }
  add_check(r, "gop_pmf_tv", tv, 0.0, z * tv_tol + 2e-3);

  return r;
}

// --- Output. ---------------------------------------------------------------

void table_header(std::ostream& out, const ValidationSpec& spec) {
  out << fmt("validation grid: %zu cells, %llu events/cell, z = %.3g\n",
             spec.cell_count(), static_cast<unsigned long long>(spec.events),
             spec.z);
  out << fmt("%-4s %-6s %-6s %-10s %-7s %-21s %-17s %-15s %-19s %-6s %s\n",
             "cell", "l1", "l2", "policy", "alg", "E[W] sim/ana (ms)",
             "rho sim/ana", "P_I sim/ana", "MSE sim/ana", "checks", "ok");
}

void table_row(std::ostream& out, const ValidationSpec& /*spec*/,
               const ValidationCellResult& r) {
  const std::size_t ok = r.checks.size() - util::failed_count(r.checks);
  out << fmt(
      "%-4zu %-6g %-6g %-10s %-7s %-21s %-17s %-15s %-19s %-6s %s\n",
      r.cell.index, r.cell.lambda1, r.cell.lambda2,
      r.cell.policy.spec().c_str(),
      std::string{crypto::to_string(r.cell.policy.algorithm)}.c_str(),
      fmt("%.4f/%.4f", r.sender.wait.mean() * 1e3, r.analytic_wait * 1e3)
          .c_str(),
      fmt("%.4f/%.4f", r.sender.utilization(), r.analytic_utilization)
          .c_str(),
      fmt("%.4f/%.4f", r.eavesdropper.i_frame_success.mean(),
          r.analytic_i_frame_success)
          .c_str(),
      fmt("%.2f/%.2f", r.eavesdropper.flow_mse.mean(), r.analytic_flow_mse)
          .c_str(),
      fmt("%zu/%zu", ok, r.checks.size()).c_str(),
      r.passed() ? "PASS" : "FAIL");
  for (const ValidationCheck& c : r.checks) {
    if (c.ok) continue;
    out << fmt("     FAIL %s: simulated %.17g vs analytic %.17g "
               "(|diff| %.3g > tol %.3g)\n",
               c.name.c_str(), c.simulated, c.analytic,
               std::abs(c.simulated - c.analytic), c.tolerance);
  }
}

util::Record to_record(const ValidationCellResult& r) {
  util::Record sender;
  sender.add("wait", r.sender.wait.mean())
      .add("wait_ci", r.sender.wait_batch_means.ci95_halfwidth())
      .add("wait_state1", r.sender.wait_state1.mean())
      .add("wait_state2", r.sender.wait_state2.mean())
      .add("service", r.sender.service.mean())
      .add("sojourn", r.sender.sojourn.mean())
      .add("utilization", r.sender.utilization())
      .add("state1_fraction", r.sender.state1_fraction())
      .add("arrival_state1_fraction", r.sender.arrival_state1_fraction())
      .add("served", r.sender.served);
  util::Record eavesdropper;
  eavesdropper.add("i_frame_success", r.eavesdropper.i_frame_success.mean())
      .add("p_frame_success", r.eavesdropper.p_frame_success.mean())
      .add("flow_mse", r.eavesdropper.flow_mse.mean())
      .add("mean_psnr_db", r.eavesdropper.mean_psnr_db())
      .add("substitution_distance",
           r.eavesdropper.substitution_distance.mean())
      .add("gops", r.eavesdropper.gops);
  util::Record analytic;
  analytic.add("wait", r.analytic_wait)
      .add("wait_state1", r.analytic_wait_state1)
      .add("wait_state2", r.analytic_wait_state2)
      .add("service", r.analytic_service_mean)
      .add("utilization", r.analytic_utilization)
      .add("state1_fraction", r.analytic_state1_fraction)
      .add("arrival_state1_fraction", r.analytic_arrival_state1_fraction)
      .add("i_frame_success", r.analytic_i_frame_success)
      .add("p_frame_success", r.analytic_p_frame_success)
      .add("flow_mse", r.analytic_flow_mse);
  util::Record out;
  out.add("cell", r.cell.index)
      .add("lambda1", r.cell.lambda1)
      .add("lambda2", r.cell.lambda2)
      .add("policy", r.cell.policy.spec())
      .add("algorithm", crypto::to_string(r.cell.policy.algorithm))
      .add("seed", r.cell.seed)
      .add("sender", std::move(sender))
      .add("eavesdropper", std::move(eavesdropper))
      .add("analytic", std::move(analytic))
      .add("checks", util::to_array(r.checks))
      .add("passed", r.passed());
  return out;
}

// --- Runner. ---------------------------------------------------------------

util::GridSummary run_validation(const ValidationSpec& spec,
                                 ValidationSink& sink,
                                 util::ThreadPool* pool) {
  spec.validate();
  const std::vector<ValidationCell> cells = enumerate_cells(spec);

  // Fail fast on configuration mistakes (instability, truncation-violating
  // jitter, bad distortion knobs) before any cell burns simulation time.
  for (const ValidationCell& cell : cells) {
    make_sender_spec(spec, cell).validate();
    make_eavesdropper_spec(spec, cell).validate();
  }

  // Traced runs execute in order so the event stream arrives in cell order.
  return util::stream_grid(
      pool, spec.trace == nullptr ? util::Rows::kPool : util::Rows::kInOrder,
      spec, cells.size(), [] {},
      [&](std::size_t i) { return run_validation_cell(spec, cells[i]); },
      sink,
      [](util::GridSummary& summary, const ValidationCellResult& r) {
        util::tally(summary, r.checks);
      });
}

}  // namespace tv::sim
