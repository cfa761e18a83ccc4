// Grid validation of the analytic model against the discrete-event
// simulators (docs/validation.md).
//
// A ValidationSpec declares a cartesian grid over (lambda1, lambda2,
// policy, cipher).  For each cell the runner
//   * assembles the analytic inputs through the same core::calibration
//     structures the production predictor uses,
//   * solves the 2-MMPP/G/1 queue (queueing::MmppG1Solver) and the GOP
//     distortion chain (core::predict_distortion),
//   * runs the independent discrete-event sender and eavesdropper
//     simulators on the same parameters, and
//   * compares every simulated statistic against its analytic counterpart
//     under a configured acceptance band (z times the statistic's
//     confidence-interval halfwidth, plus a small absolute floor).
//
// Determinism contract (same as core::SweepRunner): per-cell seeds derive
// purely from the root seed via util::derive_seed, cells are emitted to the
// sink strictly in row-major cell order, and no output depends on thread
// scheduling — a run at --threads N is byte-identical to the serial run.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/device_profile.hpp"
#include "policy/policy.hpp"
#include "sim/eavesdropper_sim.hpp"
#include "sim/sender_sim.hpp"
#include "util/check.hpp"
#include "util/sink.hpp"

namespace tv::util {
class ThreadPool;
}

namespace tv::sim {

/// Declarative validation grid over the paper's model axes.
struct ValidationSpec {
  // Grid axes, row-major cell order (lambda1, lambda2, policy, algorithm).
  std::vector<double> lambda1s{2400.0, 3200.0, 4000.0};
  std::vector<double> lambda2s{80.0, 160.0, 320.0};
  /// Policy shapes; each combines with every algorithm (the shape's own
  /// algorithm field is ignored), mirroring core::SweepSpec.  The defaults
  /// cover both a degenerate eavesdropper (I-frames encrypted: P_I = 0) and
  /// a live one (nothing encrypted).
  std::vector<policy::EncryptionPolicy> policies{
      {policy::Mode::kNone, crypto::Algorithm::kAes256, 0.0},
      {policy::Mode::kIFrames, crypto::Algorithm::kAes256, 0.0}};
  std::vector<crypto::Algorithm> algorithms{crypto::Algorithm::kAes256};

  // Shared traffic shape (Sections 4.2.1 and 6.1).
  double r12 = 50.0;  ///< p1: rate of leaving the I-burst state.
  double r21 = 5.0;   ///< p2.
  double p_i = 0.15;  ///< fraction of packets belonging to I-frames.
  double mean_i_payload = 1200.0;  ///< bytes per I-frame packet.
  double mean_p_payload = 900.0;
  int i_packets_per_frame = 12;
  int p_packets_per_frame = 3;

  // Service-side knobs shared by every cell; encryption means/jitter come
  // from the device profile per cell (they depend on the cipher axis).
  core::DeviceProfile device = core::samsung_galaxy_s2();
  double tx_i_mean = 1.2e-3;  ///< mu_t,I (s), eq. (16).
  double tx_i_stddev = 1.2e-4;
  double tx_p_mean = 0.8e-3;
  double tx_p_stddev = 0.8e-4;
  double mac_success_prob = 0.9;  ///< p_s of eq. (6).
  double backoff_rate = 3000.0;   ///< lambda_b of eq. (7).

  // Eavesdropper / distortion side (Sections 4.3-4.3.4).
  int gop_size = 30;
  int n_gops = 10;
  int eavesdropper_repetitions = 400;  ///< simulated flows per cell.
  double sensitivity_fraction = 0.6;
  double packet_success_rate = 0.9;  ///< channel p_s at the eavesdropper.
  double base_mse = 4.0;
  double null_reference_mse = 900.0;
  /// Fitted D(d); defaults to a representative concave-increasing curve.
  distortion::DistanceDistortion inter{
      util::Polynomial{{0.0, 14.0, -0.15}}, 30.0};
  int age_cap_gops = 8;

  // Simulation effort and acceptance.
  std::uint64_t events = 400000;  ///< measured sender packets per cell.
  std::uint64_t warmup = 40000;
  std::uint64_t batches = 200;    ///< batch-mean batches for the E[W] CI.
  /// Acceptance multiplier on each statistic's CI halfwidth.  3 gives a
  /// per-check false-alarm rate well under 1e-3 even with the residual
  /// correlation between batch means.
  double z = 3.0;
  std::uint64_t seed = 1;
  /// Optional per-packet stage tracing for the sender simulator: service
  /// events are stamped with the cell index (in the TraceEvent repetition
  /// field) and forwarded to this sink.  A traced run executes its cells
  /// serially so the event stream is deterministic.
  core::TraceSink* trace = nullptr;

  /// Throws std::invalid_argument on empty axes or out-of-range knobs.
  void validate() const;
  [[nodiscard]] std::size_t cell_count() const;
};

/// One fully-resolved grid point.
struct ValidationCell {
  std::size_t index = 0;  ///< row-major position in the grid.
  double lambda1 = 0.0;
  double lambda2 = 0.0;
  policy::EncryptionPolicy policy;  ///< algorithm axis already applied.
  std::uint64_t seed = 0;           ///< derive_seed(spec.seed, index).
};

/// Expand the grid (row-major, with derived seeds).  Pure.
[[nodiscard]] std::vector<ValidationCell> enumerate_cells(
    const ValidationSpec& spec);

using ValidationCheck = util::Check;

struct ValidationCellResult {
  ValidationCell cell;
  SenderSimResult sender;
  EavesdropperSimResult eavesdropper;

  // Analytic counterparts.
  double analytic_wait = 0.0;          ///< E[W], eq. (19) machinery.
  double analytic_wait_state1 = 0.0;   ///< E[W | arrival in state i].
  double analytic_wait_state2 = 0.0;
  double analytic_utilization = 0.0;
  double analytic_state1_fraction = 0.0;          ///< pi_1, eq. (2).
  double analytic_arrival_state1_fraction = 0.0;  ///< pi_1 l1 / lbar.
  double analytic_service_mean = 0.0;
  double analytic_i_frame_success = 0.0;  ///< eq. (20).
  double analytic_p_frame_success = 0.0;
  double analytic_flow_mse = 0.0;         ///< eq. (27).
  std::vector<double> analytic_gop_state_pmf;  ///< eq. (22) occupancy.

  std::vector<ValidationCheck> checks;
  [[nodiscard]] bool passed() const { return util::failed_count(checks) == 0; }
};

/// Consumers of validation results (util/sink.hpp); calls arrive strictly
/// in cell order (same contract as core::ResultSink).
using ValidationSink = util::Sink<ValidationSpec, ValidationCellResult>;

/// One cell as a record: JSONL at %.17g, byte-comparable across runs and
/// thread counts, and its CSV flattening.
[[nodiscard]] util::Record to_record(const ValidationCellResult& result);
/// The aligned table, one row per cell (plus one line per failed check).
void table_header(std::ostream& out, const ValidationSpec& spec);
void table_row(std::ostream& out, const ValidationSpec& spec,
               const ValidationCellResult& result);

/// Runs one cell end to end (analytic solve + both simulators).  Pure in
/// (spec, cell); exposed for tests.
[[nodiscard]] ValidationCellResult run_validation_cell(
    const ValidationSpec& spec, const ValidationCell& cell);

/// Runs every cell of `spec`, streaming results to `sink` in cell order.
/// Validates the spec and every cell's component specs up front.
/// `pool == nullptr` runs serially; any pool size yields byte-identical
/// sink output.
util::GridSummary run_validation(const ValidationSpec& spec,
                                 ValidationSink& sink,
                                 util::ThreadPool* pool = nullptr);

}  // namespace tv::sim
