// Leakage-vs-cost sweep: the adversary against every (encryption policy
// x shaping countermeasure) pair of a grid, with each knob's delay and
// energy price reported next to the leakage it suppresses.
//
// Per cell the runner re-creates, in memory, exactly what the live
// loopback eavesdropper tap would capture — clone, pad, encrypt, hide
// markers, simulate_transfer for pacing and capture masks, jitter the
// send schedule — then runs feature extraction, inference and scoring on
// that capture, and prices the cell through core::ServiceModel (the
// transfer it just ran) and energy::transfer_energy.  Same determinism
// contract as sim::run_validation and cell::run_cell_validation:
// derived per-cell seeds, strictly ordered sink calls, byte-identical
// output at any thread count.
#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "analysis/leakage.hpp"
#include "core/pipeline.hpp"
#include "util/sink.hpp"

namespace tv::util {
class ThreadPool;
}

namespace tv::analysis {

/// Declarative leakage grid.  The defaults form the docs/adversary.md
/// headline table: the paper's four policies against no shaping and the
/// three countermeasure knobs.
struct LeakageSpec {
  std::vector<policy::EncryptionPolicy> policies;  ///< empty = headline four.
  std::vector<policy::ShapingPolicy> shapings;     ///< empty = none + knobs.
  video::MotionLevel motion = video::MotionLevel::kLow;
  int gop_size = 16;
  int frames = 48;
  core::PipelineConfig pipeline;
  AdversaryConfig adversary;
  std::uint64_t seed = 1;

  /// The effective axes (defaults filled in).
  [[nodiscard]] std::vector<policy::EncryptionPolicy> policy_axis() const;
  [[nodiscard]] std::vector<policy::ShapingPolicy> shaping_axis() const;

  void validate() const;
  [[nodiscard]] std::size_t cell_count() const;
};

/// One fully-resolved grid point (policy-major, shaping-minor order).
struct LeakageCell {
  std::size_t index = 0;
  policy::EncryptionPolicy policy;
  policy::ShapingPolicy shaping;
  std::uint64_t seed = 0;  ///< derive_seed(spec.seed, index).
};

[[nodiscard]] std::vector<LeakageCell> enumerate_leakage_cells(
    const LeakageSpec& spec);

/// Everything one cell produced: the adversary's view, the truth, the
/// scored leakage, and the countermeasures' price in the paper's own
/// delay/energy currency.
struct LeakageCellResult {
  LeakageCell cell;
  InferenceResult inference;
  GroundTruth truth;
  LeakageMetrics metrics;

  std::size_t packet_count = 0;
  std::size_t captured_packets = 0;
  double duration_s = 0.0;      ///< transfer duration incl. jitter tail.
  double mean_delay_ms = 0.0;   ///< per-packet delay + mean jitter.
  double mean_power_w = 0.0;    ///< energy model over the padded stream.
  std::size_t pad_overhead_bytes = 0;
  double jitter_mean_delay_s = 0.0;
};

/// Run one cell against the shared workload.  Pure in (spec, cell,
/// workload).  When `external_capture` is non-null the adversary reads
/// that capture (the `thriftyvid analyze` pcap path) instead of the
/// synthesized one; ground truth and costs still come from the
/// deterministic re-run, so a pcap produced by `live loopback` with the
/// same flags scores against the same truth as the in-memory sweep cell
/// (capture timestamps differ only by pcap's microsecond rounding).
[[nodiscard]] LeakageCellResult run_leakage_cell(
    const LeakageSpec& spec, const LeakageCell& cell,
    const core::Workload& workload,
    const std::vector<net::RawCapture>* external_capture = nullptr);

/// Consumers of cell results (util/sink.hpp); calls arrive strictly in
/// cell order.
using LeakageSink = util::Sink<LeakageSpec, LeakageCellResult>;

/// One cell as a record: JSONL at %.17g (golden-pinnable) and its CSV
/// flattening.
[[nodiscard]] util::Record to_record(const LeakageCellResult& result);
/// The aligned table, one row per cell.
void table_header(std::ostream& out, const LeakageSpec& spec);
void table_row(std::ostream& out, const LeakageSpec& spec,
               const LeakageCellResult& result);

/// Runs every cell of `spec` against one shared workload, streaming
/// results to `sink` in cell order.  `pool == nullptr` runs serially; any
/// pool size yields byte-identical sink output.
util::GridSummary run_leakage(const LeakageSpec& spec, LeakageSink& sink,
                              util::ThreadPool* pool = nullptr);

}  // namespace tv::analysis
