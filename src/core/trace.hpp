// Zero-overhead-when-off instrumentation for the sender pipeline stages.
//
// Every stage of a transfer — producer, policy gate, service (T_e/T_b/T_t),
// channel, transport/ARQ — can emit TraceEvents into a TraceSink.  The hook
// is a plain nullable pointer: with tracing off (the default everywhere)
// the stages take a single never-taken branch per event site and draw the
// exact same random numbers, so golden outputs are byte-identical whether
// the hook exists or not.
//
// Two consumers ship with the library:
//   * JsonlTraceSink — one JSON object per event per line (the
//     `thriftyvid ... --trace=FILE` format; schema in
//     docs/architecture.md);
//   * StageStatsCollector — per-stage counters, per-event time statistics
//     and log-spaced time histograms, surfaced as StageAggregates in
//     ExperimentResult and the sweep sinks.
//
// Per-stage timing visibility is exactly what encrypted-traffic QoE
// inference treats as a first-class signal: the trace carries enough to
// reconstruct per-packet delay decompositions without touching the stages.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <ostream>

#include "util/stats.hpp"

namespace tv::core {

/// The composable stages of the sender (docs/architecture.md).
enum class Stage {
  kProducer,    ///< read/packetize: releases packets into the send queue.
  kPolicyGate,  ///< queue-pressure degradation decision.
  kService,     ///< the service law draws: T_e, T_b, T_t.
  kChannel,     ///< per-attempt receiver/eavesdropper outcome.
  kTransport,   ///< ARQ retransmissions and terminal delivery verdicts.
};
inline constexpr std::size_t kStageCount = 5;

/// Short machine-readable stage key ("producer", "policy_gate", ...).
[[nodiscard]] const char* stage_key(Stage stage);

/// One instrumented event.  `kind` is a static string naming the event
/// within its stage ("encrypt", "backoff", "transmit", "retransmit",
/// "deliver", ...; full schema in docs/architecture.md).  `value_s` is the
/// stage duration for duration-bearing events and 0 for pure outcomes.
struct TraceEvent {
  Stage stage = Stage::kProducer;
  const char* kind = "";
  std::int64_t packet = -1;  ///< packet index; -1 when not packet-specific.
  /// Repetition index (stamped by run_experiment) or validation-grid cell
  /// index (stamped by sim::run_validation); -1 when untagged.
  int repetition = -1;
  double time_s = 0.0;   ///< simulation clock at the event.
  double value_s = 0.0;  ///< stage duration (0 for outcome events).
};

/// Consumer of trace events.  Instrumented runs are serialized (repetitions
/// and validation cells run in order), so implementations need no locking.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void event(const TraceEvent& e) = 0;
};

/// Fixed log-spaced histogram of stage times: `kBinsPerDecade` bins per
/// decade from `kFloorS` up, with explicit under/overflow bins, so two runs
/// produce identical (and mergeable) counts without data-dependent bin
/// edges.
class TimeHistogram {
 public:
  static constexpr int kBinsPerDecade = 4;
  static constexpr int kDecades = 8;  ///< floor .. floor * 10^8 (1e-7..10 s).
  static constexpr double kFloorS = 1e-7;
  /// Bin 0 is underflow (< kFloorS, including exact zeros); the last bin is
  /// overflow.
  static constexpr int kBins = kBinsPerDecade * kDecades + 2;

  void add(double seconds);
  void merge(const TimeHistogram& other);

  [[nodiscard]] std::uint64_t count(int bin) const { return counts_[bin]; }
  [[nodiscard]] std::uint64_t total() const { return total_; }
  /// Lower edge of bin i (0 for the underflow bin).
  [[nodiscard]] static double bin_lower_s(int bin);

 private:
  std::array<std::uint64_t, kBins> counts_{};
  std::uint64_t total_ = 0;
};

/// Per-stage aggregates: event counters, running statistics over the
/// events' `value_s`, and a time histogram.  Collected by
/// StageStatsCollector; surfaced in ExperimentResult::stage_stats and the
/// sweep sinks when stage-stats collection is on.
struct StageAggregates {
  struct Entry {
    std::uint64_t events = 0;
    util::RunningStats time_s;  ///< over value_s of the stage's events.
    TimeHistogram histogram;

    void add(double value_s);
    void merge(const Entry& other);
  };

  std::array<Entry, kStageCount> stages;

  [[nodiscard]] Entry& operator[](Stage stage) {
    return stages[static_cast<std::size_t>(stage)];
  }
  [[nodiscard]] const Entry& operator[](Stage stage) const {
    return stages[static_cast<std::size_t>(stage)];
  }
  void merge(const StageAggregates& other);
};

/// TraceSink that folds events into StageAggregates.
class StageStatsCollector final : public TraceSink {
 public:
  void event(const TraceEvent& e) override {
    stats[e.stage].add(e.value_s);
  }
  StageAggregates stats;
};

/// One JSON object per event per line, full precision, byte-stable across
/// runs of the same seed.  The `thriftyvid ... --trace=FILE` format.
class JsonlTraceSink final : public TraceSink {
 public:
  explicit JsonlTraceSink(std::ostream& out) : out_(out) {}
  void event(const TraceEvent& e) override;

 private:
  std::ostream& out_;
};

/// Forwards each event to up to two downstream sinks with the repetition
/// field stamped.  run_experiment uses it to tag repetitions;
/// sim::run_validation to tag grid cells.
class StampTraceSink final : public TraceSink {
 public:
  StampTraceSink(TraceSink* primary, TraceSink* secondary, int repetition)
      : primary_(primary), secondary_(secondary), repetition_(repetition) {}

  void event(const TraceEvent& e) override {
    TraceEvent stamped = e;
    stamped.repetition = repetition_;
    if (primary_ != nullptr) primary_->event(stamped);
    if (secondary_ != nullptr) secondary_->event(stamped);
  }

 private:
  TraceSink* primary_;
  TraceSink* secondary_;
  int repetition_;
};

}  // namespace tv::core
