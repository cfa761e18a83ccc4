// Shared plumbing of the three workloads: options, the run report, the
// end-to-end metric set and the per-layer metric set built from spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace e2e {

/// Seed that gives the committed numbers and whose outputs are pinned by
/// stored digests.  Seed 2 is reserved for confirming a claimed gain.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Cold set-ups per run, spread over the budget; setup_s is their median.
inline constexpr int kSetups = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;   ///< budget of the run, set-ups included.
  bool trace = false;      ///< traced pass: per-layer metrics.
  unsigned threads = 4;    ///< pool size for the batch workloads.
  std::string spans_out;   ///< traced pass: CSV of recorded spans.
};

struct Report {
  MetricSet metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> notes;  ///< human-readable lines for stdout.

  /// Record one output check; a mismatch counts as a failed operation.
  void check(bool ok, const std::string& what);
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// `seconds` after `t0`.
[[nodiscard]] inline Clock::time_point after(Clock::time_point t0,
                                             double seconds) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
}

/// Calls pass(i) for i = 0, 1, ... until `deadline` has passed and at
/// least `min_passes` passes ran.
template <typename F>
void until(Clock::time_point deadline, int min_passes, F&& pass) {
  for (int i = 0; i < min_passes || Clock::now() < deadline; ++i) {
    pass(i);
  }
}

/// Peak resident set size of this process, MB (10^6 bytes).
[[nodiscard]] double peak_rss_mb();

/// What every workload measures with tracing off.  A pass is a fixed
/// amount of work, so per-pass figures compare across passes and runs.
struct EndToEnd {
  /// The workload's unit of work: "transfers", "flows" or "datagrams".
  const char* unit = "";
  std::vector<double> setup_s;    ///< one per cold set-up.
  std::vector<double> pass_s;     ///< wall time of each steady pass.
  std::vector<double> pass_work;  ///< units of work done by each pass.
  /// Per pass, the wall time of each user-visible session: an upload on
  /// live-fleet; on the batch workloads the pass itself is the session.
  std::vector<std::vector<double>> pass_sessions_ms;

  void add_pass(double seconds, double work,
                std::vector<double> sessions_ms) {
    pass_s.push_back(seconds);
    pass_work.push_back(work);
    pass_sessions_ms.push_back(std::move(sessions_ms));
  }
};

/// The untraced run: the budget is cut into kSetups equal slices, each a
/// cold set-up followed by steady passes on what it built until the slice
/// ends, so the set-ups and the passes both sample the whole run.
/// `setup` rebuilds and returns its wall time; `pass` runs and accounts
/// one pass.
void untraced_phases(const Options& options, EndToEnd& e,
                     const std::function<double()>& setup,
                     const std::function<void()>& pass);

/// Output check of a batch pass: its JSONL digest must equal the first
/// pass's and, at kDefaultSeed, the stored reference.
void check_digest(Report& report, const Options& options,
                  const std::string& workload, std::uint64_t reference,
                  std::uint64_t digest, std::optional<std::uint64_t>& first);

/// Adds every end-to-end metric (same names on every workload).
void add_end_to_end(Report& report, const EndToEnd& e);

/// Per-layer inputs: spans of the traced set-ups and steady passes plus
/// what the live loop counts itself.
struct Layers {
  Clock::time_point start = Clock::now();  ///< the run's budget starts here.
  std::vector<SpanRecord> setup_spans;
  std::vector<SpanRecord> last_setup;  ///< the last traced set-up only.
  int setups = 0;
  std::vector<SpanRecord> pass_spans;     ///< every traced pass.
  std::vector<SpanRecord> sampled_spans;  ///< traced passes after warm-up.
  std::vector<SpanRecord> last_pass;      ///< the last traced pass only.
  int passes = 0;
  double pass_wall_s = 0.0;  ///< summed wall time of the traced passes.
  double overhead_pct = 0.0;  ///< fastest traced vs untraced pass time.

  // live-fleet only (per pass means; zero elsewhere).
  double live_loop_s = 0.0;
  double live_poll_rounds = 0.0;
  double live_datagrams = 0.0;
  double live_send_retries = 0.0;
  double live_max_backlog = 0.0;
  double live_rate_first_tenth = 0.0;
  double live_rate_last_tenth = 0.0;
  double live_allocs_per_datagram = 0.0;
};

/// Runs `setup` kSetups times with tracing on, keeping its spans
/// as set-up spans.  `setup` checks its own output against the library's.
void traced_setups(Layers& layers,
                   const std::function<void()>& setup);

/// One steady pass and the digest of the output the traced pass must
/// reproduce.
struct PassOutput {
  double seconds = 0.0;
  std::uint64_t digest = 0;
};

/// The traced steady phase: alternates an untraced `library` pass with a
/// traced `traced` pass until the budget that started at layers.start is
/// spent (at least one of each), checks that each
/// traced pass reproduces the preceding library pass's output (unless
/// `what`, the check's name, is empty), keeps the
/// traced spans (those after the first traced pass as allocation
/// samples) and the tracing overhead.
void traced_steady(const Options& options, Report& report, Layers& layers,
                   const std::function<PassOutput()>& library,
                   const std::function<PassOutput()>& traced,
                   const std::string& what);

/// Adds every per-layer metric (same names on every workload; a layer a
/// workload does not exercise reads 0) and writes the spans of the last
/// traced set-up and pass to options.spans_out, if set.
void finish_traced(const Options& options, Report& report,
                   const Layers& layers);

}  // namespace e2e
