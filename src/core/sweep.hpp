// Parallel sweep engine: every figure in the paper is a cartesian grid
// over (motion, GOP, policy, algorithm, device, transport, channel) with
// repeated experiments per cell.  SweepSpec declares such a grid once;
// SweepRunner executes its cells on a work-stealing thread pool, shares
// the expensive encode/packetize step through a build-once WorkloadCache,
// and streams results through a ResultSink in deterministic cell order.
//
// Determinism contract: per-cell seeds are derived purely from the root
// seed (util::derive_seed) and per-repetition statistics are folded in a
// fixed order (run_experiment), so a run at any thread count — including
// fully serial — produces bit-identical statistics and sink output.
#pragma once

#include <compare>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <vector>

#include "core/experiment.hpp"
#include "util/sink.hpp"

namespace tv::util {
class ThreadPool;
}

namespace tv::core {

/// Declarative cartesian experiment grid over the paper's axes.
struct SweepSpec {
  std::vector<video::MotionLevel> motions{video::MotionLevel::kLow};
  std::vector<int> gop_sizes{30};
  /// Policy shapes (mode + fraction); each is combined with every entry of
  /// `algorithms`, so the shape's own `algorithm` field is ignored.
  std::vector<policy::EncryptionPolicy> policies{
      {policy::Mode::kIFrames, crypto::Algorithm::kAes256, 0.0}};
  std::vector<crypto::Algorithm> algorithms{crypto::Algorithm::kAes256};
  std::vector<DeviceProfile> devices{samsung_galaxy_s2()};
  std::vector<Transport> transports{Transport::kRtpUdp};
  /// Channel-knob axis; std::nullopt is the clean i.i.d. link.
  std::vector<std::optional<ChannelModel>> channels{std::nullopt};

  int frames = 300;
  int repetitions = 20;
  double fps = 30.0;
  bool evaluate_quality = true;
  /// Collect per-stage aggregates per cell (ExperimentResult::stage_stats);
  /// the sinks then emit them as extra columns/fields.  Off by default so
  /// existing sweep outputs (and the golden file) stay byte-identical.
  bool collect_stage_stats = false;
  std::uint64_t seed = 1;  ///< root seed; also the workload seed.

  /// How per-cell experiment seeds derive from the root seed:
  ///  * kPerCell (default): splitmix-derived from (seed, cell index), so
  ///    every cell runs an independent random stream.
  ///  * kShared: every cell reuses the root seed verbatim — the historical
  ///    behaviour of the figure benches, kept so their tables reproduce.
  enum class SeedMode { kPerCell, kShared };
  SeedMode seed_mode = SeedMode::kPerCell;

  /// Throws std::invalid_argument on empty axes or unusable scalar knobs.
  void validate() const;
  [[nodiscard]] std::size_t cell_count() const;
};

/// One fully-resolved grid point, in row-major axis order
/// (motion, gop, policy, algorithm, device, transport, channel).
struct SweepCell {
  std::size_t index = 0;  ///< row-major position in the grid.
  video::MotionLevel motion = video::MotionLevel::kLow;
  int gop_size = 30;
  policy::EncryptionPolicy policy;  ///< algorithm axis already applied.
  DeviceProfile device;
  Transport transport = Transport::kRtpUdp;
  std::optional<ChannelModel> channel;
  std::uint64_t seed = 0;  ///< derived per-cell experiment seed.
};

/// Expand the grid (row-major, with derived seeds).  Pure.
[[nodiscard]] std::vector<SweepCell> enumerate_cells(const SweepSpec& spec);

struct CellResult {
  SweepCell cell;
  ExperimentResult result;
};

/// Consumers of sweep results (util/sink.hpp).  SweepRunner makes the
/// calls strictly in cell-index order, so sinks need no locking and their
/// output is deterministic.
using ResultSink = util::Sink<SweepSpec, CellResult>;
using JsonlSink = util::JsonlSink<SweepSpec, CellResult>;
using CollectSink = util::CollectSink<SweepSpec, CellResult>;

/// One cell as a record: JSONL at %.17g (byte-comparable across runs and
/// thread counts) and its CSV flattening.
[[nodiscard]] util::Record to_record(const CellResult& result);
/// The aligned table: header once, then one row per cell.
void table_header(std::ostream& out, const SweepSpec& spec);
void table_row(std::ostream& out, const SweepSpec& spec,
               const CellResult& result);

/// Identifies one workload: build_workload's arguments.
struct WorkloadKey {
  video::MotionLevel motion = video::MotionLevel::kLow;
  int gop_size = 30;
  int frames = 300;
  std::uint64_t seed = 1;
  double fps = 30.0;

  auto operator<=>(const WorkloadKey&) const = default;
};

/// Thread-safe build-once workload cache keyed by (motion, gop, frames,
/// seed, fps).  Concurrent requests for the same key block on one build;
/// the result is shared read-only.  Builds run on the cache's pool.
///
/// A pool task must never build: while a build waits on its own
/// parallel_for it runs other queued tasks, and a task that then asks for
/// the key being built would block on its own thread's future.  Grid
/// runners therefore prebuild() every key before fanning out, and their
/// tasks only ever find finished workloads.
class WorkloadCache {
 public:
  explicit WorkloadCache(util::ThreadPool* pool = nullptr) : pool_(pool) {}

  [[nodiscard]] std::shared_ptr<const Workload> get(video::MotionLevel motion,
                                                    int gop_size, int frames,
                                                    std::uint64_t seed,
                                                    double fps = 30.0);
  /// Build every distinct key of `keys` not cached yet, one pool task per
  /// key.  Call from outside the pool.  Rethrows the first build failure.
  void prebuild(std::vector<WorkloadKey> keys);
  /// Number of distinct workloads built (or being built) so far.
  [[nodiscard]] std::size_t size() const;

 private:
  util::ThreadPool* pool_;
  mutable std::mutex mu_;
  std::map<WorkloadKey, std::shared_future<std::shared_ptr<const Workload>>>
      cache_;
};

/// Executes SweepSpecs.  Reuse one runner across related sweeps to share
/// its workload cache.
class SweepRunner {
 public:
  /// `pool == nullptr` runs serially (through the same fold paths, so the
  /// statistics are identical either way).
  explicit SweepRunner(util::ThreadPool* pool = nullptr)
      : pool_(pool), cache_(pool) {}

  /// Runs every cell, streaming results to `sink` in cell order.
  /// Validates the spec and every cell's pipeline configuration up front.
  util::GridSummary run(const SweepSpec& spec, ResultSink& sink);

  [[nodiscard]] WorkloadCache& workloads() { return cache_; }

 private:
  util::ThreadPool* pool_;
  WorkloadCache cache_;
};

}  // namespace tv::core
