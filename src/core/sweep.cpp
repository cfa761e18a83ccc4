#include "core/sweep.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tv::core {

namespace {

using util::fmt;

/// Stage aggregates keyed by stage; histograms are sparse [[bin, count],
/// ...] pairs (bin edges are fixed, see TimeHistogram::bin_lower_s).
util::Record stage_record(const StageAggregates& stages) {
  util::Record out;
  for (std::size_t s = 0; s < kStageCount; ++s) {
    const StageAggregates::Entry& entry = stages.stages[s];
    util::Value::Array hist;
    for (int bin = 0; bin < TimeHistogram::kBins; ++bin) {
      if (entry.histogram.count(bin) == 0) continue;
      hist.push_back(util::Value::Array{bin, entry.histogram.count(bin)});
    }
    util::Record stage;
    stage.add("events", entry.events)
        .add("time_s", entry.time_s)
        .add("hist", std::move(hist));
    out.add(stage_key(static_cast<Stage>(s)), std::move(stage));
  }
  return out;
}

}  // namespace

void SweepSpec::validate() const {
  const auto require = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument{std::string{"SweepSpec: "} + what};
  };
  require(!motions.empty(), "no motion levels");
  require(!gop_sizes.empty(), "no GOP sizes");
  require(!policies.empty(), "no policies");
  require(!algorithms.empty(), "no algorithms");
  require(!devices.empty(), "no devices");
  require(!transports.empty(), "no transports");
  require(!channels.empty(), "no channel entries");
  require(repetitions >= 1, "repetitions < 1");
  require(fps > 0.0, "fps <= 0");
  for (int gop : gop_sizes) {
    require(gop >= 1, "GOP size < 1");
    require(frames >= gop, "frames < GOP size");
  }
  for (const auto& pol : policies) pol.validate();
}

std::size_t SweepSpec::cell_count() const {
  return motions.size() * gop_sizes.size() * policies.size() *
         algorithms.size() * devices.size() * transports.size() *
         channels.size();
}

std::vector<SweepCell> enumerate_cells(const SweepSpec& spec) {
  return util::cartesian(
      [&](std::size_t index, video::MotionLevel motion, int gop,
          const policy::EncryptionPolicy& shape, crypto::Algorithm algorithm,
          const DeviceProfile& device, Transport transport,
          const std::optional<ChannelModel>& channel) {
        SweepCell cell;
        cell.index = index;
        cell.motion = motion;
        cell.gop_size = gop;
        cell.policy = shape;
        cell.policy.algorithm = algorithm;
        cell.device = device;
        cell.transport = transport;
        cell.channel = channel;
        cell.seed = spec.seed_mode == SweepSpec::SeedMode::kShared
                        ? spec.seed
                        : util::derive_seed(spec.seed, 0x5eedC311ULL, index);
        return cell;
      },
      spec.motions, spec.gop_sizes, spec.policies, spec.algorithms,
      spec.devices, spec.transports, spec.channels);
}

void table_header(std::ostream& out, const SweepSpec& spec) {
  out << fmt("%-4s %-6s %-4s %-10s %-7s %-8s %-4s %-18s %-16s", "cell",
             "motion", "gop", "policy", "alg", "device", "tx", "delay ms",
             "power W");
  if (spec.evaluate_quality) out << fmt(" %-14s %-14s", "rx dB", "eaves dB");
  out << fmt(" %-7s %s\n", "reps", "fail");
}

void table_row(std::ostream& out, const SweepSpec& spec,
               const CellResult& r) {
  const auto& e = r.result;
  out << fmt("%-4zu %-6s %-4d %-10s %-7s %-8s %-4s %-18s %-16s",
             r.cell.index, video::to_string(r.cell.motion), r.cell.gop_size,
             r.cell.policy.spec().c_str(),
             std::string{crypto::to_string(r.cell.policy.algorithm)}.c_str(),
             r.cell.device.key.c_str(), transport_key(r.cell.transport),
             fmt("%.2f ±%.2f", e.delay_ms.mean(), e.delay_ms.ci95_halfwidth())
                 .c_str(),
             fmt("%.3f ±%.3f", e.power_w.mean(), e.power_w.ci95_halfwidth())
                 .c_str());
  if (spec.evaluate_quality) {
    out << fmt(" %-14s %-14s",
               fmt("%.2f ±%.2f", e.receiver_psnr_db.mean(),
                   e.receiver_psnr_db.ci95_halfwidth())
                   .c_str(),
               fmt("%.2f ±%.2f", e.eavesdropper_psnr_db.mean(),
                   e.eavesdropper_psnr_db.ci95_halfwidth())
                   .c_str());
  }
  out << fmt(" %-7s %zu\n",
             fmt("%d/%d", e.completed_repetitions,
                 e.completed_repetitions + e.failed_repetitions)
                 .c_str(),
             e.failures.size());
  if (e.stage_stats) {
    out << "     stages:";
    for (std::size_t s = 0; s < kStageCount; ++s) {
      const StageAggregates::Entry& entry = e.stage_stats->stages[s];
      out << fmt(" %s n=%llu mean=%.3gms", stage_key(static_cast<Stage>(s)),
                 static_cast<unsigned long long>(entry.events),
                 entry.time_s.mean() * 1e3);
    }
    out << "\n";
  }
}

util::Record to_record(const CellResult& r) {
  const auto& e = r.result;
  util::Record counters;
  counters.add("retransmissions", e.total_retransmissions)
      .add("deadline_drops", e.total_deadline_drops)
      .add("outage_drops", e.total_outage_drops)
      .add("degraded_packets", e.total_degraded_packets);
  util::Record predicted;
  predicted.add("delay_ms", e.predicted_delay.mean_delay_ms)
      .add("eavesdropper_psnr_db", e.predicted_eavesdropper.psnr_db)
      .add("power_w", e.predicted_power.mean_power_w);

  util::Record out;
  out.add("cell", r.cell.index)
      .add("motion", video::to_string(r.cell.motion))
      .add("gop", r.cell.gop_size)
      .add("policy", r.cell.policy.spec())
      .add("algorithm", crypto::to_string(r.cell.policy.algorithm))
      .add("device", r.cell.device.key)
      .add("transport", transport_key(r.cell.transport))
      .add("seed", r.cell.seed)
      .add("completed", e.completed_repetitions)
      .add("failed", e.failed_repetitions)
      .add("failures", e.failures.size())
      .add("counters", std::move(counters))
      .add("encrypted_packet_fraction", e.encryption.packet_fraction())
      .add("delay_ms", e.delay_ms)
      .add("duration_s", e.duration_s)
      .add("power_w", e.power_w)
      .add("receiver_psnr_db", e.receiver_psnr_db)
      .add("receiver_mos", e.receiver_mos)
      .add("eavesdropper_psnr_db", e.eavesdropper_psnr_db)
      .add("eavesdropper_mos", e.eavesdropper_mos);
  if (e.stage_stats) out.add("stages", stage_record(*e.stage_stats));
  out.add("predicted", std::move(predicted));
  return out;
}

std::shared_ptr<const Workload> WorkloadCache::get(video::MotionLevel motion,
                                                   int gop_size, int frames,
                                                   std::uint64_t seed,
                                                   double fps) {
  const WorkloadKey key{motion, gop_size, frames, seed, fps};
  std::shared_future<std::shared_ptr<const Workload>> future;
  std::promise<std::shared_ptr<const Workload>> promise;
  bool builder = false;
  {
    std::lock_guard lock{mu_};
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      future = it->second;
    } else {
      builder = true;
      future = promise.get_future().share();
      cache_.emplace(key, future);
    }
  }
  if (builder) {
    // Build outside the lock: siblings needing other keys proceed, and
    // siblings needing this key block on the future below.
    try {
      promise.set_value(std::make_shared<const Workload>(
          build_workload(motion, gop_size, frames, seed, fps, pool_)));
    } catch (...) {
      promise.set_exception(std::current_exception());
    }
  }
  return future.get();  // rethrows a build failure to every waiter.
}

void WorkloadCache::prebuild(std::vector<WorkloadKey> keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  util::parallel_for(pool_, keys.size(), [&](std::size_t i) {
    const WorkloadKey& k = keys[i];
    (void)get(k.motion, k.gop_size, k.frames, k.seed, k.fps);
  });
}

std::size_t WorkloadCache::size() const {
  std::lock_guard lock{mu_};
  return cache_.size();
}

util::GridSummary SweepRunner::run(const SweepSpec& spec, ResultSink& sink) {
  spec.validate();
  const std::vector<SweepCell> cells = enumerate_cells(spec);

  // Fail fast on configuration mistakes before any cell runs: a bad
  // channel knob should abort the sweep, not surface as thousands of
  // kException failure records.
  for (const SweepCell& cell : cells) {
    PipelineConfig pipeline;
    pipeline.device = cell.device;
    pipeline.transport = cell.transport;
    pipeline.channel = cell.channel;
    pipeline.fps = spec.fps;
    core::validate(pipeline);
  }

  // Every workload is built before the cells fan out (see WorkloadCache).
  const auto prebuild = [&] {
    std::vector<WorkloadKey> keys;
    keys.reserve(cells.size());
    for (const SweepCell& cell : cells) {
      keys.push_back({cell.motion, cell.gop_size, spec.frames, spec.seed,
                      spec.fps});
    }
    cache_.prebuild(keys);
  };
  auto run_cell = [&](std::size_t index) {
    const SweepCell& cell = cells[index];
    ExperimentSpec es;
    es.policy = cell.policy;
    es.pipeline.device = cell.device;
    es.pipeline.transport = cell.transport;
    es.pipeline.channel = cell.channel;
    es.pipeline.fps = spec.fps;
    es.repetitions = spec.repetitions;
    es.seed = cell.seed;
    es.evaluate_quality = spec.evaluate_quality;
    es.sensitivity_fraction = default_sensitivity(cell.motion);
    es.collect_stage_stats = spec.collect_stage_stats;
    const std::shared_ptr<const Workload> workload =
        cache_.get(cell.motion, cell.gop_size, spec.frames, spec.seed,
                   spec.fps);
    return CellResult{cell, run_experiment(es, *workload, pool_)};
  };
  util::GridSummary summary =
      util::stream_grid(pool_, util::Rows::kPool, spec, cells.size(),
                        prebuild, run_cell, sink);
  summary.workloads = cache_.size();
  return summary;
}

}  // namespace tv::core
