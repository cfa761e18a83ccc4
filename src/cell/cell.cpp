#include "cell/cell.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "crypto/suite.hpp"
#include "energy/energy_model.hpp"
#include "util/thread_pool.hpp"
#include "wifi/gilbert_elliott.hpp"

namespace tv::cell {

namespace {

using util::fmt;

/// The packet statistics of one workload the scheduler's demands need.
struct PacketMeans {
  double i_packet_share = 0.0;
  double wire_bytes = 0.0;     ///< on-air bytes (payload + RTP/UDP/IP).
  double payload_bytes = 0.0;
};

PacketMeans packet_means(const std::vector<net::VideoPacket>& packets) {
  PacketMeans m;
  if (packets.empty()) return m;
  const double count = static_cast<double>(packets.size());
  std::size_t i_packets = 0;
  for (const net::VideoPacket& p : packets) {
    if (p.is_i_frame) ++i_packets;
    m.wire_bytes += static_cast<double>(p.wire_bytes());
    m.payload_bytes += static_cast<double>(p.payload.size());
  }
  m.i_packet_share = static_cast<double>(i_packets) / count;
  m.wire_bytes /= count;
  m.payload_bytes /= count;
  return m;
}

}  // namespace

void CellSpec::validate() const {
  if (flows < 1) throw std::invalid_argument{"CellSpec: flows < 1"};
  if (background_stations < 0) {
    throw std::invalid_argument{"CellSpec: background_stations < 0"};
  }
  if (motions.empty() || gop_sizes.empty() || policies.empty() ||
      algorithms.empty() || devices.empty() || deadlines_s.empty()) {
    throw std::invalid_argument{"CellSpec: empty axis"};
  }
  for (const policy::EncryptionPolicy& p : policies) p.validate();
  for (int gop : gop_sizes) {
    if (gop < 1 || frames < gop) {
      throw std::invalid_argument{"CellSpec: frames must cover every GOP"};
    }
  }
  if (fps <= 0.0) throw std::invalid_argument{"CellSpec: fps <= 0"};
  if (repetitions < 1) {
    throw std::invalid_argument{"CellSpec: repetitions < 1"};
  }
  if (cw_min < 1 || backoff_stages < 0 || background_cw_min < 1 ||
      background_stages < 0) {
    throw std::invalid_argument{"CellSpec: bad MAC parameters"};
  }
  if (channel_error_prob < 0.0 || channel_error_prob >= 1.0) {
    throw std::invalid_argument{"CellSpec: channel_error_prob outside [0,1)"};
  }
  if (fade_prob < 0.0 || fade_prob >= 1.0 || fade_error_prob < 0.0 ||
      fade_error_prob >= 1.0 || mean_fade_reps < 1.0) {
    throw std::invalid_argument{"CellSpec: bad fading parameters"};
  }
}

FlowConfig resolve_flow(const CellSpec& spec, std::size_t flow) {
  FlowConfig c;
  c.motion = spec.motions[flow % spec.motions.size()];
  c.gop_size = spec.gop_sizes[flow % spec.gop_sizes.size()];
  c.policy = spec.policies[flow % spec.policies.size()];
  c.policy.algorithm = spec.algorithms[flow % spec.algorithms.size()];
  c.device = spec.devices[flow % spec.devices.size()];
  c.deadline_s = spec.deadlines_s[flow % spec.deadlines_s.size()];
  return c;
}

CellResult run_cell(const CellSpec& spec, core::WorkloadCache& cache,
                    util::ThreadPool* pool) {
  spec.validate();
  const std::size_t n = static_cast<std::size_t>(spec.flows);

  // Resolve every flow's axes.  A flow's workload and its packet means
  // depend only on its (motion, GOP), so each distinct pair fetches them
  // once; the population sum still runs in flow order.
  struct Source {
    std::shared_ptr<const core::Workload> workload;
    PacketMeans means;
  };
  std::map<std::pair<video::MotionLevel, int>, Source> sources;
  std::vector<FlowConfig> configs(n);
  std::vector<const Source*> flow_sources(n);
  for (std::size_t f = 0; f < n; ++f) {
    configs[f] = resolve_flow(spec, f);
    const auto [it, fresh] =
        sources.try_emplace({configs[f].motion, configs[f].gop_size});
    if (fresh) {
      it->second.workload = cache.get(configs[f].motion, configs[f].gop_size,
                                      spec.frames, spec.seed, spec.fps);
      it->second.means = packet_means(it->second.workload->packets);
    }
    flow_sources[f] = &it->second;
  }

  // The scheduler's view of each flow: first moments of eq. (3)'s stages.
  std::vector<FlowDemand> demands(n);
  double population_wire_bytes = 0.0;
  for (std::size_t f = 0; f < n; ++f) {
    const PacketMeans& m = flow_sources[f]->means;
    FlowDemand& d = demands[f];
    d.index = f;
    d.policy = configs[f].policy;
    d.deadline_s = configs[f].deadline_s;
    d.clip_duration_s = static_cast<double>(spec.frames) / spec.fps;
    d.packet_count = flow_sources[f]->workload->packets.size();
    d.i_packet_share = m.i_packet_share;
    population_wire_bytes += m.wire_bytes;
    d.encryption_mean_s = configs[f].device.encryption_seconds(
        configs[f].policy.algorithm,
        static_cast<std::size_t>(m.payload_bytes));
    d.transmission_mean_s = wifi::transmission_time_s(
        spec.phy, static_cast<std::size_t>(m.wire_bytes));
  }

  ContentionConfig contention;
  contention.video = {spec.flows, spec.cw_min, spec.backoff_stages};
  contention.background = {spec.background_stations, spec.background_cw_min,
                           spec.background_stages};
  contention.phy = spec.phy;
  contention.mean_wire_bytes = population_wire_bytes / static_cast<double>(n);
  contention.channel_error_prob = spec.channel_error_prob;

  const DeadlineScheduler scheduler{spec.scheduler};
  const ScheduleResult schedule =
      scheduler.schedule(demands, contention, pool);
  const ContentionSolution& sol = schedule.contention;

  const std::size_t reps = static_cast<std::size_t>(spec.repetitions);

  // Fail fast on configuration mistakes before burning simulation time:
  // the deepest fade must still leave a usable MAC success probability.
  {
    const double worst_fade = spec.fade_prob > 0.0 ? spec.fade_error_prob : 0.0;
    core::PipelineConfig probe = spec.pipeline;
    probe.fps = spec.fps;
    probe.phy = spec.phy;
    probe.mac_success_prob = sol.mac_success_prob * (1.0 - worst_fade);
    probe.backoff_rate = sol.backoff_rate;
    core::validate(probe);
  }

  // Flows are mutually independent: each reads only shared const state and
  // writes its own outcome slot; the fold below walks the slots in flow
  // order, so a pooled run is bit-identical to the serial one.
  std::vector<FlowOutcome> outcomes(n);
  const bool instrumented = spec.trace != nullptr;

  auto run_flow = [&](std::size_t f) {
    FlowOutcome& out = outcomes[f];
    const FlowConfig& cfg = configs[f];
    const FlowDecision& decision = schedule.flows[f];
    out.index = f;
    out.motion = cfg.motion;
    out.gop_size = cfg.gop_size;
    out.requested_policy = cfg.policy;
    out.policy = decision.policy;
    out.policy.algorithm = cfg.policy.algorithm;
    out.device_key = cfg.device.key;
    out.deadline_s = cfg.deadline_s;
    out.admitted = decision.admitted;
    out.degrade_steps = decision.degrade_steps;
    out.predicted_completion_s = decision.predicted_completion_s;
    out.slack_s = decision.slack_s;
    // Block fading, one coherence block per repetition.  The chain is
    // derived for every flow — admitted or not — so the stream assignment
    // is independent of scheduling decisions.
    std::vector<bool> faded(reps, false);
    if (spec.fade_prob > 0.0) {
      wifi::GilbertElliottParams fade;
      fade.mean_loss_prob = spec.fade_prob;
      fade.mean_burst_length = spec.mean_fade_reps;
      fade.good_loss_prob = 0.0;
      fade.bad_loss_prob = 1.0;
      wifi::GilbertElliottChannel chain{
          fade, util::derive_seed(spec.seed, kFadeStream, f)};
      faded = chain.trace(reps);
      for (std::size_t r = 0; r < reps; ++r) {
        if (faded[r]) ++out.faded_repetitions;
      }
    }
    if (!decision.admitted) return;  // deferred: no airtime, no statistics.

    const core::Workload& w = *flow_sources[f]->workload;
    // The flow's own arena-backed clone of the shared plaintext, encrypted
    // for this flow only and dropped wholesale when the task ends.  Keeps
    // 10k-flow sweeps off the global heap.
    const core::Flow flow{w, out.policy,
                          util::derive_seed(spec.seed, kCipherStream, f)};

    core::PipelineConfig base = spec.pipeline;
    base.device = cfg.device;
    base.algorithm = out.policy.algorithm;
    base.fps = spec.fps;
    base.phy = spec.phy;
    base.backoff_rate = sol.backoff_rate;

    for (std::size_t r = 0; r < reps; ++r) {
      // The repetition's coherence block: a fade multiplies extra error
      // into both the MAC attempt success (more backoff) and the
      // delivery probability (more loss at the receiver).
      const double e = faded[r] ? spec.fade_error_prob : 0.0;
      core::PipelineConfig pipeline = base;
      pipeline.mac_success_prob = sol.mac_success_prob * (1.0 - e);
      pipeline.receiver_loss_prob =
          1.0 - (1.0 - base.receiver_loss_prob) * (1.0 - e);

      std::optional<core::StampTraceSink> stamp;
      if (instrumented) {
        stamp.emplace(spec.trace, nullptr,
                      static_cast<int>(f) * 1000 + static_cast<int>(r));
      }
      core::TransferResult transfer;
      try {
        transfer = core::simulate_transfer(
            pipeline, flow.packets(), flow_transfer_seed(spec.seed, f, r),
            stamp ? &*stamp : nullptr);
      } catch (const std::exception&) {
        ++out.failed_repetitions;
        continue;
      }
      ++out.completed_repetitions;

      out.delay_ms.add(transfer.mean_delay_ms());
      out.duration_s.add(transfer.duration_s);
      if (cfg.deadline_s > 0.0 && transfer.duration_s > cfg.deadline_s) {
        ++out.deadline_misses;
      }

      const energy::EnergyBreakdown energy = energy::transfer_energy(
          cfg.device.power_coefficients(out.policy.algorithm),
          transfer.duration_s, transfer.encrypted_payload_bytes,
          transfer.airtime_s);
      out.power_w.add(energy::mean_power_w(energy, transfer.duration_s));
      out.energy_j.add(energy.total_j());

      if (spec.evaluate_quality) {
        const auto score = [&](const std::vector<bool>& heard, bool decrypt) {
          return core::score_stream(w, flow.frames(heard, decrypt)).psnr_db;
        };
        out.receiver_psnr_db.add(
            score(transfer.receiver_delivered, /*decrypt=*/true));
        out.eavesdropper_psnr_db.add(
            score(transfer.eavesdropper_captured, /*decrypt=*/false));
      }
    }
  };

  util::parallel_for(instrumented ? nullptr : pool, n, run_flow);

  // Deterministic fold in flow order.
  CellResult result;
  result.flows = spec.flows;
  result.background = spec.background_stations;
  result.admitted = schedule.admitted;
  result.deferred = schedule.deferred;
  result.total_degrade_steps = schedule.total_degrade_steps;
  result.schedule_iterations = schedule.iterations;
  result.contention = sol;
  for (const FlowOutcome& out : outcomes) {
    if (out.admitted) {
      result.delay_ms.merge(out.delay_ms);
      result.duration_s.merge(out.duration_s);
      result.power_w.merge(out.power_w);
      result.energy_j.merge(out.energy_j);
      result.receiver_psnr_db.merge(out.receiver_psnr_db);
      result.eavesdropper_psnr_db.merge(out.eavesdropper_psnr_db);
      result.deadline_misses += out.deadline_misses;
      if (out.deadline_s > 0.0) {
        result.deadline_repetitions +=
            static_cast<std::size_t>(out.completed_repetitions);
      }
    }
  }
  result.flow_outcomes = std::move(outcomes);
  return result;
}

void CapacitySpec::validate() const {
  if (flow_counts.empty()) {
    throw std::invalid_argument{"CapacitySpec: no flow counts"};
  }
  for (int flows : flow_counts) {
    if (flows < 1) {
      throw std::invalid_argument{"CapacitySpec: flow count < 1"};
    }
  }
  CellSpec probe = base;
  probe.flows = flow_counts.front();
  probe.validate();
}

void table_header(std::ostream& out, const CapacitySpec& spec) {
  out << "flows  adm  def  deg  p_coll   p_s     Mb/s/flow  E[W] ms   ";
  if (spec.base.evaluate_quality) out << "rxPSNR   evPSNR   ";
  out << "W mean   J mean    miss%\n";
}

void table_row(std::ostream& out, const CapacitySpec& spec,
               const CapacityPoint& p) {
  const CellResult& r = p.result;
  out << fmt("%5d  %3d  %3d  %3d  %7.4f  %6.4f  %9.4f  %8.3f  ", p.flows,
             r.admitted, r.deferred, r.total_degrade_steps,
             r.contention.collision_prob, r.contention.mac_success_prob,
             r.contention.per_flow_throughput_mbps, r.delay_ms.mean());
  if (spec.base.evaluate_quality) {
    out << fmt("%7.2f  %7.2f  ", r.receiver_psnr_db.mean(),
               r.eavesdropper_psnr_db.mean());
  }
  out << fmt("%7.3f  %8.3f  %5.1f\n", r.power_w.mean(), r.energy_j.mean(),
             100.0 * r.deadline_miss_fraction());
}

util::Record to_record(const CapacityPoint& p) {
  const CellResult& r = p.result;
  util::Record contention;
  contention.add("contenders", r.contention.contenders)
      .add("collision_prob", r.contention.collision_prob)
      .add("mac_success_prob", r.contention.mac_success_prob)
      .add("backoff_rate", r.contention.backoff_rate)
      .add("mean_slot_s", r.contention.mean_slot_s)
      .add("per_flow_throughput_mbps", r.contention.per_flow_throughput_mbps)
      .add("iterations", r.contention.dcf.iterations);

  // Lazy: a 10k-flow point never holds all its flow records at once.
  const auto flow = [outcomes = &r.flow_outcomes](std::size_t f) {
    const FlowOutcome& o = (*outcomes)[f];
    // slack_s is +inf for flows without a deadline; it renders as null.
    util::Record flow;
    flow.add("flow", o.index)
        .add("motion", video::to_string(o.motion))
        .add("gop", o.gop_size)
        .add("requested", o.requested_policy.spec())
        .add("policy", o.policy.spec())
        .add("algorithm", crypto::to_string(o.policy.algorithm))
        .add("device", o.device_key)
        .add("admitted", o.admitted)
        .add("degrade_steps", o.degrade_steps)
        .add("deadline_s", o.deadline_s)
        .add("predicted_s", o.predicted_completion_s)
        .add("slack_s", o.slack_s)
        .add("faded", o.faded_repetitions)
        .add("completed", o.completed_repetitions)
        .add("failed", o.failed_repetitions)
        .add("misses", o.deadline_misses)
        .add("delay_ms", o.delay_ms)
        .add("duration_s", o.duration_s)
        .add("power_w", o.power_w)
        .add("energy_j", o.energy_j)
        .add("receiver_psnr_db", o.receiver_psnr_db)
        .add("eavesdropper_psnr_db", o.eavesdropper_psnr_db);
    return flow;
  };

  util::Record out;
  out.add("point", p.index)
      .add("flows", p.flows)
      .add("background", r.background)
      .add("admitted", r.admitted)
      .add("deferred", r.deferred)
      .add("degrade_steps", r.total_degrade_steps)
      .add("schedule_iterations", r.schedule_iterations)
      .add("contention", std::move(contention))
      .add("delay_ms", r.delay_ms)
      .add("duration_s", r.duration_s)
      .add("power_w", r.power_w)
      .add("energy_j", r.energy_j)
      .add("receiver_psnr_db", r.receiver_psnr_db)
      .add("eavesdropper_psnr_db", r.eavesdropper_psnr_db)
      .add("deadline_miss_fraction", r.deadline_miss_fraction())
      .add("flows_detail",
           util::Value::Lazy{r.flow_outcomes.size(), flow});
  return out;
}

util::GridSummary CellRunner::run(const CapacitySpec& spec, CellSink& sink) {
  spec.validate();
  // Build every workload of the largest point before any point runs (see
  // core::WorkloadCache).  Flow f's (motion, GOP) cycles with f, so the
  // first motions x GOPs flows name every pair a point can use.
  const CellSpec& base = spec.base;
  const auto prebuild = [&] {
    const std::size_t flows = std::min(
        static_cast<std::size_t>(*std::max_element(spec.flow_counts.begin(),
                                                   spec.flow_counts.end())),
        base.motions.size() * base.gop_sizes.size());
    std::vector<core::WorkloadKey> keys;
    for (std::size_t f = 0; f < flows; ++f) {
      const FlowConfig c = resolve_flow(base, f);
      keys.push_back({c.motion, c.gop_size, base.frames, base.seed, base.fps});
    }
    cache_.prebuild(keys);
  };
  // Points run strictly in order on this thread, and each point runs both
  // its scheduler's contention solves and its flows on the pool: a crowded
  // point makes one solve per flow it defers, and solved serially those
  // cost more than all its flows (about 41 ms against 14 ms at 10 000
  // flows on a 4-vCPU x86-64 VM).
  // Running the points side by side instead (Rows::kPool) holds several
  // points' flows at once: it raised cell-capacity's peak RSS from 42 MB
  // to 61-67 MB.
  util::GridSummary summary = util::stream_grid(
      pool_, util::Rows::kInOrder, spec, spec.flow_counts.size(), prebuild,
      [&](std::size_t i) {
        CellSpec cell = base;
        cell.flows = spec.flow_counts[i];
        return CapacityPoint{i, cell.flows, run_cell(cell, cache_, pool_)};
      },
      sink);
  summary.workloads = cache_.size();
  return summary;
}

}  // namespace tv::cell
