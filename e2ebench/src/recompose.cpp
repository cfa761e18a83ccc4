#include "recompose.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>

#include "crypto/suite.hpp"
#include "energy/energy_model.hpp"
#include "live/stream_map.hpp"
#include "spans.hpp"
#include "util/arena.hpp"
#include "video/quality.hpp"
#include "wifi/gilbert_elliott.hpp"

namespace e2e {

namespace core = tv::core;
namespace cell = tv::cell;
namespace net = tv::net;
namespace video = tv::video;
namespace util = tv::util;

namespace {

// live::flow_iv_for is the public copy of the IV derivation that
// run_experiment and run_cell keep private.
using tv::live::flow_iv_for;

/// Frames decoded intact before the first damaged frame of their GOP:
/// the decode work a lossless-aware scorer could skip.
std::uint64_t clean_prefix_frames(
    const std::vector<video::ReceivedFrameData>& frames, int gop_size) {
  std::uint64_t clean = 0;
  bool damaged = false;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (gop_size > 0 && i % static_cast<std::size_t>(gop_size) == 0) {
      damaged = false;
    }
    const auto& ok = frames[i].byte_ok;
    damaged = damaged || std::find(ok.begin(), ok.end(), false) != ok.end();
    if (!damaged) ++clean;
  }
  return clean;
}

/// Payload bytes the receiver decrypts: delivered packets that are marked.
std::uint64_t decrypted_bytes(const std::vector<net::VideoPacket>& packets,
                              const std::vector<bool>& delivered) {
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < packets.size() && i < delivered.size(); ++i) {
    if (delivered[i] && packets[i].encrypted) {
      bytes += packets[i].payload.size();
    }
  }
  return bytes;
}

// cell.cpp's private helpers, verbatim.
double mean_wire_bytes(const std::vector<net::VideoPacket>& packets) {
  if (packets.empty()) return 0.0;
  double total = 0.0;
  for (const net::VideoPacket& p : packets) {
    total += static_cast<double>(p.wire_bytes());
  }
  return total / static_cast<double>(packets.size());
}

double i_packet_share(const std::vector<net::VideoPacket>& packets) {
  if (packets.empty()) return 0.0;
  std::size_t i_packets = 0;
  for (const net::VideoPacket& p : packets) {
    if (p.is_i_frame) ++i_packets;
  }
  return static_cast<double>(i_packets) / static_cast<double>(packets.size());
}

/// One decode-and-score of a reassembled stream, as run_experiment and
/// run_cell do it, with the decode and scoring spans.
video::FrameSequence traced_decode(
    const core::Workload& w,
    const std::vector<video::ReceivedFrameData>& frames) {
  const std::uint64_t clean = clean_prefix_frames(frames, w.codec.gop_size);
  Span span("video.decode");
  span.add_count(frames.size());
  span.add_aux(clean);
  const video::Decoder decoder{w.codec};
  return decoder.decode_stream(w.stream.width, w.stream.height, frames);
}

}  // namespace

core::Workload traced_build_workload(video::MotionLevel motion, int gop_size,
                                     int frames, std::uint64_t seed,
                                     double fps) {
  Span root("core.build_workload");
  if (frames < gop_size) {
    throw std::invalid_argument{"build_workload: need at least one GOP"};
  }
  core::Workload w;
  w.motion = motion;
  w.fps = fps;
  w.codec.gop_size = gop_size;
  switch (motion) {
    case video::MotionLevel::kLow: w.codec.p_qstep = 14.0; break;
    case video::MotionLevel::kMedium: w.codec.p_qstep = 18.0; break;
    case video::MotionLevel::kHigh: w.codec.p_qstep = 24.0; break;
  }

  {
    Span span("video.scene");
    const video::SceneGenerator scene{video::SceneParameters::preset(motion),
                                      seed};
    w.clip = scene.render_clip(frames);
  }
  {
    Span span("video.encode");
    span.add_count(w.clip.size());
    const video::Encoder encoder{w.codec};
    w.stream = encoder.encode(w.clip);
  }
  {
    Span span("net.packetize");
    w.packets = net::packetize(w.stream, w.arena, net::kDefaultMtu, fps);
    span.add_count(w.packets.size());
  }
  {
    Span span("video.lossless_decode");
    span.add_count(w.stream.frames.size());
    const video::Decoder decoder{w.codec};
    std::vector<video::ReceivedFrameData> intact;
    intact.reserve(w.stream.frames.size());
    for (const auto& f : w.stream.frames) {
      intact.push_back(video::ReceivedFrameData::intact(f.data));
    }
    const video::FrameSequence lossless =
        decoder.decode_stream(w.stream.width, w.stream.height, intact);
    double mse = 0.0;
    for (std::size_t i = 0; i < w.clip.size(); ++i) {
      mse += video::luma_mse(w.clip[i], lossless[i]);
    }
    w.base_mse = mse / static_cast<double>(w.clip.size());
  }
  {
    video::Frame gray(w.stream.width, w.stream.height);
    gray.fill(128, 128, 128);
    double mse = 0.0;
    for (const auto& f : w.clip) mse += video::luma_mse(f, gray);
    w.null_mse = mse / static_cast<double>(w.clip.size());
  }
  {
    Span span("distortion.fit");
    const int max_distance =
        std::min<int>(gop_size, static_cast<int>(w.clip.size()) - 1);
    w.inter = tv::distortion::DistanceDistortion::fit(
        tv::distortion::measure_substitution_distortion(w.clip, max_distance),
        5);
  }
  return w;
}

bool identical(const core::Workload& a, const core::Workload& b) {
  if (a.base_mse != b.base_mse || a.null_mse != b.null_mse ||
      a.stream.frames.size() != b.stream.frames.size() ||
      a.packets.size() != b.packets.size() ||
      a.inter.saturation_distance() != b.inter.saturation_distance() ||
      a.inter.polynomial().coefficients() !=
          b.inter.polynomial().coefficients()) {
    return false;
  }
  for (std::size_t i = 0; i < a.stream.frames.size(); ++i) {
    if (a.stream.frames[i].data != b.stream.frames[i].data) return false;
  }
  for (std::size_t i = 0; i < a.packets.size(); ++i) {
    const net::VideoPacket& p = a.packets[i];
    const net::VideoPacket& q = b.packets[i];
    const auto pw = p.payload.wire();
    const auto qw = q.payload.wire();
    if (p.frame_index != q.frame_index || p.byte_offset != q.byte_offset ||
        p.is_i_frame != q.is_i_frame || p.encrypted != q.encrypted ||
        pw.size() != qw.size() ||
        !std::equal(pw.begin(), pw.end(), qw.begin())) {
      return false;
    }
  }
  return true;
}

core::ExperimentResult traced_run_experiment(const core::ExperimentSpec& spec,
                                             const core::Workload& workload,
                                             util::ThreadPool* pool) {
  Span experiment("core.experiment", SpanKind::kWait);
  if (spec.repetitions < 1) {
    throw std::invalid_argument{"run_experiment: repetitions < 1"};
  }
  core::ExperimentResult result;
  result.label = spec.policy.label();

  util::Arena arena;
  std::vector<net::VideoPacket> packets;
  std::vector<bool> selected;
  {
    Span span("core.prepare");
    packets = net::clone_packets(workload.packets, arena);
    selected = spec.policy.select(packets);
  }
  std::unique_ptr<tv::crypto::BlockCipher> cipher;
  std::vector<std::uint8_t> flow_iv;
  {
    Span span("crypto.encrypt");
    cipher =
        tv::crypto::make_cipher_from_seed(spec.policy.algorithm, spec.seed);
    flow_iv = flow_iv_for(*cipher, spec.seed);
    net::encrypt_selected(packets, selected, *cipher, flow_iv);
    result.encryption = net::encryption_stats(packets);
    span.add_count(result.encryption.encrypted_payload_bytes);
  }

  core::PipelineConfig pipeline = spec.pipeline;
  pipeline.algorithm = spec.policy.algorithm;
  const int frame_count = static_cast<int>(workload.stream.frames.size());

  struct RepOutcome {
    bool ok = false;
    core::TransferResult transfer;
    util::RunningStats delay_ms, duration_s, power_w;
    util::RunningStats rx_psnr, rx_mos, ev_psnr, ev_mos;
    std::vector<core::FailureEvent> failures;
  };
  std::vector<RepOutcome> reps(static_cast<std::size_t>(spec.repetitions));
  const bool instrumented = spec.trace != nullptr || spec.collect_stage_stats;
  if (instrumented) {
    throw std::invalid_argument{
        "traced_run_experiment: library stage tracing is not recomposed"};
  }
  const std::uint64_t experiment_id = experiment.id();

  auto run_rep = [&](std::size_t index) {
    Span rep_span("core.rep", SpanKind::kWork, experiment_id);
    RepOutcome& out = reps[index];
    const int rep = static_cast<int>(index);
    core::TransferResult transfer;
    try {
      Span span("core.pipeline");
      span.add_count(packets.size());
      transfer = core::simulate_transfer(
          pipeline, packets, spec.seed * 7919 + static_cast<std::uint64_t>(rep),
          nullptr);
    } catch (const std::exception&) {
      core::FailureEvent failure;
      failure.kind = core::FailureEvent::Kind::kException;
      failure.repetition = rep;
      out.failures.push_back(failure);
      return;
    }
    out.ok = true;
    for (core::FailureEvent f : transfer.failures) {
      f.repetition = rep;
      out.failures.push_back(f);
    }

    out.delay_ms.add(transfer.mean_delay_ms());
    out.duration_s.add(transfer.duration_s);

    const tv::energy::EnergyBreakdown energy = tv::energy::transfer_energy(
        spec.pipeline.device.power_coefficients(spec.policy.algorithm),
        transfer.duration_s, transfer.encrypted_payload_bytes,
        transfer.airtime_s);
    out.power_w.add(tv::energy::mean_power_w(energy, transfer.duration_s));

    if (spec.evaluate_quality) {
      std::vector<video::ReceivedFrameData> rx_frames;
      {
        Span span("net.reassemble");
        span.add_count(decrypted_bytes(packets, transfer.receiver_delivered));
        rx_frames = net::reassemble(packets, transfer.receiver_delivered,
                                    frame_count, cipher.get(), flow_iv);
      }
      const video::FrameSequence rx = traced_decode(workload, rx_frames);
      {
        Span span("video.quality");
        out.rx_psnr.add(video::sequence_psnr(workload.clip, rx));
        out.rx_mos.add(video::sequence_mos(workload.clip, rx));
      }

      std::vector<video::ReceivedFrameData> ev_frames;
      {
        Span span("net.reassemble");
        ev_frames = net::reassemble(packets, transfer.eavesdropper_captured,
                                    frame_count, nullptr, flow_iv);
      }
      const video::FrameSequence ev = traced_decode(workload, ev_frames);
      {
        Span span("video.quality");
        out.ev_psnr.add(video::sequence_psnr(workload.clip, ev));
        out.ev_mos.add(video::sequence_mos(workload.clip, ev));
      }
    }
    out.transfer = std::move(transfer);
  };

  if (pool != nullptr && reps.size() > 1) {
    pool->parallel_for(reps.size(), run_rep);
  } else {
    for (std::size_t i = 0; i < reps.size(); ++i) run_rep(i);
  }

  Span fold("core.fold");
  const core::TransferResult* first_transfer = nullptr;
  for (const RepOutcome& out : reps) {
    result.failures.insert(result.failures.end(), out.failures.begin(),
                           out.failures.end());
    if (!out.ok) {
      ++result.failed_repetitions;
      continue;
    }
    if (first_transfer == nullptr) first_transfer = &out.transfer;
    result.total_retransmissions += out.transfer.retransmissions;
    result.total_deadline_drops += out.transfer.deadline_drops;
    result.total_outage_drops += out.transfer.outage_drops;
    result.total_degraded_packets += out.transfer.degraded_packets;
    ++result.completed_repetitions;

    result.delay_ms.merge(out.delay_ms);
    result.duration_s.merge(out.duration_s);
    result.power_w.merge(out.power_w);
    result.receiver_psnr_db.merge(out.rx_psnr);
    result.receiver_mos.merge(out.rx_mos);
    result.eavesdropper_psnr_db.merge(out.ev_psnr);
    result.eavesdropper_mos.merge(out.ev_mos);
  }
  if (first_transfer == nullptr) return result;

  const core::TrafficCalibration traffic = core::calibrate_traffic(
      packets, first_transfer->timings, workload.fps, /*sample_packets=*/0);
  const core::ServiceCalibration service =
      core::calibrate_service(packets, first_transfer->timings, pipeline,
                              traffic);

  const double q_i = spec.policy.i_packet_fraction();
  const double q_p = spec.policy.p_packet_fraction();
  result.predicted_delay = core::predict_delay(traffic, service, q_i, q_p);
  result.predicted_power = core::predict_power(
      pipeline.device, spec.policy.algorithm, traffic, service, q_i, q_p);

  core::DistortionInputs di;
  di.gop_size = workload.codec.gop_size;
  di.n_gops = frame_count / workload.codec.gop_size;
  di.sensitivity_fraction = spec.sensitivity_fraction;
  di.base_mse = workload.base_mse;
  di.null_mse = workload.null_mse;
  di.inter = workload.inter;

  const bool tcp = pipeline.transport == core::Transport::kHttpTcp;
  const double p_s_rx = tcp ? 1.0 : 1.0 - pipeline.receiver_loss_prob;
  double p_s_ev = 1.0 - pipeline.eavesdropper_loss_prob;
  if (tcp) {
    const double mean_attempts = 1.0 / (1.0 - pipeline.receiver_loss_prob);
    p_s_ev = 1.0 - std::pow(pipeline.eavesdropper_loss_prob, mean_attempts);
  }
  result.predicted_receiver =
      core::predict_distortion(di, traffic, p_s_rx, 0.0, 0.0);
  result.predicted_eavesdropper =
      core::predict_distortion(di, traffic, p_s_ev, q_i, q_p);
  return result;
}

std::vector<core::CellResult> traced_sweep(const core::SweepSpec& spec,
                                           core::WorkloadCache& cache,
                                           util::ThreadPool* pool) {
  Span pass("sweep.pass", SpanKind::kWait);
  spec.validate();
  const std::vector<core::SweepCell> cells = core::enumerate_cells(spec);
  std::vector<core::CellResult> results(cells.size());
  const std::uint64_t pass_id = pass.id();

  auto run_cell = [&](std::size_t index) {
    Span cell_span("sweep.cell", SpanKind::kWait, pass_id);
    const core::SweepCell& c = cells[index];
    core::ExperimentSpec es;
    es.policy = c.policy;
    es.pipeline.device = c.device;
    es.pipeline.transport = c.transport;
    es.pipeline.channel = c.channel;
    es.pipeline.fps = spec.fps;
    es.repetitions = spec.repetitions;
    es.seed = c.seed;
    es.evaluate_quality = spec.evaluate_quality;
    es.sensitivity_fraction = core::default_sensitivity(c.motion);
    const std::shared_ptr<const core::Workload> workload =
        cache.get(c.motion, c.gop_size, spec.frames, spec.seed, spec.fps);
    results[index].cell = c;
    results[index].result = traced_run_experiment(es, *workload, pool);
  };

  if (pool != nullptr && cells.size() > 1) {
    pool->parallel_for(cells.size(), run_cell);
  } else {
    for (std::size_t i = 0; i < cells.size(); ++i) run_cell(i);
  }
  return results;
}

cell::CellResult traced_run_cell(const cell::CellSpec& spec,
                                 core::WorkloadCache& cache,
                                 util::ThreadPool* pool) {
  Span point("cell.point", SpanKind::kWait);
  if (spec.trace != nullptr) {
    throw std::invalid_argument{
        "traced_run_cell: library stage tracing is not recomposed"};
  }
  std::optional<Span> prepare{std::in_place, "cell.prepare"};
  spec.validate();
  const std::size_t n = static_cast<std::size_t>(spec.flows);

  std::vector<cell::FlowConfig> configs(n);
  std::vector<std::shared_ptr<const core::Workload>> workloads(n);
  for (std::size_t f = 0; f < n; ++f) {
    configs[f] = cell::resolve_flow(spec, f);
    workloads[f] = cache.get(configs[f].motion, configs[f].gop_size,
                             spec.frames, spec.seed, spec.fps);
  }

  std::vector<cell::FlowDemand> demands(n);
  double population_wire_bytes = 0.0;
  for (std::size_t f = 0; f < n; ++f) {
    const core::Workload& w = *workloads[f];
    cell::FlowDemand& d = demands[f];
    d.index = f;
    d.policy = configs[f].policy;
    d.deadline_s = configs[f].deadline_s;
    d.clip_duration_s = static_cast<double>(spec.frames) / spec.fps;
    d.packet_count = w.packets.size();
    d.i_packet_share = i_packet_share(w.packets);
    const double wire = mean_wire_bytes(w.packets);
    population_wire_bytes += wire;
    double payload = 0.0;
    for (const net::VideoPacket& p : w.packets) {
      payload += static_cast<double>(p.payload.size());
    }
    payload /= static_cast<double>(w.packets.size());
    d.encryption_mean_s = configs[f].device.encryption_seconds(
        configs[f].policy.algorithm, static_cast<std::size_t>(payload));
    d.transmission_mean_s = tv::wifi::transmission_time_s(
        spec.phy, static_cast<std::size_t>(wire));
  }

  cell::ContentionConfig contention;
  contention.video = {spec.flows, spec.cw_min, spec.backoff_stages};
  contention.background = {spec.background_stations, spec.background_cw_min,
                           spec.background_stages};
  contention.phy = spec.phy;
  contention.mean_wire_bytes = population_wire_bytes / static_cast<double>(n);
  contention.channel_error_prob = spec.channel_error_prob;
  prepare.reset();

  std::optional<Span> schedule_span{std::in_place, "cell.schedule"};
  const cell::DeadlineScheduler scheduler{spec.scheduler};
  const cell::ScheduleResult schedule = scheduler.schedule(demands, contention);
  schedule_span->add_count(static_cast<std::uint64_t>(schedule.iterations));
  schedule_span->add_aux(static_cast<std::uint64_t>(schedule.admitted));
  schedule_span.reset();
  const cell::ContentionSolution& sol = schedule.contention;

  prepare.emplace("cell.prepare");
  const std::size_t reps = static_cast<std::size_t>(spec.repetitions);
  std::vector<std::vector<bool>> faded(n);
  for (std::size_t f = 0; f < n; ++f) {
    if (spec.fade_prob > 0.0) {
      tv::wifi::GilbertElliottParams fade;
      fade.mean_loss_prob = spec.fade_prob;
      fade.mean_burst_length = spec.mean_fade_reps;
      fade.good_loss_prob = 0.0;
      fade.bad_loss_prob = 1.0;
      tv::wifi::GilbertElliottChannel chain{
          fade, util::derive_seed(spec.seed, cell::kFadeStream, f)};
      faded[f] = chain.trace(reps);
    } else {
      faded[f].assign(reps, false);
    }
  }
  {
    const double worst_fade = spec.fade_prob > 0.0 ? spec.fade_error_prob : 0.0;
    core::PipelineConfig probe = spec.pipeline;
    probe.fps = spec.fps;
    probe.phy = spec.phy;
    probe.mac_success_prob = sol.mac_success_prob * (1.0 - worst_fade);
    probe.backoff_rate = sol.backoff_rate;
    core::validate(probe);
  }
  prepare.reset();

  std::vector<cell::FlowOutcome> outcomes(n);
  const std::uint64_t point_id = point.id();

  auto run_flow = [&](std::size_t f) {
    Span flow_span("cell.flow", SpanKind::kWork, point_id);
    cell::FlowOutcome& out = outcomes[f];
    const cell::FlowConfig& cfg = configs[f];
    const cell::FlowDecision& decision = schedule.flows[f];
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
    for (std::size_t r = 0; r < reps; ++r) {
      if (faded[f][r]) ++out.faded_repetitions;
    }
    if (!decision.admitted) return;

    const core::Workload& w = *workloads[f];
    util::Arena arena;
    std::vector<net::VideoPacket> packets;
    std::vector<bool> selected;
    {
      Span span("core.prepare");
      packets = net::clone_packets(w.packets, arena);
      selected = out.policy.select(packets);
    }
    const std::uint64_t cipher_seed =
        util::derive_seed(spec.seed, cell::kCipherStream, f);
    std::unique_ptr<tv::crypto::BlockCipher> cipher;
    std::vector<std::uint8_t> flow_iv;
    {
      Span span("crypto.encrypt");
      cipher = tv::crypto::make_cipher_from_seed(out.policy.algorithm,
                                                 cipher_seed);
      flow_iv = flow_iv_for(*cipher, cipher_seed);
      net::encrypt_selected(packets, selected, *cipher, flow_iv);
      std::uint64_t bytes = 0;
      for (std::size_t i = 0; i < packets.size(); ++i) {
        if (selected[i]) bytes += packets[i].payload.size();
      }
      span.add_count(bytes);
    }

    const int frame_count = static_cast<int>(w.stream.frames.size());
    core::PipelineConfig base = spec.pipeline;
    base.device = cfg.device;
    base.algorithm = out.policy.algorithm;
    base.fps = spec.fps;
    base.phy = spec.phy;
    base.backoff_rate = sol.backoff_rate;

    for (std::size_t r = 0; r < reps; ++r) {
      const double e = faded[f][r] ? spec.fade_error_prob : 0.0;
      core::PipelineConfig pipeline = base;
      pipeline.mac_success_prob = sol.mac_success_prob * (1.0 - e);
      pipeline.receiver_loss_prob =
          1.0 - (1.0 - base.receiver_loss_prob) * (1.0 - e);

      core::TransferResult transfer;
      try {
        Span span("core.pipeline");
        span.add_count(packets.size());
        transfer = core::simulate_transfer(
            pipeline, packets, cell::flow_transfer_seed(spec.seed, f, r),
            nullptr);
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

      const tv::energy::EnergyBreakdown energy = tv::energy::transfer_energy(
          cfg.device.power_coefficients(out.policy.algorithm),
          transfer.duration_s, transfer.encrypted_payload_bytes,
          transfer.airtime_s);
      out.power_w.add(tv::energy::mean_power_w(energy, transfer.duration_s));
      out.energy_j.add(energy.total_j());

      if (spec.evaluate_quality) {
        std::vector<video::ReceivedFrameData> rx_frames;
        {
          Span span("net.reassemble");
          span.add_count(decrypted_bytes(packets, transfer.receiver_delivered));
          rx_frames = net::reassemble(packets, transfer.receiver_delivered,
                                      frame_count, cipher.get(), flow_iv);
        }
        const video::FrameSequence rx = traced_decode(w, rx_frames);
        {
          Span span("video.quality");
          out.receiver_psnr_db.add(video::sequence_psnr(w.clip, rx));
        }
        std::vector<video::ReceivedFrameData> ev_frames;
        {
          Span span("net.reassemble");
          ev_frames = net::reassemble(packets, transfer.eavesdropper_captured,
                                      frame_count, nullptr, flow_iv);
        }
        const video::FrameSequence ev = traced_decode(w, ev_frames);
        {
          Span span("video.quality");
          out.eavesdropper_psnr_db.add(video::sequence_psnr(w.clip, ev));
        }
      }
    }
  };

  if (pool != nullptr && n > 1) {
    pool->parallel_for(n, run_flow);
  } else {
    for (std::size_t f = 0; f < n; ++f) run_flow(f);
  }

  Span fold("cell.fold");
  cell::CellResult result;
  result.flows = spec.flows;
  result.background = spec.background_stations;
  result.admitted = schedule.admitted;
  result.deferred = schedule.deferred;
  result.total_degrade_steps = schedule.total_degrade_steps;
  result.schedule_iterations = schedule.iterations;
  result.contention = sol;
  for (cell::FlowOutcome& out : outcomes) {
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
    result.flow_outcomes.push_back(std::move(out));
  }
  return result;
}

}  // namespace e2e
