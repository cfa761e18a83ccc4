#include "analysis/sweep.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/experiment.hpp"
#include "energy/energy_model.hpp"
#include "live/sender.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tv::analysis {

using util::fmt;

std::vector<policy::EncryptionPolicy> LeakageSpec::policy_axis() const {
  if (!policies.empty()) return policies;
  return policy::headline_policies(pipeline.algorithm);
}

std::vector<policy::ShapingPolicy> LeakageSpec::shaping_axis() const {
  if (!shapings.empty()) return shapings;
  // The docs/adversary.md headline column: no shaping, then each knob
  // alone so its leakage suppression and cost are attributable.  The
  // jitter sigma is sized against the adversary's 250 ms trajectory
  // window — smaller sigmas never move a packet across a bin edge.
  std::vector<policy::ShapingPolicy> axis(4);
  axis[1].pad_bucket_bytes = 256;
  axis[2].hide_markers = true;
  axis[3].jitter_stddev_s = 20e-3;
  return axis;
}

void LeakageSpec::validate() const {
  if (gop_size < 2) {
    throw std::invalid_argument{"LeakageSpec: gop_size < 2"};
  }
  if (frames < gop_size) {
    throw std::invalid_argument{"LeakageSpec: frames < gop_size"};
  }
  if (adversary.fps <= 0.0 || adversary.trajectory_window_s <= 0.0) {
    throw std::invalid_argument{"LeakageSpec: bad adversary cadence"};
  }
  if (adversary.cluster_separation < 1.0) {
    throw std::invalid_argument{
        "LeakageSpec: cluster_separation < 1 labels everything I"};
  }
  for (const policy::EncryptionPolicy& p : policy_axis()) p.validate();
  for (const policy::ShapingPolicy& s : shaping_axis()) s.validate();
  core::validate(pipeline);
}

std::size_t LeakageSpec::cell_count() const {
  return policy_axis().size() * shaping_axis().size();
}

std::vector<LeakageCell> enumerate_leakage_cells(const LeakageSpec& spec) {
  return util::cartesian(
      [&](std::size_t index, const policy::EncryptionPolicy& p,
          const policy::ShapingPolicy& s) {
        LeakageCell cell;
        cell.index = index;
        cell.policy = p;
        cell.shaping = s;
        cell.seed = util::derive_seed(spec.seed, index);
        return cell;
      },
      spec.policy_axis(), spec.shaping_axis());
}

LeakageCellResult run_leakage_cell(
    const LeakageSpec& spec, const LeakageCell& cell,
    const core::Workload& workload,
    const std::vector<net::RawCapture>* external_capture) {
  LeakageCellResult r;
  r.cell = cell;

  // ---- Sender side, exactly as live::run_loopback stages it: the
  // flow (pad, encrypt), the transfer, then what the sender ships.
  core::Flow flow{workload, cell.policy, cell.seed, cell.shaping};
  const std::vector<net::VideoPacket>& packets = flow.packets();

  core::PipelineConfig pipeline = spec.pipeline;
  pipeline.algorithm = cell.policy.algorithm;
  const core::TransferResult transfer =
      core::simulate_transfer(pipeline, packets, cell.seed);
  flow.ship(transfer);

  r.packet_count = packets.size();
  for (const net::VideoPacket& p : packets) {
    r.pad_overhead_bytes += p.pad_bytes;
  }

  // ---- The capture the loopback eavesdropper tap would record in
  // replay mode: the wire datagrams the channel let it hear, at jittered
  // send times.  Synthesized in memory so a sweep cell never depends on
  // kernel socket buffers — that is what keeps `--threads N` byte-stable.
  const std::vector<double> send_times =
      live::schedule_from_timings(transfer.timings);
  std::vector<double> jittered = send_times;
  live::jitter_schedule(jittered, cell.shaping.jitter_stddev_s, cell.seed);

  const std::vector<net::RawCapture> captures =
      net::capture_of(packets, transfer.eavesdropper_captured, jittered);
  r.captured_packets = captures.size();

  const CaptureFeatures features =
      extract_features(external_capture != nullptr ? *external_capture
                                                   : captures);
  r.inference = infer_stream(features, spec.adversary);

  // ---- Ground truth from the sender's own state: unjittered schedule,
  // content (unpadded) bytes, and the eavesdropper PSNR actually measured
  // by decoding what the snooper captured.
  r.truth = ground_truth_of(workload, packets, send_times,
                            spec.adversary.trajectory_window_s);
  r.truth.eavesdropper_psnr_db =
      core::score_stream(workload, flow.frames(transfer.eavesdropper_captured,
                                               /*decrypt=*/false))
          .psnr_db;
  r.metrics = score_leakage(r.inference, r.truth);

  // ---- The countermeasures' price, in the paper's currency.  Padding
  // already paid inside simulate_transfer (bigger payloads, longer T_t);
  // jitter extends the transfer tail and adds its half-normal mean to
  // every packet's delay; marker hiding is free on this meter.
  double last_send = transfer.duration_s;
  for (const double t : jittered) last_send = std::max(last_send, t);
  r.duration_s = last_send;
  r.jitter_mean_delay_s =
      live::jitter_mean_delay_s(cell.shaping.jitter_stddev_s);
  r.mean_delay_ms = transfer.mean_delay_ms() + 1e3 * r.jitter_mean_delay_s;
  const energy::EnergyBreakdown energy = energy::transfer_energy(
      pipeline.device.power_coefficients(pipeline.algorithm), r.duration_s,
      transfer.encrypted_payload_bytes, transfer.airtime_s);
  r.mean_power_w = energy::mean_power_w(energy, r.duration_s);
  return r;
}

void table_header(std::ostream& out, const LeakageSpec& spec) {
  out << fmt("leakage sweep: motion=%s gop=%d frames=%d seed=%llu\n",
             to_string(spec.motion), spec.gop_size, spec.frames,
             static_cast<unsigned long long>(spec.seed));
  out << "cell policy     shaping              "
         "iP     iR     gopE  mot  brErr   trajMAE  qErr    "
         "psnrE   delay_ms  power_w  pad_B\n";
}

void table_row(std::ostream& out, const LeakageSpec& /*spec*/,
               const LeakageCellResult& r) {
  out << fmt("%4zu %-10s %-20s %.3f  %.3f  %4d  %-3s  %.4f  %7.1f  %.4f  "
             "%6.2f  %8.2f  %7.3f  %5zu\n",
             r.cell.index, r.cell.policy.spec().c_str(),
             r.cell.shaping.spec().c_str(), r.metrics.i_precision,
             r.metrics.i_recall, r.metrics.gop_error,
             r.metrics.motion_match ? "ok" : "NO",
             r.metrics.bitrate_rel_error, r.metrics.trajectory_mae_kbps,
             r.metrics.encrypted_fraction_error, r.metrics.psnr_error_db,
             r.mean_delay_ms, r.mean_power_w, r.pad_overhead_bytes);
}

util::Record to_record(const LeakageCellResult& r) {
  util::Record out;
  out.add("cell", r.cell.index)
      .add("policy", r.cell.policy.spec())
      .add("shaping", r.cell.shaping.spec())
      .add("seed", r.cell.seed)
      .add("packets", r.packet_count)
      .add("captured", r.captured_packets)
      .add("frames_observed", r.inference.frames.size())
      .add("i_frames_detected", r.inference.i_frames_detected)
      .add("gop_est", r.inference.gop_size_est)
      .add("gop_true", r.truth.gop_size)
      .add("motion_est", to_string(r.inference.motion_est))
      .add("motion_true", to_string(r.truth.motion))
      .add("bitrate_est_bps", r.inference.mean_bitrate_bps)
      .add("bitrate_true_bps", r.truth.mean_bitrate_bps)
      .add("q_est", r.inference.encrypted_fraction_est)
      .add("q_true", r.truth.encrypted_packet_fraction)
      .add("psnr_est_db", r.inference.eavesdropper_psnr_db_est)
      .add("psnr_true_db", r.truth.eavesdropper_psnr_db)
      .add("i_precision", r.metrics.i_precision)
      .add("i_recall", r.metrics.i_recall)
      .add("i_f1", r.metrics.i_f1)
      .add("gop_error", r.metrics.gop_error)
      .add("motion_match", r.metrics.motion_match)
      .add("bitrate_rel_error", r.metrics.bitrate_rel_error)
      .add("trajectory_mae_kbps", r.metrics.trajectory_mae_kbps)
      .add("encrypted_fraction_error", r.metrics.encrypted_fraction_error)
      .add("psnr_error_db", r.metrics.psnr_error_db)
      .add("duration_s", r.duration_s)
      .add("mean_delay_ms", r.mean_delay_ms)
      .add("mean_power_w", r.mean_power_w)
      .add("pad_overhead_bytes", r.pad_overhead_bytes)
      .add("jitter_mean_delay_s", r.jitter_mean_delay_s);
  return out;
}

util::GridSummary run_leakage(const LeakageSpec& spec, LeakageSink& sink,
                              util::ThreadPool* pool) {
  spec.validate();
  const std::vector<LeakageCell> cells = enumerate_leakage_cells(spec);
  // One shared workload: every cell shapes/encrypts its own clone, so the
  // grid isolates the policy/shaping axes from content variation.
  const core::Workload workload =
      core::build_workload(spec.motion, spec.gop_size, spec.frames,
                           spec.seed, spec.pipeline.fps, pool);
  return util::stream_grid(
      pool, util::Rows::kPool, spec, cells.size(), [] {},
      [&](std::size_t i) { return run_leakage_cell(spec, cells[i], workload); },
      sink);
}

}  // namespace tv::analysis
