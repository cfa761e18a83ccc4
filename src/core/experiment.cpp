#include "core/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "crypto/suite.hpp"
#include "util/thread_pool.hpp"
#include "video/quality.hpp"

namespace tv::core {

std::vector<std::uint8_t> flow_iv_for(const crypto::BlockCipher& cipher,
                                      std::uint64_t seed) {
  std::vector<std::uint8_t> iv(cipher.block_size());
  std::uint64_t state = seed ^ 0x1234567890abcdefULL;
  for (auto& b : iv) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    b = static_cast<std::uint8_t>(state >> 56);
  }
  return iv;
}

DistortionInputs distortion_inputs_of(const Workload& workload,
                                      double sensitivity_fraction) {
  DistortionInputs di;
  di.gop_size = workload.codec.gop_size;
  di.n_gops = static_cast<int>(workload.stream.frames.size()) /
              workload.codec.gop_size;
  di.sensitivity_fraction = sensitivity_fraction;
  di.base_mse = workload.base_mse;
  di.null_mse = workload.null_mse;
  di.inter = workload.inter;
  return di;
}

Flow::Flow(const Workload& workload, const policy::EncryptionPolicy& policy,
           std::uint64_t seed, const policy::ShapingPolicy& shaping)
    : workload_(workload),
      hide_markers_(shaping.hide_markers),
      packets_(net::clone_packets(workload.packets, arena_)),
      cipher_(crypto::make_cipher_from_seed(policy.algorithm, seed)),
      iv_(flow_iv_for(*cipher_, seed)) {
  shaping.validate();
  net::pad_to_bucket(packets_, arena_, shaping.pad_bucket_bytes);
  net::encrypt_selected(packets_, policy.select(packets_), *cipher_, iv_);
}

void Flow::ship(const TransferResult& transfer) {
  const std::vector<bool>& degraded = transfer.degraded_cleartext;
  for (std::size_t i = 0; i < packets_.size() && i < degraded.size(); ++i) {
    if (!degraded[i]) continue;
    net::VideoPacket& p = packets_[i];
    // Padded clones are larger than the pristine originals: restore the
    // content prefix, then re-write the pad trailer the encryption pass
    // scrambled.
    std::memcpy(p.payload.data(), workload_.packets[i].payload.data(),
                p.content_size());
    if (p.pad_bytes > 0) {
      (void)net::rtp_write_pad_trailer(p.payload, p.content_size());
    }
    p.encrypted = false;
    p.payload.set_marker(false);
  }
  if (hide_markers_) net::hide_wire_markers(packets_);
  decrypted_ = std::make_unique<DecryptedImage>();
}

const std::vector<net::VideoPacket>& Flow::decrypted() const {
  std::call_once(decrypted_->built, [this] {
    // One arena chunk the size of the ciphertext holds the whole image.
    std::size_t bytes = 0;
    for (const net::VideoPacket& p : packets_) {
      if (p.encrypted) bytes += p.payload.wire().size();
    }
    decrypted_->arena = util::Arena{bytes};
    decrypted_->packets =
        net::decrypt_packets(packets_, *cipher_, iv_, decrypted_->arena);
  });
  return decrypted_->packets;
}

std::vector<video::ReceivedFrameData> Flow::frames(
    const std::vector<bool>& delivered, bool decrypt) const {
  // The decrypted image holds no encrypted packet, so it needs no cipher.
  return net::reassemble(decrypt ? decrypted() : packets_, delivered,
                         static_cast<int>(workload_.stream.frames.size()),
                         nullptr, {});
}

video::FrameSequence Flow::decode(const std::vector<bool>& delivered,
                                  bool decrypt) const {
  const video::Decoder decoder{workload_.codec};
  return decoder.decode_stream(workload_.stream.width,
                               workload_.stream.height,
                               frames(delivered, decrypt));
}

const LosslessDecode& Workload::lossless() const {
  std::call_once(lazy_lossless->built, [this] {
    LosslessDecode& out = lazy_lossless->decode;
    const video::Decoder decoder{codec};
    const std::size_t n = stream.frames.size();
    out.frames.reserve(n);
    out.mse.reserve(n);
    out.standalone.reserve(n);
    // Decoder::decode_stream's loop: the first frame has no reference.
    for (std::size_t k = 0; k < n; ++k) {
      video::DecodeResult r = decoder.decode_frame(
          stream.width, stream.height,
          video::ReceivedFrameData::intact(stream.frames[k].data),
          k == 0 ? nullptr : &out.frames.back());
      out.standalone.push_back(r.header_ok && r.is_i &&
                               r.decoded_macroblocks == r.total_macroblocks);
      out.mse.push_back(video::luma_mse(clip[k], r.frame));
      out.frames.push_back(std::move(r.frame));
    }
  });
  return lazy_lossless->decode;
}

namespace {

/// Every byte of the frame arrived readable and equals what was sent.  A
/// wrong key fails the comparison, so its garbage still goes through the
/// decoder.
bool arrived_whole(const video::ReceivedFrameData& received,
                   const std::vector<std::uint8_t>& sent) {
  return received.data == sent &&
         std::find(received.byte_ok.begin(), received.byte_ok.end(), false) ==
             received.byte_ok.end();
}

}  // namespace

StreamScore score_stream(const Workload& workload,
                         const std::vector<video::ReceivedFrameData>& frames) {
  const std::size_t n = workload.clip.size();
  if (frames.size() != n || n == 0) {
    throw std::invalid_argument{"score_stream: frame count mismatch or empty"};
  }
  const LosslessDecode& lossless = workload.lossless();
  const video::Decoder decoder{workload.codec};
  video::Frame decoded;                    // the decoder's last output.
  const video::Frame* previous = nullptr;  // the previous output frame.
  bool previous_lossless = false;          // previous == &lossless.frames[k-1].
  // Sums in frame order, as sequence_psnr and sequence_mos add them.
  double mse_sum = 0.0;
  double mos_sum = 0.0;
  const int width = workload.stream.width;
  const int height = workload.stream.height;
  for (std::size_t k = 0; k < n; ++k) {
    double mse = 0.0;
    if ((previous_lossless || lossless.standalone[k]) &&
        arrived_whole(frames[k], workload.stream.frames[k].data)) {
      previous = &lossless.frames[k];
      previous_lossless = true;
      mse = lossless.mse[k];
    } else {
      const std::optional<video::FrameHeader> header =
          video::read_frame_header(width, height, frames[k]);
      previous_lossless = false;
      if (!header && previous != nullptr) {
        // The decoder would output a copy of the previous output: score
        // that frame where it is (it shows frame k - 1, not frame k).
        mse = video::luma_mse(workload.clip[k], *previous);
      } else {
        decoded = decoder
                      .decode_frame(width, height, frames[k], previous, header)
                      .frame;
        previous = &decoded;
        mse = video::luma_mse(workload.clip[k], decoded);
      }
    }
    mse_sum += mse;
    mos_sum += video::mos_from_psnr(video::psnr_from_mse(mse));
  }
  return {video::psnr_from_mse(mse_sum / static_cast<double>(n)),
          mos_sum / static_cast<double>(n)};
}

double default_sensitivity(video::MotionLevel motion) {
  switch (motion) {
    case video::MotionLevel::kLow: return 0.35;
    case video::MotionLevel::kMedium: return 0.50;
    case video::MotionLevel::kHigh: return 0.65;
  }
  return 0.6;
}

Workload build_workload(video::MotionLevel motion, int gop_size, int frames,
                        std::uint64_t seed, double fps,
                        util::ThreadPool* pool) {
  if (frames < gop_size) {
    throw std::invalid_argument{"build_workload: need at least one GOP"};
  }
  Workload w;
  w.motion = motion;
  w.fps = fps;
  w.codec.gop_size = gop_size;
  // Crude one-pass rate control, standing in for x264's: faster content
  // gets a coarser inter quantizer so the bitrate grows sublinearly with
  // motion (paper clips were encoded at comparable rates).
  switch (motion) {
    case video::MotionLevel::kLow: w.codec.p_qstep = 14.0; break;
    case video::MotionLevel::kMedium: w.codec.p_qstep = 18.0; break;
    case video::MotionLevel::kHigh: w.codec.p_qstep = 24.0; break;
  }

  const video::SceneGenerator scene{video::SceneParameters::preset(motion),
                                    seed};
  w.clip = scene.render_clip(frames, pool);

  // The encoder reports each frame's reconstruction MSE; its
  // reconstruction is what a decode of the intact stream yields, so the
  // coding distortion floor needs no second decode.
  std::vector<double> recon_mse;
  const video::Encoder encoder{w.codec};
  w.stream = encoder.encode(w.clip, pool, &recon_mse);
  w.packets = net::packetize(w.stream, w.arena, net::kDefaultMtu, fps);
  {
    double mse = 0.0;
    for (const double m : recon_mse) mse += m;
    w.base_mse = mse / static_cast<double>(w.clip.size());
  }

  // Case-3 reference: content against the decoder's blank mid-gray output.
  {
    video::Frame gray(w.stream.width, w.stream.height);
    gray.fill(128, 128, 128);
    double mse = 0.0;
    for (const auto& f : w.clip) mse += video::luma_mse(f, gray);
    w.null_mse = mse / static_cast<double>(w.clip.size());
  }

  // Fit the distance-distortion curve (Fig. 2 procedure) on this content,
  // out to a GOP's worth of frames so the saturation value reflects the
  // staleness a lost I-frame actually produces.
  const int max_distance =
      std::min<int>(gop_size, static_cast<int>(w.clip.size()) - 1);
  w.inter = distortion::DistanceDistortion::fit(
      distortion::measure_substitution_distortion(w.clip, max_distance, pool),
      5);
  return w;
}

ExperimentResult run_experiment(const ExperimentSpec& spec,
                                const Workload& workload,
                                util::ThreadPool* pool) {
  if (spec.repetitions < 1) {
    throw std::invalid_argument{"run_experiment: repetitions < 1"};
  }
  ExperimentResult result;
  result.label = spec.policy.label();

  // Apply the policy's packet selection and encrypt for real — on the
  // flow's private clone, so the shared workload's plaintext stays intact.
  const Flow flow{workload, spec.policy, spec.seed};
  const std::vector<net::VideoPacket>& packets = flow.packets();
  result.encryption = net::encryption_stats(packets);

  PipelineConfig pipeline = spec.pipeline;
  pipeline.algorithm = spec.policy.algorithm;

  // Repetitions are mutually independent: each draws its own seed from
  // (spec.seed, rep), reads only shared const state, and writes only its
  // own slot.  The fold below then merges the slots in repetition order
  // (see util::RunningStats::merge), so a pooled run is bit-identical to
  // the serial one at any thread count.
  struct RepOutcome {
    bool ok = false;
    TransferResult transfer;
    util::RunningStats delay_ms, duration_s, power_w;
    util::RunningStats rx_psnr, rx_mos, ev_psnr, ev_mos;
    std::vector<FailureEvent> failures;
  };
  std::vector<RepOutcome> reps(static_cast<std::size_t>(spec.repetitions));

  // Instrumented runs (tracing or stage aggregation) execute serially so
  // the trace stream and the collector's contents are deterministic.
  const bool instrumented = spec.trace != nullptr || spec.collect_stage_stats;
  StageStatsCollector collector;

  auto run_rep = [&](std::size_t index) {
    RepOutcome& out = reps[index];
    const int rep = static_cast<int>(index);
    std::optional<StampTraceSink> stamp;
    if (instrumented) {
      stamp.emplace(spec.trace,
                    spec.collect_stage_stats ? &collector : nullptr, rep);
    }
    // A repetition that dies on a degraded network is recorded as a
    // FailureEvent and skipped; the survivors still produce statistics.
    TransferResult transfer;
    try {
      transfer = simulate_transfer(
          pipeline, packets,
          spec.seed * 7919 + static_cast<std::uint64_t>(rep),
          stamp ? &*stamp : nullptr);
    } catch (const std::exception&) {
      FailureEvent failure;
      failure.kind = FailureEvent::Kind::kException;
      failure.repetition = rep;
      out.failures.push_back(failure);
      return;
    }
    out.ok = true;
    for (FailureEvent f : transfer.failures) {
      f.repetition = rep;
      out.failures.push_back(f);
    }

    out.delay_ms.add(transfer.mean_delay_ms());
    out.duration_s.add(transfer.duration_s);

    const energy::EnergyBreakdown energy = energy::transfer_energy(
        spec.pipeline.device.power_coefficients(spec.policy.algorithm),
        transfer.duration_s, transfer.encrypted_payload_bytes,
        transfer.airtime_s);
    out.power_w.add(energy::mean_power_w(energy, transfer.duration_s));

    if (spec.evaluate_quality) {
      // Legitimate receiver: decrypts what it gets.
      const StreamScore rx = score_stream(
          workload, flow.frames(transfer.receiver_delivered, /*decrypt=*/true));
      out.rx_psnr.add(rx.psnr_db);
      out.rx_mos.add(rx.mos);

      // Eavesdropper: overhears, cannot decrypt.
      const StreamScore ev = score_stream(
          workload,
          flow.frames(transfer.eavesdropper_captured, /*decrypt=*/false));
      out.ev_psnr.add(ev.psnr_db);
      out.ev_mos.add(ev.mos);
    }
    out.transfer = std::move(transfer);
  };

  util::parallel_for(instrumented ? nullptr : pool, reps.size(), run_rep);
  if (spec.collect_stage_stats) result.stage_stats = collector.stats;

  // Deterministic fold in repetition order.
  const TransferResult* first_transfer = nullptr;
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

  // Every repetition failed: return what we have (the failure record)
  // rather than crashing the caller's whole sweep.
  if (first_transfer == nullptr) return result;

  // Calibrate the analytic model on the first transfer (Section 6.1) and
  // attach its predictions.
  const TrafficCalibration traffic = calibrate_traffic(
      packets, first_transfer->timings, workload.fps, /*sample_packets=*/0);
  const ServiceCalibration service =
      calibrate_service(packets, first_transfer->timings, pipeline, traffic);

  const double q_i = spec.policy.i_packet_fraction();
  const double q_p = spec.policy.p_packet_fraction();
  result.predicted_delay = predict_delay(traffic, service, q_i, q_p);
  result.predicted_power = predict_power(
      pipeline.device, spec.policy.algorithm, traffic, service, q_i, q_p);

  const DistortionInputs di =
      distortion_inputs_of(workload, spec.sensitivity_fraction);

  const bool tcp = pipeline.transport == Transport::kHttpTcp;
  // Per-packet delivery rates at each node.  Under the reliable transport
  // the receiver eventually gets (essentially) everything and the
  // eavesdropper benefits from overhearing the retransmissions.
  const double p_s_rx =
      tcp ? 1.0 : 1.0 - pipeline.receiver_loss_prob;
  double p_s_ev = 1.0 - pipeline.eavesdropper_loss_prob;
  if (tcp) {
    const double mean_attempts =
        1.0 / (1.0 - pipeline.receiver_loss_prob);
    p_s_ev = 1.0 - std::pow(pipeline.eavesdropper_loss_prob, mean_attempts);
  }
  result.predicted_receiver =
      predict_distortion(di, traffic, p_s_rx, 0.0, 0.0);
  result.predicted_eavesdropper =
      predict_distortion(di, traffic, p_s_ev, q_i, q_p);
  return result;
}

}  // namespace tv::core
