// End-to-end experiment runner: Section 6's methodology in one call.
//
// A Workload (clip + encoded stream + packetization) is built once per
// (motion level, GOP size) configuration; each experiment applies a policy,
// simulates `repetitions` transfers (the paper uses 20), reconstructs the
// video at the legitimate receiver and at the eavesdropper, and reports
// means with 95% confidence intervals next to the analytic predictions.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/device_profile.hpp"
#include "core/pipeline.hpp"
#include "core/predictor.hpp"
#include "policy/policy.hpp"
#include "util/arena.hpp"
#include "util/stats.hpp"
#include "video/codec.hpp"
#include "video/scene.hpp"

namespace tv::util {
class ThreadPool;
}

namespace tv::crypto {
class BlockCipher;
}

namespace tv::core {

/// The decode of a workload's intact stream, frame by frame.
struct LosslessDecode {
  video::FrameSequence frames;  ///< the decoder's output.
  std::vector<double> mse;      ///< each frame's luma MSE against the clip.
  /// standalone[k]: frame k is an I-frame whose every macroblock decoded,
  /// so its intact decode reads no reference and follows any frame.
  std::vector<bool> standalone;
};

/// A reusable, deterministic video workload.
///
/// Move-only: `arena` owns the wire bytes of `packets`, which are views
/// (net::PacketBuf) into it.  Nothing mutates the workload's packets: each
/// core::Flow encrypts its own clone.
struct Workload {
  video::MotionLevel motion = video::MotionLevel::kLow;
  video::CodecConfig codec;
  double fps = 30.0;
  video::FrameSequence clip;            ///< original YUV frames.
  video::EncodedStream stream;          ///< compressed IPP...P stream.
  util::Arena arena;                    ///< owns the packets' wire bytes.
  std::vector<net::VideoPacket> packets;  ///< plaintext packetization.
  double base_mse = 0.0;  ///< coding distortion of a lossless decode.
  double null_mse = 0.0;  ///< content MSE vs. a blank (gray) decode.
  distortion::DistanceDistortion inter;  ///< fitted D(d) for this content.

  /// The intact stream's decode, built on the first call (safe from any
  /// number of threads at once) and kept.  Only score_stream asks for it,
  /// so a workload that is never scored never holds its frames.  Call it
  /// once the fields above are final.
  [[nodiscard]] const LosslessDecode& lossless() const;

  /// lossless()'s lazy state.  A default member initializer, so a
  /// workload filled in field by field gets it too.
  struct LazyLossless {
    std::once_flag built;
    LosslessDecode decode;
  };
  std::unique_ptr<LazyLossless> lazy_lossless =
      std::make_unique<LazyLossless>();
};

/// Generate, encode, packetize and characterize a clip.  Deterministic in
/// `seed`.  `frames` should be a multiple of the GOP size (Table 1 clips
/// are 300 frames at 30 fps).  With `pool`, the render, the encode's
/// macroblock rows and the distance fit run on it; the workload is
/// bit-identical to the serial build.
[[nodiscard]] Workload build_workload(video::MotionLevel motion,
                                      int gop_size, int frames,
                                      std::uint64_t seed, double fps = 30.0,
                                      util::ThreadPool* pool = nullptr);

/// A received stream's quality against the original clip.
struct StreamScore {
  double psnr_db = 0.0;  ///< sequence PSNR (eq. 28) of the mean luma MSE.
  double mos = 0.0;      ///< EvalVid MOS: per-frame bands, averaged.
};

/// Decode received frame data with the workload's codec and score it.
/// Bit-identical to Decoder::decode_stream followed by video::sequence_psnr
/// and video::sequence_mos, at the cost of the damage: a frame that arrived
/// whole (every byte readable and equal to the sent byte) is the lossless
/// decode's frame, with its cached MSE, whenever the previous output is
/// the lossless one too or the frame is standalone.  The decoder runs from
/// a GOP's first damaged frame until the next such frame, against the
/// previous output; only that frame is kept.  A frame whose header does
/// not read repeats the previous output, which is scored where it is
/// (no decode, no copy).  Throws std::invalid_argument
/// unless `frames` has one entry per clip frame.
[[nodiscard]] StreamScore score_stream(
    const Workload& workload,
    const std::vector<video::ReceivedFrameData>& frames);

/// Deterministic per-flow IV sized for the cipher.  A sender and a
/// receiver that share (algorithm, seed) agree on the keystream without
/// any wire exchange (the out-of-band key-setup assumption of Section 3).
[[nodiscard]] std::vector<std::uint8_t> flow_iv_for(
    const crypto::BlockCipher& cipher, std::uint64_t seed);

/// The analytic distortion model's per-content inputs (Section 4.4) for a
/// workload: its GOP geometry, coding and no-reference distortion, and
/// fitted D(d).
[[nodiscard]] DistortionInputs distortion_inputs_of(
    const Workload& workload, double sensitivity_fraction);

/// One flow of a workload under a policy: the sender's wire image and what
/// each listener rebuilds from it (Fig. 3).  Construction clones the
/// workload's packets into the flow's own arena, pads them to
/// `shaping.pad_bucket_bytes` (so the pad trailer ends up inside the
/// ciphertext), then encrypts the policy's selection under the key and IV
/// both ends derive from (policy.algorithm, seed).  The workload must
/// outlive the flow; a const Flow may be decoded from several threads.
class Flow {
 public:
  /// Throws std::invalid_argument on an invalid `shaping`.
  Flow(const Workload& workload, const policy::EncryptionPolicy& policy,
       std::uint64_t seed, const policy::ShapingPolicy& shaping = {});

  /// The wire packets: what simulate_transfer prices and a sender sends.
  [[nodiscard]] const std::vector<net::VideoPacket>& packets() const {
    return packets_;
  }
  /// The flow key and IV, for a receiver of live datagrams
  /// (live::reassemble_wire).
  [[nodiscard]] const crypto::BlockCipher& cipher() const { return *cipher_; }
  [[nodiscard]] std::span<const std::uint8_t> iv() const { return iv_; }

  /// Make the wire image what `transfer` sent: packets it degraded under
  /// queue pressure go out in clear (plaintext restored, pad trailer
  /// re-written, marker cleared).  With `shaping.hide_markers` every wire
  /// marker is cleared; the `encrypted` metadata keeps the truth.  Drops
  /// the receiver's decrypted image of the old wire.
  void ship(const TransferResult& transfer);

  /// The frame data a listener that heard `delivered` rebuilds.  The
  /// receiver decrypts; to the eavesdropper (`decrypt` false) encrypted
  /// payloads are erasures.  The receiver reassembles from a decrypted
  /// image of the wire packets (net::decrypt_packets under the flow's key
  /// and IV), built on its first call and kept until ship(), so a flow
  /// scored over many repetitions runs its cipher over each packet once.
  [[nodiscard]] std::vector<video::ReceivedFrameData> frames(
      const std::vector<bool>& delivered, bool decrypt) const;
  /// frames() through the workload's decoder, every frame kept (for
  /// callers that write or show the frames; scoring uses score_stream).
  [[nodiscard]] video::FrameSequence decode(const std::vector<bool>& delivered,
                                            bool decrypt) const;

 private:
  /// The wire packets with every encrypted payload decrypted, built on the
  /// first call (safe from any number of threads at once).
  [[nodiscard]] const std::vector<net::VideoPacket>& decrypted() const;

  const Workload& workload_;
  bool hide_markers_;
  util::Arena arena_;
  std::vector<net::VideoPacket> packets_;
  std::unique_ptr<crypto::BlockCipher> cipher_;
  std::vector<std::uint8_t> iv_;

  /// decrypted()'s lazy state; ship() replaces it.
  struct DecryptedImage {
    std::once_flag built;
    util::Arena arena;  ///< owns the decrypted payloads.
    std::vector<net::VideoPacket> packets;
  };
  std::unique_ptr<DecryptedImage> decrypted_ =
      std::make_unique<DecryptedImage>();
};

/// What a single experiment should measure.
struct ExperimentSpec {
  policy::EncryptionPolicy policy;
  PipelineConfig pipeline;
  int repetitions = 20;
  std::uint64_t seed = 1;
  bool evaluate_quality = true;  ///< decode at receiver + eavesdropper.
  /// Decoder sensitivity fraction used by the analytic distortion model;
  /// pick by motion level (fast content tolerates almost no loss).
  double sensitivity_fraction = 0.6;
  /// Optional per-packet stage tracing: every stage of every repetition's
  /// transfer emits TraceEvents (stamped with the repetition index) into
  /// this sink.  Instrumented runs execute their repetitions serially so
  /// the event stream is deterministic.
  TraceSink* trace = nullptr;
  /// Collect per-stage aggregates (event counts, time statistics,
  /// histograms) into ExperimentResult::stage_stats.  Also serializes the
  /// repetition loop.  Off by default: results and outputs are then
  /// byte-identical to an uninstrumented build.
  bool collect_stage_stats = false;
};

struct ExperimentResult {
  std::string label;
  net::EncryptionStats encryption;

  // Resilience accounting.  A repetition that fails mid-flight is
  // recorded (kind + time + packet index + repetition) instead of
  // aborting the whole experiment; the statistics below then cover the
  // repetitions that produced data.
  std::vector<FailureEvent> failures;
  std::size_t total_retransmissions = 0;
  std::size_t total_deadline_drops = 0;
  std::size_t total_outage_drops = 0;
  std::size_t total_degraded_packets = 0;
  int completed_repetitions = 0;  ///< repetitions that yielded statistics.
  int failed_repetitions = 0;     ///< repetitions that threw.

  // Measured (across repetitions).
  util::RunningStats delay_ms;            ///< mean per-packet delay per rep.
  util::RunningStats receiver_psnr_db;
  util::RunningStats eavesdropper_psnr_db;
  util::RunningStats receiver_mos;
  util::RunningStats eavesdropper_mos;
  util::RunningStats power_w;
  util::RunningStats duration_s;

  // Analytic predictions from the calibrated model.
  DelayPrediction predicted_delay;
  DistortionPrediction predicted_receiver;
  DistortionPrediction predicted_eavesdropper;
  PowerPrediction predicted_power;

  /// Per-stage aggregates over all completed repetitions; present only
  /// when ExperimentSpec::collect_stage_stats was set.
  std::optional<StageAggregates> stage_stats;
};

/// Run one experiment configuration against a prebuilt workload.
///
/// When `pool` is non-null the repetition loop runs on it; each repetition
/// derives its own seed from `spec.seed` and its index, and the partial
/// per-repetition statistics are folded in repetition order, so the result
/// is bit-identical to the serial run at any thread count.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentSpec& spec,
                                              const Workload& workload,
                                              util::ThreadPool* pool = nullptr);

/// Default sensitivity fraction per motion level (calibrated so the model's
/// frame success tracks the slice-decoder's observed robustness).
[[nodiscard]] double default_sensitivity(video::MotionLevel motion);

}  // namespace tv::core
