// The traffic-analysis adversary: quality inference from ciphertext-only
// features (docs/adversary.md).
//
// From the features of one capture the adversary estimates, without
// reading a single video byte:
//   * which frames are I-frames (size-contrast clustering — key frames
//     are the leak that matters, Sagatov et al. in PAPERS.md),
//   * the GOP size (modal spacing of detected I-frames),
//   * the motion class (P/I size ratio against the codec's signature),
//   * the bitrate and its trajectory (windowed bytes over capture time),
//   * the encrypted fraction (visible marker bits), and
//   * a PSNR proxy of what an eavesdropper effectively sees, by feeding
//     its own estimates into the paper's Section 4.3 GOP flow model with
//     content terms self-calibrated from a reference workload of the
//     estimated motion class.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/features.hpp"
#include "video/scene.hpp"

namespace tv::analysis {

/// Knobs of the inference procedure.  The defaults are what the CLI and
/// the leakage sweep use; they are part of the golden-pinned contract.
struct AdversaryConfig {
  double fps = 30.0;  ///< assumed frame cadence (90 kHz media clock).
  /// Bitrate-trajectory window; small enough that send-time jitter
  /// visibly smears bytes across window boundaries.
  double trajectory_window_s = 0.25;
  /// Frames are split I/P only when the cluster means are separated by
  /// at least this factor; below it the size contrast is considered
  /// flattened (e.g. by padding) and no I-frames are reported.
  double cluster_separation = 1.5;
};

/// One frame as the adversary labelled it.
struct FrameEstimate {
  std::uint32_t rtp_timestamp = 0;
  std::size_t packets = 0;
  std::size_t bytes = 0;  ///< inferred content bytes.
  bool is_i = false;
  double marker_fraction = 0.0;
};

struct InferenceResult {
  std::vector<FrameEstimate> frames;
  std::size_t i_frames_detected = 0;
  int gop_size_est = 0;  ///< 0 when fewer than two I-frames were found.
  video::MotionLevel motion_est = video::MotionLevel::kLow;
  double p_over_i_size_ratio = 0.0;  ///< the motion classifier's input.
  double mean_bitrate_bps = 0.0;     ///< inferred content bits / second.
  std::vector<double> trajectory_kbps;  ///< per-window inferred bitrate.
  double trajectory_window_s = 0.0;
  double encrypted_fraction_est = 0.0;  ///< from visible marker bits.
  double loss_rate_est = 0.0;
  double eavesdropper_psnr_db_est = 0.0;  ///< Section 4.3 proxy.
};

/// Run the full inference chain on one capture's features.  Pure in
/// (features, config) — byte-identical output at any thread count.
[[nodiscard]] InferenceResult infer_stream(const CaptureFeatures& features,
                                           const AdversaryConfig& config = {});

}  // namespace tv::analysis
