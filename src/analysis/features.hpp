// Ciphertext-only feature extraction from eavesdropped captures.
//
// The traffic-analysis adversary (docs/adversary.md) never reads video
// bytes: everything here is computed from packet lengths, capture
// timing, and the RTP header fields an open-WiFi snooper sees in clear —
// sequence numbers, timestamps, the marker bit (the paper's "payload is
// encrypted" flag) and the padding bit.  Schmitt et al. (PAPERS.md) show
// this metadata is enough to infer video structure; these features are
// the raw material for analysis::infer_stream.
#pragma once

#include <cstdint>
#include <vector>

#include "net/pcap.hpp"

namespace tv::analysis {

/// One packet as the adversary saw it on the wire.
struct PacketObservation {
  double capture_time_s = 0.0;
  std::int64_t extended_sequence = 0;  ///< unwrapped 16-bit sequence.
  std::uint32_t rtp_timestamp = 0;
  std::size_t wire_payload_bytes = 0;  ///< RTP payload length as heard.
  /// The adversary's best guess at the content length: a readable pad
  /// trailer (P bit set, marker clear, consistent count) is stripped;
  /// encrypted or inconsistent trailers leave the wire length standing.
  std::size_t inferred_content_bytes = 0;
  bool marker = false;
  bool padding_bit = false;
};

/// Packets grouped by RTP timestamp: one video frame's fragments.
struct FrameObservation {
  std::uint32_t rtp_timestamp = 0;
  std::int64_t first_sequence = 0;  ///< lowest extended sequence seen.
  std::size_t packet_count = 0;
  std::size_t wire_bytes = 0;      ///< sum of wire payload lengths.
  std::size_t inferred_bytes = 0;  ///< sum of inferred content lengths.
  double marker_fraction = 0.0;    ///< fraction of packets with marker set.
  double first_time_s = 0.0;
  double last_time_s = 0.0;
};

/// Everything the adversary measured from one capture.
struct CaptureFeatures {
  std::vector<PacketObservation> packets;  ///< sequence order, deduplicated.
  std::vector<FrameObservation> frames;    ///< ordered by first sequence.
  double capture_start_s = 0.0;
  double capture_end_s = 0.0;
  /// Sequence-gap accounting: the span covered by the observed extended
  /// sequences tells the snooper how many packets it missed.
  std::size_t expected_packets = 0;
  double loss_rate_est = 0.0;
  double marker_fraction = 0.0;      ///< visible-encryption fingerprint.
  double padding_bit_fraction = 0.0; ///< shaping fingerprint.

  [[nodiscard]] double capture_span_s() const {
    return capture_end_s - capture_start_s;
  }
};

/// Extract features from a capture's overheard datagrams (the live tap's
/// record, or net::extract_rtp of a pcap file).  Datagrams that do not
/// parse as RTP are skipped, exactly like extract_rtp skips non-RTP
/// frames.  Duplicate sequences keep the first observation; packets are
/// re-ordered by extended sequence.  Deterministic: a pure function of
/// the input.
[[nodiscard]] CaptureFeatures extract_features(
    const std::vector<net::RawCapture>& captures);

}  // namespace tv::analysis
