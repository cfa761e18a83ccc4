// Block-transform video codec with an IPP...P GOP structure.
//
// This is the from-scratch substitute for the paper's x264/GPAC toolchain
// (DESIGN.md Section 2).  It reproduces the structural properties the
// models depend on:
//   * I-frames are intra-coded and large (fragment into many MTU packets);
//   * P-frames are motion-compensated against the previous reconstructed
//     frame and shrink/grow with content motion;
//   * each frame is coded as independently decodable macroblock-row slices,
//     so losing (or failing to decrypt) part of a frame degrades rather
//     than destroys it — this is what gives the decoder a "sensitivity"
//     in the sense of Section 4.3 of the paper;
//   * a frame whose header packet is missing is undecodable, and P-frames
//     decoded against concealed references drift, exactly the mechanism
//     behind the paper's reference-substitution distortion model.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "video/frame.hpp"

namespace tv::util {
class ThreadPool;
}

namespace tv::video {

/// Encoder tuning knobs.  Defaults give CIF I-frames of roughly 8-20 kB and
/// slow-motion P-frames of tens to hundreds of bytes, matching the size
/// ratios quoted in Sections 2 and 4.2 of the paper.
struct CodecConfig {
  int gop_size = 30;        ///< frames per GOP (Table 1: 30 or 50).
  double i_qstep = 14.0;    ///< quantizer step for intra blocks.
  double p_qstep = 18.0;    ///< quantizer step for inter residuals.
};

/// One compressed frame.
struct EncodedFrame {
  int index = 0;      ///< display/encode order (no B-frames).
  bool is_i = false;  ///< true for intra (GOP-leading) frames.
  std::vector<std::uint8_t> data;

  [[nodiscard]] std::size_t size_bytes() const { return data.size(); }
};

/// A compressed clip.
struct EncodedStream {
  CodecConfig config;
  int width = 0;
  int height = 0;
  std::vector<EncodedFrame> frames;

  [[nodiscard]] std::size_t total_bytes() const;
  /// Mean size of I-frames / P-frames in bytes (0 if none).
  [[nodiscard]] double mean_i_bytes() const;
  [[nodiscard]] double mean_p_bytes() const;
};

/// What a receiver ends up with for one frame after transmission: which
/// byte ranges of the compressed frame are present and readable.  A byte is
/// readable when its packet was received *and* was either unencrypted or
/// the receiver can decrypt it.
struct ReceivedFrameData {
  std::vector<std::uint8_t> data;  ///< full-length buffer (zeros where missing).
  std::vector<bool> byte_ok;       ///< per-byte availability, same length.

  /// Completely missing frame.
  [[nodiscard]] static ReceivedFrameData lost(std::size_t size);
  /// Perfect copy.
  [[nodiscard]] static ReceivedFrameData intact(std::vector<std::uint8_t> bytes);

  [[nodiscard]] bool range_ok(std::size_t begin, std::size_t end) const;
};

/// Sum of absolute differences between the 16x16 luma block at (bx, by)
/// of `cur` and the block at (bx + dx, by + dy) of `ref`, reads clamped to
/// `ref`'s edges: the motion search's cost.  Exact integer arithmetic.
[[nodiscard]] int sad_16x16(const Frame& cur, const Frame& ref, int bx, int by,
                            int dx, int dy);

class Encoder {
 public:
  explicit Encoder(CodecConfig config);

  /// Encode a clip into an IPP...P stream.  Frames must share dimensions.
  /// With `pool`, the GOPs (closed: each opens on an intra frame) are
  /// coded side by side on it, and so are each frame's macroblock rows
  /// (independent slices); the stream is the same either way.
  /// `recon_mse`, when given, receives one value per frame: the luma MSE
  /// of the encoder's reconstruction against the source, which is what a
  /// decode of the intact stream scores.
  [[nodiscard]] EncodedStream encode(
      const FrameSequence& clip, util::ThreadPool* pool = nullptr,
      std::vector<double>* recon_mse = nullptr) const;

 private:
  CodecConfig config_;
};

/// What a readable frame header tells the decoder.
struct FrameHeader {
  bool is_i = false;  ///< intra frame.
  /// Byte range [slice_begin[r], slice_end[r]) of macroblock row r's slice.
  std::vector<std::size_t> slice_begin;
  std::vector<std::size_t> slice_end;
};

/// Read `received`'s header for a width x height stream.  std::nullopt
/// when a header byte is missing, the header names another size, or its
/// slice table overruns the data: the decoder then conceals the whole
/// frame as a copy of its reference.
[[nodiscard]] std::optional<FrameHeader> read_frame_header(
    int width, int height, const ReceivedFrameData& received);

/// Per-frame decode outcome.
struct DecodeResult {
  Frame frame;
  int total_macroblocks = 0;
  int decoded_macroblocks = 0;  ///< MBs decoded from bits (not concealed).
  bool header_ok = false;
  bool is_i = false;  ///< the header says intra (valid when header_ok).

  [[nodiscard]] double decoded_fraction() const {
    return total_macroblocks > 0
               ? static_cast<double>(decoded_macroblocks) / total_macroblocks
               : 0.0;
  }
};

class Decoder {
 public:
  explicit Decoder(CodecConfig config);

  /// Decode one frame of a width x height stream from possibly incomplete
  /// data.  `reference` is the previously displayed frame (nullptr only
  /// before the first frame) and has the stream's size (else
  /// std::invalid_argument).  Slices whose bytes are missing are concealed
  /// from the reference (or mid-gray when there is none).  The caller, not
  /// the header, fixes the size: a header naming any other size is a bad
  /// header, and the frame is concealed at the stream's size.
  [[nodiscard]] DecodeResult decode_frame(int width, int height,
                                          const ReceivedFrameData& received,
                                          const Frame* reference) const;
  /// The same, with `header` = read_frame_header(width, height, received)
  /// already read by the caller.
  [[nodiscard]] DecodeResult decode_frame(
      int width, int height, const ReceivedFrameData& received,
      const Frame* reference, const std::optional<FrameHeader>& header) const;

  /// Decode a whole transmitted width x height stream with loss
  /// concealment: a frame whose header is unreadable is replaced by the
  /// previous output frame (the paper's frame-copy concealment), and later
  /// P-frames keep decoding against the concealed output (drift).
  [[nodiscard]] FrameSequence decode_stream(
      int width, int height,
      const std::vector<ReceivedFrameData>& frames) const;

 private:
  CodecConfig config_;
};

}  // namespace tv::video
