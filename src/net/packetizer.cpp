#include "net/packetizer.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "crypto/ofb.hpp"

namespace tv::net {

namespace {

// A flow's per-segment OFB keystream (Section 5): each payload is XORed
// with the stream re-seeded from the IV its sequence number derives, so
// applying it again restores the bytes.  One stream object serves a whole
// pass without reallocating its buffers per packet.
class SegmentKeystream {
 public:
  SegmentKeystream(const crypto::BlockCipher& cipher,
                   std::span<const std::uint8_t> flow_iv)
      : cipher_(cipher), flow_iv_(flow_iv), stream_(cipher) {}

  void apply(std::uint16_t sequence, std::span<std::uint8_t> bytes) {
    const std::span<std::uint8_t> iv{iv_.data(), cipher_.block_size()};
    crypto::segment_iv(cipher_, flow_iv_, sequence, iv);
    stream_.reset(iv);
    stream_.apply(bytes);
  }

 private:
  const crypto::BlockCipher& cipher_;
  std::span<const std::uint8_t> flow_iv_;
  crypto::OfbStream stream_;
  std::array<std::uint8_t, 16> iv_{};
};

}  // namespace

void VideoPacket::allocate_payload(util::Arena& arena,
                                   std::span<const std::uint8_t> bytes) {
  payload = PacketBuf::allocate(arena, header(), bytes.size());
  if (!bytes.empty()) {
    std::memcpy(payload.data(), bytes.data(), bytes.size());
  }
}

void VideoPacket::allocate_payload(util::Arena& arena, std::size_t size,
                                   std::uint8_t fill) {
  payload = PacketBuf::allocate(arena, header(), size);
  if (size > 0) std::memset(payload.data(), fill, size);
}

std::vector<VideoPacket> packetize(const video::EncodedStream& stream,
                                   util::Arena& arena, std::size_t mtu,
                                   double fps) {
  if (mtu <= kIpUdpOverhead + RtpHeader::kSize) {
    throw std::invalid_argument{"packetize: mtu too small"};
  }
  const std::size_t payload_max = max_payload(mtu);
  std::vector<VideoPacket> packets;
  std::uint16_t seq = 0;
  for (const video::EncodedFrame& frame : stream.frames) {
    const std::size_t size = frame.data.size();
    const int fragments =
        static_cast<int>((size + payload_max - 1) / payload_max);
    for (int f = 0; f < fragments; ++f) {
      VideoPacket p;
      p.sequence = seq++;
      p.timestamp = static_cast<std::uint32_t>(
          static_cast<double>(frame.index) * 90000.0 / fps);
      p.frame_index = frame.index;
      p.fragment_index = f;
      p.fragment_count = fragments;
      p.byte_offset = static_cast<std::size_t>(f) * payload_max;
      p.is_i_frame = frame.is_i;
      const std::size_t begin = p.byte_offset;
      const std::size_t end = std::min(begin + payload_max, size);
      p.allocate_payload(
          arena, std::span<const std::uint8_t>{frame.data.data() + begin,
                                               end - begin});
      packets.push_back(p);
    }
  }
  return packets;
}

std::vector<VideoPacket> clone_packets(std::span<const VideoPacket> packets,
                                       util::Arena& arena) {
  std::vector<VideoPacket> clones;
  clones.reserve(packets.size());
  for (const VideoPacket& p : packets) {
    VideoPacket c = p;
    const util::ByteView wire = p.payload.wire();
    if (!wire.empty()) {
      std::uint8_t* bytes = arena.allocate(wire.size(), /*align=*/1);
      std::memcpy(bytes, wire.data(), wire.size());
      c.payload = PacketBuf::from_wire({bytes, wire.size()});
    }
    clones.push_back(c);
  }
  return clones;
}

void pad_to_bucket(std::vector<VideoPacket>& packets, util::Arena& arena,
                   std::size_t bucket, std::size_t mtu) {
  if (bucket == 0) return;
  if (bucket < 2 || bucket > kMaxRtpPadding + 1) {
    throw std::invalid_argument{
        "pad_to_bucket: bucket must be in [2, 256] (one-byte pad count)"};
  }
  const std::size_t payload_max = max_payload(mtu);
  for (VideoPacket& p : packets) {
    const std::size_t content = p.payload.size();
    if (content == 0) continue;
    const std::size_t target =
        std::min(((content + bucket - 1) / bucket) * bucket, payload_max);
    if (target <= content) continue;  // already on a boundary (or at MTU).
    RtpHeader header = p.header();
    header.padding = true;
    PacketBuf padded = PacketBuf::allocate(arena, header, target);
    std::memcpy(padded.data(), p.payload.data(), content);
    if (!rtp_write_pad_trailer(padded, content)) {
      throw std::logic_error{"pad_to_bucket: trailer write failed"};
    }
    p.pad_bytes = target - content;
    p.payload = padded;
  }
}

void encrypt_selected(std::vector<VideoPacket>& packets,
                      const std::vector<bool>& selected,
                      const crypto::BlockCipher& cipher,
                      std::span<const std::uint8_t> flow_iv) {
  if (selected.size() != packets.size()) {
    throw std::invalid_argument{"encrypt_selected: selection size mismatch"};
  }
  SegmentKeystream keystream{cipher, flow_iv};
  for (std::size_t i = 0; i < packets.size(); ++i) {
    if (!selected[i]) continue;
    VideoPacket& p = packets[i];
    keystream.apply(p.sequence, p.payload);
    p.encrypted = true;
    p.payload.set_marker(true);
  }
}

std::vector<VideoPacket> decrypt_packets(std::span<const VideoPacket> packets,
                                         const crypto::BlockCipher& cipher,
                                         std::span<const std::uint8_t> flow_iv,
                                         util::Arena& arena) {
  SegmentKeystream keystream{cipher, flow_iv};
  std::vector<VideoPacket> clear(packets.begin(), packets.end());
  for (VideoPacket& p : clear) {
    if (!p.encrypted) continue;
    const util::ByteView wire = p.payload.wire();
    std::uint8_t* bytes = arena.allocate(wire.size(), /*align=*/1);
    std::memcpy(bytes, wire.data(), wire.size());
    p.payload = PacketBuf::from_wire({bytes, wire.size()});
    keystream.apply(p.sequence, p.payload);
    p.encrypted = false;
    p.payload.set_marker(false);
  }
  return clear;
}

void hide_wire_markers(std::vector<VideoPacket>& packets) {
  for (VideoPacket& p : packets) p.payload.set_marker(false);
}

EncryptionStats encryption_stats(const std::vector<VideoPacket>& packets) {
  EncryptionStats stats;
  for (const VideoPacket& p : packets) {
    ++stats.total_packets;
    stats.total_payload_bytes += p.payload.size();
    if (p.encrypted) {
      ++stats.encrypted_packets;
      stats.encrypted_payload_bytes += p.payload.size();
    }
  }
  return stats;
}

std::vector<video::ReceivedFrameData> reassemble(
    const std::vector<VideoPacket>& packets,
    const std::vector<bool>& delivered, int frame_count,
    const crypto::BlockCipher* cipher,
    std::span<const std::uint8_t> flow_iv) {
  if (delivered.size() != packets.size()) {
    throw std::invalid_argument{"reassemble: delivered size mismatch"};
  }
  // Frame sizes from fragment metadata.
  std::vector<std::size_t> frame_sizes(static_cast<std::size_t>(frame_count),
                                       0);
  for (const VideoPacket& p : packets) {
    if (p.frame_index < 0 || p.frame_index >= frame_count) {
      throw std::invalid_argument{"reassemble: frame index out of range"};
    }
    frame_sizes[static_cast<std::size_t>(p.frame_index)] =
        std::max(frame_sizes[static_cast<std::size_t>(p.frame_index)],
                 p.byte_offset + p.content_size());
  }
  std::vector<video::ReceivedFrameData> frames;
  frames.reserve(static_cast<std::size_t>(frame_count));
  for (int i = 0; i < frame_count; ++i) {
    frames.push_back(video::ReceivedFrameData::lost(
        frame_sizes[static_cast<std::size_t>(i)]));
  }
  std::optional<SegmentKeystream> keystream;
  if (cipher != nullptr) keystream.emplace(*cipher, flow_iv);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    if (!delivered[i]) continue;
    const VideoPacket& p = packets[i];
    if (p.encrypted && cipher == nullptr) continue;  // erasure for snooper.
    // Only the content bytes in front of the pad trailer are video data.
    // An OFB keystream byte depends only on its position in the segment,
    // so decrypting the content alone yields the same bytes.
    const std::size_t size = p.content_size();
    auto& frame = frames[static_cast<std::size_t>(p.frame_index)];
    const std::span<std::uint8_t> content{frame.data.data() + p.byte_offset,
                                          size};
    std::copy_n(p.payload.begin(), size, content.begin());
    if (p.encrypted) keystream->apply(p.sequence, content);
    const auto at = static_cast<std::ptrdiff_t>(p.byte_offset);
    std::fill_n(frame.byte_ok.begin() + at, size, true);
  }
  return frames;
}

}  // namespace tv::net
