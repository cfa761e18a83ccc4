#include "live/stream_map.hpp"

#include <stdexcept>

namespace tv::live {

StreamMap StreamMap::of(const std::vector<net::VideoPacket>& packets,
                        int frame_count) {
  if (packets.empty()) {
    throw std::invalid_argument{"StreamMap::of: empty stream"};
  }
  StreamMap map;
  map.base_sequence_ = packets.front().sequence;
  map.frame_count_ = frame_count;
  map.slots_.reserve(packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const net::VideoPacket& p = packets[i];
    const auto expected = static_cast<std::uint16_t>(
        map.base_sequence_ + static_cast<std::uint16_t>(i));
    if (p.sequence != expected) {
      throw std::invalid_argument{"StreamMap::of: non-contiguous sequences"};
    }
    StreamSlot slot;
    slot.timestamp = p.timestamp;
    slot.frame_index = p.frame_index;
    slot.fragment_index = p.fragment_index;
    slot.fragment_count = p.fragment_count;
    slot.byte_offset = p.byte_offset;
    slot.payload_size = p.payload.size();
    slot.pad_bytes = p.pad_bytes;
    slot.is_i_frame = p.is_i_frame;
    slot.encrypted = p.encrypted;
    map.slots_.push_back(slot);
  }
  return map;
}

std::optional<std::size_t> StreamMap::index_of(
    std::int64_t extended_sequence) const {
  // net::Receiver's extended sequence is cycle*65536 + wire sequence with
  // the first packet landing in cycle 0, so the stream occupies the
  // contiguous range [base, base + count).
  const auto base = static_cast<std::int64_t>(base_sequence_);
  if (extended_sequence < base) return std::nullopt;
  const auto offset = static_cast<std::uint64_t>(extended_sequence - base);
  if (offset >= slots_.size()) return std::nullopt;
  return static_cast<std::size_t>(offset);
}

std::vector<video::ReceivedFrameData> reassemble_wire(
    const StreamMap& map, const std::vector<net::ReceivedPacket>& received,
    const crypto::BlockCipher* cipher, std::span<const std::uint8_t> flow_iv,
    bool markers_hidden) {
  // Build a full-geometry packet list so net::reassemble derives the same
  // frame sizes as the sender; undelivered slots keep zeroed payloads of
  // the right length and stay behind delivered=false.  One local arena
  // owns every payload for the duration of the reassembly.
  util::Arena arena;
  std::vector<net::VideoPacket> packets(map.packet_count());
  std::vector<bool> delivered(map.packet_count(), false);
  for (std::size_t i = 0; i < map.packet_count(); ++i) {
    const StreamSlot& slot = map.slot(i);
    net::VideoPacket& p = packets[i];
    p.sequence = static_cast<std::uint16_t>(0);  // filled for delivered ones.
    p.timestamp = slot.timestamp;
    p.frame_index = slot.frame_index;
    p.fragment_index = slot.fragment_index;
    p.fragment_count = slot.fragment_count;
    p.byte_offset = slot.byte_offset;
    p.is_i_frame = slot.is_i_frame;
    p.encrypted = false;
    p.pad_bytes = slot.pad_bytes;  // frame sizes count content bytes only.
    p.allocate_payload(arena, slot.payload_size, 0);
  }
  for (const net::ReceivedPacket& rx : received) {
    const auto index = map.index_of(rx.extended_sequence);
    if (!index) continue;  // not part of this stream.
    const StreamSlot& slot = map.slot(*index);
    net::VideoPacket& p = packets[*index];
    // Wire-faithful: bytes and marker from the datagram, geometry from
    // the map.  Oversized payloads (a fault grew the datagram) truncate
    // to the slot; short ones contribute only what arrived.
    p.sequence = rx.header.sequence_number;
    // Marker hiding: wire markers are deliberately clear, so the
    // encryption flag travels out-of-band in the map.
    p.encrypted = markers_hidden ? slot.encrypted : rx.header.marker;
    const std::span<const std::uint8_t> rx_payload = rx.payload();
    const std::size_t take = std::min(rx_payload.size(), slot.payload_size);
    // Truncation faults eat the pad trailer first: the surviving prefix
    // is content up to the slot's content size, padding after that.
    const std::size_t content_take =
        std::min(take, slot.payload_size - slot.pad_bytes);
    p.pad_bytes = take - content_take;
    p.payload = net::PacketBuf::from_wire(
        p.payload.wire().first(net::RtpHeader::kSize + take));
    if (take > 0) std::memcpy(p.payload.data(), rx_payload.data(), take);
    delivered[*index] = true;
  }
  return net::reassemble(packets, delivered, map.frame_count(), cipher,
                         flow_iv);
}

}  // namespace tv::live
