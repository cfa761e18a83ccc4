// Stream metadata shared out-of-band between live roles.
//
// On the wire a live datagram is only RTP header + payload: fragment
// geometry (frame index, byte offset, fragment counts) is sender-side
// knowledge, exactly as an RTP receiver would learn it from a session
// description.  A StreamMap captures that geometry from the packetized
// stream so the receiver and eavesdropper can rebuild per-frame byte
// availability from whatever subset of datagrams actually arrived —
// with payload bytes and marker bits taken from the wire, not from the
// sender's copy.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/experiment.hpp"
#include "crypto/block_cipher.hpp"
#include "net/packetizer.hpp"
#include "net/receiver.hpp"
#include "video/codec.hpp"

namespace tv::live {

/// Per-packet geometry, indexed by offset from the first sequence number.
struct StreamSlot {
  std::uint32_t timestamp = 0;
  int frame_index = 0;
  int fragment_index = 0;
  int fragment_count = 0;
  std::size_t byte_offset = 0;
  std::size_t payload_size = 0;  ///< wire payload incl. any pad trailer.
  std::size_t pad_bytes = 0;     ///< RFC 3550 pad trailer length.
  bool is_i_frame = false;
  bool encrypted = false;  ///< out-of-band copy of the encryption flag —
                           ///< the marker-hiding countermeasure's channel
                           ///< (wire markers stay clear; docs/adversary.md).
};

class StreamMap {
 public:
  /// Capture the geometry of a packetized (and policy-encrypted) stream.
  [[nodiscard]] static StreamMap of(
      const std::vector<net::VideoPacket>& packets, int frame_count);

  /// Map an extended sequence number (net::Receiver's unwrapped counter)
  /// to a packet index, or std::nullopt for sequences outside the stream.
  [[nodiscard]] std::optional<std::size_t> index_of(
      std::int64_t extended_sequence) const;

  [[nodiscard]] std::size_t packet_count() const { return slots_.size(); }
  [[nodiscard]] int frame_count() const { return frame_count_; }
  [[nodiscard]] const StreamSlot& slot(std::size_t index) const {
    return slots_[index];
  }

 private:
  std::vector<StreamSlot> slots_;
  std::uint16_t base_sequence_ = 0;
  int frame_count_ = 0;
};

/// The per-flow IV derivation core::run_experiment uses, so a live sender
/// and a live receiver that share (algorithm, seed) agree on the keystream.
using core::flow_iv_for;

/// Rebuild per-frame byte availability from packets received off the wire.
///
/// Wire-faithful: payload bytes and the marker ("payload is encrypted")
/// bit come from the received datagrams; only geometry comes from the
/// map.  A null `cipher` models the eavesdropper — marked payloads are
/// erasures even though the bytes were overheard.  Received payloads are
/// truncated to the slot's size if a fault lengthened them; short
/// payloads (truncation faults) contribute only the bytes that arrived.
///
/// With `markers_hidden` (the marker-hiding countermeasure) the wire
/// marker bits are clear on every datagram; the encryption flag comes
/// from the map's out-of-band slots instead, so the legitimate receiver
/// still decrypts exactly the right payloads while the wire shows the
/// adversary nothing.  Pad trailers recorded in the map are stripped
/// after decryption either way.
[[nodiscard]] std::vector<video::ReceivedFrameData> reassemble_wire(
    const StreamMap& map, const std::vector<net::ReceivedPacket>& received,
    const crypto::BlockCipher* cipher, std::span<const std::uint8_t> flow_iv,
    bool markers_hidden = false);

}  // namespace tv::live
