// Fragmentation of encoded frames into RTP packets, selective encryption,
// and receiver/eavesdropper reassembly.
//
// This is the byte-level heart of Fig. 3: the sender fragments each encoded
// frame into MTU-sized RTP packets, encrypts the payloads selected by the
// active policy (OFB per packet, marker bit set), and transmits.  The
// legitimate receiver decrypts marked packets; the eavesdropper must treat
// them as erasures.
//
// Buffer ownership (docs/architecture.md "Buffer ownership"): a packet
// does not own its bytes.  packetize() serializes each packet's wire
// image — 12-byte RTP header immediately followed by the payload — into
// the caller's util::Arena exactly once; VideoPacket::payload is a
// PacketBuf view into that region.  Everything downstream (crypto,
// pipeline stages, fault injector, pcap, live sender) reads or rewrites
// those bytes in place; nothing re-serializes.  Copying a VideoPacket
// copies the view — use clone_packets() for an independent mutable copy
// (each experiment/flow encrypts its own clone).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "crypto/block_cipher.hpp"
#include "net/packet_buf.hpp"
#include "net/rtp.hpp"
#include "util/arena.hpp"
#include "video/codec.hpp"

namespace tv::net {

/// One RTP packet of video payload plus the metadata the simulators and
/// models need (frame type, fragment position, encryption state).
struct VideoPacket {
  std::uint16_t sequence = 0;   ///< RTP sequence number.
  std::uint32_t timestamp = 0;  ///< RTP timestamp (90 kHz).
  int frame_index = 0;
  int fragment_index = 0;       ///< position of this fragment in its frame.
  int fragment_count = 0;       ///< total fragments of the frame.
  std::size_t byte_offset = 0;  ///< payload's offset within the frame data.
  bool is_i_frame = false;
  bool encrypted = false;       ///< RTP marker bit (mirrored in the wire).
  std::size_t pad_bytes = 0;    ///< RFC 3550 pad trailer length appended by
                                ///< pad_to_bucket (0 = unpadded); the wire
                                ///< header's P bit mirrors pad_bytes > 0.
  PacketBuf payload;            ///< view into arena-owned wire bytes.

  /// Bytes on the wire including RTP + UDP + IPv4 headers.
  [[nodiscard]] std::size_t wire_bytes() const {
    return payload.size() + RtpHeader::kSize + kIpUdpOverhead;
  }

  /// The serialized RTP header this packet's metadata describes (what
  /// allocate_payload writes into the wire region).
  [[nodiscard]] RtpHeader header() const {
    RtpHeader h;
    h.marker = encrypted;
    h.padding = pad_bytes > 0;
    h.sequence_number = sequence;
    h.timestamp = timestamp;
    h.ssrc = kDefaultSsrc;
    return h;
  }

  /// Payload bytes that are video content (padding excluded).
  [[nodiscard]] std::size_t content_size() const {
    return payload.size() - pad_bytes;
  }

  /// Allocate this packet's wire region from `arena` and fill the payload
  /// with `bytes` (or `fill`).  Serializes header() into the region;
  /// call after the metadata fields are set.
  void allocate_payload(util::Arena& arena,
                        std::span<const std::uint8_t> bytes);
  void allocate_payload(util::Arena& arena, std::size_t size,
                        std::uint8_t fill = 0);
};

/// Split every frame of an encoded stream into RTP packets with payloads of
/// at most max_payload(mtu) bytes, serialized wire-format into `arena`.
/// Timestamps advance at 90 kHz / fps.
[[nodiscard]] std::vector<VideoPacket> packetize(
    const video::EncodedStream& stream, util::Arena& arena,
    std::size_t mtu = kDefaultMtu, double fps = 30.0);

/// An independent mutable copy of a packet stream: fresh wire bytes in
/// `arena`, same metadata.  Experiments clone the shared workload before
/// encrypting so per-flow keystreams never alias.
[[nodiscard]] std::vector<VideoPacket> clone_packets(
    std::span<const VideoPacket> packets, util::Arena& arena);

/// Traffic-shaping countermeasure (docs/adversary.md): grow every payload
/// to the next multiple of `bucket` bytes with an RFC 3550 pad trailer,
/// re-serializing the affected wire regions into `arena`.  Targets are
/// clamped to max_payload(mtu); payloads already on a bucket boundary (or
/// empty) stay untouched.  Call *before* encrypt_selected so the trailer —
/// and with it the true length — is hidden inside the ciphertext of
/// encrypted packets.  bucket == 0 is a no-op; buckets above
/// kMaxRtpPadding + 1 throw (the one-byte pad count cannot express them).
void pad_to_bucket(std::vector<VideoPacket>& packets, util::Arena& arena,
                   std::size_t bucket, std::size_t mtu = kDefaultMtu);

/// Encrypt the payloads of the packets selected by `selected` (same length
/// as `packets`) with per-packet OFB keystreams derived from `flow_iv` and
/// the RTP sequence number, and set their marker bits — in place, both in
/// the metadata and in the serialized wire header.
void encrypt_selected(std::vector<VideoPacket>& packets,
                      const std::vector<bool>& selected,
                      const crypto::BlockCipher& cipher,
                      std::span<const std::uint8_t> flow_iv);

/// The legitimate receiver's view of `packets`: each encrypted payload is
/// copied into `arena` and decrypted there with the keystream
/// encrypt_selected applied, then marked clear (metadata and wire marker).
/// Clear packets keep viewing their own wire bytes.  So
/// reassemble(image, delivered, n, nullptr, {}) equals
/// reassemble(packets, delivered, n, &cipher, flow_iv) for every mask.
[[nodiscard]] std::vector<VideoPacket> decrypt_packets(
    std::span<const VideoPacket> packets, const crypto::BlockCipher& cipher,
    std::span<const std::uint8_t> flow_iv, util::Arena& arena);

/// Marker-hiding countermeasure: clear the wire marker bit on every
/// packet while leaving the `encrypted` metadata intact.  The legitimate
/// receiver learns the encryption flags out-of-band from the StreamMap
/// (live::reassemble_wire with markers_hidden); the adversary loses its
/// per-packet "this one is encrypted" oracle.  Call after
/// encrypt_selected.
void hide_wire_markers(std::vector<VideoPacket>& packets);

/// Aggregate encryption statistics for a packetized, policy-applied stream.
struct EncryptionStats {
  std::size_t total_packets = 0;
  std::size_t encrypted_packets = 0;
  std::size_t total_payload_bytes = 0;
  std::size_t encrypted_payload_bytes = 0;

  /// q(P): fraction of packets encrypted under the policy (Section 4.3).
  [[nodiscard]] double packet_fraction() const {
    return total_packets > 0 ? static_cast<double>(encrypted_packets) /
                                   static_cast<double>(total_packets)
                             : 0.0;
  }
  [[nodiscard]] double byte_fraction() const {
    return total_payload_bytes > 0
               ? static_cast<double>(encrypted_payload_bytes) /
                     static_cast<double>(total_payload_bytes)
               : 0.0;
  }
};

[[nodiscard]] EncryptionStats encryption_stats(
    const std::vector<VideoPacket>& packets);

/// Rebuild per-frame byte availability from the packets a node captured.
///
/// `delivered[i]` says whether packet i survived the channel for this node.
/// If `cipher` is non-null the node can decrypt marked payloads (legitimate
/// receiver); otherwise marked payloads are unusable erasures even when the
/// bytes were overheard (eavesdropper, Section 3 threat model).
[[nodiscard]] std::vector<video::ReceivedFrameData> reassemble(
    const std::vector<VideoPacket>& packets,
    const std::vector<bool>& delivered, int frame_count,
    const crypto::BlockCipher* cipher,
    std::span<const std::uint8_t> flow_iv);

}  // namespace tv::net
