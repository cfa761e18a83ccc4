// Robust RTP receive path: reorder buffer, duplicate suppression,
// sequence-number wraparound, and non-throwing validation.
//
// The sender's packetizer emits clean, ordered packets; the network does
// not deliver them that way.  This receiver accepts raw datagrams in
// arrival order — possibly corrupted, truncated, duplicated or reordered
// (see net/fault_injector.hpp) — and releases valid packets in stream
// order.  Malformed input is counted and dropped, never thrown on: a
// cafe-WiFi capture must not be able to crash the pipeline.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <vector>

#include "net/rtp.hpp"

namespace tv::net {

struct ReceiverConfig {
  /// Packets held back waiting for a gap to fill before the receiver
  /// gives up on the missing ones and releases what it has.
  std::size_t reorder_capacity = 32;
};

/// A packet the receiver accepted, with its wraparound-corrected
/// (64-bit extended) sequence number.  Owns the full datagram bytes —
/// stored exactly once, moved (never re-copied) through the reorder
/// buffer and out of drain_ready_into()/flush_into(); `payload()` is a
/// view past the 12-byte header.
struct ReceivedPacket {
  std::int64_t extended_sequence = 0;
  RtpHeader header;
  std::vector<std::uint8_t> datagram;  ///< full wire bytes as heard.

  /// The payload region of the datagram (header parsed ⇒ size ≥ kSize).
  [[nodiscard]] std::span<const std::uint8_t> payload() const {
    return {datagram.data() + RtpHeader::kSize,
            datagram.size() - RtpHeader::kSize};
  }
};

struct ReceiverStats {
  std::size_t datagrams = 0;    ///< everything pushed.
  std::size_t accepted = 0;     ///< parsed and queued for release.
  std::size_t invalid = 0;      ///< runt datagrams / unparsable headers.
  std::size_t duplicates = 0;   ///< same sequence seen again.
  std::size_t reordered = 0;    ///< arrived behind a later packet, healed.
  std::size_t too_late = 0;     ///< behind the release point, dropped.
  std::size_t given_up = 0;     ///< gaps released past (missing packets).
};

/// Streaming receiver: push datagrams as they arrive, drain in-order
/// packets as they become releasable, flush at end of stream.
class Receiver {
 public:
  explicit Receiver(ReceiverConfig config = {});

  /// Feed one datagram as heard on the wire.  Never throws on content.
  /// Copies the bytes exactly once (on acceptance) into the stored
  /// ReceivedPacket.
  void push(std::span<const std::uint8_t> datagram);

  /// Zero-copy variant: adopt the caller's buffer outright.  The live
  /// receive path hands over the datagram it just read so accepted bytes
  /// are never copied at all.
  void push(std::vector<std::uint8_t>&& datagram);

  /// Packets releasable without giving up on any gap (consecutive run
  /// from the release point), appended to `out` in stream order.
  void drain_ready_into(std::vector<ReceivedPacket>& out);

  /// End of stream: release everything buffered, skipping gaps,
  /// appended to `out` in stream order.
  void flush_into(std::vector<ReceivedPacket>& out);

  /// drain_ready_into() / flush_into() into a fresh vector.
  [[nodiscard]] std::vector<ReceivedPacket> drain_ready();
  [[nodiscard]] std::vector<ReceivedPacket> flush();

  [[nodiscard]] const ReceiverStats& stats() const { return stats_; }

  /// Packets currently held (reorder buffer + released-but-undrained).
  /// The live server's overload detector keeps a running sum of this
  /// across sessions (live::Server::with_receiver).
  [[nodiscard]] std::size_t buffered() const {
    return buffer_.size() + ready_.size();
  }

 private:
  /// Map a 16-bit wire sequence onto the 64-bit extended sequence line,
  /// choosing the cycle that lands nearest the highest sequence seen
  /// (RFC 3550 appendix A.1 logic, tolerant of pre-wrap stragglers).
  [[nodiscard]] std::int64_t extend_sequence(std::uint16_t seq);

  /// Shared admission logic: header parse + duplicate/too-late checks.
  /// Returns false when the datagram must be dropped; on true the caller
  /// materializes the packet bytes and calls commit().
  [[nodiscard]] bool admit(std::span<const std::uint8_t> datagram,
                           std::int64_t* extended, RtpHeader* header);
  void commit(ReceivedPacket&& packet);

  ReceiverConfig config_;
  ReceiverStats stats_;
  std::map<std::int64_t, ReceivedPacket> buffer_;
  std::deque<ReceivedPacket> ready_;  ///< released by overflow, undrained.
  std::int64_t highest_seen_ = -1;   ///< highest extended sequence so far.
  std::int64_t next_release_ = -1;   ///< next extended sequence to release.
  bool started_ = false;
};

}  // namespace tv::net
