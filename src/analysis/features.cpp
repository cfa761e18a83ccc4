#include "analysis/features.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <span>
#include <utility>

#include "net/rtp.hpp"

namespace tv::analysis {

namespace {

/// Unwrap a 16-bit wire sequence against the highest extended sequence
/// seen so far: the representative of `seq` closest to `last` (same
/// window arithmetic as net::Receiver, reimplemented here because the
/// adversary works from captures, not a socket).
std::int64_t unwrap_sequence(std::uint16_t seq, std::int64_t last) {
  const std::int64_t cycle = last >> 16;
  std::int64_t best = (cycle << 16) | seq;
  const std::int64_t lower = ((cycle - 1) << 16) | seq;
  const std::int64_t upper = ((cycle + 1) << 16) | seq;
  if (std::llabs(lower - last) < std::llabs(best - last)) best = lower;
  if (std::llabs(upper - last) < std::llabs(best - last)) best = upper;
  return best < 0 ? static_cast<std::int64_t>(seq) : best;
}

PacketObservation observe(double time_s, const net::RtpHeader& header,
                          std::span<const std::uint8_t> payload,
                          std::int64_t extended) {
  PacketObservation p;
  p.capture_time_s = time_s;
  p.extended_sequence = extended;
  p.rtp_timestamp = header.timestamp;
  p.wire_payload_bytes = payload.size();
  p.marker = header.marker;
  p.padding_bit = header.padding;
  // The adversary strips a pad trailer only when it can actually read
  // it: P bit set and the payload not flagged encrypted.  A marked
  // payload's trailer is ciphertext — the true length stays hidden.
  // When markers are hidden the snooper reads whatever garbage byte the
  // keystream left and either strips a bogus amount or (on an
  // inconsistent count) nothing: exactly the noise the countermeasure
  // is paid to create.
  p.inferred_content_bytes = payload.size();
  if (header.padding && !header.marker) {
    if (const auto content = net::rtp_unpadded_size(header, payload)) {
      p.inferred_content_bytes = *content;
    }
  }
  return p;
}

}  // namespace

CaptureFeatures extract_features(const std::vector<net::RawCapture>& captures) {
  CaptureFeatures out;
  out.packets.reserve(captures.size());
  std::int64_t last = -1;  // no RTP packet seen yet.
  for (const net::RawCapture& cap : captures) {
    const auto header = net::RtpHeader::try_parse(cap.datagram);
    if (!header) continue;  // not RTP — same skip rule as net::extract_rtp.
    if (last < 0) last = header->sequence_number;
    const std::int64_t ext = unwrap_sequence(header->sequence_number, last);
    last = std::max(last, ext);
    out.packets.push_back(observe(
        cap.timestamp_s, *header,
        std::span{cap.datagram}.subspan(net::RtpHeader::kSize), ext));
  }
  if (out.packets.empty()) return out;

  // Deduplicate by extended sequence, keeping the first observation, and
  // order by sequence: frame grouping below then walks the stream in
  // media order regardless of capture reordering.
  std::stable_sort(out.packets.begin(), out.packets.end(),
                   [](const PacketObservation& a, const PacketObservation& b) {
                     return a.extended_sequence < b.extended_sequence;
                   });
  out.packets.erase(
      std::unique(out.packets.begin(), out.packets.end(),
                  [](const PacketObservation& a, const PacketObservation& b) {
                    return a.extended_sequence == b.extended_sequence;
                  }),
      out.packets.end());

  double start_s = out.packets.front().capture_time_s;
  double end_s = start_s;
  std::size_t marked = 0;
  std::size_t padded = 0;
  // Frames keyed by RTP timestamp; ordered map keeps them in media-clock
  // order, which equals first-sequence order for a single flow.
  std::map<std::uint32_t, FrameObservation> frames;
  for (const PacketObservation& p : out.packets) {
    start_s = std::min(start_s, p.capture_time_s);
    end_s = std::max(end_s, p.capture_time_s);
    if (p.marker) ++marked;
    if (p.padding_bit) ++padded;
    auto [it, inserted] = frames.try_emplace(p.rtp_timestamp);
    FrameObservation& f = it->second;
    if (inserted) {
      f.rtp_timestamp = p.rtp_timestamp;
      f.first_sequence = p.extended_sequence;
      f.first_time_s = p.capture_time_s;
      f.last_time_s = p.capture_time_s;
    }
    f.first_sequence = std::min(f.first_sequence, p.extended_sequence);
    f.first_time_s = std::min(f.first_time_s, p.capture_time_s);
    f.last_time_s = std::max(f.last_time_s, p.capture_time_s);
    ++f.packet_count;
    f.wire_bytes += p.wire_payload_bytes;
    f.inferred_bytes += p.inferred_content_bytes;
    f.marker_fraction += p.marker ? 1.0 : 0.0;
  }
  out.frames.reserve(frames.size());
  for (auto& [ts, f] : frames) {
    f.marker_fraction /= static_cast<double>(f.packet_count);
    out.frames.push_back(f);
  }
  std::sort(out.frames.begin(), out.frames.end(),
            [](const FrameObservation& a, const FrameObservation& b) {
              return a.first_sequence < b.first_sequence;
            });

  out.capture_start_s = start_s;
  out.capture_end_s = end_s;
  const std::int64_t span = out.packets.back().extended_sequence -
                            out.packets.front().extended_sequence + 1;
  out.expected_packets = static_cast<std::size_t>(span);
  out.loss_rate_est =
      1.0 - static_cast<double>(out.packets.size()) /
                static_cast<double>(out.expected_packets);
  out.marker_fraction = static_cast<double>(marked) /
                        static_cast<double>(out.packets.size());
  out.padding_bit_fraction = static_cast<double>(padded) /
                             static_cast<double>(out.packets.size());
  return out;
}

}  // namespace tv::analysis
