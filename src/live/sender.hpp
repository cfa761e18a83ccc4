// Live sender session: paced RTP/UDP emission of a packetized stream.
//
// The sender owns nothing clever on the wire — a datagram is RTP header
// (marker bit = "payload is encrypted", Section 5) plus the payload the
// packetizer/policy produced.  What it does own is pacing: each packet
// goes out at a scheduled send time derived from the 2-MMPP/G/1 service
// law (T_e + T_b + T_t), either replayed from an in-memory transfer's
// per-packet completion times or drawn fresh from core::ServiceModel.
// Pacing is enforced with event-loop deadline timers — a token bucket
// with one token per service completion — never with sleeps.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/pipeline.hpp"
#include "core/trace.hpp"
#include "live/event_loop.hpp"
#include "live/udp.hpp"
#include "net/packetizer.hpp"

namespace tv::live {

/// Per-packet send times from an in-memory transfer: the completion time
/// of each packet's service (encryption + backoff + air time), so the
/// live flow reproduces the simulated pacing exactly.
[[nodiscard]] std::vector<double> schedule_from_timings(
    const std::vector<core::PacketTiming>& timings);

/// Release and send instants for a supervised client session: packet i
/// enters the session's send queue at `arrival_s[i]` (producer release)
/// and completes service — goes on the air — at `send_s[i]`.  The gap
/// between the two is the queue pressure the supervisor's shedding and
/// degradation hooks act on.
struct PacedSchedule {
  std::vector<double> arrival_s;
  std::vector<double> send_s;
};

/// The schedule drawn fresh from the service model: producer release
/// (frame cadence + read latency + jitter) followed by one
/// encrypt/backoff/transmit service round per packet, no channel loss.
/// Its `send_s` paces a standalone `live send` when no simulation ran.
[[nodiscard]] PacedSchedule paced_schedule_from_service_model(
    const core::PipelineConfig& config,
    const std::vector<net::VideoPacket>& packets, std::uint64_t seed,
    core::TraceSink* trace = nullptr);

/// Timing-jitter countermeasure (docs/adversary.md): add a seeded
/// half-normal offset |N(0, sigma^2)| to every send time, in place.
/// Offsets are non-negative — a packet never leaves before its service
/// completed — and packets are deliberately NOT re-sorted: occasional
/// local reordering is part of the obfuscation and the receiver already
/// handles it.  No-op when sigma <= 0.
void jitter_schedule(std::vector<double>& send_times_s, double stddev_s,
                     std::uint64_t seed);

/// Mean extra per-packet delay jitter_schedule adds: sigma * sqrt(2/pi)
/// (the mean of a half-normal) — the delay cost the leakage report
/// charges the jitter knob.
[[nodiscard]] double jitter_mean_delay_s(double stddev_s);

struct SenderConfig {
  Endpoint destination;
  std::uint32_t ssrc = 0x74561D01;
  core::TraceSink* trace = nullptr;  ///< optional; zero overhead when null.
};

struct SenderReport {
  std::size_t packets_sent = 0;
  std::size_t datagram_bytes_sent = 0;  ///< RTP header + payload bytes.
  std::size_t encrypted_packets = 0;
  std::size_t kernel_retries = 0;  ///< transient sendto refusals, retried.
  double first_send_s = 0.0;
  double last_send_s = 0.0;
};

/// Streams `packets` to `destination` over `socket`, one timer per send
/// time.  The packet list must outlive the session; the session is done
/// (on_done fired) when every packet has been handed to the kernel.
class SenderSession {
 public:
  SenderSession(EventLoop& loop, UdpSocket& socket, SenderConfig config,
                const std::vector<net::VideoPacket>& packets,
                std::vector<double> send_times,
                std::function<void(const SenderReport&)> on_done = {});

  /// Arm one deadline timer per packet.  Call once.
  void start();

  [[nodiscard]] const SenderReport& report() const { return report_; }

 private:
  void send_packet(std::size_t index);

  EventLoop& loop_;
  UdpSocket& socket_;
  SenderConfig config_;
  const std::vector<net::VideoPacket>& packets_;
  std::vector<double> send_times_;
  std::function<void(const SenderReport&)> on_done_;
  std::vector<std::uint8_t> buffer_;  ///< reused per-datagram scratch.
  SenderReport report_;
  std::size_t remaining_ = 0;
};

}  // namespace tv::live
