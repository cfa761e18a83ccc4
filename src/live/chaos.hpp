// Seeded chaos harness for the live layer.
//
// The simulation already has channel hostility (Gilbert-Elliott bursts,
// AP outage windows, FaultInjector bit damage); what it cannot express
// is the *socket surface* misbehaving: sendto() returning EAGAIN under
// memory pressure, short writes, EINTR storms interrupting receive
// loops, a receiver process stalling, a client dying mid-stream.  The
// ChaosPlan composes both families under one seed, and ChaosSocket
// wraps a UdpSocket so a session under test experiences them exactly
// where production code would — at the send/receive call sites — while
// staying byte-reproducible.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "live/event_loop.hpp"
#include "live/impairment.hpp"
#include "live/udp.hpp"
#include "util/rng.hpp"
#include "wifi/gilbert_elliott.hpp"

namespace tv::live {

/// Everything that can go wrong in one run, declaratively.  Fault
/// probabilities are independent per call; all draws come from RNGs
/// forked off the single seed handed to the harness, so the same plan +
/// seed reproduces the same damage byte for byte.  The inherited plan is
/// the network's faults on the data path (uplink).
struct ChaosPlan : ImpairmentPlan {
  // fd-level faults at the socket surface.
  double eagain_prob = 0.0;      ///< sendto reports EAGAIN; nothing sent.
  double short_send_prob = 0.0;  ///< kernel accepts a truncated datagram.
  double spurious_wakeup_prob = 0.0;  ///< receive returns empty (EINTR storm).

  // control-plane and application-level faults.
  double ctrl_drop_prob = 0.0;  ///< server's control replies vanish.
  double kill_prob = 0.0;       ///< session dies mid-stream, no goodbye.
  std::vector<wifi::OutageWindow> stalls;  ///< receiver stops processing.

  [[nodiscard]] bool any_egress_fault() const {
    return eagain_prob > 0.0 || short_send_prob > 0.0 || faults.has_value() ||
           channel.has_value() || !outages.empty();
  }

  void validate() const;  ///< throws std::invalid_argument on bad values.
};

/// Parse a chaos spec like
///   "eagain=0.2,short=0.05,spurious=0.1,drop=0.05,corrupt=0.02,
///    truncate=0.01,dup=0.02,loss=0.1,burst=4,ctrl-drop=0.3,kill=0.1,
///    outage=2:0.5;8:0.25,stall=4:1"
/// (whitespace-free; window lists use ';' between START:DURATION pairs).
/// Throws std::invalid_argument naming the offending key.
[[nodiscard]] ChaosPlan chaos_plan_from_string(const std::string& spec);

/// What the harness actually injected (per wrapped socket).
struct ChaosStats {
  std::size_t sends = 0;              ///< send attempts seen.
  std::size_t eagain_injected = 0;
  std::size_t short_sends_injected = 0;
  std::size_t spurious_wakeups = 0;
  std::size_t dropped = 0;            ///< outage + burst + fault drops.
  std::size_t damaged = 0;            ///< corrupt/truncate applied.
  std::size_t duplicated = 0;
};

/// Chaos wrapper over a UdpSocket's data path.  Egress faults are
/// decided before the kernel sees the datagram: an injected EAGAIN or
/// short write surfaces through the same SendOutcome the real kernel
/// would use, a drop is reported as kSent (channel loss is invisible to
/// a sender), and bit damage rewrites the bytes on the way out.
class ChaosSocket {
 public:
  /// The plan and socket must outlive the wrapper.
  ChaosSocket(EventLoop& loop, UdpSocket& socket, const ChaosPlan& plan,
              std::uint64_t seed);

  SendOutcome send_to(const Endpoint& to, std::span<const std::uint8_t> payload);
  [[nodiscard]] std::optional<Datagram> receive();

  [[nodiscard]] const ChaosStats& stats() const { return stats_; }
  [[nodiscard]] int fd() const noexcept { return socket_.fd(); }
  [[nodiscard]] UdpSocket& socket() noexcept { return socket_; }

 private:
  EventLoop& loop_;
  UdpSocket& socket_;
  const ChaosPlan& plan_;
  util::Rng egress_rng_;
  util::Rng ingress_rng_;
  Impairment impairment_;
  ChaosStats stats_;
  std::vector<std::uint8_t> scratch_;  ///< reused per-send damage buffer.
};

}  // namespace tv::live
