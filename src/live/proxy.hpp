// UDP impairment proxy: the testbed's "air".
//
// Sender → proxy → receiver, all real UDP, through one socket.  Every
// datagram the proxy hears is first offered to the eavesdropper tap (an
// attacker overhears the transmission, not the delivery), then to the
// receiver's live::Impairment (a replayed delivery mask, or outages, a
// Gilbert-Elliott chain and a fault plan), with a proxy-side holdback
// queue for reordering.  Survivors are forwarded to the receiver's
// endpoint.  Everything is driven by one seed.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "core/trace.hpp"
#include "live/eavesdropper.hpp"
#include "live/event_loop.hpp"
#include "live/impairment.hpp"
#include "live/udp.hpp"
#include "util/rng.hpp"

namespace tv::live {

/// The inherited plan is the receiver path's; a replay mask set through
/// impairment() overrides it.
struct ProxyConfig : ImpairmentPlan {
  Endpoint forward_to;
  std::uint64_t seed = 1;
  core::TraceSink* trace = nullptr;  ///< optional; zero overhead when null.
  /// When > 0: after this long with no datagrams, release holdbacks,
  /// unwatch, and let the loop wind down (real-time end of stream).
  double idle_timeout_s = 0.0;
};

struct ProxyReport {
  std::size_t heard = 0;      ///< datagrams in.
  std::size_t forwarded = 0;  ///< datagrams out (incl. duplicates).
  std::size_t dropped = 0;    ///< lost to mask/outage/channel/faults.
  std::size_t duplicated = 0;
  std::size_t reordered = 0;  ///< held back past a later datagram.
  std::size_t send_failures = 0;
};

class ImpairmentProxy {
 public:
  /// `tap` may be null (no eavesdropper on this network).  The tap and
  /// the socket, which both hears and forwards, must outlive the proxy.
  ImpairmentProxy(EventLoop& loop, UdpSocket& socket, ProxyConfig config,
                  EavesdropperTap* tap);

  /// The receiver's channel; Impairment::replay() sets a delivery mask.
  [[nodiscard]] Impairment& impairment() { return impairment_; }

  /// Start watching the ingress socket (and arm the idle deadline).
  void start();

  /// Release any held-back datagrams (end of stream).
  void flush();

  [[nodiscard]] const ProxyReport& report() const { return report_; }

 private:
  void on_readable();
  /// Impair and forward one datagram, damaging it in place — the caller's
  /// buffer (the pooled receive scratch) doubles as the damage buffer.
  void handle(std::vector<std::uint8_t>& datagram);
  void forward(std::span<const std::uint8_t> datagram);
  void arm_idle_deadline();

  EventLoop& loop_;
  UdpSocket& socket_;
  ProxyConfig config_;
  EavesdropperTap* tap_;
  Impairment impairment_;
  util::Rng reorder_rng_;
  std::deque<std::vector<std::uint8_t>> held_;
  ProxyReport report_;
  Datagram scratch_;  ///< pooled receive + in-place damage buffer.
  double last_arrival_s_ = 0.0;
  bool watching_ = false;
};

}  // namespace tv::live
