// Multi-session live server: one socket, N supervised sessions.
//
// The server half of the ROADMAP-3 "many contending uploaders" story.
// One UDP socket receives everything; datagrams demux by kind (control
// magic vs RTP version byte) and then by SSRC to a per-session
// net::Receiver.  Admission is a token budget: at most `max_sessions`
// concurrent sessions, and an overload latch — entered when the summed
// reassembly backlog crosses a high watermark — rejects new HELLOs while
// existing sessions drain.  Every admitted session is watched by an idle
// watchdog so an uploader that dies mid-stream (chaos kill, battery,
// walked out of AP range) is reaped and classified instead of leaking a
// session slot forever.  Receiver-side chaos (processing stalls,
// control-reply loss) lives here too, so the harness can exercise the
// client's retry ladder end to end.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "core/trace.hpp"
#include "live/event_loop.hpp"
#include "live/supervisor.hpp"
#include "live/udp.hpp"
#include "net/receiver.hpp"
#include "util/rng.hpp"
#include "wifi/gilbert_elliott.hpp"

namespace tv::live {

struct ServerConfig {
  Endpoint bind;  ///< default loopback, ephemeral port.
  std::size_t max_sessions = 64;  ///< admission token budget.

  /// Overload latch on the summed reassembly + stall backlog (datagrams):
  /// enter at `overload_high`, leave at `overload_low` (hysteresis so the
  /// latch does not flap at the boundary).
  std::size_t overload_high = 4096;
  std::size_t overload_low = 1024;

  double idle_timeout_s = 5.0;  ///< per-session silent-uploader watchdog.
  net::ReceiverConfig receiver;  ///< per-session reassembly knobs.

  // Receiver-side chaos (driven by the harness's seed):
  double ctrl_drop_prob = 0.0;  ///< control replies lost on the way out.
  std::vector<wifi::OutageWindow> stalls;  ///< processing stops; input queues.
  std::size_t stall_backlog_cap = 8192;    ///< deferred datagrams kept.

  std::uint64_t seed = 1;
  core::TraceSink* trace = nullptr;
};

struct ServerReport {
  std::size_t datagrams = 0;
  std::size_t hellos = 0;
  std::size_t admitted = 0;
  std::size_t rejected = 0;        ///< admission control said no.
  std::size_t closed = 0;          ///< orderly BYE.
  std::size_t watchdog_killed = 0; ///< reaped after idle_timeout_s.
  std::size_t unknown_ssrc = 0;    ///< unparsable or unadmitted data.
  std::size_t ctrl_drops = 0;      ///< chaos ate a control reply.
  std::size_t stall_deferred = 0;
  std::size_t stall_dropped = 0;   ///< stall backlog cap overflow.
  std::size_t max_backlog = 0;
  std::size_t overload_entries = 0;
};

/// Final accounting for one server-side session.
struct ServerSessionResult {
  std::uint32_t ssrc = 0;
  SessionState state = SessionState::kConnecting;
  SessionOutcome outcome = SessionOutcome::kPending;
  std::size_t expected_packets = 0;  ///< from HELLO.
  std::size_t reported_sent = 0;     ///< from BYE.
  net::ReceiverStats receiver;
  std::vector<net::ReceivedPacket> packets;  ///< in stream order.
};

class Server {
 public:
  Server(EventLoop& loop, ServerConfig config);

  /// Bind, watch, and arm the stall-window drains.  Call once.
  void start();

  [[nodiscard]] Endpoint endpoint() const;

  /// Flush every remaining receiver and return all sessions (by SSRC
  /// order).  Call after the loop finishes.
  [[nodiscard]] std::vector<ServerSessionResult> finish();

  [[nodiscard]] const ServerReport& report() const { return report_; }
  [[nodiscard]] std::size_t active_sessions() const { return active_; }
  [[nodiscard]] bool overloaded() const { return overloaded_; }

 private:
  struct Session {
    Endpoint peer;
    SessionState state = SessionState::kConnecting;
    SessionOutcome outcome = SessionOutcome::kPending;
    std::size_t expected_packets = 0;
    std::size_t reported_sent = 0;
    net::Receiver receiver;
    std::vector<net::ReceivedPacket> received;
    double last_heard_s = 0.0;
    bool watchdog_armed = false;
    EventLoop::TimerId watchdog = 0;

    explicit Session(const net::ReceiverConfig& config)
        : receiver(config) {}
  };

  void on_readable();
  void process(Datagram&& datagram);
  void handle_control(const ControlMsg& msg, const Endpoint& from);
  void handle_data(Datagram&& datagram);
  void send_control(ControlMsg::Type type, std::uint32_t ssrc,
                    const Endpoint& to);
  void close_session(std::uint32_t ssrc, Session& session, std::uint32_t aux);
  void arm_watchdog(std::uint32_t ssrc, Session& session);
  void drain_deferred();
  /// The one place a session receiver's buffered() changes: applies
  /// `op(session.receiver, session.received)` and moves `buffered_` by
  /// the receiver's buffered() difference.
  template <typename Op>
  void with_receiver(Session& session, Op op);
  void update_backlog();
  [[nodiscard]] std::size_t backlog() const {
    return deferred_.size() + buffered_;
  }
  void trace_event(const char* kind, std::uint32_t ssrc, double value);

  EventLoop& loop_;
  ServerConfig config_;
  UdpSocket socket_;
  util::Rng ctrl_rng_;
  std::map<std::uint32_t, Session> sessions_;
  std::deque<Datagram> deferred_;  ///< datagrams queued during a stall.
  /// Sum of receiver.buffered() over every session, kept exact by
  /// with_receiver() so backlog() never rescans sessions_.
  std::size_t buffered_ = 0;
  std::size_t active_ = 0;
  bool overloaded_ = false;
  ServerReport report_;
};

}  // namespace tv::live
