#include "live/server.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "net/rtp.hpp"

namespace tv::live {

Server::Server(EventLoop& loop, ServerConfig config)
    : loop_(loop),
      config_(std::move(config)),
      ctrl_rng_{util::derive_seed(config_.seed, 0x5e97e7, 0, 0)} {
  if (config_.overload_low > config_.overload_high) {
    throw std::invalid_argument{"Server: overload_low > overload_high"};
  }
  if (config_.max_sessions == 0) {
    throw std::invalid_argument{"Server: max_sessions == 0"};
  }
}

void Server::start() {
  socket_.bind(config_.bind);
  socket_.set_receive_buffer(1 << 22);
  loop_.watch_readable(socket_.fd(), [this] { on_readable(); });
  // One drain per stall window end: everything deferred while the
  // receiver was wedged is processed the instant it recovers.
  for (const wifi::OutageWindow& stall : config_.stalls) {
    loop_.schedule_at(stall.end_s(), [this] { drain_deferred(); });
  }
}

Endpoint Server::endpoint() const { return socket_.local_endpoint(); }

void Server::on_readable() {
  while (auto datagram = socket_.receive()) {
    ++report_.datagrams;
    if (wifi::in_outage(config_.stalls, loop_.now_s())) {
      // Receiver stall: the kernel socket is still drained (so chaos
      // runs stay deterministic instead of racing the kernel buffer)
      // but processing is deferred to the window end, bounded by the
      // stall backlog cap with drop-oldest shedding.
      if (deferred_.size() >= config_.stall_backlog_cap) {
        deferred_.pop_front();
        ++report_.stall_dropped;
        trace_event("srv_stall_shed", 0, static_cast<double>(deferred_.size()));
      }
      deferred_.push_back(std::move(*datagram));
      ++report_.stall_deferred;
      update_backlog();
      continue;
    }
    process(std::move(*datagram));
  }
}

void Server::drain_deferred() {
  while (!deferred_.empty()) {
    Datagram datagram = std::move(deferred_.front());
    deferred_.pop_front();
    process(std::move(datagram));
  }
  update_backlog();
}

void Server::process(Datagram&& datagram) {
  if (const auto msg = ControlMsg::try_parse(datagram.payload)) {
    handle_control(*msg, datagram.from);
    return;
  }
  handle_data(std::move(datagram));
  update_backlog();
}

void Server::handle_control(const ControlMsg& msg, const Endpoint& from) {
  switch (msg.type) {
    case ControlMsg::Type::kHello: {
      ++report_.hellos;
      const auto it = sessions_.find(msg.ssrc);
      if (it != sessions_.end()) {
        // Retransmitted HELLO (our ACCEPT was lost): answer idempotently
        // as long as the session is not dead.
        if (it->second.state == SessionState::kConnecting ||
            it->second.state == SessionState::kStreaming) {
          send_control(ControlMsg::Type::kAccept, msg.ssrc, from);
        }
        return;
      }
      if (active_ >= config_.max_sessions || overloaded_) {
        ++report_.rejected;
        trace_event("srv_reject", msg.ssrc,
                    static_cast<double>(active_));
        send_control(ControlMsg::Type::kReject, msg.ssrc, from);
        return;
      }
      const auto slot =
          sessions_.emplace(msg.ssrc, Session{config_.receiver}).first;
      Session& session = slot->second;
      session.peer = from;
      session.expected_packets = msg.aux;
      session.last_heard_s = loop_.now_s();
      ++active_;
      ++report_.admitted;
      trace_event("srv_admit", msg.ssrc, static_cast<double>(active_));
      arm_watchdog(msg.ssrc, session);
      send_control(ControlMsg::Type::kAccept, msg.ssrc, from);
      return;
    }
    case ControlMsg::Type::kBye: {
      const auto it = sessions_.find(msg.ssrc);
      if (it == sessions_.end()) return;
      Session& session = it->second;
      session.last_heard_s = loop_.now_s();
      if (session.state == SessionState::kClosed) {
        // Duplicate BYE: our ACK was lost; just re-ACK.
        send_control(ControlMsg::Type::kByeAck, msg.ssrc, from);
        return;
      }
      if (session.state == SessionState::kConnecting ||
          session.state == SessionState::kStreaming) {
        close_session(msg.ssrc, session, msg.aux);
        send_control(ControlMsg::Type::kByeAck, msg.ssrc, from);
      }
      return;
    }
    case ControlMsg::Type::kAccept:
    case ControlMsg::Type::kReject:
    case ControlMsg::Type::kByeAck:
      return;  // client-bound; a client never sends these.
  }
}

template <typename Op>
void Server::with_receiver(Session& session, Op op) {
  const std::size_t before = session.receiver.buffered();
  std::invoke(op, session.receiver, session.received);
  buffered_ = buffered_ - before + session.receiver.buffered();
}

void Server::handle_data(Datagram&& datagram) {
  const auto header = net::RtpHeader::try_parse(datagram.payload);
  if (!header) {
    // Unparsable datagram: without an SSRC there is no session to
    // charge it to.  Count and move on — hostile input must never
    // throw (net::Receiver's contract, kept at the demux layer too).
    ++report_.unknown_ssrc;
    return;
  }
  const auto it = sessions_.find(header->ssrc);
  if (it == sessions_.end()) {
    ++report_.unknown_ssrc;
    return;
  }
  Session& session = it->second;
  if (session.state == SessionState::kClosed ||
      session.state == SessionState::kFailed) {
    return;  // stragglers after close are not an error.
  }
  if (session.state == SessionState::kConnecting) {
    session.state = SessionState::kStreaming;
    trace_event("srv_streaming", header->ssrc, 0.0);
  }
  session.last_heard_s = loop_.now_s();
  with_receiver(session, [&](net::Receiver& receiver,
                             std::vector<net::ReceivedPacket>& received) {
    receiver.push(std::move(datagram.payload));
    receiver.drain_ready_into(received);
  });
}

void Server::close_session(std::uint32_t ssrc, Session& session,
                           std::uint32_t aux) {
  session.state = SessionState::kDraining;
  with_receiver(session, &net::Receiver::flush_into);
  session.reported_sent = aux;
  session.state = SessionState::kClosed;
  session.outcome = SessionOutcome::kCompleted;
  if (session.watchdog_armed) {
    loop_.cancel(session.watchdog);
    session.watchdog_armed = false;
  }
  --active_;
  ++report_.closed;
  trace_event("srv_bye", ssrc, static_cast<double>(session.received.size()));
  update_backlog();
}

void Server::arm_watchdog(std::uint32_t ssrc, Session& session) {
  session.watchdog_armed = true;
  session.watchdog = loop_.schedule_at(
      session.last_heard_s + config_.idle_timeout_s, [this, ssrc] {
        const auto it = sessions_.find(ssrc);
        if (it == sessions_.end()) return;
        Session& s = it->second;
        s.watchdog_armed = false;
        if (s.state == SessionState::kClosed ||
            s.state == SessionState::kFailed) {
          return;
        }
        // Compare against the recomputed deadline, never `now - last_heard`:
        // the virtual clock jumps to exactly `last_heard + idle_timeout`,
        // and in floating point `(a + b) - a` can round below `b`, which
        // would re-arm the watchdog at an already-past deadline and spin
        // the loop forever at a frozen virtual time.
        const double deadline = s.last_heard_s + config_.idle_timeout_s;
        if (deadline <= loop_.now_s()) {
          // Silent uploader: reap it so the admission token comes back.
          with_receiver(s, &net::Receiver::flush_into);
          s.state = SessionState::kFailed;
          s.outcome = SessionOutcome::kWatchdogKilled;
          --active_;
          ++report_.watchdog_killed;
          trace_event("srv_watchdog_killed", ssrc,
                      loop_.now_s() - s.last_heard_s);
          update_backlog();
          return;
        }
        arm_watchdog(ssrc, s);  // heard from since; roll the deadline.
      });
}

void Server::send_control(ControlMsg::Type type, std::uint32_t ssrc,
                          const Endpoint& to) {
  if (config_.ctrl_drop_prob > 0.0 &&
      ctrl_rng_.bernoulli(config_.ctrl_drop_prob)) {
    ++report_.ctrl_drops;
    return;  // chaos ate the reply; the client's retry ladder covers it.
  }
  ControlMsg msg;
  msg.type = type;
  msg.ssrc = ssrc;
  (void)socket_.send_to(to, msg.serialize());
}

void Server::update_backlog() {
  const std::size_t depth = backlog();
  report_.max_backlog = std::max(report_.max_backlog, depth);
  if (!overloaded_ && depth >= config_.overload_high) {
    overloaded_ = true;
    ++report_.overload_entries;
    trace_event("srv_overload_enter", 0, static_cast<double>(depth));
  } else if (overloaded_ && depth <= config_.overload_low) {
    overloaded_ = false;
    trace_event("srv_overload_exit", 0, static_cast<double>(depth));
  }
}

std::vector<ServerSessionResult> Server::finish() {
  drain_deferred();
  std::vector<ServerSessionResult> results;
  results.reserve(sessions_.size());
  for (auto& [ssrc, session] : sessions_) {
    if (session.state == SessionState::kConnecting ||
        session.state == SessionState::kStreaming) {
      with_receiver(session, &net::Receiver::flush_into);
    }
    ServerSessionResult result;
    result.ssrc = ssrc;
    result.state = session.state;
    result.outcome = session.outcome;
    result.expected_packets = session.expected_packets;
    result.reported_sent = session.reported_sent;
    result.receiver = session.receiver.stats();
    result.packets = std::move(session.received);
    results.push_back(std::move(result));
  }
  return results;
}

void Server::trace_event(const char* kind, std::uint32_t ssrc, double value) {
  if (config_.trace == nullptr) return;
  config_.trace->event({core::Stage::kTransport, kind,
                        static_cast<std::int64_t>(ssrc), 0, loop_.now_s(),
                        value});
}

}  // namespace tv::live
