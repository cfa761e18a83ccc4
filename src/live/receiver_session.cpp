#include "live/receiver_session.hpp"

namespace tv::live {

ReceiverSession::ReceiverSession(EventLoop& loop, UdpSocket& socket,
                                 ReceiverSessionConfig config)
    : loop_(loop),
      socket_(socket),
      config_(config),
      receiver_(config.receiver) {}

void ReceiverSession::start() {
  watching_ = true;
  last_arrival_s_ = loop_.now_s();
  loop_.watch_readable(socket_.fd(), [this] { on_readable(); });
  if (config_.idle_timeout_s > 0.0) arm_idle_deadline();
}

void ReceiverSession::on_readable() {
  // Drain everything queued: poll readability is level-triggered but one
  // callback per datagram would cost a poll round each.  The scratch
  // datagram's capacity is reused; an admitted packet moves the buffer
  // into the receiver (the one unavoidable ownership transfer), while a
  // rejected one costs no allocation at all.
  while (socket_.receive_into(scratch_)) {
    last_arrival_s_ = loop_.now_s();
    const auto bytes = static_cast<double>(scratch_.payload.size());
    receiver_.push(std::move(scratch_.payload));
    if (config_.trace != nullptr) {
      config_.trace->event({core::Stage::kTransport, "receive", -1, 0,
                            last_arrival_s_, bytes});
    }
  }
  receiver_.drain_ready_into(received_);
}

void ReceiverSession::arm_idle_deadline() {
  const double deadline = last_arrival_s_ + config_.idle_timeout_s;
  loop_.schedule_at(deadline, [this] {
    if (!watching_) return;
    if (deadline_reached(last_arrival_s_, config_.idle_timeout_s,
                         loop_.now_s())) {
      // Idle long enough: treat as end of stream and let run() wind down.
      watching_ = false;
      loop_.unwatch(socket_.fd());
      return;
    }
    arm_idle_deadline();  // datagrams arrived since; push the deadline out.
  });
}

std::vector<net::ReceivedPacket> ReceiverSession::finish() {
  if (watching_) {
    on_readable();  // pick up anything still queued in the kernel.
    loop_.unwatch(socket_.fd());
    watching_ = false;
  }
  receiver_.flush_into(received_);
  return std::move(received_);
}

}  // namespace tv::live
