#include "live/proxy.hpp"

#include <utility>

namespace tv::live {

ImpairmentProxy::ImpairmentProxy(EventLoop& loop, UdpSocket& socket,
                                 ProxyConfig config, EavesdropperTap* tap)
    : loop_(loop),
      socket_(socket),
      config_(std::move(config)),
      tap_(tap),
      impairment_(config_, util::derive_seed(config_.seed, 0xc4a1, 0, 0),
                  util::derive_seed(config_.seed, 0xfa017, 0, 0)),
      reorder_rng_(util::derive_seed(config_.seed, 0x5e0de17, 0, 0)) {}

void ImpairmentProxy::start() {
  watching_ = true;
  last_arrival_s_ = loop_.now_s();
  loop_.watch_readable(socket_.fd(), [this] { on_readable(); });
  if (config_.idle_timeout_s > 0.0) arm_idle_deadline();
}

void ImpairmentProxy::on_readable() {
  while (socket_.receive_into(scratch_)) {
    last_arrival_s_ = loop_.now_s();
    handle(scratch_.payload);
  }
}

void ImpairmentProxy::handle(std::vector<std::uint8_t>& datagram) {
  ++report_.heard;
  const double now = loop_.now_s();
  // The tap overhears the air before the receiver's channel is decided:
  // a snooper can capture a packet the receiver loses, and vice versa.
  if (tap_ != nullptr) tap_->hear(now, datagram);

  // Damage lands in place on the receive buffer.  Replayed packets skip
  // the fault plan and the holdback, so deterministic loopback reproduces
  // the in-memory delivery mask bit for bit.
  const Verdict verdict = impairment_.decide(now, datagram);
  if (verdict.copies == 0) {
    ++report_.dropped;
    if (config_.trace != nullptr && !verdict.faulted) {
      config_.trace->event({core::Stage::kChannel, "loss", -1, 0, now,
                            static_cast<double>(datagram.size())});
    }
    return;
  }
  if (verdict.copies == 2) ++report_.duplicated;

  for (int c = 0; c < verdict.copies; ++c) {
    // Proxy-side reordering: hold a datagram back and release it after
    // the next one passes — the singleton injector draws cannot express
    // cross-datagram displacement.
    const bool hold = !verdict.replayed && config_.faults &&
                      config_.faults->reorder_prob > 0.0 && held_.empty() &&
                      reorder_rng_.bernoulli(config_.faults->reorder_prob);
    if (hold) {
      held_.push_back(datagram);
      continue;
    }
    forward(datagram);
    while (!held_.empty()) {
      ++report_.reordered;
      forward(held_.front());
      held_.pop_front();
    }
  }
}

void ImpairmentProxy::forward(std::span<const std::uint8_t> datagram) {
  if (socket_.send_to(config_.forward_to, datagram) !=
      SendOutcome::kSent) {
    ++report_.send_failures;
    return;
  }
  ++report_.forwarded;
  if (config_.trace != nullptr) {
    config_.trace->event({core::Stage::kChannel, "deliver", -1, 0,
                          loop_.now_s(),
                          static_cast<double>(datagram.size())});
  }
}

void ImpairmentProxy::flush() {
  while (!held_.empty()) {
    forward(held_.front());
    held_.pop_front();
  }
}

void ImpairmentProxy::arm_idle_deadline() {
  const double deadline = last_arrival_s_ + config_.idle_timeout_s;
  loop_.schedule_at(deadline, [this] {
    if (!watching_) return;
    if (deadline_reached(last_arrival_s_, config_.idle_timeout_s,
                         loop_.now_s())) {
      flush();
      watching_ = false;
      loop_.unwatch(socket_.fd());
      return;
    }
    arm_idle_deadline();
  });
}

}  // namespace tv::live
