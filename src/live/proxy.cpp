#include "live/proxy.hpp"

#include <utility>

#include "net/rtp.hpp"

namespace tv::live {

ImpairmentProxy::ImpairmentProxy(EventLoop& loop, UdpSocket& in_socket,
                                 UdpSocket& out_socket, ProxyConfig config,
                                 EavesdropperTap* tap)
    : loop_(loop),
      in_socket_(in_socket),
      out_socket_(out_socket),
      config_(std::move(config)),
      tap_(tap),
      reorder_rng_(util::derive_seed(config_.seed, 0x5e0de17, 0, 0)) {
  if (config_.faults) {
    config_.faults->validate();
    injector_.emplace(*config_.faults,
                      util::derive_seed(config_.seed, 0xfa017, 0, 0));
  }
  if (config_.receiver_channel) {
    channel_.emplace(*config_.receiver_channel,
                     util::derive_seed(config_.seed, 0xc4a1, 0, 0));
  }
}

void ImpairmentProxy::set_forward_mask(const StreamMap* map,
                                       std::vector<bool> mask) {
  mask_map_ = map;
  forward_mask_ = std::move(mask);
}

void ImpairmentProxy::start() {
  watching_ = true;
  last_arrival_s_ = loop_.now_s();
  loop_.watch_readable(in_socket_.fd(), [this] { on_readable(); });
  if (config_.idle_timeout_s > 0.0) arm_idle_deadline();
}

void ImpairmentProxy::on_readable() {
  while (in_socket_.receive_into(scratch_)) {
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

  bool deliver = true;
  bool matched_mask = false;
  if (mask_map_ != nullptr) {
    if (const auto header = net::RtpHeader::try_parse(datagram)) {
      const auto index = mask_map_->index_of(
          static_cast<std::int64_t>(header->sequence_number));
      if (index && *index < forward_mask_.size()) {
        deliver = forward_mask_[*index];
        matched_mask = true;
      }
    }
  }
  if (!matched_mask) {
    if (wifi::in_outage(config_.outages, now)) deliver = false;
    if (deliver && channel_ && channel_->lose_packet()) deliver = false;
  }
  if (!deliver) {
    ++report_.dropped;
    if (config_.trace != nullptr) {
      config_.trace->event({core::Stage::kChannel, "loss", -1, 0, now,
                            static_cast<double>(datagram.size())});
    }
    return;
  }

  // Fault plan (corruption/truncation/duplication/drop) via the shared
  // injector, in place on the receive buffer; replay-matched packets skip
  // it so deterministic loopback reproduces the in-memory delivery mask
  // bit for bit.
  std::size_t copies = 1;
  if (!matched_mask && injector_) {
    const net::AppliedFaults applied = injector_->apply_one(datagram);
    if (applied.dropped) {
      ++report_.dropped;
      return;
    }
    if (applied.duplicated) {
      ++report_.duplicated;
      copies = 2;
    }
  }

  for (std::size_t c = 0; c < copies; ++c) {
    // Proxy-side reordering: hold a datagram back and release it after
    // the next one passes — the singleton injector draws above cannot
    // express cross-datagram displacement.
    const bool hold = !matched_mask && config_.faults &&
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
  if (out_socket_.send_to(config_.forward_to, datagram) !=
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
      loop_.unwatch(in_socket_.fd());
      return;
    }
    arm_idle_deadline();
  });
}

}  // namespace tv::live
