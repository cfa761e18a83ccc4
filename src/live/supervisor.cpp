#include "live/supervisor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "net/rtp.hpp"

namespace tv::live {

namespace {

constexpr std::uint8_t kMagic[4] = {'T', 'V', 'C', '1'};

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  out.push_back(static_cast<std::uint8_t>(value >> 24));
  out.push_back(static_cast<std::uint8_t>(value >> 16));
  out.push_back(static_cast<std::uint8_t>(value >> 8));
  out.push_back(static_cast<std::uint8_t>(value));
}

std::uint32_t get_u32(std::span<const std::uint8_t> bytes) {
  return (static_cast<std::uint32_t>(bytes[0]) << 24) |
         (static_cast<std::uint32_t>(bytes[1]) << 16) |
         (static_cast<std::uint32_t>(bytes[2]) << 8) |
         static_cast<std::uint32_t>(bytes[3]);
}

const char* state_trace_kind(SessionState state) {
  switch (state) {
    case SessionState::kConnecting:
      return "sess_connecting";
    case SessionState::kStreaming:
      return "sess_streaming";
    case SessionState::kDraining:
      return "sess_draining";
    case SessionState::kClosed:
      return "sess_closed";
    case SessionState::kFailed:
      return "sess_failed";
  }
  return "sess_?";
}

}  // namespace

std::vector<std::uint8_t> ControlMsg::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(kSize);
  out.insert(out.end(), std::begin(kMagic), std::end(kMagic));
  out.push_back(static_cast<std::uint8_t>(type));
  put_u32(out, ssrc);
  put_u32(out, aux);
  return out;
}

std::optional<ControlMsg> ControlMsg::try_parse(
    std::span<const std::uint8_t> datagram) {
  if (datagram.size() != kSize) return std::nullopt;
  if (!std::equal(std::begin(kMagic), std::end(kMagic), datagram.begin())) {
    return std::nullopt;
  }
  const std::uint8_t raw_type = datagram[4];
  if (raw_type < static_cast<std::uint8_t>(Type::kHello) ||
      raw_type > static_cast<std::uint8_t>(Type::kByeAck)) {
    return std::nullopt;
  }
  ControlMsg msg;
  msg.type = static_cast<Type>(raw_type);
  msg.ssrc = get_u32(datagram.subspan(5, 4));
  msg.aux = get_u32(datagram.subspan(9, 4));
  return msg;
}

const char* to_string(SessionState state) {
  switch (state) {
    case SessionState::kConnecting:
      return "connecting";
    case SessionState::kStreaming:
      return "streaming";
    case SessionState::kDraining:
      return "draining";
    case SessionState::kClosed:
      return "closed";
    case SessionState::kFailed:
      return "failed";
  }
  return "?";
}

const char* to_string(SessionOutcome outcome) {
  switch (outcome) {
    case SessionOutcome::kPending:
      return "pending";
    case SessionOutcome::kCompleted:
      return "completed";
    case SessionOutcome::kRecovered:
      return "retried-recovered";
    case SessionOutcome::kShed:
      return "shed";
    case SessionOutcome::kWatchdogKilled:
      return "watchdog-killed";
  }
  return "?";
}

const char* outcome_trace_kind(SessionOutcome outcome) {
  switch (outcome) {
    case SessionOutcome::kPending:
      return "outcome_pending";
    case SessionOutcome::kCompleted:
      return "outcome_completed";
    case SessionOutcome::kRecovered:
      return "outcome_recovered";
    case SessionOutcome::kShed:
      return "outcome_shed";
    case SessionOutcome::kWatchdogKilled:
      return "outcome_watchdog_killed";
  }
  return "outcome_?";
}

void SupervisorConfig::validate() const {
  if (max_handshake_retries < 0 || max_bye_retries < 0 ||
      max_send_retries < 0) {
    throw std::invalid_argument{"SupervisorConfig: negative retry budget"};
  }
  if (backoff_base_s <= 0.0 || backoff_multiplier < 1.0 ||
      backoff_max_s < backoff_base_s || send_retry_base_s <= 0.0) {
    throw std::invalid_argument{"SupervisorConfig: bad backoff parameters"};
  }
  if (backoff_jitter < 0.0 || backoff_jitter >= 1.0) {
    throw std::invalid_argument{"SupervisorConfig: jitter outside [0,1)"};
  }
  if (stall_timeout_s <= 0.0) {
    throw std::invalid_argument{"SupervisorConfig: stall timeout <= 0"};
  }
  if (queue_cap == 0 || degrade_depth == 0) {
    throw std::invalid_argument{"SupervisorConfig: zero queue depth"};
  }
}

double backoff_wait_s(const SupervisorConfig& config, int attempt,
                      util::Rng& rng) {
  double wait = config.backoff_base_s *
                std::pow(config.backoff_multiplier, std::max(attempt, 0));
  wait = std::min(wait, config.backoff_max_s);
  if (config.backoff_jitter > 0.0) {
    wait *= 1.0 + config.backoff_jitter * (2.0 * rng.uniform() - 1.0);
  }
  return wait;
}

ClientSession::ClientSession(EventLoop& loop, ClientConfig config,
                             const std::vector<net::VideoPacket>& wire_packets,
                             const std::vector<net::VideoPacket>& clear_packets,
                             PacedSchedule schedule,
                             std::function<void()> on_done)
    : loop_(loop),
      config_(std::move(config)),
      wire_packets_(wire_packets),
      clear_packets_(clear_packets),
      schedule_(std::move(schedule)),
      on_done_(std::move(on_done)),
      socket_{},
      chaos_socket_{loop_, socket_, config_.chaos,
                    util::derive_seed(config_.seed, 0x50c4e7, 0, 0)},
      rng_{util::derive_seed(config_.seed, 0x5093, 0, 0)},
      current_policy_(config_.policy) {
  config_.supervisor.validate();
  if (schedule_.arrival_s.size() != wire_packets_.size() ||
      schedule_.send_s.size() != wire_packets_.size() ||
      clear_packets_.size() != wire_packets_.size()) {
    throw std::invalid_argument{"ClientSession: schedule/packet mismatch"};
  }
  socket_.bind(Endpoint{});
}

void ClientSession::start() {
  // Connected: every datagram skips the kernel's per-send route lookup,
  // and only the server's replies are delivered.  A server that goes
  // away now surfaces as kRefused, which the retry ladder absorbs.
  socket_.connect(config_.server);
  loop_.watch_readable(socket_.fd(), [this] { on_readable(); });
  set_state(SessionState::kConnecting);
  hello_timer_ = loop_.schedule_at(config_.start_s, [this] { send_hello(); });
}

void ClientSession::send_hello() {
  if (dead_) return;
  if (hello_attempts_ > config_.supervisor.max_handshake_retries) {
    trace_event("handshake_exhausted", static_cast<double>(hello_attempts_));
    finish(SessionOutcome::kWatchdogKilled);
    return;
  }
  ControlMsg hello;
  hello.type = ControlMsg::Type::kHello;
  hello.ssrc = config_.ssrc;
  hello.aux = static_cast<std::uint32_t>(wire_packets_.size());
  (void)chaos_socket_.send_to(config_.server, hello.serialize());
  if (hello_attempts_ > 0) {
    stats_.handshake_retries = static_cast<std::size_t>(hello_attempts_);
    trace_event("handshake_retry", static_cast<double>(hello_attempts_));
  }
  const double wait =
      backoff_wait_s(config_.supervisor, hello_attempts_, rng_);
  ++hello_attempts_;
  hello_timer_ = loop_.schedule_after(wait, [this] { send_hello(); });
}

void ClientSession::on_readable() {
  while (auto datagram = chaos_socket_.receive()) {
    if (dead_) continue;  // keep draining so the fd goes quiet.
    const auto msg = ControlMsg::try_parse(datagram->payload);
    if (msg) handle_control(*msg);
  }
}

void ClientSession::handle_control(const ControlMsg& msg) {
  if (msg.ssrc != config_.ssrc) return;
  switch (msg.type) {
    case ControlMsg::Type::kAccept:
      if (stats_.state != SessionState::kConnecting) return;
      loop_.cancel(hello_timer_);
      stats_.accepted_s = loop_.now_s();
      t0_ = loop_.now_s();
      begin_streaming();
      return;
    case ControlMsg::Type::kReject:
      if (stats_.state != SessionState::kConnecting) return;
      loop_.cancel(hello_timer_);
      finish(SessionOutcome::kShed);
      return;
    case ControlMsg::Type::kByeAck:
      if (stats_.state != SessionState::kDraining) return;
      loop_.cancel(bye_timer_);
      stats_.bye_acked = true;
      finish(stats_.send_retries > 0 || stats_.packets_shed > 0 ||
                     stats_.degrade_steps > 0 || stats_.handshake_retries > 0 ||
                     stats_.short_sends > 0 || stats_.bye_retries > 0
                 ? SessionOutcome::kRecovered
                 : SessionOutcome::kCompleted);
      return;
    case ControlMsg::Type::kHello:
    case ControlMsg::Type::kBye:
      return;  // server-bound messages; ignore if echoed back.
  }
}

void ClientSession::begin_streaming() {
  set_state(SessionState::kStreaming);
  last_progress_s_ = loop_.now_s();
  if (wire_packets_.empty()) {
    begin_draining();
    return;
  }
  release_timer_ = loop_.schedule_at(t0_ + schedule_.arrival_s[0],
                                     [this] { on_release(0); });
}

void ClientSession::on_release(std::size_t index) {
  if (dead_) return;
  if (queue_.empty()) last_progress_s_ = loop_.now_s();
  queue_.push_back(index);
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_.size());

  // Backpressure, in escalation order: step the policy down at the
  // degradation watermark, shed oldest at the hard cap.
  if (queue_.size() > config_.supervisor.degrade_depth) {
    const policy::EncryptionPolicy next = policy::degrade_step(current_policy_);
    if (next.mode != current_policy_.mode ||
        next.fraction != current_policy_.fraction) {
      current_policy_ = next;
      degraded_selected_ = current_policy_.select(clear_packets_);
      ++stats_.degrade_steps;
      trace_event("degrade", static_cast<double>(stats_.degrade_steps));
    }
  }
  if (queue_.size() > config_.supervisor.queue_cap) {
    queue_.pop_front();
    head_retries_ = 0;
    ++stats_.packets_shed;
    trace_event("queue_shed", static_cast<double>(queue_.size()));
  }

  next_release_ = index + 1;
  if (next_release_ < wire_packets_.size()) {
    release_timer_ =
        loop_.schedule_at(t0_ + schedule_.arrival_s[next_release_],
                          [this, i = next_release_] { on_release(i); });
  }
  ensure_send_armed();
  ensure_watchdog_armed();
}

void ClientSession::ensure_send_armed() {
  if (send_armed_ || dead_ || queue_.empty()) return;
  send_armed_ = true;
  const double target =
      std::max(loop_.now_s(), t0_ + schedule_.send_s[queue_.front()]);
  send_timer_ = loop_.schedule_at(target, [this] { try_send(); });
}

void ClientSession::try_send() {
  send_armed_ = false;
  if (dead_ || queue_.empty()) return;
  const std::size_t index = queue_.front();
  const net::VideoPacket* packet = &wire_packets_[index];
  bool degraded_clear = false;
  if (stats_.degrade_steps > 0 && packet->encrypted &&
      !degraded_selected_[index]) {
    // The stepped-down policy no longer encrypts this packet: ship the
    // plaintext copy, marker off, and save the encryption work.
    packet = &clear_packets_[index];
    degraded_clear = true;
  }
  net::RtpHeader header;
  header.marker = degraded_clear ? false : packet->encrypted;
  header.sequence_number = packet->sequence;
  header.timestamp = packet->timestamp;
  header.ssrc = config_.ssrc;
  buffer_.resize(net::RtpHeader::kSize + packet->payload.size());
  (void)header.write_to(buffer_);
  std::copy(packet->payload.begin(), packet->payload.end(),
            buffer_.begin() + net::RtpHeader::kSize);

  const SendOutcome outcome = chaos_socket_.send_to(config_.server, buffer_);
  if (outcome == SendOutcome::kSent) {
    queue_.pop_front();
    head_retries_ = 0;
    ++stats_.packets_sent;
    if (degraded_clear) {
      ++stats_.packets_degraded;
      trace_event("degraded_clear", static_cast<double>(index));
    }
    last_progress_s_ = loop_.now_s();
    if (queue_.empty() && next_release_ == wire_packets_.size()) {
      begin_draining();
      return;
    }
    ensure_send_armed();
    return;
  }

  // kAgain / kShort / kRefused: retry with capped exponential backoff
  // and jitter until the per-packet budget runs out, then shed.
  if (outcome == SendOutcome::kShort) ++stats_.short_sends;
  ++stats_.send_retries;
  ++head_retries_;
  trace_event("send_retry", static_cast<double>(head_retries_));
  if (head_retries_ > config_.supervisor.max_send_retries) {
    queue_.pop_front();
    head_retries_ = 0;
    ++stats_.packets_shed;
    trace_event("retry_exhausted", static_cast<double>(index));
    if (queue_.empty() && next_release_ == wire_packets_.size()) {
      begin_draining();
      return;
    }
    ensure_send_armed();
    return;
  }
  double wait = config_.supervisor.send_retry_base_s *
                std::pow(config_.supervisor.backoff_multiplier,
                         std::max(head_retries_ - 1, 0));
  wait = std::min(wait, config_.supervisor.backoff_max_s);
  if (config_.supervisor.backoff_jitter > 0.0) {
    wait *= 1.0 +
            config_.supervisor.backoff_jitter * (2.0 * rng_.uniform() - 1.0);
  }
  send_armed_ = true;
  send_timer_ = loop_.schedule_after(wait, [this] { try_send(); });
}

void ClientSession::ensure_watchdog_armed() {
  if (watchdog_armed_ || dead_) return;
  watchdog_armed_ = true;
  watchdog_timer_ =
      loop_.schedule_at(last_progress_s_ + config_.supervisor.stall_timeout_s,
                        [this] { on_watchdog(); });
}

void ClientSession::on_watchdog() {
  watchdog_armed_ = false;
  if (dead_) return;
  if (queue_.empty()) return;  // re-armed by the next release.
  if (deadline_reached(last_progress_s_, config_.supervisor.stall_timeout_s,
                       loop_.now_s())) {
    trace_event("stall", static_cast<double>(queue_.size()));
    finish(SessionOutcome::kWatchdogKilled);
    return;
  }
  ensure_watchdog_armed();  // progress happened; roll the deadline.
}

void ClientSession::begin_draining() {
  set_state(SessionState::kDraining);
  bye_attempts_ = 0;
  send_bye();
}

void ClientSession::send_bye() {
  if (dead_) return;
  if (bye_attempts_ > config_.supervisor.max_bye_retries) {
    // The data is delivered; an unacknowledged goodbye degrades the
    // outcome to "recovered", never to a failure.
    finish(SessionOutcome::kRecovered);
    return;
  }
  ControlMsg bye;
  bye.type = ControlMsg::Type::kBye;
  bye.ssrc = config_.ssrc;
  bye.aux = static_cast<std::uint32_t>(stats_.packets_sent);
  (void)chaos_socket_.send_to(config_.server, bye.serialize());
  if (bye_attempts_ > 0) {
    stats_.bye_retries = static_cast<std::size_t>(bye_attempts_);
  }
  const double wait = backoff_wait_s(config_.supervisor, bye_attempts_, rng_);
  ++bye_attempts_;
  bye_timer_ = loop_.schedule_after(wait, [this] { send_bye(); });
}

void ClientSession::chaos_kill() {
  if (dead_) return;
  stats_.chaos_killed = true;
  trace_event("chaos_kill", static_cast<double>(stats_.packets_sent));
  finish(SessionOutcome::kWatchdogKilled);
}

void ClientSession::finish(SessionOutcome outcome) {
  if (dead_) return;
  dead_ = true;
  loop_.cancel(hello_timer_);
  loop_.cancel(bye_timer_);
  loop_.cancel(release_timer_);
  loop_.cancel(send_timer_);
  loop_.cancel(watchdog_timer_);
  loop_.unwatch(socket_.fd());
  stats_.outcome = outcome;
  stats_.done_s = loop_.now_s();
  set_state(outcome == SessionOutcome::kCompleted ||
                    outcome == SessionOutcome::kRecovered
                ? SessionState::kClosed
                : SessionState::kFailed);
  trace_event(outcome_trace_kind(outcome),
              static_cast<double>(stats_.packets_sent));
  if (on_done_) on_done_();
}

void ClientSession::set_state(SessionState state) {
  stats_.state = state;
  trace_event(state_trace_kind(state), 0.0);
}

void ClientSession::trace_event(const char* kind, double value) {
  if (config_.trace == nullptr) return;
  config_.trace->event({core::Stage::kTransport, kind,
                        static_cast<std::int64_t>(config_.ssrc), 0,
                        loop_.now_s(), value});
}

}  // namespace tv::live
