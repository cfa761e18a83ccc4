#include "live/chaos.hpp"

#include <stdexcept>

#include "util/flags.hpp"

namespace tv::live {

namespace {

void check_prob(double value, const char* name) {
  if (value < 0.0 || value > 1.0) {
    throw std::invalid_argument{std::string{"ChaosPlan: "} + name +
                                " outside [0,1]"};
  }
}

double parse_number(const std::string& text, const std::string& key) {
  const auto value = util::parse_double(text);
  if (!value) {
    throw std::invalid_argument{"chaos spec: bad value for '" + key +
                                "': " + text};
  }
  return *value;
}

}  // namespace

void ChaosPlan::validate() const {
  check_prob(eagain_prob, "eagain_prob");
  check_prob(short_send_prob, "short_send_prob");
  check_prob(spurious_wakeup_prob, "spurious_wakeup_prob");
  check_prob(ctrl_drop_prob, "ctrl_drop_prob");
  check_prob(kill_prob, "kill_prob");
  if (faults) faults->validate();
  if (channel) channel->validate();
}

ChaosPlan chaos_plan_from_string(const std::string& spec) {
  ChaosPlan plan;
  net::FaultPlan faults;
  bool have_faults = false;
  wifi::GilbertElliottParams channel;
  bool have_channel = false;

  for (const std::string& item : util::split(spec, ',')) {
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument{"chaos spec: want key=value, got: " + item};
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "eagain") {
      plan.eagain_prob = parse_number(value, key);
    } else if (key == "short") {
      plan.short_send_prob = parse_number(value, key);
    } else if (key == "spurious" || key == "eintr") {
      plan.spurious_wakeup_prob = parse_number(value, key);
    } else if (key == "drop") {
      faults.drop_prob = parse_number(value, key);
      have_faults = true;
    } else if (key == "corrupt") {
      faults.corrupt_payload_prob = parse_number(value, key);
      have_faults = true;
    } else if (key == "truncate") {
      faults.truncate_prob = parse_number(value, key);
      have_faults = true;
    } else if (key == "dup") {
      faults.duplicate_prob = parse_number(value, key);
      have_faults = true;
    } else if (key == "loss") {
      channel.mean_loss_prob = parse_number(value, key);
      have_channel = true;
    } else if (key == "burst") {
      channel.mean_burst_length = parse_number(value, key);
      have_channel = true;
    } else if (key == "ctrl-drop") {
      plan.ctrl_drop_prob = parse_number(value, key);
    } else if (key == "kill") {
      plan.kill_prob = parse_number(value, key);
    } else if (key == "outage" || key == "stall") {
      (key == "outage" ? plan.outages : plan.stalls) =
          wifi::parse_outage_windows(value, ';', "chaos spec '" + key + "'");
    } else {
      throw std::invalid_argument{"chaos spec: unknown key: " + key};
    }
  }
  if (have_faults) plan.faults = faults;
  if (have_channel) plan.channel = channel;
  plan.validate();
  return plan;
}

ChaosSocket::ChaosSocket(EventLoop& loop, UdpSocket& socket,
                         const ChaosPlan& plan, std::uint64_t seed)
    : loop_(loop),
      socket_(socket),
      plan_(plan),
      egress_rng_{util::derive_seed(seed, 0xc4a05, 1, 0)},
      ingress_rng_{util::derive_seed(seed, 0xc4a05, 2, 0)},
      impairment_{plan, util::derive_seed(seed, 0xc4a05, 3, 0),
                  util::derive_seed(seed, 0xc4a05, 4, 0)} {
  plan_.validate();
}

SendOutcome ChaosSocket::send_to(const Endpoint& to,
                                 std::span<const std::uint8_t> payload) {
  ++stats_.sends;
  // fd-level faults come first: the kernel never saw the datagram, so
  // the caller must treat it exactly like a real EAGAIN / short write.
  if (plan_.eagain_prob > 0.0 && egress_rng_.bernoulli(plan_.eagain_prob)) {
    ++stats_.eagain_injected;
    return SendOutcome::kAgain;
  }
  if (plan_.short_send_prob > 0.0 &&
      egress_rng_.bernoulli(plan_.short_send_prob) && payload.size() > 1) {
    // Half the datagram reaches the wire — the receiver sees a runt.
    ++stats_.short_sends_injected;
    (void)socket_.send_to(to, payload.subspan(0, payload.size() / 2));
    return SendOutcome::kShort;
  }
  if (impairment_.inert()) return socket_.send_to(to, payload);
  // Channel faults: the send succeeded as far as the sender knows.
  scratch_.assign(payload.begin(), payload.end());
  const Verdict verdict = impairment_.decide(loop_.now_s(), scratch_);
  stats_.damaged += static_cast<std::size_t>(verdict.damaged);
  if (verdict.copies == 0) {
    ++stats_.dropped;
    return SendOutcome::kSent;
  }
  if (verdict.copies == 2) ++stats_.duplicated;
  SendOutcome outcome = SendOutcome::kSent;
  for (int s = 0; s < verdict.copies; ++s) {
    const SendOutcome o = socket_.send_to(to, scratch_);
    if (o != SendOutcome::kSent) outcome = o;
  }
  return outcome;
}

std::optional<Datagram> ChaosSocket::receive() {
  if (plan_.spurious_wakeup_prob > 0.0 &&
      ingress_rng_.bernoulli(plan_.spurious_wakeup_prob)) {
    // An EINTR storm ends the drain early.  The data is still queued and
    // the loop is level-triggered, so nothing is lost — only delayed —
    // which is exactly the failure mode worth surviving.  The caller's
    // drain stops before the socket is empty, so tell the loop to look
    // again before its next timer.
    ++stats_.spurious_wakeups;
    loop_.note_unread();
    return std::nullopt;
  }
  return socket_.receive();
}

}  // namespace tv::live
