// Session supervision for the live layer: a tiny control protocol, the
// per-session state machine, and the supervised uploading client.
//
// The paper's testbed was one phone and one server on a quiet WLAN; an
// open network is hundreds of contending uploaders, each of which can
// stall, die, or be refused.  Supervision is the recovery story: every
// session walks connecting -> streaming -> draining -> closed/failed
// under a watchdog, socket errors are retried with capped exponential
// backoff plus jitter, a bounded send queue sheds oldest-first under
// pressure, and sustained pressure steps the encryption policy down the
// paper's degradation ladder (policy::degrade_step) instead of letting
// latency grow without bound.  Every decision is visible through
// core::TraceSink events so a chaos run can be audited offline.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "core/trace.hpp"
#include "live/chaos.hpp"
#include "live/event_loop.hpp"
#include "live/sender.hpp"
#include "live/udp.hpp"
#include "net/packetizer.hpp"
#include "policy/policy.hpp"
#include "util/rng.hpp"

namespace tv::live {

/// Control-plane message, distinguishable from RTP by its first byte
/// ('T' = 0x54; RTP version 2 always starts 0x80).  Wire layout:
/// "TVC1" + type + ssrc (BE) + aux (BE), 13 bytes.
struct ControlMsg {
  enum class Type : std::uint8_t {
    kHello = 1,   ///< client -> server: admit me (aux = packet count).
    kAccept = 2,  ///< server -> client: admitted, start streaming.
    kReject = 3,  ///< server -> client: shed (admission denied).
    kBye = 4,     ///< client -> server: stream complete (aux = sent count).
    kByeAck = 5,  ///< server -> client: drained and accounted.
  };

  Type type = Type::kHello;
  std::uint32_t ssrc = 0;
  std::uint32_t aux = 0;

  static constexpr std::size_t kSize = 13;

  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  [[nodiscard]] static std::optional<ControlMsg> try_parse(
      std::span<const std::uint8_t> datagram);
};

/// The per-session lifecycle both endpoints walk.
enum class SessionState {
  kConnecting,  ///< handshake in flight (with retry/backoff).
  kStreaming,   ///< data on the wire.
  kDraining,    ///< goodbye in flight; receiver flushing.
  kClosed,      ///< orderly end.
  kFailed,      ///< supervisor gave up.
};

[[nodiscard]] const char* to_string(SessionState state);

/// How a session ended, for the chaos run's accounting.  Every session
/// lands in exactly one bucket.
enum class SessionOutcome {
  kPending,         ///< still running.
  kCompleted,       ///< clean run, no recovery action needed.
  kRecovered,       ///< completed, but only via retries/shedding/degrade.
  kShed,            ///< admission control refused it.
  kWatchdogKilled,  ///< stall/handshake watchdog (or chaos kill) ended it.
};

[[nodiscard]] const char* to_string(SessionOutcome outcome);

/// The trace `kind` a finished session's outcome is recorded under.
[[nodiscard]] const char* outcome_trace_kind(SessionOutcome outcome);

/// Supervision knobs shared by the client sessions and documented in
/// docs/resilience.md.
struct SupervisorConfig {
  // Handshake/goodbye control retries: capped exponential with jitter.
  int max_handshake_retries = 6;
  int max_bye_retries = 4;
  double backoff_base_s = 0.05;
  double backoff_multiplier = 2.0;
  double backoff_max_s = 1.0;
  double backoff_jitter = 0.25;  ///< +-25% of the computed wait.

  // Data-path retry on kAgain/kShort/kRefused, per packet.
  int max_send_retries = 8;
  double send_retry_base_s = 1e-3;

  // Stall watchdog: no successful send for this long while packets are
  // queued => the session has wedged; kill it.
  double stall_timeout_s = 5.0;

  // Backpressure: queue depth caps and the degradation watermark.
  std::size_t queue_cap = 64;      ///< beyond this, shed oldest.
  std::size_t degrade_depth = 32;  ///< beyond this, step the policy down.

  void validate() const;  ///< throws std::invalid_argument on bad values.
};

/// Capped exponential backoff with symmetric jitter: attempt 0 waits
/// ~base, each further attempt doubles (by `backoff_multiplier`) up to
/// `backoff_max_s`, then jitter spreads contending sessions apart.
/// Deterministic in the rng.
[[nodiscard]] double backoff_wait_s(const SupervisorConfig& config,
                                    int attempt, util::Rng& rng);

/// Everything the supervisor counted for one client session.
struct ClientStats {
  SessionState state = SessionState::kConnecting;
  SessionOutcome outcome = SessionOutcome::kPending;
  std::size_t packets_sent = 0;
  std::size_t packets_shed = 0;      ///< drop-oldest + retry-exhausted.
  std::size_t packets_degraded = 0;  ///< sent clear under pressure.
  std::size_t send_retries = 0;
  std::size_t handshake_retries = 0;
  std::size_t bye_retries = 0;
  std::size_t short_sends = 0;
  std::size_t max_queue_depth = 0;
  int degrade_steps = 0;
  bool bye_acked = false;
  bool chaos_killed = false;
  double accepted_s = 0.0;  ///< when ACCEPT arrived (loop time).
  double done_s = 0.0;      ///< when the session reached a final state.
};

struct ClientConfig {
  Endpoint server;
  std::uint32_t ssrc = 0;
  SupervisorConfig supervisor;
  policy::EncryptionPolicy policy;  ///< top of the degradation ladder.
  ChaosPlan chaos;                  ///< this session's injected hostility.
  std::uint64_t seed = 1;
  double start_s = 0.0;  ///< loop time of the first HELLO.
  core::TraceSink* trace = nullptr;
};

/// One supervised uploader: owns its socket (connected to the server
/// by start()), handshakes with the server, streams `wire_packets` at
/// the paced schedule, and walks the session state machine under the
/// watchdog.  `wire_packets` carry the policy's encryption;
/// `clear_packets` are the same stream in plaintext, used when the
/// degradation ladder decides a packet should ship clear.  Both must
/// outlive the session.
class ClientSession {
 public:
  ClientSession(EventLoop& loop, ClientConfig config,
                const std::vector<net::VideoPacket>& wire_packets,
                const std::vector<net::VideoPacket>& clear_packets,
                PacedSchedule schedule, std::function<void()> on_done = {});
  ClientSession(const ClientSession&) = delete;
  ClientSession& operator=(const ClientSession&) = delete;

  /// Arm the HELLO at config.start_s.  Call once.
  void start();

  /// Chaos hook: the process dies mid-stream — no goodbye, socket goes
  /// silent.  The server's idle watchdog must reap the other half.
  void chaos_kill();

  [[nodiscard]] const ClientStats& stats() const { return stats_; }
  [[nodiscard]] std::uint32_t ssrc() const { return config_.ssrc; }
  [[nodiscard]] bool finished() const {
    return stats_.outcome != SessionOutcome::kPending;
  }
  [[nodiscard]] const ChaosStats& chaos_stats() const {
    return chaos_socket_.stats();
  }

 private:
  void send_hello();
  void on_readable();
  void handle_control(const ControlMsg& msg);
  void begin_streaming();
  void on_release(std::size_t index);
  void ensure_send_armed();
  void try_send();
  void ensure_watchdog_armed();
  void on_watchdog();
  void begin_draining();
  void send_bye();
  void finish(SessionOutcome outcome);
  void set_state(SessionState state);
  void trace_event(const char* kind, double value);

  EventLoop& loop_;
  ClientConfig config_;
  const std::vector<net::VideoPacket>& wire_packets_;
  const std::vector<net::VideoPacket>& clear_packets_;
  PacedSchedule schedule_;
  std::function<void()> on_done_;
  UdpSocket socket_;
  ChaosSocket chaos_socket_;
  util::Rng rng_;

  ClientStats stats_;
  policy::EncryptionPolicy current_policy_;
  std::vector<bool> degraded_selected_;  ///< empty until the first step.
  std::deque<std::size_t> queue_;        ///< packet indices awaiting send.
  std::vector<std::uint8_t> buffer_;     ///< per-datagram scratch.
  std::size_t next_release_ = 0;
  int head_retries_ = 0;
  int hello_attempts_ = 0;
  int bye_attempts_ = 0;
  double t0_ = 0.0;             ///< stream clock origin (= ACCEPT time).
  double last_progress_s_ = 0.0;
  bool send_armed_ = false;
  bool watchdog_armed_ = false;
  bool dead_ = false;
  EventLoop::TimerId hello_timer_ = 0;
  EventLoop::TimerId bye_timer_ = 0;
  EventLoop::TimerId release_timer_ = 0;
  EventLoop::TimerId send_timer_ = 0;
  EventLoop::TimerId watchdog_timer_ = 0;
};

}  // namespace tv::live
