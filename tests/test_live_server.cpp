// Admission control, overload shedding and the run_load harness:
// fleet-level properties of the multi-session server — token budgets,
// the overload latch, outcome classification, determinism, and the
// quality bound under contention.
#include "live/server.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/trace.hpp"
#include "live/chaos.hpp"
#include "live/load.hpp"
#include "live/supervisor.hpp"
#include "live/udp.hpp"
#include "net/rtp.hpp"

namespace tv::live {
namespace {

LoadConfig small_fleet(int sessions) {
  LoadConfig config;
  config.sessions = sessions;
  config.frames = 8;
  config.gop_size = 4;
  config.seed = 11;
  return config;
}

TEST(Server, RejectsConfigNonsense) {
  EventLoop loop{ClockMode::kVirtual};
  ServerConfig config;
  config.max_sessions = 0;
  EXPECT_THROW((void)Server(loop, config), std::invalid_argument);
  config = {};
  config.overload_low = 10;
  config.overload_high = 5;
  EXPECT_THROW((void)Server(loop, config), std::invalid_argument);
}

TEST(Server, HostileHelloCountsReserveAtMostTheCapEach) {
  // A HELLO's packet count is an untrusted number, and a session is kept
  // until finish() even after its BYE.  A peer that cycles HELLO(2^32-1)
  // and BYE under fresh SSRCs must leave at most kMaxReservedPackets of
  // room per session behind, not room for the packets it claimed (a
  // bad_alloc out of the loop, or gigabytes per pair of datagrams).
  constexpr int kSessions = 64;
  EventLoop loop{ClockMode::kVirtual};
  Server server{loop, ServerConfig{}};
  server.start();
  UdpSocket client;
  client.bind(Endpoint{});
  const Endpoint to = server.endpoint();
  for (int i = 0; i < kSessions; ++i) {
    loop.schedule_at(1e-3 * i, [&, i] {
      ControlMsg msg;
      msg.ssrc = 0x4e110u + static_cast<std::uint32_t>(i);
      msg.type = ControlMsg::Type::kHello;
      msg.aux = 0xFFFFFFFFu;
      EXPECT_EQ(client.send_to(to, msg.serialize()), SendOutcome::kSent);
      msg.type = ControlMsg::Type::kBye;
      msg.aux = 0;
      EXPECT_EQ(client.send_to(to, msg.serialize()), SendOutcome::kSent);
    });
  }
  EXPECT_NO_THROW(loop.run());
  EXPECT_EQ(server.report().admitted, static_cast<std::size_t>(kSessions));
  EXPECT_EQ(server.report().closed, static_cast<std::size_t>(kSessions));
  const auto sessions = server.finish();
  ASSERT_EQ(sessions.size(), static_cast<std::size_t>(kSessions));
  std::size_t reserved = 0;
  for (const auto& session : sessions) {
    EXPECT_EQ(session.expected_packets, 0xFFFFFFFFu);
    EXPECT_TRUE(session.packets.empty());
    reserved += session.packets.capacity();
  }
  EXPECT_LE(reserved, kSessions * kMaxReservedPackets);
}

TEST(RunLoad, CleanFleetAllComplete) {
  LoadConfig config = small_fleet(6);
  const LoadReport report = run_load(config);

  EXPECT_EQ(report.completed, 6u);
  EXPECT_EQ(report.recovered + report.shed + report.watchdog_killed, 0u);
  EXPECT_EQ(report.server.admitted, 6u);
  EXPECT_EQ(report.server.rejected, 0u);
  EXPECT_EQ(report.server.closed, 6u);
  ASSERT_EQ(report.sessions.size(), 6u);
  for (const auto& s : report.sessions) {
    EXPECT_EQ(s.client.outcome, SessionOutcome::kCompleted);
    EXPECT_DOUBLE_EQ(s.delivered_fraction, 1.0);
    EXPECT_EQ(s.delivered, report.packet_count);
  }
}

TEST(RunLoad, AdmissionRejectsBeyondTheTokenBudget) {
  // Everyone HELLOs at t=0 against a budget of 2: exactly two stream,
  // the rest are shed by admission control and classify as such.
  LoadConfig config = small_fleet(5);
  config.max_sessions = 2;
  config.ramp_s = 0.0;
  const LoadReport report = run_load(config);

  EXPECT_EQ(report.completed, 2u);
  EXPECT_EQ(report.shed, 3u);
  EXPECT_EQ(report.watchdog_killed, 0u);
  EXPECT_EQ(report.server.admitted, 2u);
  EXPECT_EQ(report.server.rejected, 3u);
  // Session start order decides who wins the tokens.
  EXPECT_EQ(report.sessions[0].client.outcome, SessionOutcome::kCompleted);
  EXPECT_EQ(report.sessions[1].client.outcome, SessionOutcome::kCompleted);
  for (std::size_t i = 2; i < 5; ++i) {
    EXPECT_EQ(report.sessions[i].client.outcome, SessionOutcome::kShed);
    EXPECT_EQ(report.sessions[i].delivered, 0u);
  }
}

TEST(RunLoad, TokensComeBackWhenSessionsClose) {
  // Budget of 1, but the ramp spaces the three sessions far apart: each
  // finds the token free because the previous session closed and
  // released it.  No rejections, three completions.
  LoadConfig config = small_fleet(3);
  config.max_sessions = 1;
  config.ramp_s = 60.0;  // starts at 0 s, 20 s, 40 s; sessions last ~1 s.
  const LoadReport report = run_load(config);

  EXPECT_EQ(report.completed, 3u);
  EXPECT_EQ(report.shed, 0u);
  EXPECT_EQ(report.server.admitted, 3u);
  EXPECT_EQ(report.server.rejected, 0u);
}

TEST(RunLoad, EverySessionLandsInExactlyOneOutcomeBucket) {
  LoadConfig config = small_fleet(24);
  config.max_sessions = 16;
  config.ramp_s = 0.5;
  config.chaos.eagain_prob = 0.2;
  config.chaos.kill_prob = 0.25;
  config.chaos.ctrl_drop_prob = 0.2;
  config.server_idle_timeout_s = 1.0;
  const LoadReport report = run_load(config);

  EXPECT_EQ(report.completed + report.recovered + report.shed +
                report.watchdog_killed,
            24u);
  for (const auto& s : report.sessions) {
    EXPECT_NE(s.client.outcome, SessionOutcome::kPending)
        << "session " << s.index << " was never classified";
  }
  // The chaos knobs actually bit: something was killed or retried.
  EXPECT_GE(report.watchdog_killed + report.recovered, 1u);
}

TEST(RunLoad, SameSeedSameFleetOutcomeByteForByte) {
  LoadConfig config = small_fleet(16);
  config.max_sessions = 12;
  config.ramp_s = 0.5;
  config.chaos.eagain_prob = 0.3;
  config.chaos.short_send_prob = 0.05;
  config.chaos.kill_prob = 0.2;
  config.chaos.ctrl_drop_prob = 0.3;
  config.server_idle_timeout_s = 1.0;

  const LoadReport a = run_load(config);
  const LoadReport b = run_load(config);

  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.recovered, b.recovered);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.watchdog_killed, b.watchdog_killed);
  EXPECT_EQ(a.total_send_retries, b.total_send_retries);
  EXPECT_EQ(a.total_packets_shed, b.total_packets_shed);
  EXPECT_DOUBLE_EQ(a.duration_s, b.duration_s);
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    EXPECT_EQ(a.sessions[i].client.outcome, b.sessions[i].client.outcome)
        << "session " << i;
    EXPECT_EQ(a.sessions[i].delivered, b.sessions[i].delivered);
    EXPECT_EQ(a.sessions[i].client.send_retries,
              b.sessions[i].client.send_retries);
    EXPECT_EQ(a.sessions[i].chaos.eagain_injected,
              b.sessions[i].chaos.eagain_injected);
  }

  // And the seed is load-bearing: a different one changes the fleet.
  LoadConfig other = config;
  other.seed = config.seed + 1;
  const LoadReport c = run_load(other);
  EXPECT_NE(a.total_send_retries, c.total_send_retries);
}

TEST(RunLoad, RollingWatchdogsNeverLivelockOnExactDeadlines) {
  // Regression: the virtual clock jumps to exactly
  // `last_heard + idle_timeout`, and floating-point `(a + b) - a` can
  // round below `b`.  The idle watchdog used to re-arm at that
  // already-past deadline and spin the loop forever at a frozen virtual
  // time.  This seed/fleet combination hit the rounding edge; the run
  // terminating at all (ctest's timeout is the watchdog) plus every
  // session classifying is the assertion.
  LoadConfig config;
  config.sessions = 6;
  config.seed = 1;
  config.policy =
      policy::policy_from_string("I", crypto::Algorithm::kAes128);
  config.pipeline.algorithm = crypto::Algorithm::kAes128;
  config.chaos.kill_prob = 0.3;
  config.server_idle_timeout_s = 2.0;
  const LoadReport report = run_load(config);

  EXPECT_EQ(report.completed + report.recovered + report.shed +
                report.watchdog_killed,
            6u);
  EXPECT_GE(report.watchdog_killed, 1u);  // the kill coin actually landed.
  EXPECT_EQ(report.server.watchdog_killed,
            report.watchdog_killed);  // server reaped every silent client.
  EXPECT_LT(report.duration_s, 60.0);  // loop idled, virtual time bounded.
}

TEST(RunLoad, ReceiverStallDefersProcessingAndTripsTheOverloadLatch) {
  // The server's receive path wedges for two virtual seconds while the
  // fleet keeps uploading.  Backlog must cross the (tiny) high
  // watermark, latch overload, reject the HELLOs that arrive during the
  // stall, and drain back below the low watermark afterwards.
  LoadConfig config = small_fleet(8);
  config.ramp_s = 1.8;
  config.chaos.stalls = {{0.2, 2.0}};
  config.overload_high = 40;
  config.overload_low = 4;
  config.server_idle_timeout_s = 6.0;
  config.supervisor.stall_timeout_s = 8.0;
  const LoadReport report = run_load(config);

  EXPECT_GE(report.server.stall_deferred, 1u);
  EXPECT_GE(report.server.max_backlog, 40u);
  EXPECT_GE(report.server.overload_entries, 1u);
  // rejected counts REJECT messages — a client whose HELLOs piled up
  // during the stall is rejected once per retransmission — so it bounds
  // the shed *session* count from above.
  EXPECT_GE(report.shed, 1u);
  EXPECT_GE(report.server.rejected, report.shed);
  // Whoever was admitted still finished cleanly once the stall lifted.
  EXPECT_EQ(report.completed + report.recovered, 8u - report.shed);
}

TEST(RunLoad, ContentionCostsAtMostHalfADecibel) {
  // The acceptance experiment: an uncontended fleet vs the same fleet
  // squeezed through half the admission slots.  Admitted sessions keep
  // bounded queues and land within 0.5 dB of the uncontended PSNR.
  LoadConfig uncontended = small_fleet(3);
  uncontended.evaluate_psnr = true;
  const LoadReport base = run_load(uncontended);
  ASSERT_EQ(base.completed, 3u);
  double base_psnr = 0.0;
  for (const auto& s : base.sessions) base_psnr += s.psnr_db;
  base_psnr /= 3.0;
  ASSERT_GT(base_psnr, 20.0);  // sanity: decodable video.

  LoadConfig contended = small_fleet(6);
  contended.max_sessions = 3;
  contended.ramp_s = 0.0;
  contended.evaluate_psnr = true;
  const LoadReport report = run_load(contended);
  EXPECT_EQ(report.shed, 3u);

  for (const auto& s : report.sessions) {
    if (s.client.outcome == SessionOutcome::kShed) continue;
    EXPECT_LE(s.client.max_queue_depth,
              contended.supervisor.queue_cap);  // bounded, not growing.
    EXPECT_NEAR(s.psnr_db, base_psnr, 0.5);
  }
}

/// Keeps the overload latch's enter/exit events.
class OverloadEvents final : public core::TraceSink {
 public:
  struct Entry {
    std::string kind;
    double time_s = 0.0;
    double depth = 0.0;
  };
  void event(const core::TraceEvent& e) override {
    if (std::string_view{e.kind}.starts_with("srv_overload_")) {
      entries.push_back({e.kind, e.time_s, e.value_s});
    }
  }
  std::vector<Entry> entries;
};

TEST(Server, BacklogIsExactThroughGapsByeStallAndWatchdogReap) {
  // A raw socket plays three uploaders on a scripted virtual clock.  Each
  // RTP gap makes a session's receiver hold packets, so the backlog the
  // latch watches (receivers' buffered() plus the stall queue) moves by
  // a known amount at every step.  Watermarks 4/2 make each step visible.
  EventLoop loop{ClockMode::kVirtual};
  OverloadEvents overload;
  ServerConfig config;
  config.overload_high = 4;
  config.overload_low = 2;
  config.idle_timeout_s = 3.0;
  config.receiver.reorder_capacity = 8;
  config.stalls = {{3.0, 1.0}};
  config.trace = &overload;
  Server server{loop, config};
  server.start();

  UdpSocket client;
  client.bind(Endpoint{});
  const Endpoint to = server.endpoint();
  constexpr std::uint32_t kA = 0xA, kB = 0xB, kC = 0xC;
  const auto control = [&](ControlMsg::Type type, std::uint32_t ssrc,
                           std::uint32_t aux) {
    ControlMsg msg;
    msg.type = type;
    msg.ssrc = ssrc;
    msg.aux = aux;
    EXPECT_EQ(client.send_to(to, msg.serialize()), SendOutcome::kSent);
  };
  const auto data = [&](std::uint32_t ssrc,
                        std::initializer_list<std::uint16_t> seqs) {
    for (const std::uint16_t seq : seqs) {
      net::RtpHeader header;
      header.ssrc = ssrc;
      header.sequence_number = seq;
      std::vector<std::uint8_t> datagram = header.serialize();
      datagram.push_back(static_cast<std::uint8_t>(seq));
      EXPECT_EQ(client.send_to(to, datagram), SendOutcome::kSent);
    }
  };
  std::vector<bool> latched;
  const auto probe = [&](double t) {
    loop.schedule_at(t, [&] { latched.push_back(server.overloaded()); });
  };

  loop.schedule_at(0.0, [&] { control(ControlMsg::Type::kHello, kA, 7); });
  // 0 is released on arrival; 2..6 wait for 1.  The latch enters at the
  // fourth held packet and the backlog peaks at 5.
  loop.schedule_at(0.1, [&] { data(kA, {0, 2, 3, 4, 5, 6}); });
  probe(0.15);
  loop.schedule_at(0.2, [&] { control(ControlMsg::Type::kHello, kB, 7); });
  // BYE flushes A's five held packets: backlog 0, latch released.
  loop.schedule_at(0.3, [&] { control(ControlMsg::Type::kBye, kA, 6); });
  probe(0.35);
  loop.schedule_at(0.4, [&] { control(ControlMsg::Type::kHello, kC, 9); });
  loop.schedule_at(0.5, [&] { data(kC, {100, 102, 103}); });  // holds 2.
  // Inside the stall window: two deferred datagrams on top of C's two
  // held packets make 4, which latches.
  loop.schedule_at(3.2, [&] { data(kC, {104, 105}); });
  probe(3.3);
  // C was last heard at 0.5, so the watchdog reaps it at 3.5 and flushes
  // its two held packets: backlog 2 (the stall queue), latch released.
  probe(3.7);
  loop.run();  // the stall ends at 4.0; C's deferred stragglers are dropped.

  EXPECT_EQ(latched, (std::vector<bool>{true, false, true, false}));
  const ServerReport& r = server.report();
  EXPECT_EQ(r.datagrams, 15u);
  EXPECT_EQ(r.hellos, 3u);
  EXPECT_EQ(r.admitted, 2u);
  EXPECT_EQ(r.rejected, 1u);
  EXPECT_EQ(r.closed, 1u);
  EXPECT_EQ(r.watchdog_killed, 1u);
  EXPECT_EQ(r.unknown_ssrc, 0u);
  EXPECT_EQ(r.ctrl_drops, 0u);
  EXPECT_EQ(r.stall_deferred, 2u);
  EXPECT_EQ(r.stall_dropped, 0u);
  EXPECT_EQ(r.max_backlog, 5u);
  EXPECT_EQ(r.overload_entries, 2u);

  ASSERT_EQ(overload.entries.size(), 4u);
  const std::vector<std::string> kinds = {
      "srv_overload_enter", "srv_overload_exit", "srv_overload_enter",
      "srv_overload_exit"};
  const std::vector<double> times = {0.1, 0.3, 3.2, 3.5};
  const std::vector<double> depths = {4.0, 0.0, 4.0, 2.0};
  for (std::size_t i = 0; i < 4; ++i) {
    const OverloadEvents::Entry& e = overload.entries[i];
    EXPECT_EQ(e.kind, kinds[i]) << "event " << i;
    EXPECT_DOUBLE_EQ(e.time_s, times[i]) << "event " << i;
    EXPECT_DOUBLE_EQ(e.depth, depths[i]) << "event " << i;
  }

  // The client heard ACCEPT(A), REJECT(B) while latched, BYE_ACK(A) and
  // ACCEPT(C) once the BYE had released the latch.
  std::vector<std::pair<ControlMsg::Type, std::uint32_t>> replies;
  while (const auto reply = client.receive()) {
    const auto msg = ControlMsg::try_parse(reply->payload);
    ASSERT_TRUE(msg.has_value());
    replies.emplace_back(msg->type, msg->ssrc);
  }
  using T = ControlMsg::Type;
  EXPECT_EQ(replies, (std::vector<std::pair<T, std::uint32_t>>{
                         {T::kAccept, kA},
                         {T::kReject, kB},
                         {T::kByeAck, kA},
                         {T::kAccept, kC}}));

  // Every held packet came back out, byte-equal, in stream order.
  const auto results = server.finish();
  ASSERT_EQ(results.size(), 2u);
  const auto sequences = [](const ServerSessionResult& s) {
    std::vector<std::uint16_t> out;
    for (const auto& p : s.packets) {
      EXPECT_EQ(p.datagram.size(), net::RtpHeader::kSize + 1);
      EXPECT_EQ(p.datagram.back(),
                static_cast<std::uint8_t>(p.header.sequence_number));
      out.push_back(p.header.sequence_number);
    }
    return out;
  };
  EXPECT_EQ(results[0].ssrc, kA);
  EXPECT_EQ(results[0].outcome, SessionOutcome::kCompleted);
  EXPECT_EQ(sequences(results[0]),
            (std::vector<std::uint16_t>{0, 2, 3, 4, 5, 6}));
  EXPECT_EQ(results[1].ssrc, kC);
  EXPECT_EQ(results[1].outcome, SessionOutcome::kWatchdogKilled);
  EXPECT_EQ(sequences(results[1]),
            (std::vector<std::uint16_t>{100, 102, 103}));
}

TEST(RunLoad, ChaosFleetServerReportIsPinned) {
  // Bursty loss, mid-stream kills and a receiver stall against
  // watermarks 40/4: the stall latches overload, REJECTs pile up and the
  // watchdog reaps the killed uploaders.  Every server counter is
  // pinned, so any drift in the backlog count shows.
  LoadConfig config = small_fleet(40);
  config.ramp_s = 8.0;
  config.chaos =
      chaos_plan_from_string("loss=0.05,burst=3,kill=0.1,stall=4:2");
  config.overload_high = 40;
  config.overload_low = 4;
  config.server_idle_timeout_s = 8.0;
  config.supervisor.stall_timeout_s = 8.0;
  const ServerReport r = run_load(config).server;

  EXPECT_EQ(r.datagrams, 873u);
  EXPECT_EQ(r.hellos, 73u);
  EXPECT_EQ(r.admitted, 20u);
  EXPECT_EQ(r.rejected, 53u);
  EXPECT_EQ(r.closed, 18u);
  EXPECT_EQ(r.watchdog_killed, 2u);
  EXPECT_EQ(r.unknown_ssrc, 0u);
  EXPECT_EQ(r.ctrl_drops, 0u);
  EXPECT_EQ(r.stall_deferred, 53u);
  EXPECT_EQ(r.stall_dropped, 0u);
  EXPECT_EQ(r.max_backlog, 94u);
  EXPECT_EQ(r.overload_entries, 1u);
}

TEST(RunLoad, FaultPlanDamageIsPinned) {
  // The chaos plan of the live_load_faults CLI transcript (fault plan and
  // AP outage) on every client's socket: every kind fires, and the
  // tallies are pinned so no RNG draw of the channel decision moves
  // unseen.
  LoadConfig config;
  config.sessions = 4;
  config.chaos = chaos_plan_from_string(
      "drop=0.05,corrupt=0.1,truncate=0.05,dup=0.1,outage=0.5:0.3");
  const LoadReport report = run_load(config);

  ChaosStats total;
  for (const SessionSummary& s : report.sessions) {
    total.sends += s.chaos.sends;
    total.dropped += s.chaos.dropped;
    total.damaged += s.chaos.damaged;
    total.duplicated += s.chaos.duplicated;
  }
  EXPECT_EQ(total.sends, 217u);
  EXPECT_EQ(total.dropped, 16u);  // fault-plan drops and the outage.
  EXPECT_EQ(total.damaged, 116u);  // bit flips and truncations.
  EXPECT_EQ(total.duplicated, 15u);
}

}  // namespace
}  // namespace tv::live
