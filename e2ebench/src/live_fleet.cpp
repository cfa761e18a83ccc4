// live-fleet: a closed loop of 4 clients, each uploading one session at a
// time to one live::Server over real loopback UDP on a virtual-clock
// EventLoop and starting its next session from on_done.  Each client
// uploads its own prebuilt AES128 I-frame clip; chaos off, one thread.
// The only workload through the live plane (udp, event_loop, server,
// supervisor) and net::Receiver; decoding and the cell engine are
// bypassed.  Session churn exposes cost that grows with the number of
// sessions a server has served.
//
// The classes are driven directly (not through live::run_load) so the
// clip builds stay out of the timed loop.
#include <array>
#include <memory>

#include "crypto/suite.hpp"
#include "live/server.hpp"
#include "live/stream_map.hpp"
#include "live/supervisor.hpp"
#include "net/rtp.hpp"
#include "alloc_count.hpp"
#include "recompose.hpp"
#include "workloads.hpp"

namespace e2e {

namespace core = tv::core;
namespace live = tv::live;
namespace net = tv::net;
namespace util = tv::util;
using tv::crypto::Algorithm;
using tv::policy::EncryptionPolicy;
using tv::policy::Mode;

namespace {

constexpr std::size_t kClients = 4;
constexpr int kSessionsPerPass = 1000;
constexpr int kFrames = 16;
constexpr int kGop = 8;
constexpr std::uint32_t kSsrcBase = 0x74561D00;

/// One client slot's clip: a high-motion clip built from the slot's own
/// seed (four clips average out how much one scene's content varies
/// the datagram count), policy-encrypted, with the slot's paced schedule.
/// Never moved (packets view into `arena`).
struct Clip {
  core::Workload workload;
  util::Arena arena;
  std::vector<net::VideoPacket> wire;
  live::PacedSchedule schedule;
};
using Fleet = std::array<std::unique_ptr<Clip>, kClients>;

const EncryptionPolicy kPolicy{Mode::kIFrames, Algorithm::kAes128, 0.0};

Fleet build_fleet(std::uint64_t seed, bool traced) {
  core::PipelineConfig pipeline;
  pipeline.algorithm = kPolicy.algorithm;
  core::validate(pipeline);
  Fleet fleet;
  for (std::size_t c = 0; c < kClients; ++c) {
    auto clip = std::make_unique<Clip>();
    const std::uint64_t clip_seed = util::derive_seed(seed, 0xc119, c, 0);
    clip->workload =
        traced ? traced_build_workload(tv::video::MotionLevel::kHigh, kGop,
                                       kFrames, clip_seed)
               : core::build_workload(tv::video::MotionLevel::kHigh, kGop,
                                      kFrames, clip_seed);
    {
      Span span("crypto.encrypt");
      clip->wire = net::clone_packets(clip->workload.packets, clip->arena);
      const std::vector<bool> selected = kPolicy.select(clip->wire);
      const auto cipher =
          tv::crypto::make_cipher_from_seed(kPolicy.algorithm, clip_seed);
      net::encrypt_selected(clip->wire, selected, *cipher,
                            live::flow_iv_for(*cipher, clip_seed));
    }
    clip->schedule = live::paced_schedule_from_service_model(
        pipeline, clip->wire, util::derive_seed(seed, 0x9a3e, c, 0));
    fleet[c] = std::move(clip);
  }
  return fleet;
}

/// The datagram a client sends for packet i of the clip.
std::vector<std::uint8_t> wire_image(const net::VideoPacket& p,
                                     std::uint32_t ssrc) {
  net::RtpHeader header;
  header.marker = p.encrypted;
  header.sequence_number = p.sequence;
  header.timestamp = p.timestamp;
  header.ssrc = ssrc;
  std::vector<std::uint8_t> bytes = header.serialize();
  bytes.insert(bytes.end(), p.payload.begin(), p.payload.end());
  return bytes;
}

struct FleetPass {
  double loop_s = 0.0;
  std::size_t datagrams = 0;
  std::size_t poll_rounds = 0;
  std::size_t send_retries = 0;
  std::size_t max_backlog = 0;
  std::uint64_t allocs = 0;   ///< heap allocations during the loop.
  double rate_first_tenth = 0.0;
  double rate_last_tenth = 0.0;
  std::vector<double> session_ms;
};

/// One closed-loop fleet of kSessionsPerPass sessions on a fresh server.
FleetPass fleet_pass(const Fleet& fleet, std::uint64_t seed, Report& report) {
  FleetPass out;
  live::EventLoop loop{live::ClockMode::kVirtual};
  live::ServerConfig server_config;
  server_config.max_sessions = 2 * kClients;
  server_config.seed = util::derive_seed(seed, 0x5e97e7, 0, 0);
  live::Server server{loop, server_config};
  server.start();
  const live::Endpoint endpoint = server.endpoint();

  struct Slot {
    std::unique_ptr<live::ClientSession> session;
    Clock::time_point started;
  };
  std::array<Slot, kClients> slots;
  int launched = 0;
  std::vector<std::size_t> client_of;  // session index -> client slot
  client_of.reserve(kSessionsPerPass);
  std::vector<double> done_s;        // wall time of each completion
  std::vector<std::size_t> done_dg;  // server datagrams at each completion
  done_s.reserve(kSessionsPerPass);
  done_dg.reserve(kSessionsPerPass);
  const auto loop_start = Clock::now();

  std::function<void(std::size_t)> launch = [&](std::size_t c) {
    Slot& slot = slots[c];
    slot.session.reset();
    if (launched >= kSessionsPerPass) return;
    Span span("live.session");
    const int index = launched++;
    client_of.push_back(c);
    const Clip& clip = *fleet[c];
    live::ClientConfig config;
    config.server = endpoint;
    config.ssrc = kSsrcBase + static_cast<std::uint32_t>(index);
    config.policy = kPolicy;
    config.seed =
        util::derive_seed(seed, 0xc11e7, static_cast<std::uint64_t>(index), 0);
    config.start_s = loop.now_s();
    slot.session = std::make_unique<live::ClientSession>(
        loop, std::move(config), clip.wire, clip.workload.packets,
        clip.schedule, [&, c] {
          Slot& s = slots[c];
          out.session_ms.push_back(1e3 * seconds_since(s.started));
          done_s.push_back(seconds_since(loop_start));
          done_dg.push_back(server.report().datagrams);
          const live::ClientStats& stats = s.session->stats();
          out.send_retries += stats.send_retries;
          report.check(stats.outcome == live::SessionOutcome::kCompleted ||
                           stats.outcome == live::SessionOutcome::kRecovered,
                       "live-fleet client session completed");
          // Replace the session from a fresh timer, never from inside
          // its own callback.
          loop.schedule_after(0.0, [&, c] { launch(c); });
        });
    slot.started = Clock::now();
    slot.session->start();
  };

  const std::uint64_t allocs_before = thread_allocations();
  {
    Span span("live.loop");
    const auto t0 = Clock::now();
    for (std::size_t c = 0; c < kClients; ++c) launch(c);
    loop.run();
    out.loop_s = seconds_since(t0);
  }
  out.allocs = thread_allocations() - allocs_before;
  out.datagrams = server.report().datagrams;
  out.poll_rounds = loop.poll_rounds();
  out.max_backlog = server.report().max_backlog;

  const std::size_t n = done_s.size();
  const std::size_t tenth = std::max<std::size_t>(1, n / 10);
  if (n > tenth) {
    out.rate_first_tenth = static_cast<double>(done_dg[tenth - 1]) /
                           done_s[tenth - 1];
    const std::size_t k = n - tenth - 1;
    out.rate_last_tenth = static_cast<double>(done_dg[n - 1] - done_dg[k]) /
                          (done_s[n - 1] - done_s[k]);
  }

  // Server side: every session closed with every packet byte-equal to
  // the datagram its client sent.
  report.check(n == static_cast<std::size_t>(kSessionsPerPass),
               "live-fleet ran every session");
  const std::vector<live::ServerSessionResult> results = server.finish();
  report.check(results.size() == n, "live-fleet server saw every session");
  for (const live::ServerSessionResult& r : results) {
    const std::size_t index = r.ssrc - kSsrcBase;
    bool ok = index < client_of.size();
    const std::vector<net::VideoPacket>& wire =
        fleet[ok ? client_of[index] : 0]->wire;
    ok = ok && r.outcome == live::SessionOutcome::kCompleted &&
         r.packets.size() == wire.size();
    for (std::size_t i = 0; ok && i < r.packets.size(); ++i) {
      ok = r.packets[i].datagram == wire_image(wire[i], r.ssrc);
    }
    report.check(ok, "live-fleet server packets equal the sent datagrams");
  }
  return out;
}

void add_pass(EndToEnd& e, FleetPass p) {
  e.add_pass(p.loop_s, static_cast<double>(p.datagrams),
             std::move(p.session_ms));
}

Report untraced(const Options& o) {
  Report report;
  EndToEnd e;
  e.unit = "datagrams";
  Fleet fleet;
  untraced_phases(
      o, e,
      [&] {
        fleet = Fleet{};
        const auto t0 = Clock::now();
        fleet = build_fleet(o.seed, false);
        return seconds_since(t0);
      },
      [&] { add_pass(e, fleet_pass(fleet, o.seed, report)); });
  add_end_to_end(report, e);
  return report;
}

Report traced(const Options& o) {
  Report report;
  Layers layers;
  const Fleet fleet = build_fleet(o.seed, false);
  traced_setups(layers, [&] {
    const Fleet built = build_fleet(o.seed, true);
    for (std::size_t c = 0; c < kClients; ++c) {
      report.check(identical(built[c]->workload, fleet[c]->workload),
                   "traced build_workload equals core::build_workload");
    }
  });

  // Every pass checks its own output (sessions complete, server packets
  // equal the sent datagrams), so there is no cross-pass output to match.
  std::vector<FleetPass> passes;
  traced_steady(
      o, report, layers,
      [&] { return PassOutput{fleet_pass(fleet, o.seed, report).loop_s, 0}; },
      [&] {
        passes.push_back(fleet_pass(fleet, o.seed, report));
        return PassOutput{passes.back().loop_s, 0};
      },
      "");

  const double n = static_cast<double>(passes.size());
  double allocs = 0.0;
  double allocs_datagrams = 0.0;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const FleetPass& p = passes[i];
    layers.live_loop_s += p.loop_s / n;
    layers.live_poll_rounds += static_cast<double>(p.poll_rounds) / n;
    layers.live_datagrams += static_cast<double>(p.datagrams) / n;
    layers.live_send_retries += static_cast<double>(p.send_retries) / n;
    layers.live_max_backlog += static_cast<double>(p.max_backlog) / n;
    layers.live_rate_first_tenth += p.rate_first_tenth / n;
    layers.live_rate_last_tenth += p.rate_last_tenth / n;
    // The first traced pass warms up; sample allocations after it.
    if (i > 0 || passes.size() == 1) {
      allocs += static_cast<double>(p.allocs);
      allocs_datagrams += static_cast<double>(p.datagrams);
    }
  }
  layers.live_allocs_per_datagram = allocs / allocs_datagrams;
  finish_traced(o, report, layers);
  return report;
}

}  // namespace

Report run_live_fleet(const Options& options) {
  return options.trace ? traced(options) : untraced(options);
}

}  // namespace e2e
