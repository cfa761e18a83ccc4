#include "live/load.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <stdexcept>

#include "crypto/suite.hpp"
#include "util/arena.hpp"
#include "live/stream_map.hpp"
#include "util/rng.hpp"

namespace tv::live {

namespace {

constexpr std::uint32_t kSsrcBase = 0x74561D00;

}  // namespace

LoadReport run_load(const LoadConfig& config) {
  if (config.sessions <= 0) {
    throw std::invalid_argument{"run_load: sessions <= 0"};
  }
  config.supervisor.validate();
  config.chaos.validate();

  // ---- One shared workload: every session uploads the same clip under
  // the same policy, so per-session results are comparable and the
  // expensive parts (encode, packetize, encrypt) are paid once.
  const core::Workload workload =
      core::build_workload(config.motion, config.gop_size, config.frames,
                           config.seed, config.pipeline.fps);
  util::Arena arena;
  std::vector<net::VideoPacket> wire =
      net::clone_packets(workload.packets, arena);
  const std::vector<bool> selected = config.policy.select(wire);
  const auto cipher =
      crypto::make_cipher_from_seed(config.policy.algorithm, config.seed);
  const auto flow_iv = flow_iv_for(*cipher, config.seed);
  net::encrypt_selected(wire, selected, *cipher, flow_iv);

  core::PipelineConfig pipeline = config.pipeline;
  pipeline.algorithm = config.policy.algorithm;
  core::validate(pipeline);

  const int frame_count = static_cast<int>(workload.stream.frames.size());
  const StreamMap map = StreamMap::of(wire, frame_count);

  LoadReport report;
  report.packet_count = wire.size();

  // ---- The fleet: one virtual-clock loop, one server, N clients.
  EventLoop loop{ClockMode::kVirtual};

  core::StampTraceSink server_trace{config.trace, nullptr, -1};
  ServerConfig server_config;
  server_config.max_sessions = config.max_sessions != 0
                                   ? config.max_sessions
                                   : static_cast<std::size_t>(config.sessions);
  server_config.overload_high = config.overload_high;
  server_config.overload_low = config.overload_low;
  server_config.idle_timeout_s = config.server_idle_timeout_s;
  server_config.ctrl_drop_prob = config.chaos.ctrl_drop_prob;
  server_config.stalls = config.chaos.stalls;
  server_config.seed = util::derive_seed(config.seed, 0x5e97e7, 0, 0);
  server_config.trace = config.trace != nullptr ? &server_trace : nullptr;
  Server server{loop, server_config};
  server.start();
  const Endpoint server_endpoint = server.endpoint();

  const std::size_t n = static_cast<std::size_t>(config.sessions);
  std::deque<core::StampTraceSink> stamps;  // stable addresses.
  std::vector<std::unique_ptr<ClientSession>> clients;
  clients.reserve(n);
  util::Rng kill_rng{util::derive_seed(config.seed, 0x4111, 0, 0)};

  for (std::size_t i = 0; i < n; ++i) {
    stamps.emplace_back(config.trace, nullptr, static_cast<int>(i));
    const double start_s =
        config.ramp_s * static_cast<double>(i) / static_cast<double>(n);
    ClientConfig client;
    client.server = server_endpoint;
    client.ssrc = kSsrcBase + static_cast<std::uint32_t>(i);
    client.supervisor = config.supervisor;
    client.policy = config.policy;
    client.chaos = config.chaos;
    client.seed = util::derive_seed(config.seed, 0xc11e7, i, 0);
    client.start_s = start_s;
    client.trace = config.trace != nullptr ? &stamps.back() : nullptr;

    PacedSchedule schedule = paced_schedule_from_service_model(
        pipeline, wire, util::derive_seed(config.seed, 0x9a3e, i, 0));
    const double stream_span =
        schedule.send_s.empty() ? 0.0 : schedule.send_s.back();

    clients.push_back(std::make_unique<ClientSession>(
        loop, std::move(client), wire, workload.packets,
        std::move(schedule)));

    // Chaos kills: a seeded coin per session, dying at a seeded fraction
    // of its own stream.  The drawing order is fixed (session index), so
    // the kill set is a pure function of the root seed.
    if (config.chaos.kill_prob > 0.0 &&
        kill_rng.bernoulli(config.chaos.kill_prob)) {
      const double at = start_s + kill_rng.uniform(0.1, 0.9) * stream_span;
      ClientSession* target = clients.back().get();
      loop.schedule_at(at, [target] { target->chaos_kill(); });
    }
  }
  for (auto& client : clients) client->start();

  loop.run();  // virtual clock: returns when every session settled.

  // ---- Accounting.
  report.duration_s = loop.now_s();
  auto server_sessions = server.finish();
  report.server = server.report();

  std::map<std::uint32_t, ServerSessionResult*> by_ssrc;
  for (auto& result : server_sessions) by_ssrc[result.ssrc] = &result;

  report.sessions.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    SessionSummary summary;
    summary.index = static_cast<int>(i);
    summary.ssrc = kSsrcBase + static_cast<std::uint32_t>(i);
    summary.client = clients[i]->stats();
    summary.chaos = clients[i]->chaos_stats();
    const auto it = by_ssrc.find(summary.ssrc);
    if (it != by_ssrc.end()) {
      summary.server_state = it->second->state;
      summary.server_outcome = it->second->outcome;
      summary.delivered = it->second->packets.size();
      summary.delivered_fraction =
          wire.empty() ? 0.0
                       : static_cast<double>(summary.delivered) /
                             static_cast<double>(wire.size());
      if (config.evaluate_psnr && !it->second->packets.empty()) {
        summary.psnr_db = core::decode_psnr(
            workload, reassemble_wire(map, it->second->packets, cipher.get(),
                                      flow_iv));
      }
    }
    switch (summary.client.outcome) {
      case SessionOutcome::kCompleted:
        ++report.completed;
        break;
      case SessionOutcome::kRecovered:
        ++report.recovered;
        break;
      case SessionOutcome::kShed:
        ++report.shed;
        break;
      case SessionOutcome::kWatchdogKilled:
        ++report.watchdog_killed;
        break;
      case SessionOutcome::kPending:
        break;  // cannot happen after run(); kept for completeness.
    }
    report.total_send_retries += summary.client.send_retries;
    report.total_packets_shed += summary.client.packets_shed;
    report.total_packets_degraded += summary.client.packets_degraded;
    report.max_client_queue_depth = std::max(report.max_client_queue_depth,
                                             summary.client.max_queue_depth);
    report.sessions.push_back(std::move(summary));
  }
  return report;
}

}  // namespace tv::live
