// Steady-state allocation regression for the zero-copy packet path and
// the live plane.
//
// The arena refactor's core promise: once a workload's packets are built,
// pushing them through core::simulate_transfer costs a small, constant
// number of heap allocations per transfer (the result vectors), not per
// packet.  The live plane's: a datagram through live::Server costs the
// one buffer the server keeps it in, and timers cost nothing.  This suite
// pins both by replacing the global operator new with
// a counting shim — which is why it lives in its own test binary
// (tv_alloc_tests): the shim is process-wide and must not disturb the
// other tiers.
//
// The shim routes through std::malloc/free, so sanitizer builds still see
// and track every allocation (run_checks.sh --alloc-smoke runs this suite
// under ASan).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "crypto/suite.hpp"
#include "live/event_loop.hpp"
#include "live/server.hpp"
#include "live/supervisor.hpp"
#include "net/packetizer.hpp"
#include "util/arena.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tv {
namespace {

struct Transfer {
  util::Arena arena;
  std::vector<net::VideoPacket> packets;
  core::PipelineConfig config;
};

Transfer make_transfer(int frames) {
  Transfer t;
  const auto workload =
      core::build_workload(video::MotionLevel::kLow, 30, frames, 4242);
  t.packets = net::clone_packets(workload.packets, t.arena);
  const auto cipher = crypto::make_cipher_from_seed(
      crypto::Algorithm::kAes128, 77, crypto::CipherBackend::kAuto);
  const std::vector<std::uint8_t> iv(cipher->block_size(), 0x3c);
  net::encrypt_selected(t.packets,
                        std::vector<bool>(t.packets.size(), true), *cipher,
                        iv);
  t.config.device = core::samsung_galaxy_s2();
  t.config.algorithm = crypto::Algorithm::kAes128;
  return t;
}

/// Allocations of one steady-state transfer: the first call pays any
/// lazy one-time costs, the second is what the bench loop measures.
std::uint64_t transfer_allocations(const Transfer& t) {
  (void)core::simulate_transfer(t.config, t.packets, 4242);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  (void)core::simulate_transfer(t.config, t.packets, 4242);
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(AllocRegression, TransferAllocationsAreConstantPerTransfer) {
  const Transfer small = make_transfer(30);
  const Transfer large = make_transfer(120);
  ASSERT_GT(large.packets.size(), 2 * small.packets.size());

  const std::uint64_t small_allocs = transfer_allocations(small);
  const std::uint64_t large_allocs = transfer_allocations(large);

  // Per-transfer cost is the handful of result vectors; quadrupling the
  // packet count must not add a single allocation.
  EXPECT_EQ(small_allocs, large_allocs);
  EXPECT_LE(large_allocs, 16u);

  const double per_packet = static_cast<double>(large_allocs) /
                            static_cast<double>(large.packets.size());
  EXPECT_LT(per_packet, 0.1) << "allocations per packet regressed";
}

TEST(AllocRegression, ArenaCloneIsOneAllocationPerChunkNotPerPacket) {
  const auto workload =
      core::build_workload(video::MotionLevel::kLow, 30, 60, 4242);
  util::Arena arena;
  // Warm the arena so the clone below reuses retained chunks.
  (void)net::clone_packets(workload.packets, arena);
  arena.reset();

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const auto packets = net::clone_packets(workload.packets, arena);
  const std::uint64_t clones =
      g_allocations.load(std::memory_order_relaxed) - before;

  // One allocation for the packet vector itself; payload bytes all land in
  // the arena's retained chunks.
  EXPECT_LE(clones, 2u) << "cloning " << packets.size()
                        << " packets should not allocate per packet";
}

// ---- The live plane ------------------------------------------------------

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

struct LiveClip {
  util::Arena arena;
  std::vector<net::VideoPacket> packets;
  live::PacedSchedule schedule;
};

LiveClip make_live_clip(int count) {
  LiveClip clip;
  for (int i = 0; i < count; ++i) {
    net::VideoPacket p;
    p.sequence = static_cast<std::uint16_t>(i);
    p.timestamp = 90000u + static_cast<std::uint32_t>(i);
    p.allocate_payload(clip.arena, 400, static_cast<std::uint8_t>(i));
    clip.packets.push_back(std::move(p));
    clip.schedule.arrival_s.push_back(1e-3 * i);
    clip.schedule.send_s.push_back(1e-3 * i + 2e-4);
  }
  return clip;
}

struct LiveRun {
  std::uint64_t allocations = 0;
  std::size_t datagrams = 0;
};

/// Allocations of one virtual-loop run of `clients` sessions uploading
/// `clip` at staggered starts through one live::Server: everything from
/// building the loop to its going idle, per-session set-up included.
LiveRun live_run(const LiveClip& clip, int clients) {
  LiveRun out;
  const std::uint64_t before = allocations();
  live::EventLoop loop{live::ClockMode::kVirtual};
  live::Server server{loop, live::ServerConfig{}};
  server.start();
  std::vector<std::unique_ptr<live::ClientSession>> sessions;
  for (int c = 0; c < clients; ++c) {
    live::ClientConfig config;
    config.server = server.endpoint();
    config.ssrc = 0x7000u + static_cast<std::uint32_t>(c);
    config.seed = static_cast<std::uint64_t>(c) + 1;
    config.start_s = 0.01 * c;
    sessions.push_back(std::make_unique<live::ClientSession>(
        loop, std::move(config), clip.packets, clip.packets, clip.schedule));
    sessions.back()->start();
  }
  loop.run();
  out.allocations = allocations() - before;
  out.datagrams = server.report().datagrams;
  for (const auto& session : sessions) {
    EXPECT_EQ(session->stats().outcome, live::SessionOutcome::kCompleted);
  }
  return out;
}

TEST(AllocRegression, LiveServerAllocatesAboutOncePerDatagram) {
  // The one allocation a datagram must cost is the buffer the server
  // keeps it in until finish(); timers, the reorder buffer and the
  // session's packet list add nothing per datagram once warm.
  const LiveClip clip = make_live_clip(300);
  (void)live_run(clip, 4);  // warm: lazy statics, allocator arenas.
  const LiveRun run = live_run(clip, 4);
  ASSERT_GE(run.datagrams, 4u * 300u);
  const double per_datagram = static_cast<double>(run.allocations) /
                              static_cast<double>(run.datagrams);
  EXPECT_LE(per_datagram, 1.2)
      << run.allocations << " allocations for " << run.datagrams
      << " datagrams";
}

TEST(AllocRegression, SchedulingAndFiringTimersAllocateNothingOnceWarm) {
  live::EventLoop loop{live::ClockMode::kVirtual};
  int fired = 0;
  auto schedule_round = [&] {
    for (int i = 0; i < 64; ++i) {
      loop.schedule_at(1e-3 * (i % 7), [&fired, i] { fired += i > 0; });
    }
    const auto cancelled = loop.schedule_at(0.5, [&fired] { fired = -1; });
    loop.cancel(cancelled);
  };
  schedule_round();
  loop.run();  // grows the timer heap to its working size.

  const std::uint64_t before = allocations();
  schedule_round();
  loop.run();
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(fired, 2 * 63);
}

}  // namespace
}  // namespace tv
