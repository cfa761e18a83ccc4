// Pinned end-to-end test for the live loopback testbed: the real-socket
// path must reproduce the in-memory transfer it replays, and the
// wire-level eavesdropper must do measurably worse than the receiver.
#include "live/loopback.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>

#include "core/trace.hpp"
#include "net/rtp.hpp"
#include "net/pcap.hpp"
#include "policy/policy.hpp"

namespace tv::live {
namespace {

LoopbackConfig base_config() {
  LoopbackConfig config;
  config.motion = video::MotionLevel::kLow;
  config.gop_size = 16;
  config.frames = 32;
  config.policy =
      policy::policy_from_string("I", crypto::Algorithm::kAes128);
  config.seed = 1;
  return config;
}

TEST(LiveLoopback, ReplayMatchesInMemoryAndDegradesTheEavesdropper) {
  const LoopbackReport r = run_loopback(base_config());

  // The acceptance bar: the live receiver, fed by real datagrams through
  // the proxy, lands within 0.1 dB of the in-memory twin on the same
  // seed and policy...
  EXPECT_NEAR(r.live_receiver_psnr_db, r.memory_receiver_psnr_db, 0.1);
  EXPECT_NEAR(r.live_eavesdropper_psnr_db, r.memory_eavesdropper_psnr_db,
              0.1);
  // ...and with I-frames-only encryption the wire eavesdropper sits at
  // least 10 dB below the keyed receiver.
  EXPECT_LE(r.live_eavesdropper_psnr_db, r.live_receiver_psnr_db - 10.0);

  // Conservation through the roles.
  EXPECT_GT(r.packet_count, 0u);
  EXPECT_EQ(r.sender.packets_sent, r.packet_count);
  EXPECT_EQ(r.proxy.heard, r.packet_count);
  EXPECT_EQ(r.proxy.forwarded + r.proxy.dropped, r.proxy.heard);
  EXPECT_EQ(r.receiver.accepted, r.proxy.forwarded);
  EXPECT_LE(r.tap.captured, r.tap.heard);
  EXPECT_GT(r.encryption.encrypted_packets, 0u);
  EXPECT_LT(r.encryption.encrypted_packets, r.encryption.total_packets);
}

TEST(LiveLoopback, RunsArePureFunctionsOfTheConfig) {
  const LoopbackReport a = run_loopback(base_config());
  const LoopbackReport b = run_loopback(base_config());
  EXPECT_EQ(a.live_receiver_psnr_db, b.live_receiver_psnr_db);
  EXPECT_EQ(a.live_eavesdropper_psnr_db, b.live_eavesdropper_psnr_db);
  EXPECT_EQ(a.sender.packets_sent, b.sender.packets_sent);
  EXPECT_EQ(a.proxy.forwarded, b.proxy.forwarded);
  EXPECT_EQ(a.tap.captured, b.tap.captured);
}

TEST(LiveLoopback, TraceOutputIsByteStableAcrossRuns) {
  auto traced = [] {
    std::ostringstream out;
    core::JsonlTraceSink sink{out};
    LoopbackConfig config = base_config();
    config.trace = &sink;
    (void)run_loopback(config);
    return out.str();
  };
  const std::string a = traced();
  const std::string b = traced();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // The live roles contributed their events, not just the in-memory twin.
  EXPECT_NE(a.find("\"send\""), std::string::npos);
  EXPECT_NE(a.find("\"receive\""), std::string::npos);
  EXPECT_NE(a.find("\"eavesdrop\""), std::string::npos);
}

TEST(LiveLoopback, StochasticModeIsDeterministicInTheSeed) {
  auto config_with_seed = [](std::uint64_t seed) {
    LoopbackConfig config = base_config();
    config.stochastic = true;
    config.seed = seed;
    net::FaultPlan faults;
    faults.drop_prob = 0.08;
    faults.duplicate_prob = 0.05;
    faults.reorder_prob = 0.1;
    config.faults = faults;
    return config;
  };
  const LoopbackReport a = run_loopback(config_with_seed(7));
  const LoopbackReport b = run_loopback(config_with_seed(7));
  EXPECT_EQ(a.live_receiver_psnr_db, b.live_receiver_psnr_db);
  EXPECT_EQ(a.live_eavesdropper_psnr_db, b.live_eavesdropper_psnr_db);
  EXPECT_EQ(a.proxy.dropped, b.proxy.dropped);
  EXPECT_EQ(a.proxy.duplicated, b.proxy.duplicated);
  EXPECT_EQ(a.proxy.reordered, b.proxy.reordered);
  EXPECT_EQ(a.tap.captured, b.tap.captured);
  EXPECT_GT(a.proxy.dropped, 0u);  // the impairments really ran.
  EXPECT_EQ(a.tap.captured, a.tap.heard);  // the stochastic tap hears all.

  const LoopbackReport c = run_loopback(config_with_seed(8));
  EXPECT_NE(std::make_tuple(a.proxy.dropped, a.proxy.duplicated,
                            a.tap.captured, a.live_receiver_psnr_db),
            std::make_tuple(c.proxy.dropped, c.proxy.duplicated,
                            c.tap.captured, c.live_receiver_psnr_db));
}

TEST(LiveLoopback, EavesdropperPcapRoundTripsThroughTheReader) {
  LoopbackConfig config = base_config();
  config.pcap_path = testing::TempDir() + "live_loopback_tap.pcap";
  const LoopbackReport r = run_loopback(config);
  EXPECT_EQ(r.pcap_clamped, 0u);

  const net::PcapFile file = net::read_pcap_file(config.pcap_path);
  EXPECT_EQ(file.records.size(), r.tap.captured);
  EXPECT_EQ(file.oversized_records, 0u);
  const auto rtp = net::extract_rtp(file);
  ASSERT_EQ(rtp.size(), r.tap.captured);
  // The capture shows the paper's signal: marker bits flag exactly the
  // still-encrypted payloads, and some of both kinds were overheard.
  std::size_t marked = 0;
  for (const auto& p : rtp) {
    marked += net::RtpHeader::parse(p.datagram).marker ? 1u : 0u;
  }
  EXPECT_GT(marked, 0u);
  EXPECT_LT(marked, rtp.size());
  std::remove(config.pcap_path.c_str());
}

}  // namespace
}  // namespace tv::live
