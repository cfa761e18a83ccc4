// Byte-stability golden for the live loopback testbed.
//
// The fixture tests/data/live_loopback_golden.jsonl pins, byte for byte,
// the full observable output of one stochastic loopback run: a summary
// line with every report statistic (PSNRs at %.17g) followed by the
// complete per-packet trace JSONL of all three roles.  The companion
// fixture live_loopback_golden.pcap pins the eavesdropper's capture at
// the wire-byte level (Ethernet/IP/UDP/RTP framing included).
//
// Together they guarantee that ownership/lifetime refactors of the
// packet path (arena buffers, wire views, pooled datagrams) change no
// observable byte: same RNG draw sequence, same payload bytes on the
// wire, same trace, same PSNRs.  After an intentional behaviour change,
// regenerate with
//
//     TV_UPDATE_GOLDEN=1 ./build/tests/tv_live_tests
//         --gtest_filter='LiveGolden.*'   (one command line)
//
// and review the fixture diff.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "golden.hpp"
#include "live/loopback.hpp"
#include "policy/policy.hpp"

namespace tv::live {
namespace {

LoopbackConfig golden_config(core::TraceSink* trace,
                             const std::string& pcap_path) {
  LoopbackConfig config;
  config.motion = video::MotionLevel::kMedium;
  config.gop_size = 16;
  config.frames = 24;
  config.policy =
      policy::policy_from_string("I", crypto::Algorithm::kAes128);
  config.seed = 3;
  config.stochastic = true;

  core::ChannelModel channel;
  channel.receiver.mean_loss_prob = 0.05;
  channel.receiver.mean_burst_length = 3.0;
  channel.eavesdropper.mean_loss_prob =
      config.pipeline.eavesdropper_loss_prob;
  channel.eavesdropper.mean_burst_length = 1.0;
  config.pipeline.channel = channel;

  net::FaultPlan faults;
  faults.drop_prob = 0.02;
  faults.corrupt_payload_prob = 0.02;
  faults.duplicate_prob = 0.02;
  faults.reorder_prob = 0.05;
  config.faults = faults;

  config.pcap_path = pcap_path;
  config.trace = trace;
  return config;
}

std::string summary_line(const LoopbackReport& r) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "{\"packets\": %zu, \"encrypted\": %zu, "
      "\"recv_psnr\": [%.17g, %.17g, %.17g], "
      "\"eaves_psnr\": [%.17g, %.17g, %.17g], "
      "\"proxy\": [%zu, %zu, %zu, %zu, %zu], "
      "\"receiver\": [%zu, %zu, %zu, %zu], "
      "\"tap\": [%zu, %zu], \"pcap_clamped\": %zu}",
      r.packet_count, r.encryption.encrypted_packets,
      r.live_receiver_psnr_db, r.memory_receiver_psnr_db,
      r.predicted_receiver_psnr_db, r.live_eavesdropper_psnr_db,
      r.memory_eavesdropper_psnr_db, r.predicted_eavesdropper_psnr_db,
      r.proxy.heard, r.proxy.forwarded, r.proxy.dropped, r.proxy.duplicated,
      r.proxy.reordered, r.receiver.accepted, r.receiver.duplicates,
      r.receiver.reordered, r.receiver.invalid, r.tap.heard, r.tap.captured,
      r.pcap_clamped);
  return std::string{buf};
}

TEST(LiveGolden, TraceAndCaptureMatchFixtures) {
  const std::string pcap_tmp =
      testing::TempDir() + "tv_live_golden_capture.pcap";

  std::ostringstream trace_out;
  core::JsonlTraceSink trace{trace_out};
  const LoopbackConfig config = golden_config(&trace, pcap_tmp);
  const LoopbackReport report = run_loopback(config);

  const std::string actual = summary_line(report) + "\n" + trace_out.str();
  const std::string actual_pcap = test::read_file(pcap_tmp);
  std::remove(pcap_tmp.c_str());

  test::check_golden(test::data_path("live_loopback_golden.jsonl"), actual);
  test::check_golden(test::data_path("live_loopback_golden.pcap"),
                     actual_pcap);
}

}  // namespace
}  // namespace tv::live
