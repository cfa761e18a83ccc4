// Feature extraction from ciphertext-only captures: the adversary's raw
// material (docs/adversary.md).  Everything here is hand-crafted wire
// metadata — no video bytes are ever consulted.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/features.hpp"
#include "live/eavesdropper.hpp"
#include "net/pcap.hpp"
#include "net/rtp.hpp"

namespace tv::analysis {
namespace {

net::RawCapture wire_packet(std::uint16_t sequence, std::uint32_t timestamp,
                            std::size_t payload_bytes, bool marker = false,
                            bool padding = false, double time_s = 0.0) {
  net::RtpHeader header;
  header.sequence_number = sequence;
  header.timestamp = timestamp;
  header.marker = marker;
  header.padding = padding;
  net::RawCapture p{time_s, header.serialize()};
  p.datagram.insert(p.datagram.end(), payload_bytes, 0x11);
  return p;
}

TEST(AnalysisFeatures, GroupsPacketsIntoFramesBySequenceAndTimestamp) {
  std::vector<net::RawCapture> wire;
  wire.push_back(wire_packet(0, 0, 1000, false, false, 0.00));
  wire.push_back(wire_packet(1, 0, 400, false, false, 0.01));
  wire.push_back(wire_packet(2, 3000, 200, false, false, 0.04));

  const CaptureFeatures f = extract_features(wire);
  ASSERT_EQ(f.packets.size(), 3u);
  ASSERT_EQ(f.frames.size(), 2u);
  EXPECT_EQ(f.frames[0].rtp_timestamp, 0u);
  EXPECT_EQ(f.frames[0].packet_count, 2u);
  EXPECT_EQ(f.frames[0].wire_bytes, 1400u);
  EXPECT_EQ(f.frames[1].rtp_timestamp, 3000u);
  EXPECT_EQ(f.frames[1].packet_count, 1u);
  EXPECT_DOUBLE_EQ(f.capture_start_s, 0.0);
  EXPECT_DOUBLE_EQ(f.capture_end_s, 0.04);
  EXPECT_EQ(f.expected_packets, 3u);
  EXPECT_DOUBLE_EQ(f.loss_rate_est, 0.0);
}

TEST(AnalysisFeatures, ReordersAndDeduplicatesBySequence) {
  std::vector<net::RawCapture> wire;
  wire.push_back(wire_packet(2, 0, 300));
  wire.push_back(wire_packet(0, 0, 100));
  wire.push_back(wire_packet(1, 0, 200));
  // A duplicate of sequence 1 with a different length: first heard wins.
  wire.push_back(wire_packet(1, 0, 999));

  const CaptureFeatures f = extract_features(wire);
  ASSERT_EQ(f.packets.size(), 3u);
  EXPECT_EQ(f.packets[0].extended_sequence, 0);
  EXPECT_EQ(f.packets[1].extended_sequence, 1);
  EXPECT_EQ(f.packets[1].wire_payload_bytes, 200u);
  EXPECT_EQ(f.packets[2].extended_sequence, 2);
}

TEST(AnalysisFeatures, UnwrapsSequenceAcrossThe16BitBoundary) {
  std::vector<net::RawCapture> wire;
  wire.push_back(wire_packet(65534, 0, 100));
  wire.push_back(wire_packet(65535, 0, 100));
  wire.push_back(wire_packet(0, 0, 100));
  wire.push_back(wire_packet(1, 0, 100));

  const CaptureFeatures f = extract_features(wire);
  ASSERT_EQ(f.packets.size(), 4u);
  EXPECT_EQ(f.packets[3].extended_sequence - f.packets[0].extended_sequence,
            3);
  EXPECT_EQ(f.expected_packets, 4u);
  EXPECT_DOUBLE_EQ(f.loss_rate_est, 0.0);
}

TEST(AnalysisFeatures, EstimatesLossFromSequenceGaps) {
  std::vector<net::RawCapture> wire;
  for (std::uint16_t s = 0; s < 10; ++s) {
    if (s == 3 || s == 7) continue;  // two packets the snooper missed.
    wire.push_back(wire_packet(s, 0, 100));
  }
  const CaptureFeatures f = extract_features(wire);
  EXPECT_EQ(f.expected_packets, 10u);
  EXPECT_DOUBLE_EQ(f.loss_rate_est, 0.2);
}

TEST(AnalysisFeatures, StripsReadablePadTrailerOnly) {
  // Cleartext padded packet: P bit set, marker clear, trailer readable.
  auto readable = wire_packet(0, 0, 100, /*marker=*/false, /*padding=*/true);
  readable.datagram.back() = 25;
  // Encrypted padded packet: the marker says the trailer is ciphertext.
  auto encrypted = wire_packet(1, 0, 100, /*marker=*/true, /*padding=*/true);
  encrypted.datagram.back() = 25;
  // P bit set but the count is inconsistent with the payload size.
  auto bogus = wire_packet(2, 0, 100, /*marker=*/false, /*padding=*/true);
  bogus.datagram.back() = 0;

  const CaptureFeatures f =
      extract_features(std::vector<net::RawCapture>{
          readable, encrypted, bogus});
  ASSERT_EQ(f.packets.size(), 3u);
  EXPECT_EQ(f.packets[0].inferred_content_bytes, 75u);
  EXPECT_EQ(f.packets[1].inferred_content_bytes, 100u);
  EXPECT_EQ(f.packets[2].inferred_content_bytes, 100u);
  EXPECT_DOUBLE_EQ(f.padding_bit_fraction, 1.0);
}

TEST(AnalysisFeatures, MarkerFractionIsTheVisibleEncryptionFingerprint) {
  std::vector<net::RawCapture> wire;
  wire.push_back(wire_packet(0, 0, 100, /*marker=*/true));
  wire.push_back(wire_packet(1, 0, 100, /*marker=*/false));
  wire.push_back(wire_packet(2, 0, 100, /*marker=*/true));
  wire.push_back(wire_packet(3, 0, 100, /*marker=*/false));
  const CaptureFeatures f = extract_features(wire);
  EXPECT_DOUBLE_EQ(f.marker_fraction, 0.5);
  EXPECT_DOUBLE_EQ(f.frames[0].marker_fraction, 0.5);
}

TEST(AnalysisFeatures, RawCaptureOverloadSkipsNonRtpDatagrams) {
  net::RtpHeader header;
  header.sequence_number = 7;
  header.timestamp = 90;
  std::vector<std::uint8_t> datagram(net::RtpHeader::kSize + 40, 0xAB);
  (void)header.write_to(datagram);

  std::vector<net::RawCapture> captures;
  captures.push_back({0.5, datagram});
  captures.push_back({0.6, {0xde, 0xad}});  // not RTP: skipped.

  const CaptureFeatures f = extract_features(captures);
  ASSERT_EQ(f.packets.size(), 1u);
  EXPECT_EQ(f.packets[0].extended_sequence, 7);
  EXPECT_EQ(f.packets[0].wire_payload_bytes, 40u);
  EXPECT_DOUBLE_EQ(f.packets[0].capture_time_s, 0.5);
}

// Satellite check: per-datagram capture timestamps survive the pcap
// round trip at microsecond precision — they are written as sub-second
// microseconds, not truncated to whole seconds, so the adversary's
// trajectory windows line up with the TraceSink clock the tap shares.
TEST(AnalysisFeatures, TapPcapTimestampsKeepMicrosecondPrecision) {
  live::EavesdropperTap tap{nullptr};
  net::RtpHeader header;
  std::vector<std::uint8_t> datagram(net::RtpHeader::kSize + 8, 0);
  const double times[] = {0.000001, 1.234567, 12.999999, 33.300033};
  for (std::size_t i = 0; i < 4; ++i) {
    header.sequence_number = static_cast<std::uint16_t>(i);
    (void)header.write_to(datagram);
    tap.hear(times[i], datagram);
  }

  const std::string path =
      testing::TempDir() + "tv_analysis_tap_timestamps.pcap";
  ASSERT_EQ(tap.write_pcap(path), 0u);
  const net::PcapFile capture = net::read_pcap_file(path);
  std::remove(path.c_str());
  ASSERT_EQ(capture.records.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(capture.records[i].timestamp_s, times[i], 5e-7)
        << "record " << i << " lost sub-second precision";
    const double frac =
        times[i] - static_cast<double>(static_cast<long>(times[i]));
    if (frac > 1e-6) {
      EXPECT_GT(capture.records[i].timestamp_s,
                static_cast<double>(static_cast<long>(times[i])))
          << "record " << i << " was truncated to whole seconds";
    }
  }
}

}  // namespace
}  // namespace tv::analysis
