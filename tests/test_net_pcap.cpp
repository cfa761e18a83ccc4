#include "net/pcap.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "net/rtp.hpp"
#include "policy/policy.hpp"
#include "util/arena.hpp"

namespace tv::net {
namespace {

util::Arena& test_arena() {
  static util::Arena arena;  // lives for the whole test binary.
  return arena;
}

VideoPacket make_packet(std::uint16_t seq, bool encrypted,
                        std::size_t payload = 100) {
  VideoPacket p;
  p.sequence = seq;
  p.timestamp = 90000u * seq;
  p.encrypted = encrypted;
  p.allocate_payload(test_arena(), payload, static_cast<std::uint8_t>(seq));
  return p;
}

/// The packet's wire image (RTP header + payload) heard at `time_s`.
RawCapture heard(double time_s, const VideoPacket& p) {
  const util::ByteView wire = p.payload.wire();
  return {time_s, {wire.begin(), wire.end()}};
}

/// The Ethernet frame the writer envelopes one packet in.
std::vector<std::uint8_t> frame_of(const VideoPacket& p) {
  std::ostringstream out;
  write_pcap(out, {heard(0.0, p)});
  std::istringstream in{out.str()};
  return read_pcap(in).records.at(0).frame;
}

TEST(Pcap, WireFrameLayout) {
  const VideoPacket p = make_packet(7, true, 64);
  const auto frame = frame_of(p);
  ASSERT_EQ(frame.size(), 14u + 20u + 8u + 12u + 64u);
  // Ethertype IPv4 at offset 12.
  EXPECT_EQ(frame[12], 0x08);
  EXPECT_EQ(frame[13], 0x00);
  // IPv4 version/IHL and protocol UDP.
  EXPECT_EQ(frame[14], 0x45);
  EXPECT_EQ(frame[14 + 9], 17);
  // UDP length covers UDP header + RTP + payload.
  const std::uint16_t udp_len = static_cast<std::uint16_t>(
      (frame[14 + 20 + 4] << 8) | frame[14 + 20 + 5]);
  EXPECT_EQ(udp_len, 8u + 12u + 64u);
  // The embedded RTP header parses back with the marker (encryption) bit.
  const auto rtp = RtpHeader::parse(
      std::span<const std::uint8_t>(frame).subspan(14 + 20 + 8, 12));
  EXPECT_TRUE(rtp.marker);
  EXPECT_EQ(rtp.sequence_number, 7);
}

TEST(Pcap, Ipv4HeaderChecksumValidates) {
  const VideoPacket p = make_packet(3, false);
  const auto frame = frame_of(p);
  // RFC 1071: summing the header including its checksum gives 0xffff.
  std::uint32_t sum = 0;
  for (std::size_t i = 14; i < 34; i += 2) {
    sum += static_cast<std::uint32_t>(frame[i]) << 8 | frame[i + 1];
  }
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  EXPECT_EQ(sum, 0xffffu);
}

TEST(Pcap, GlobalHeaderAndRecords) {
  std::vector<VideoPacket> packets = {make_packet(0, false, 10),
                                      make_packet(1, true, 20)};
  std::ostringstream out;
  write_pcap(out, {heard(1.5, packets[0]), heard(1.5078125, packets[1])});
  const std::string s = out.str();
  ASSERT_GE(s.size(), 24u);
  // Little-endian classic pcap magic.
  EXPECT_EQ(static_cast<std::uint8_t>(s[0]), 0xd4);
  EXPECT_EQ(static_cast<std::uint8_t>(s[1]), 0xc3);
  EXPECT_EQ(static_cast<std::uint8_t>(s[2]), 0xb2);
  EXPECT_EQ(static_cast<std::uint8_t>(s[3]), 0xa1);
  // LINKTYPE_ETHERNET = 1 at offset 20.
  EXPECT_EQ(static_cast<std::uint8_t>(s[20]), 1);
  // First record: ts_sec = 1, ts_usec = 500000.
  EXPECT_EQ(static_cast<std::uint8_t>(s[24]), 1);
  const std::uint32_t usec = static_cast<std::uint8_t>(s[28]) |
                             (static_cast<std::uint8_t>(s[29]) << 8) |
                             (static_cast<std::uint8_t>(s[30]) << 16) |
                             (static_cast<std::uint8_t>(s[31]) << 24);
  EXPECT_EQ(usec, 500000u);
  // Total size: global header + 2 * (record header + frame).
  const std::size_t f0 = 14 + 20 + 8 + 12 + 10;
  const std::size_t f1 = 14 + 20 + 8 + 12 + 20;
  EXPECT_EQ(s.size(), 24u + 16u + f0 + 16u + f1);
}

TEST(Pcap, CaptureOfFiltersByFlag) {
  std::vector<VideoPacket> packets = {make_packet(0, false),
                                      make_packet(1, false),
                                      make_packet(2, false)};
  const std::vector<bool> captured = {true, false, true};
  const std::vector<double> times = {0.1, 0.2, 0.3};
  const auto caps = capture_of(packets, captured, times);
  ASSERT_EQ(caps.size(), 2u);
  EXPECT_EQ(caps[0].datagram, heard(0.1, packets[0]).datagram);
  EXPECT_EQ(caps[1].datagram, heard(0.3, packets[2]).datagram);
  EXPECT_DOUBLE_EQ(caps[1].timestamp_s, 0.3);
  EXPECT_THROW((void)capture_of(packets, {true}, times), std::invalid_argument);
}

TEST(Pcap, EmptyCaptureYieldsHeaderOnlyFile) {
  std::ostringstream out;
  EXPECT_EQ(write_pcap(out, {}), 0u);
  const std::string s = out.str();
  ASSERT_EQ(s.size(), 24u);  // global header only: a valid empty capture.
  EXPECT_EQ(static_cast<std::uint8_t>(s[0]), 0xd4);
}

TEST(Pcap, ClampsNonMonotonicAndNegativeTimestamps) {
  std::vector<VideoPacket> packets = {make_packet(0, false, 10),
                                      make_packet(1, false, 10),
                                      make_packet(2, false, 10)};
  // Out-of-order capture stamps: 2.0, then 1.0 (backwards), then -0.5 on
  // a fresh capture (negative).
  const std::vector<RawCapture> caps = {heard(2.0, packets[0]),
                                        heard(1.0, packets[1]),
                                        heard(2.5, packets[2])};
  std::ostringstream out;
  EXPECT_EQ(write_pcap(out, caps), 1u);  // the 1.0 record was clamped.
  const std::string s = out.str();
  const std::size_t record = 16 + (14 + 20 + 8 + 12 + 10);
  // Second record's ts_sec (clamped from 1.0 up to 2.0).
  const std::size_t off = 24 + record;
  EXPECT_EQ(static_cast<std::uint8_t>(s[off]), 2);

  std::ostringstream out2;
  EXPECT_EQ(write_pcap(out2, {heard(-0.5, packets[0])}), 1u);  // up to zero.
  EXPECT_EQ(static_cast<std::uint8_t>(out2.str()[24]), 0);
}

// --- reader: four classic magics, timestamp scaling, clamp-and-warn ------

namespace reader {

void put32(std::string& s, std::uint32_t v, bool big_endian) {
  if (big_endian) {
    s.push_back(static_cast<char>(v >> 24));
    s.push_back(static_cast<char>((v >> 16) & 0xff));
    s.push_back(static_cast<char>((v >> 8) & 0xff));
    s.push_back(static_cast<char>(v & 0xff));
  } else {
    s.push_back(static_cast<char>(v & 0xff));
    s.push_back(static_cast<char>((v >> 8) & 0xff));
    s.push_back(static_cast<char>((v >> 16) & 0xff));
    s.push_back(static_cast<char>(v >> 24));
  }
}

void put16(std::string& s, std::uint16_t v, bool big_endian) {
  if (big_endian) {
    s.push_back(static_cast<char>(v >> 8));
    s.push_back(static_cast<char>(v & 0xff));
  } else {
    s.push_back(static_cast<char>(v & 0xff));
    s.push_back(static_cast<char>(v >> 8));
  }
}

/// Synthesize a one-record capture in any of the four classic formats.
std::string capture(std::uint32_t magic, bool big_endian,
                    std::uint32_t frac, std::uint32_t snaplen,
                    const std::vector<std::uint8_t>& frame,
                    std::uint32_t incl_len_override = 0) {
  std::string s;
  put32(s, magic, big_endian);
  put16(s, 2, big_endian);
  put16(s, 4, big_endian);
  put32(s, 0, big_endian);
  put32(s, 0, big_endian);
  put32(s, snaplen, big_endian);
  put32(s, 1, big_endian);  // LINKTYPE_ETHERNET.
  put32(s, 10, big_endian);  // ts_sec.
  put32(s, frac, big_endian);
  const auto incl = incl_len_override != 0
                        ? incl_len_override
                        : static_cast<std::uint32_t>(frame.size());
  put32(s, incl, big_endian);
  put32(s, static_cast<std::uint32_t>(frame.size()), big_endian);
  s.append(frame.begin(), frame.end());
  return s;
}

}  // namespace reader

TEST(PcapReader, AcceptsAllFourClassicMagics) {
  const std::vector<std::uint8_t> frame(40, 0xAB);
  struct Case {
    std::uint32_t magic;
    bool big_endian;
    bool nanosecond;
  };
  const Case cases[] = {{0xa1b2c3d4, false, false},
                        {0xa1b2c3d4, true, false},
                        {0xa1b23c4d, false, true},
                        {0xa1b23c4d, true, true}};
  for (const Case& c : cases) {
    // usec captures carry 250000 us = 0.25 s; nsec ones 250000000 ns.
    const std::uint32_t frac = c.nanosecond ? 250000000u : 250000u;
    std::istringstream in{
        reader::capture(c.magic, c.big_endian, frac, 65535, frame)};
    const PcapFile file = read_pcap(in);
    EXPECT_EQ(file.big_endian, c.big_endian);
    EXPECT_EQ(file.nanosecond_timestamps, c.nanosecond);
    EXPECT_EQ(file.link_type, 1u);
    EXPECT_EQ(file.snaplen, 65535u);
    ASSERT_EQ(file.records.size(), 1u);
    EXPECT_NEAR(file.records[0].timestamp_s, 10.25, 1e-9);
    EXPECT_EQ(file.records[0].frame, frame);
    EXPECT_EQ(file.oversized_records, 0u);
  }
}

TEST(PcapReader, RejectsUnknownMagicAndTruncation) {
  std::istringstream bad_magic{std::string(24, '\0')};
  EXPECT_THROW((void)read_pcap(bad_magic), std::runtime_error);

  std::istringstream short_header{std::string("\xd4\xc3\xb2\xa1", 4)};
  EXPECT_THROW((void)read_pcap(short_header), std::runtime_error);

  // Record body shorter than its incl_len.
  const std::vector<std::uint8_t> frame(40, 1);
  std::string s = reader::capture(0xa1b2c3d4, false, 0, 65535, frame);
  s.resize(s.size() - 10);
  std::istringstream truncated{s};
  EXPECT_THROW((void)read_pcap(truncated), std::runtime_error);
}

TEST(PcapReader, CountsOversizedRecordsInsteadOfFailing) {
  // A record longer than the declared snaplen is a producer bug; the
  // reader keeps the bytes and counts it (clamp-and-warn).
  const std::vector<std::uint8_t> frame(64, 7);
  std::istringstream in{reader::capture(0xa1b2c3d4, false, 0, 48, frame)};
  const PcapFile file = read_pcap(in);
  ASSERT_EQ(file.records.size(), 1u);
  EXPECT_EQ(file.oversized_records, 1u);
  EXPECT_EQ(file.records[0].frame.size(), 64u);
}

TEST(PcapReader, RejectsImplausibleRecordLength) {
  std::istringstream in{reader::capture(0xa1b2c3d4, false, 0, 65535, {},
                                        /*incl_len_override=*/0x40000000u)};
  EXPECT_THROW((void)read_pcap(in), std::runtime_error);
}

TEST(PcapReader, WriterClampsOversizedFramesToSnapLen) {
  // A raw "datagram" bigger than the snaplen: the writer must clamp
  // incl_len, keep orig_len honest, and count the record.
  std::vector<RawCapture> caps(1);
  caps[0].timestamp_s = 1.0;
  caps[0].datagram.assign(70000, 0x55);
  std::ostringstream out;
  EXPECT_EQ(write_pcap(out, caps), 1u);
  std::istringstream in{out.str()};
  const PcapFile file = read_pcap(in);
  ASSERT_EQ(file.records.size(), 1u);
  EXPECT_EQ(file.records[0].frame.size(), kPcapSnapLen);
  EXPECT_EQ(file.records[0].original_length, 70000u + 14u + 20u + 8u);
  EXPECT_EQ(file.oversized_records, 0u);  // incl_len == snaplen is legal.
}

TEST(PcapReader, RoundTripsWriterOutputAndExtractsRtp) {
  std::vector<VideoPacket> packets = {make_packet(0, false, 10),
                                      make_packet(1, true, 20)};
  std::ostringstream out;
  write_pcap(out, {heard(1.5, packets[0]), heard(1.625, packets[1])});
  std::istringstream in{out.str()};
  const PcapFile file = read_pcap(in);
  EXPECT_FALSE(file.big_endian);
  EXPECT_FALSE(file.nanosecond_timestamps);
  ASSERT_EQ(file.records.size(), 2u);
  EXPECT_NEAR(file.records[1].timestamp_s, 1.625, 1e-6);

  const auto rtp = extract_rtp(file);
  ASSERT_EQ(rtp.size(), 2u);
  EXPECT_DOUBLE_EQ(rtp[1].timestamp_s, file.records[1].timestamp_s);
  const RtpHeader h0 = RtpHeader::parse(rtp[0].datagram);
  EXPECT_EQ(h0.sequence_number, 0);
  EXPECT_FALSE(h0.marker);
  EXPECT_EQ(rtp[0].datagram.size(), RtpHeader::kSize + 10u);
  EXPECT_TRUE(RtpHeader::parse(rtp[1].datagram).marker);
  EXPECT_EQ(rtp[1].datagram, heard(1.625, packets[1]).datagram);
}

TEST(PcapReader, ExtractRtpSkipsNonRtpFrames) {
  // An Ethernet frame that is not IPv4/UDP/RTP must be skipped, not
  // mis-parsed.
  PcapFile file;
  PcapRecord junk;
  junk.frame.assign(60, 0xFF);
  file.records.push_back(junk);
  EXPECT_TRUE(extract_rtp(file).empty());
}

TEST(PcapReader, DatagramWriterPreservesRtpAndUsesSequenceAsIpId) {
  RtpHeader h;
  h.marker = true;
  h.sequence_number = 0x0A0B;
  h.ssrc = 0x74561D01;
  std::vector<std::uint8_t> datagram = h.serialize();
  datagram.insert(datagram.end(), {1, 2, 3, 4});
  std::ostringstream out;
  EXPECT_EQ(write_pcap(out, {{0.5, datagram}}), 0u);
  std::istringstream in{out.str()};
  const PcapFile file = read_pcap(in);
  ASSERT_EQ(file.records.size(), 1u);
  // IPv4 identification at frame offset 18 echoes the RTP sequence.
  const auto& f = file.records[0].frame;
  EXPECT_EQ((f[18] << 8) | f[19], 0x0A0B);
  const auto rtp = extract_rtp(file);
  ASSERT_EQ(rtp.size(), 1u);
  EXPECT_EQ(rtp[0].datagram, datagram);
}

// FNV-1a over the bytes `thriftyvid export --motion=low --gop=8
// --frames=16 --seed=1 --policy=I --alg=<alg>` writes to
// eavesdropper.pcap: the flow's packets the eavesdropper heard, stamped
// with their completion times.  Pins the writer's framing, stamps and
// record order end to end.
std::uint64_t export_capture_digest(crypto::Algorithm alg) {
  const core::Workload workload =
      core::build_workload(video::MotionLevel::kLow, 8, 16, 1);
  const auto pol = policy::policy_from_string("I", alg);
  const core::Flow flow{workload, pol, 1};
  core::PipelineConfig pipeline;
  pipeline.device = core::device_from_string("samsung");
  pipeline.algorithm = pol.algorithm;
  const auto transfer = core::simulate_transfer(pipeline, flow.packets(), 1);
  std::vector<double> stamps;
  for (const auto& t : transfer.timings) stamps.push_back(t.completion);
  std::ostringstream out;
  write_pcap(out, capture_of(flow.packets(), transfer.eavesdropper_captured,
                             stamps));
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : out.str()) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(Pcap, ExportCaptureMatchesPinnedDigests) {
  EXPECT_EQ(export_capture_digest(crypto::Algorithm::kTripleDes),
            0x2503d93b94a4cc9eULL);
  EXPECT_EQ(export_capture_digest(crypto::Algorithm::kAes256),
            0x0dcfd29857ed51e6ULL);
}

}  // namespace
}  // namespace tv::net
