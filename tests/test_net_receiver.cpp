#include "net/receiver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/fault_injector.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace tv::net {
namespace {

std::vector<std::uint8_t> datagram(std::uint16_t seq,
                                   std::uint8_t fill = 0xAB,
                                   std::size_t payload = 32) {
  RtpHeader h;
  h.sequence_number = seq;
  h.timestamp = 90000u + seq;
  auto bytes = h.serialize();
  bytes.insert(bytes.end(), payload, fill);
  return bytes;
}

std::vector<std::int64_t> sequences(const std::vector<ReceivedPacket>& v) {
  std::vector<std::int64_t> out;
  for (const auto& p : v) out.push_back(p.extended_sequence);
  return out;
}

TEST(Receiver, InOrderStreamPassesThrough) {
  Receiver rx;
  for (std::uint16_t s = 0; s < 10; ++s) rx.push(datagram(s));
  const auto got = rx.drain_ready();
  EXPECT_EQ(sequences(got), (std::vector<std::int64_t>{0, 1, 2, 3, 4, 5, 6,
                                                       7, 8, 9}));
  EXPECT_EQ(rx.stats().accepted, 10u);
  EXPECT_EQ(rx.stats().duplicates, 0u);
  EXPECT_EQ(rx.stats().reordered, 0u);
}

TEST(Receiver, ReorderBufferHealsOutOfOrderArrival) {
  Receiver rx;
  for (std::uint16_t s : {0, 1, 3, 2, 5, 4, 6}) {
    rx.push(datagram(static_cast<std::uint16_t>(s)));
  }
  const auto got = rx.flush();
  EXPECT_EQ(sequences(got),
            (std::vector<std::int64_t>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(rx.stats().reordered, 2u);  // packets 2 and 4 arrived late.
  EXPECT_EQ(rx.stats().given_up, 0u);
}

TEST(Receiver, DrainHoldsBackAcrossGaps) {
  Receiver rx;
  rx.push(datagram(0));
  rx.push(datagram(2));  // 1 is missing.
  auto got = rx.drain_ready();
  EXPECT_EQ(sequences(got), (std::vector<std::int64_t>{0}));
  rx.push(datagram(1));  // gap fills; 1 and 2 both become releasable.
  got = rx.drain_ready();
  EXPECT_EQ(sequences(got), (std::vector<std::int64_t>{1, 2}));
}

TEST(Receiver, IntoVariantsAppendAndEmptyBuffered) {
  // The live server drains every session into one growing vector and
  // keeps a running sum of buffered(), so both must hold exactly.
  Receiver rx;
  std::vector<ReceivedPacket> out;
  rx.push(datagram(0));
  rx.push(datagram(2));
  rx.push(datagram(3));  // 1 is missing: 2 and 3 wait.
  rx.drain_ready_into(out);
  EXPECT_EQ(sequences(out), (std::vector<std::int64_t>{0}));
  EXPECT_EQ(rx.buffered(), 2u);
  rx.flush_into(out);
  EXPECT_EQ(sequences(out), (std::vector<std::int64_t>{0, 2, 3}));
  EXPECT_EQ(rx.buffered(), 0u);
  EXPECT_EQ(rx.stats().given_up, 1u);
}

TEST(Receiver, DuplicatesAreSuppressed) {
  Receiver rx;
  rx.push(datagram(0));
  rx.push(datagram(1));
  rx.push(datagram(1));  // duplicate while buffered.
  (void)rx.drain_ready();
  rx.push(datagram(1));  // duplicate after release.
  rx.push(datagram(2));
  const auto got = rx.flush();
  EXPECT_EQ(sequences(got), (std::vector<std::int64_t>{2}));
  EXPECT_EQ(rx.stats().duplicates, 1u);
  EXPECT_EQ(rx.stats().too_late, 1u);
  EXPECT_EQ(rx.stats().accepted, 3u);
}

TEST(Receiver, SequenceWraparoundExtendsMonotonically) {
  Receiver rx;
  // Straddle the 16-bit wrap: 65533..65535, 0..3.
  for (std::uint32_t s = 65533; s <= 65535; ++s) {
    rx.push(datagram(static_cast<std::uint16_t>(s)));
  }
  for (std::uint16_t s = 0; s <= 3; ++s) rx.push(datagram(s));
  const auto got = rx.flush();
  ASSERT_EQ(got.size(), 7u);
  const auto seqs = sequences(got);
  for (std::size_t i = 1; i < seqs.size(); ++i) {
    EXPECT_EQ(seqs[i], seqs[i - 1] + 1);  // strictly consecutive line.
  }
  EXPECT_EQ(seqs.front(), 65533);
  EXPECT_EQ(seqs.back(), 65536 + 3);
  EXPECT_EQ(rx.stats().duplicates, 0u);
}

TEST(Receiver, WraparoundTolleratesReorderingAcrossTheSeam) {
  Receiver rx;
  // Post-wrap packet overtakes the last pre-wrap one.
  rx.push(datagram(65534));
  rx.push(datagram(0));      // two ahead (wrap).
  rx.push(datagram(65535));  // straggler from before the wrap.
  const auto got = rx.flush();
  EXPECT_EQ(sequences(got),
            (std::vector<std::int64_t>{65534, 65535, 65536}));
  EXPECT_EQ(rx.stats().reordered, 1u);
}

TEST(Receiver, DuplicateDetectedAcrossWraparound) {
  Receiver rx;
  rx.push(datagram(65535));
  rx.push(datagram(0));
  rx.push(datagram(0));  // dup of the post-wrap packet.
  const auto got = rx.flush();
  EXPECT_EQ(got.size(), 2u);
  EXPECT_EQ(rx.stats().duplicates, 1u);
}

TEST(Receiver, MarkerBitAndDedupSurviveSequenceWraparound) {
  // The marker bit carries the per-packet encryption flag (§5): it must
  // ride the extended sequence line through the 16-bit wrap, and
  // duplicates on either side of the seam must not resurrect it twice.
  auto marked = [](std::uint16_t seq, bool marker) {
    RtpHeader h;
    h.marker = marker;
    h.sequence_number = seq;
    h.timestamp = 90000u + seq;
    auto bytes = h.serialize();
    bytes.insert(bytes.end(), 32, static_cast<std::uint8_t>(seq));
    return bytes;
  };
  Receiver rx;
  rx.push(marked(65534, true));   // encrypted, pre-wrap.
  rx.push(marked(65535, false));
  rx.push(marked(65534, true));   // duplicate of the pre-wrap packet.
  rx.push(marked(0, true));       // encrypted, post-wrap.
  rx.push(marked(0, true));       // duplicate of the post-wrap packet.
  rx.push(marked(1, false));
  const auto got = rx.flush();
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(sequences(got),
            (std::vector<std::int64_t>{65534, 65535, 65536, 65537}));
  EXPECT_TRUE(got[0].header.marker);
  EXPECT_FALSE(got[1].header.marker);
  EXPECT_TRUE(got[2].header.marker);   // 0 extends to 65536, still marked.
  EXPECT_FALSE(got[3].header.marker);
  EXPECT_EQ(rx.stats().duplicates, 2u);  // one on each side of the seam.
  EXPECT_EQ(rx.stats().accepted, 4u);
}

TEST(Receiver, BoundedBufferGivesUpOnOldGaps) {
  Receiver rx{{.reorder_capacity = 4}};
  rx.push(datagram(0));
  (void)rx.drain_ready();
  // Sequence 1 never arrives; 2..6 overflow the 4-packet buffer.
  for (std::uint16_t s = 2; s <= 6; ++s) rx.push(datagram(s));
  const auto got = rx.drain_ready();
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got.front().extended_sequence, 2);
  EXPECT_EQ(rx.stats().given_up, 1u);  // gave up on sequence 1.
  const auto rest = rx.flush();
  EXPECT_EQ(got.size() + rest.size(), 5u);
}

TEST(Receiver, MalformedDatagramsNeverThrow) {
  Receiver rx;
  rx.push(std::vector<std::uint8_t>{});             // empty.
  rx.push(std::vector<std::uint8_t>(5, 0xFF));      // runt.
  auto bad_version = datagram(3);
  bad_version[0] = 0x00;
  rx.push(bad_version);
  auto csrc = datagram(4);
  csrc[0] |= 0x03;  // CSRC count the fixed header cannot represent.
  rx.push(csrc);
  rx.push(datagram(5));  // one good packet.
  const auto got = rx.flush();
  EXPECT_EQ(got.size(), 1u);
  EXPECT_EQ(rx.stats().invalid, 4u);
  EXPECT_EQ(rx.stats().accepted, 1u);
}

TEST(Receiver, PayloadSurvivesTheTrip) {
  Receiver rx;
  rx.push(datagram(9, 0x5C, 100));
  const auto got = rx.flush();
  ASSERT_EQ(got.size(), 1u);
  const auto payload = got[0].payload();
  EXPECT_EQ(payload.size(), 100u);
  EXPECT_TRUE(std::all_of(payload.begin(), payload.end(),
                          [](std::uint8_t b) { return b == 0x5C; }));
  EXPECT_EQ(got[0].header.timestamp, 90000u + 9u);
}

// --- FaultInjector-driven robustness -----------------------------------

util::Arena& test_arena() {
  static util::Arena arena;  // lives for the whole test binary.
  return arena;
}

std::vector<VideoPacket> make_stream(std::size_t n) {
  std::vector<VideoPacket> packets;
  for (std::size_t i = 0; i < n; ++i) {
    VideoPacket p;
    p.sequence = static_cast<std::uint16_t>(i);
    p.timestamp = static_cast<std::uint32_t>(3000 * i);
    p.allocate_payload(test_arena(), 64, static_cast<std::uint8_t>(i));
    packets.push_back(std::move(p));
  }
  return packets;
}

TEST(FaultInjector, DeterministicPerSeed) {
  FaultPlan plan;
  plan.drop_prob = 0.1;
  plan.corrupt_header_prob = 0.1;
  plan.corrupt_payload_prob = 0.2;
  plan.truncate_prob = 0.1;
  plan.duplicate_prob = 0.1;
  plan.reorder_prob = 0.2;
  const auto stream = make_stream(200);
  const auto a = FaultInjector{plan, 77}.apply(stream);
  const auto b = FaultInjector{plan, 77}.apply(stream);
  EXPECT_EQ(a.datagrams, b.datagrams);
  EXPECT_EQ(a.origins, b.origins);
  ASSERT_EQ(a.faults.size(), b.faults.size());
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    EXPECT_EQ(a.faults[i].kind, b.faults[i].kind);
    EXPECT_EQ(a.faults[i].packet_index, b.faults[i].packet_index);
    EXPECT_EQ(a.faults[i].detail, b.faults[i].detail);
  }
  const auto c = FaultInjector{plan, 78}.apply(stream);
  EXPECT_NE(a.datagrams, c.datagrams);
}

TEST(FaultInjector, CleanPlanIsIdentity) {
  const auto stream = make_stream(50);
  const auto r = FaultInjector{FaultPlan{}, 1}.apply(stream);
  ASSERT_EQ(r.datagrams.size(), 50u);
  EXPECT_TRUE(r.faults.empty());
  for (std::size_t i = 0; i < r.datagrams.size(); ++i) {
    EXPECT_EQ(r.origins[i], i);
    const auto h = RtpHeader::parse(r.datagrams[i]);
    EXPECT_EQ(h.sequence_number, i);
  }
}

TEST(FaultInjector, ReceiverSurvivesHeavyFaultLoadAndKeepsOrder) {
  FaultPlan plan;
  plan.drop_prob = 0.05;
  plan.corrupt_header_prob = 0.1;
  plan.truncate_prob = 0.1;
  plan.duplicate_prob = 0.15;
  plan.reorder_prob = 0.25;
  const auto stream = make_stream(300);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto damaged = FaultInjector{plan, seed}.apply(stream);
    Receiver rx;
    std::vector<ReceivedPacket> got;
    for (const auto& d : damaged.datagrams) {
      rx.push(d);
      for (auto& p : rx.drain_ready()) got.push_back(std::move(p));
    }
    for (auto& p : rx.flush()) got.push_back(std::move(p));
    // Whatever survives must come out strictly increasing and unique.
    for (std::size_t i = 1; i < got.size(); ++i) {
      EXPECT_GT(got[i].extended_sequence, got[i - 1].extended_sequence);
    }
    EXPECT_EQ(rx.stats().datagrams, damaged.datagrams.size());
    EXPECT_LE(got.size(), stream.size());
    EXPECT_GT(got.size(), stream.size() / 2);  // most of it survives.
  }
}

TEST(Receiver, CorruptedThenCleanCopyOfSameSequenceDedupsOnFirstArrival) {
  // The channel can deliver a bit-damaged copy of a packet and then a
  // clean retransmission of the same sequence number.  Dedup is by
  // sequence (RTP has no payload checksum), so the first-arrived —
  // corrupted — copy wins and the clean one counts as a duplicate.  The
  // invariant under test: the same wire sequence never yields two
  // packets downstream.
  Receiver rx;
  rx.push(datagram(0));
  rx.push(datagram(1, /*fill=*/0x00));  // corrupted payload arrives first.
  rx.push(datagram(1, /*fill=*/0xAB));  // clean copy arrives second.
  rx.push(datagram(2));
  const auto got = rx.flush();
  ASSERT_EQ(sequences(got), (std::vector<std::int64_t>{0, 1, 2}));
  EXPECT_EQ(rx.stats().duplicates, 1u);
  // First arrival wins: the payload is the corrupted fill.
  EXPECT_EQ(got[1].payload().front(), 0x00);
  EXPECT_EQ(got[1].payload().back(), 0x00);
}

TEST(FaultInjector, ValidatesPlan) {
  FaultPlan plan;
  plan.drop_prob = 1.5;
  EXPECT_THROW((void)FaultInjector(plan, 1), std::invalid_argument);
  plan.drop_prob = 0.0;
  plan.max_bit_flips = 0;
  EXPECT_THROW((void)FaultInjector(plan, 1), std::invalid_argument);
}

}  // namespace
}  // namespace tv::net
