#include "net/receiver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "net/fault_injector.hpp"
#include "proptest.hpp"
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

std::vector<ReceivedPacket> drain(Receiver& rx) {
  std::vector<ReceivedPacket> out;
  rx.drain_ready_into(out);
  return out;
}

std::vector<ReceivedPacket> flush(Receiver& rx) {
  std::vector<ReceivedPacket> out;
  rx.flush_into(out);
  return out;
}

std::vector<std::int64_t> sequences(const std::vector<ReceivedPacket>& v) {
  std::vector<std::int64_t> out;
  for (const auto& p : v) out.push_back(p.extended_sequence);
  return out;
}

TEST(Receiver, InOrderStreamPassesThrough) {
  Receiver rx;
  for (std::uint16_t s = 0; s < 10; ++s) rx.push(datagram(s));
  const auto got = drain(rx);
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
  const auto got = flush(rx);
  EXPECT_EQ(sequences(got),
            (std::vector<std::int64_t>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(rx.stats().reordered, 2u);  // packets 2 and 4 arrived late.
  EXPECT_EQ(rx.stats().given_up, 0u);
}

TEST(Receiver, DrainHoldsBackAcrossGaps) {
  Receiver rx;
  rx.push(datagram(0));
  rx.push(datagram(2));  // 1 is missing.
  auto got = drain(rx);
  EXPECT_EQ(sequences(got), (std::vector<std::int64_t>{0}));
  rx.push(datagram(1));  // gap fills; 1 and 2 both become releasable.
  got = drain(rx);
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
  (void)drain(rx);
  rx.push(datagram(1));  // duplicate after release.
  rx.push(datagram(2));
  const auto got = flush(rx);
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
  const auto got = flush(rx);
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
  const auto got = flush(rx);
  EXPECT_EQ(sequences(got),
            (std::vector<std::int64_t>{65534, 65535, 65536}));
  EXPECT_EQ(rx.stats().reordered, 1u);
}

TEST(Receiver, DuplicateDetectedAcrossWraparound) {
  Receiver rx;
  rx.push(datagram(65535));
  rx.push(datagram(0));
  rx.push(datagram(0));  // dup of the post-wrap packet.
  const auto got = flush(rx);
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
  const auto got = flush(rx);
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
  (void)drain(rx);
  // Sequence 1 never arrives; 2..6 overflow the 4-packet buffer.
  for (std::uint16_t s = 2; s <= 6; ++s) rx.push(datagram(s));
  const auto got = drain(rx);
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got.front().extended_sequence, 2);
  EXPECT_EQ(rx.stats().given_up, 1u);  // gave up on sequence 1.
  const auto rest = flush(rx);
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
  const auto got = flush(rx);
  EXPECT_EQ(got.size(), 1u);
  EXPECT_EQ(rx.stats().invalid, 4u);
  EXPECT_EQ(rx.stats().accepted, 1u);
}

TEST(Receiver, PayloadSurvivesTheTrip) {
  Receiver rx;
  rx.push(datagram(9, 0x5C, 100));
  const auto got = flush(rx);
  ASSERT_EQ(got.size(), 1u);
  const auto payload = got[0].payload();
  EXPECT_EQ(payload.size(), 100u);
  EXPECT_TRUE(std::all_of(payload.begin(), payload.end(),
                          [](std::uint8_t b) { return b == 0x5C; }));
  EXPECT_EQ(got[0].header.timestamp, 90000u + 9u);
}

// --- FaultInjector-driven robustness -----------------------------------

// What a hostile path delivers for `n` clean datagrams: apply_one damages
// each in place, and a one-slot hold-back (the live proxy's reordering)
// releases a marked datagram after the next one.
std::vector<std::vector<std::uint8_t>> damaged_stream(const FaultPlan& plan,
                                                      std::uint64_t seed,
                                                      std::size_t n) {
  FaultInjector injector{plan, seed};
  util::Rng reorder{seed + 0x5e0de17};
  std::vector<std::vector<std::uint8_t>> out;
  std::optional<std::vector<std::uint8_t>> held;
  for (std::size_t i = 0; i < n; ++i) {
    auto d = datagram(static_cast<std::uint16_t>(i),
                      static_cast<std::uint8_t>(i), 64);
    const AppliedFaults applied = injector.apply_one(d);
    if (applied.dropped) continue;
    for (int copy = 0; copy < (applied.duplicated ? 2 : 1); ++copy) {
      if (!held && reorder.bernoulli(plan.reorder_prob)) {
        held = d;
        continue;
      }
      out.push_back(d);
      if (held) {
        out.push_back(std::move(*held));
        held.reset();
      }
    }
  }
  if (held) out.push_back(std::move(*held));
  return out;
}

TEST(FaultInjector, DeterministicPerSeed) {
  FaultPlan plan;
  plan.drop_prob = 0.1;
  plan.corrupt_header_prob = 0.1;
  plan.corrupt_payload_prob = 0.2;
  plan.truncate_prob = 0.1;
  plan.duplicate_prob = 0.1;
  plan.reorder_prob = 0.2;
  const auto a = damaged_stream(plan, 77, 200);
  EXPECT_EQ(a, damaged_stream(plan, 77, 200));
  EXPECT_NE(a, damaged_stream(plan, 78, 200));
}

TEST(FaultInjector, CleanPlanIsIdentity) {
  FaultInjector injector{FaultPlan{}, 1};
  for (std::uint16_t i = 0; i < 50; ++i) {
    const auto clean = datagram(i, static_cast<std::uint8_t>(i), 64);
    auto d = clean;
    const AppliedFaults applied = injector.apply_one(d);
    EXPECT_FALSE(applied.dropped);
    EXPECT_FALSE(applied.duplicated);
    EXPECT_EQ(applied.damaged, 0);
    EXPECT_EQ(d, clean);
  }
  EXPECT_EQ(damaged_stream(FaultPlan{}, 1, 50).size(), 50u);
}

TEST(FaultInjector, ReceiverSurvivesHeavyFaultLoadAndKeepsOrder) {
  FaultPlan plan;
  plan.drop_prob = 0.05;
  plan.corrupt_header_prob = 0.1;
  plan.truncate_prob = 0.1;
  plan.duplicate_prob = 0.15;
  plan.reorder_prob = 0.25;
  constexpr std::size_t kPackets = 300;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto damaged = damaged_stream(plan, seed, kPackets);
    Receiver rx;
    std::vector<ReceivedPacket> got;
    for (const auto& d : damaged) {
      rx.push(d);
      rx.drain_ready_into(got);
    }
    rx.flush_into(got);
    // Whatever survives must come out strictly increasing and unique.
    for (std::size_t i = 1; i < got.size(); ++i) {
      EXPECT_GT(got[i].extended_sequence, got[i - 1].extended_sequence);
    }
    EXPECT_EQ(rx.stats().datagrams, damaged.size());
    EXPECT_LE(got.size(), kPackets);
    EXPECT_GT(got.size(), kPackets / 2);  // most of it survives.
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
  const auto got = flush(rx);
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


// --- The sorted-vector reorder buffer against the map it replaced ------

/// The receiver as it was written with a std::map reorder buffer and a
/// deque of overflow releases, kept as the oracle for the sorted-vector
/// buffer: same admission, same release order, same stats.
class MapReceiver {
 public:
  explicit MapReceiver(ReceiverConfig config) : config_(config) {
    if (config_.reorder_capacity == 0) config_.reorder_capacity = 1;
  }

  void push(std::span<const std::uint8_t> datagram) {
    ++stats_.datagrams;
    const auto parsed = RtpHeader::try_parse(datagram);
    if (!parsed) {
      ++stats_.invalid;
      return;
    }
    const std::int64_t ext = extend_sequence(parsed->sequence_number);
    if (started_) {
      if (buffer_.count(ext) != 0) {
        ++stats_.duplicates;
        return;
      }
      if (ext < next_release_) {
        ++stats_.too_late;
        return;
      }
      if (ext < highest_seen_) ++stats_.reordered;
    } else {
      started_ = true;
      next_release_ = ext;
    }
    ReceivedPacket packet;
    packet.extended_sequence = ext;
    packet.header = *parsed;
    packet.datagram.assign(datagram.begin(), datagram.end());
    buffer_.emplace(ext, std::move(packet));
    if (ext > highest_seen_) highest_seen_ = ext;
    ++stats_.accepted;
    while (buffer_.size() > config_.reorder_capacity) {
      auto it = buffer_.begin();
      if (it->first != next_release_) {
        stats_.given_up += static_cast<std::size_t>(it->first - next_release_);
        next_release_ = it->first;
      }
      ready_.push_back(std::move(it->second));
      buffer_.erase(it);
      ++next_release_;
    }
  }

  void drain_ready_into(std::vector<ReceivedPacket>& out) {
    while (!ready_.empty()) {
      out.push_back(std::move(ready_.front()));
      ready_.pop_front();
    }
    while (!buffer_.empty() && buffer_.begin()->first == next_release_) {
      out.push_back(std::move(buffer_.begin()->second));
      buffer_.erase(buffer_.begin());
      ++next_release_;
    }
  }

  void flush_into(std::vector<ReceivedPacket>& out) {
    drain_ready_into(out);
    while (!buffer_.empty()) {
      auto it = buffer_.begin();
      if (it->first != next_release_) {
        stats_.given_up += static_cast<std::size_t>(it->first - next_release_);
        next_release_ = it->first;
      }
      out.push_back(std::move(it->second));
      buffer_.erase(it);
      ++next_release_;
    }
  }

  [[nodiscard]] const ReceiverStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t buffered() const {
    return buffer_.size() + ready_.size();
  }

 private:
  std::int64_t extend_sequence(std::uint16_t seq) const {
    if (!started_) return static_cast<std::int64_t>(seq);
    const std::int64_t base = highest_seen_ & ~std::int64_t{0xffff};
    std::int64_t best = base + seq;
    for (const std::int64_t cand :
         {base - 0x10000 + seq, base + seq, base + 0x10000 + seq}) {
      if (std::llabs(cand - highest_seen_) <
          std::llabs(best - highest_seen_)) {
        best = cand;
      }
    }
    return best;
  }

  ReceiverConfig config_;
  ReceiverStats stats_;
  std::map<std::int64_t, ReceivedPacket> buffer_;
  std::deque<ReceivedPacket> ready_;
  std::int64_t highest_seen_ = -1;
  std::int64_t next_release_ = -1;
  bool started_ = false;
};

/// A hostile arrival order: loss (single and in bursts longer than any
/// reorder buffer), duplicates (close by and long after), local
/// reordering, forward jumps that walk the 16-bit sequence across
/// several wraparounds, stray sequences and runts.
std::vector<std::vector<std::uint8_t>> hostile_arrivals(util::Rng& rng) {
  const bool near_seam = rng.bernoulli(0.5);
  std::uint16_t seq = static_cast<std::uint16_t>(
      near_seam ? 0xffff - rng.uniform_int(48) : rng.uniform_int(0x10000));
  const std::size_t n = proptest::random_size(rng, 1, 300);
  const double loss = rng.uniform(0.0, 0.3);
  const double dup = rng.uniform(0.0, 0.2);
  const double reorder = rng.uniform(0.0, 0.5);
  const auto spread = static_cast<double>(1 + rng.uniform_int(40));

  std::vector<std::pair<double, std::vector<std::uint8_t>>> keyed;
  std::vector<std::vector<std::uint8_t>> sent;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.bernoulli(0.02)) {
      seq = static_cast<std::uint16_t>(seq + rng.uniform_int(20000));
    } else if (rng.bernoulli(0.02)) {
      seq = static_cast<std::uint16_t>(seq + 33 + rng.uniform_int(40));
    }
    auto d = datagram(seq, static_cast<std::uint8_t>(i),
                      1 + rng.uniform_int(24));
    ++seq;
    sent.push_back(d);
    auto key = static_cast<double>(i);
    if (rng.bernoulli(reorder)) key += rng.uniform(0.0, spread);
    if (rng.bernoulli(dup)) {
      auto copy = d;
      copy.back() ^= 0x5a;  // first arrival must win.
      keyed.emplace_back(key + rng.uniform(0.0, spread), std::move(copy));
    }
    if (rng.bernoulli(0.01)) {
      keyed.emplace_back(key + rng.uniform(50.0, 200.0), d);  // far late.
    }
    if (rng.bernoulli(0.01)) {
      keyed.emplace_back(key, datagram(static_cast<std::uint16_t>(
                                  rng.uniform_int(0x10000))));
    }
    if (rng.bernoulli(0.01)) {
      keyed.emplace_back(key, std::vector<std::uint8_t>(
                                  rng.uniform_int(RtpHeader::kSize), 0x80));
    }
    if (!rng.bernoulli(loss)) keyed.emplace_back(key, std::move(d));
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(keyed.size());
  for (auto& [key, d] : keyed) out.push_back(std::move(d));
  return out;
}

void expect_same_stats(const ReceiverStats& got, const ReceiverStats& want) {
  EXPECT_EQ(got.datagrams, want.datagrams);
  EXPECT_EQ(got.accepted, want.accepted);
  EXPECT_EQ(got.invalid, want.invalid);
  EXPECT_EQ(got.duplicates, want.duplicates);
  EXPECT_EQ(got.reordered, want.reordered);
  EXPECT_EQ(got.too_late, want.too_late);
  EXPECT_EQ(got.given_up, want.given_up);
}

void expect_same_packets(const std::vector<ReceivedPacket>& got,
                         const std::vector<ReceivedPacket>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].extended_sequence, want[i].extended_sequence) << i;
    EXPECT_EQ(got[i].header.sequence_number, want[i].header.sequence_number);
    EXPECT_EQ(got[i].datagram, want[i].datagram) << i;
  }
}

TEST(ReceiverProperty, SortedBufferMatchesTheMapOracle) {
  for (const std::size_t capacity : {1u, 4u, 32u}) {
    SCOPED_TRACE(capacity);
    proptest::check(
        "Receiver matches the std::map oracle",
        proptest::Config::from_env(0x4ecb0 + capacity, 120),
        [&](util::Rng& rng, std::uint64_t) {
          const ReceiverConfig config{.reorder_capacity = capacity};
          Receiver rx{config};
          MapReceiver oracle{config};
          std::vector<ReceivedPacket> got;
          std::vector<ReceivedPacket> want;
          const double drain_prob = rng.uniform(0.0, 1.0);
          for (auto& d : hostile_arrivals(rng)) {
            oracle.push(d);
            if (rng.bernoulli(0.5)) {
              rx.push(std::span<const std::uint8_t>{d});
            } else {
              rx.push(std::move(d));
            }
            ASSERT_EQ(rx.buffered(), oracle.buffered());
            if (rng.bernoulli(drain_prob)) {
              rx.drain_ready_into(got);
              oracle.drain_ready_into(want);
              ASSERT_EQ(rx.buffered(), oracle.buffered());
            }
          }
          rx.flush_into(got);
          oracle.flush_into(want);
          EXPECT_EQ(rx.buffered(), 0u);
          expect_same_packets(got, want);
          expect_same_stats(rx.stats(), oracle.stats());
        });
  }
}

}  // namespace
}  // namespace tv::net
