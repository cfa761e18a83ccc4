// Chaos-plan parsing and the ChaosSocket's fault injection, which the
// multi-session harness leans on for its determinism guarantees.
#include "live/chaos.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "live/event_loop.hpp"
#include "live/udp.hpp"

namespace tv::live {
namespace {

TEST(ChaosPlan, ParsesEveryKey) {
  const ChaosPlan plan = chaos_plan_from_string(
      "eagain=0.2,short=0.05,spurious=0.1,drop=0.05,corrupt=0.02,"
      "truncate=0.01,dup=0.02,loss=0.1,burst=4,ctrl-drop=0.3,kill=0.1,"
      "outage=2:0.5;8:0.25,stall=4:1");
  EXPECT_DOUBLE_EQ(plan.eagain_prob, 0.2);
  EXPECT_DOUBLE_EQ(plan.short_send_prob, 0.05);
  EXPECT_DOUBLE_EQ(plan.spurious_wakeup_prob, 0.1);
  ASSERT_TRUE(plan.faults.has_value());
  EXPECT_DOUBLE_EQ(plan.faults->drop_prob, 0.05);
  EXPECT_DOUBLE_EQ(plan.faults->corrupt_payload_prob, 0.02);
  EXPECT_DOUBLE_EQ(plan.faults->truncate_prob, 0.01);
  EXPECT_DOUBLE_EQ(plan.faults->duplicate_prob, 0.02);
  ASSERT_TRUE(plan.channel.has_value());
  EXPECT_DOUBLE_EQ(plan.channel->mean_loss_prob, 0.1);
  EXPECT_DOUBLE_EQ(plan.channel->mean_burst_length, 4.0);
  EXPECT_DOUBLE_EQ(plan.ctrl_drop_prob, 0.3);
  EXPECT_DOUBLE_EQ(plan.kill_prob, 0.1);
  ASSERT_EQ(plan.outages.size(), 2u);
  EXPECT_DOUBLE_EQ(plan.outages[0].start_s, 2.0);
  EXPECT_DOUBLE_EQ(plan.outages[0].duration_s, 0.5);
  EXPECT_DOUBLE_EQ(plan.outages[1].start_s, 8.0);
  ASSERT_EQ(plan.stalls.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.stalls[0].start_s, 4.0);
  EXPECT_TRUE(plan.any_egress_fault());
}

TEST(ChaosPlan, EmptySpecIsBenign) {
  const ChaosPlan plan = chaos_plan_from_string("");
  EXPECT_FALSE(plan.any_egress_fault());
  EXPECT_FALSE(plan.faults.has_value());
  EXPECT_FALSE(plan.channel.has_value());
}

TEST(ChaosPlan, EintrIsAnAliasForSpurious) {
  const ChaosPlan plan = chaos_plan_from_string("eintr=0.5");
  EXPECT_DOUBLE_EQ(plan.spurious_wakeup_prob, 0.5);
}

TEST(ChaosPlan, RejectsMalformedSpecs) {
  EXPECT_THROW((void)chaos_plan_from_string("nonsense=1"),
               std::invalid_argument);
  EXPECT_THROW((void)chaos_plan_from_string("eagain"), std::invalid_argument);
  EXPECT_THROW((void)chaos_plan_from_string("eagain=zzz"),
               std::invalid_argument);
  EXPECT_THROW((void)chaos_plan_from_string("eagain=1.5"),
               std::invalid_argument);
  EXPECT_THROW((void)chaos_plan_from_string("outage=5"),
               std::invalid_argument);
  EXPECT_THROW((void)chaos_plan_from_string("outage=5:-1"),
               std::invalid_argument);
  EXPECT_THROW((void)chaos_plan_from_string("stall=2:0"),
               std::invalid_argument);
}

TEST(ChaosPlan, ValidateRejectsOutOfRangeProbabilities) {
  ChaosPlan plan;
  plan.kill_prob = -0.1;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.kill_prob = 0.0;
  plan.short_send_prob = 2.0;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

struct Harness {
  EventLoop loop{ClockMode::kVirtual};
  UdpSocket tx;
  UdpSocket rx;

  Harness() {
    tx.bind(Endpoint{});
    rx.bind(Endpoint{});
  }

  std::vector<std::vector<std::uint8_t>> drain() {
    std::vector<std::vector<std::uint8_t>> got;
    while (auto d = rx.receive()) got.push_back(std::move(d->payload));
    return got;
  }
};

TEST(ChaosSocket, InjectedEagainNeverReachesTheWire) {
  Harness h;
  ChaosPlan plan;
  plan.eagain_prob = 1.0;
  ChaosSocket chaos{h.loop, h.tx, plan, 7};
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4};
  EXPECT_EQ(chaos.send_to(h.rx.local_endpoint(), payload),
            SendOutcome::kAgain);
  EXPECT_TRUE(h.drain().empty());
  EXPECT_EQ(chaos.stats().eagain_injected, 1u);
  EXPECT_EQ(chaos.stats().sends, 1u);
}

TEST(ChaosSocket, ShortSendDeliversARunt) {
  Harness h;
  ChaosPlan plan;
  plan.short_send_prob = 1.0;
  ChaosSocket chaos{h.loop, h.tx, plan, 7};
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5, 6};
  EXPECT_EQ(chaos.send_to(h.rx.local_endpoint(), payload),
            SendOutcome::kShort);
  const auto got = h.drain();
  ASSERT_EQ(got.size(), 1u);
  // Half the datagram made it: the receiver sees a truncated copy.
  EXPECT_EQ(got[0], (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(chaos.stats().short_sends_injected, 1u);
}

TEST(ChaosSocket, OutageSwallowsSendsButReportsSuccess) {
  // Inside the window the sender believes the send worked (loss is
  // invisible to UDP); outside it the datagram flows again.
  Harness h;
  ChaosPlan plan;
  plan.outages = {{1.0, 1.0}};
  ChaosSocket chaos{h.loop, h.tx, plan, 7};
  const std::vector<std::uint8_t> payload = {9};

  std::size_t delivered = 0;
  h.loop.schedule_at(1.5, [&] {
    EXPECT_EQ(chaos.send_to(h.rx.local_endpoint(), payload),
              SendOutcome::kSent);
  });
  h.loop.schedule_at(2.5, [&] {
    EXPECT_EQ(chaos.send_to(h.rx.local_endpoint(), payload),
              SendOutcome::kSent);
  });
  h.loop.watch_readable(h.rx.fd(), [&] {
    while (h.rx.receive()) ++delivered;
    h.loop.unwatch(h.rx.fd());
  });
  h.loop.run();
  EXPECT_EQ(delivered, 1u);  // only the post-outage send.
  EXPECT_EQ(chaos.stats().dropped, 1u);
}

TEST(ChaosSocket, SpuriousWakeupHidesQueuedDataWithoutLosingIt) {
  Harness h;
  ChaosPlan plan;
  plan.spurious_wakeup_prob = 1.0;
  ChaosSocket chaos{h.loop, h.rx, plan, 7};
  const std::vector<std::uint8_t> payload = {5};
  ASSERT_EQ(h.tx.send_to(h.rx.local_endpoint(), payload),
            SendOutcome::kSent);
  // Every receive is interrupted — but the datagram stays queued in the
  // kernel, visible to a direct read.
  EXPECT_FALSE(chaos.receive().has_value());
  EXPECT_FALSE(chaos.receive().has_value());
  EXPECT_EQ(chaos.stats().spurious_wakeups, 2u);
  std::optional<Datagram> direct;
  for (int spins = 0; spins < 1000 && !direct; ++spins) {
    direct = h.rx.receive();
  }
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(direct->payload, payload);
}

TEST(ChaosSocket, SameSeedSameDamage) {
  ChaosPlan plan;
  plan.eagain_prob = 0.3;
  plan.short_send_prob = 0.2;
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5, 6, 7, 8};

  auto outcomes = [&](std::uint64_t seed) {
    Harness h;
    ChaosSocket chaos{h.loop, h.tx, plan, seed};
    std::vector<SendOutcome> seen;
    for (int i = 0; i < 64; ++i) {
      seen.push_back(chaos.send_to(h.rx.local_endpoint(), payload));
    }
    return seen;
  };
  EXPECT_EQ(outcomes(42), outcomes(42));
  EXPECT_NE(outcomes(42), outcomes(43));  // and the seed actually matters.
}

}  // namespace
}  // namespace tv::live
