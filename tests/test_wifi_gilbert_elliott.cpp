#include "wifi/gilbert_elliott.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace tv::wifi {
namespace {

// Empirical loss rate and burst statistics from a long trace.
struct TraceStats {
  double loss_rate = 0.0;
  double mean_burst = 0.0;  ///< mean run length of consecutive losses.
  std::size_t bursts = 0;
};

TraceStats measure(const std::vector<bool>& trace) {
  TraceStats s;
  std::size_t losses = 0;
  std::size_t run = 0;
  std::size_t run_total = 0;
  for (bool lost : trace) {
    if (lost) {
      ++losses;
      ++run;
    } else if (run > 0) {
      ++s.bursts;
      run_total += run;
      run = 0;
    }
  }
  if (run > 0) {
    ++s.bursts;
    run_total += run;
  }
  s.loss_rate = static_cast<double>(losses) / static_cast<double>(trace.size());
  s.mean_burst = s.bursts > 0
                     ? static_cast<double>(run_total) /
                           static_cast<double>(s.bursts)
                     : 0.0;
  return s;
}

TEST(GilbertElliott, StationaryLossRateMatchesConfiguration) {
  GilbertElliottParams params;
  params.mean_loss_prob = 0.30;
  params.mean_burst_length = 4.0;
  GilbertElliottChannel channel{params, 42};
  const auto stats = measure(channel.trace(400000));
  EXPECT_NEAR(stats.loss_rate, 0.30, 0.01);
}

TEST(GilbertElliott, MeanBurstLengthMatchesConfiguration) {
  GilbertElliottParams params;
  params.mean_loss_prob = 0.10;
  params.mean_burst_length = 5.0;
  GilbertElliottChannel channel{params, 7};
  const auto stats = measure(channel.trace(400000));
  // With h_b = 1 and h_g = 0 a loss burst is exactly a Bad sojourn.
  EXPECT_NEAR(stats.mean_burst, 5.0, 0.25);
  EXPECT_NEAR(stats.loss_rate, 0.10, 0.01);
}

TEST(GilbertElliott, IdenticalSeedsReproduceIdenticalTraces) {
  GilbertElliottParams params;
  params.mean_loss_prob = 0.25;
  params.mean_burst_length = 3.0;
  GilbertElliottChannel a{params, 1234};
  GilbertElliottChannel b{params, 1234};
  EXPECT_EQ(a.trace(20000), b.trace(20000));
  GilbertElliottChannel c{params, 1235};
  EXPECT_NE(a.trace(20000), c.trace(20000));
}

TEST(GilbertElliott, BurstLengthOneDegeneratesToBernoulli) {
  GilbertElliottParams params;
  params.mean_loss_prob = 0.20;
  params.mean_burst_length = 1.0;
  ASSERT_TRUE(params.effectively_iid());
  GilbertElliottChannel channel{params, 99};
  const auto stats = measure(channel.trace(400000));
  EXPECT_NEAR(stats.loss_rate, 0.20, 0.01);
  // i.i.d. losses at rate p have mean run length 1 / (1 - p).
  EXPECT_NEAR(stats.mean_burst, 1.0 / 0.8, 0.05);
}

TEST(GilbertElliott, BurstierChannelHasLongerRunsAtSameLossRate) {
  GilbertElliottParams iid;
  iid.mean_loss_prob = 0.15;
  iid.mean_burst_length = 1.0;
  GilbertElliottParams bursty = iid;
  bursty.mean_burst_length = 8.0;
  GilbertElliottChannel a{iid, 5};
  GilbertElliottChannel b{bursty, 5};
  const auto sa = measure(a.trace(300000));
  const auto sb = measure(b.trace(300000));
  EXPECT_NEAR(sa.loss_rate, sb.loss_rate, 0.02);
  EXPECT_GT(sb.mean_burst, 3.0 * sa.mean_burst);
}

TEST(GilbertElliott, DerivedTransitionProbabilitiesBalance) {
  GilbertElliottParams params;
  params.mean_loss_prob = 0.30;
  params.mean_burst_length = 4.0;
  params.validate();
  const double pi_bad = params.stationary_bad_prob();
  // Detailed balance of the two-state chain.
  EXPECT_NEAR((1.0 - pi_bad) * params.good_to_bad_prob(),
              pi_bad * params.bad_to_good_prob(), 1e-12);
  EXPECT_NEAR(pi_bad, 0.30, 1e-12);  // h_b = 1, h_g = 0.
}

TEST(GilbertElliott, ValidatesUnreachableConfigurations) {
  GilbertElliottParams params;
  params.mean_loss_prob = 1.5;
  EXPECT_THROW(params.validate(), std::invalid_argument);
  params.mean_loss_prob = 0.3;
  params.mean_burst_length = -1.0;
  EXPECT_THROW(params.validate(), std::invalid_argument);
  // Loss rate outside [h_g, h_b].
  params.mean_burst_length = 4.0;
  params.good_loss_prob = 0.5;
  params.bad_loss_prob = 0.4;
  EXPECT_THROW(params.validate(), std::invalid_argument);
  // Burst too short for the loss rate: Good -> Bad probability > 1.
  params.good_loss_prob = 0.0;
  params.bad_loss_prob = 1.0;
  params.mean_loss_prob = 0.9;
  params.mean_burst_length = 1.5;
  EXPECT_THROW(params.validate(), std::invalid_argument);
}

TEST(OutageWindow, ContainmentAndLookup) {
  const std::vector<OutageWindow> outages = {{1.0, 0.5}, {3.0, 1.0}};
  EXPECT_FALSE(in_outage(outages, 0.9));
  EXPECT_TRUE(in_outage(outages, 1.0));
  EXPECT_TRUE(in_outage(outages, 1.49));
  EXPECT_FALSE(in_outage(outages, 1.5));  // half-open interval.
  EXPECT_TRUE(in_outage(outages, 3.7));
  EXPECT_FALSE(in_outage(outages, 4.2));
  EXPECT_FALSE(in_outage({}, 1.0));
}

TEST(OutageWindows, ParseListsAndSkipEmptyItems) {
  const auto windows = parse_outage_windows("0.5:0.3,,2:1e-1,", ',', "--x");
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_DOUBLE_EQ(windows[0].start_s, 0.5);
  EXPECT_DOUBLE_EQ(windows[0].duration_s, 0.3);
  EXPECT_DOUBLE_EQ(windows[1].start_s, 2.0);
  EXPECT_DOUBLE_EQ(windows[1].duration_s, 0.1);
  EXPECT_EQ(parse_outage_windows("0:1;4:2", ';', "--x").size(), 2u);
  EXPECT_TRUE(parse_outage_windows("", ',', "--x").empty());
}

TEST(OutageWindows, RejectNegativeStartNonPositiveDurationAndBadNumbers) {
  for (const char* bad : {"-1:5", "2:0", "2:-1", "oops", "1:", ":1", "1:2x",
                          "1e999:1", "nan:1", "1:nan"}) {
    try {
      (void)parse_outage_windows(bad, ',', "--outage");
      ADD_FAILURE() << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string{e.what()},
                std::string{"invalid value for --outage: '"} + bad +
                    "' (expected START:DURATION in seconds, START >= 0, "
                    "DURATION > 0)");
    }
  }
}

}  // namespace
}  // namespace tv::wifi
