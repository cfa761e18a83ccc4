// Differential property test of the demand-class deadline scheduler.
//
// DeadlineScheduler::schedule groups flows into demand classes so a round
// costs O(classes).  `reference_schedule` below is the flow-by-flow scan
// it replaced — every round ranks every admitted flow — kept here, and
// only here, as the oracle: over seeded random demand lists the two must
// return bit-identical ScheduleResults.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "cell/scheduler.hpp"
#include "proptest.hpp"

namespace tv::cell {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

double slack_of(const FlowDemand& demand, double predicted) {
  return demand.deadline_s > 0.0 ? demand.deadline_s - predicted : kInfinity;
}

/// The scan scheduler: find the tightest admitted flow by visiting every
/// flow each round (strict `<`, so ties go to the lowest index), degrade
/// it or defer it, re-solve the cell when the admitted count changed.
ScheduleResult reference_schedule(const SchedulerConfig& config,
                                  const std::vector<FlowDemand>& demands,
                                  ContentionConfig contention) {
  ScheduleResult result;
  result.flows.resize(demands.size());
  for (std::size_t f = 0; f < demands.size(); ++f) {
    result.flows[f].policy = demands[f].policy;
  }
  const long max_iterations =
      config.max_iterations > 0
          ? config.max_iterations
          : static_cast<long>(config.max_degrade_steps + 1) *
                    static_cast<long>(demands.size()) +
                1;

  int admitted = static_cast<int>(demands.size());
  int solved_stations = -1;
  std::size_t repredict_one = demands.size();
  for (long iter = 0; iter < max_iterations; ++iter) {
    const bool resolve = admitted != solved_stations;
    if (resolve) {
      contention.video.stations = admitted;
      result.contention = solve_contention(contention);
      solved_stations = admitted;
    }
    result.iterations = static_cast<int>(iter) + 1;

    std::size_t worst = demands.size();
    double worst_slack = 0.0;
    for (std::size_t f = 0; f < demands.size(); ++f) {
      FlowDecision& d = result.flows[f];
      if (!d.admitted) continue;
      if (resolve || f == repredict_one) {
        d.predicted_completion_s = DeadlineScheduler::predict_completion(
            demands[f], d.policy, result.contention);
        d.slack_s = slack_of(demands[f], d.predicted_completion_s);
      }
      if (d.slack_s < 0.0 &&
          (worst == demands.size() || d.slack_s < worst_slack)) {
        worst = f;
        worst_slack = d.slack_s;
      }
    }
    repredict_one = demands.size();
    if (worst == demands.size()) break;

    FlowDecision& d = result.flows[worst];
    if (config.allow_degrade && d.degrade_steps < config.max_degrade_steps) {
      const policy::EncryptionPolicy next = policy::degrade_step(d.policy);
      if (next.mode != d.policy.mode || next.fraction != d.policy.fraction) {
        d.policy = next;
        ++d.degrade_steps;
        ++result.total_degrade_steps;
        repredict_one = worst;
        continue;
      }
    }
    if (config.allow_shedding && admitted > 1) {
      d.admitted = false;
      --admitted;
      continue;
    }
    break;
  }

  for (std::size_t f = 0; f < demands.size(); ++f) {
    FlowDecision& d = result.flows[f];
    if (d.admitted) continue;
    d.predicted_completion_s = DeadlineScheduler::predict_completion(
        demands[f], d.policy, result.contention);
    d.slack_s = slack_of(demands[f], d.predicted_completion_s);
  }
  result.admitted = admitted;
  result.deferred = static_cast<int>(demands.size()) - admitted;
  return result;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_bits_eq(const std::vector<double>& a, const std::vector<double>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(bits(a[i]), bits(b[i])) << what << "[" << i << "]";
  }
}

/// Every field of the two results, doubles compared by bit pattern.
void expect_identical(const ScheduleResult& got, const ScheduleResult& want) {
  EXPECT_EQ(got.admitted, want.admitted);
  EXPECT_EQ(got.deferred, want.deferred);
  EXPECT_EQ(got.total_degrade_steps, want.total_degrade_steps);
  EXPECT_EQ(got.iterations, want.iterations);
  ASSERT_EQ(got.flows.size(), want.flows.size());
  for (std::size_t f = 0; f < got.flows.size(); ++f) {
    const FlowDecision& g = got.flows[f];
    const FlowDecision& w = want.flows[f];
    EXPECT_EQ(g.admitted, w.admitted) << "flow " << f;
    EXPECT_EQ(g.policy.mode, w.policy.mode) << "flow " << f;
    EXPECT_EQ(g.policy.algorithm, w.policy.algorithm) << "flow " << f;
    EXPECT_EQ(bits(g.policy.fraction), bits(w.policy.fraction)) << "flow " << f;
    EXPECT_EQ(g.degrade_steps, w.degrade_steps) << "flow " << f;
    EXPECT_EQ(bits(g.predicted_completion_s), bits(w.predicted_completion_s))
        << "flow " << f;
    EXPECT_EQ(bits(g.slack_s), bits(w.slack_s)) << "flow " << f;
  }
  const ContentionSolution& g = got.contention;
  const ContentionSolution& w = want.contention;
  EXPECT_EQ(g.contenders, w.contenders);
  EXPECT_EQ(bits(g.collision_prob), bits(w.collision_prob));
  EXPECT_EQ(bits(g.mac_success_prob), bits(w.mac_success_prob));
  EXPECT_EQ(bits(g.backoff_rate), bits(w.backoff_rate));
  EXPECT_EQ(bits(g.mean_slot_s), bits(w.mean_slot_s));
  EXPECT_EQ(bits(g.per_flow_throughput_mbps),
            bits(w.per_flow_throughput_mbps));
  expect_bits_eq(g.dcf.attempt_probability, w.dcf.attempt_probability, "tau");
  expect_bits_eq(g.dcf.collision_probability, w.dcf.collision_probability,
                 "p_c");
  expect_bits_eq(g.dcf.class_success_prob, w.dcf.class_success_prob,
                 "P_succ,c");
  expect_bits_eq(g.dcf.per_station_success_prob,
                 w.dcf.per_station_success_prob, "P_succ,c/n_c");
  EXPECT_EQ(bits(g.dcf.idle_prob), bits(w.dcf.idle_prob));
  EXPECT_EQ(bits(g.dcf.any_transmission_prob),
            bits(w.dcf.any_transmission_prob));
  EXPECT_EQ(bits(g.dcf.success_prob), bits(w.dcf.success_prob));
  EXPECT_EQ(g.dcf.iterations, w.dcf.iterations);
}

policy::EncryptionPolicy random_policy(util::Rng& rng) {
  using policy::Mode;
  static constexpr Mode kModes[] = {Mode::kNone,   Mode::kIFrames,
                                    Mode::kPFrames, Mode::kAll,
                                    Mode::kIPlusFractionP, Mode::kFractionI};
  policy::EncryptionPolicy p;
  p.mode = kModes[rng.uniform_int(6)];
  p.algorithm = rng.bernoulli(0.5) ? crypto::Algorithm::kAes256
                                   : crypto::Algorithm::kTripleDes;
  if (p.mode == Mode::kIPlusFractionP || p.mode == Mode::kFractionI) {
    p.fraction = rng.uniform(0.05, 1.0);
  }
  return p;
}

ContentionConfig random_cell(util::Rng& rng) {
  ContentionConfig c;
  c.video.cw_min = 8 + static_cast<int>(rng.uniform_int(56));
  c.video.backoff_stages = 3 + static_cast<int>(rng.uniform_int(5));
  if (rng.bernoulli(0.4)) {
    c.background.stations = 1 + static_cast<int>(rng.uniform_int(12));
  }
  c.mean_wire_bytes = rng.uniform(400.0, 1500.0);
  c.channel_error_prob = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.0, 0.1);
  return c;
}

/// A demand template, its deadline set near its predicted completion in
/// a random share of the full cell so some classes start infeasible and
/// recover as flows are shed, and some never need a lever.
FlowDemand random_template(util::Rng& rng, const ContentionConfig& cell,
                           int flows) {
  FlowDemand d;
  d.policy = random_policy(rng);
  d.clip_duration_s = rng.uniform(0.5, 4.0);
  d.packet_count = 50 + rng.uniform_int(1500);
  d.i_packet_share = rng.uniform(0.05, 0.6);
  d.encryption_mean_s = rng.uniform(1e-5, 5e-4);
  d.transmission_mean_s = rng.uniform(5e-4, 3e-3);
  if (rng.bernoulli(0.2)) return d;  // no deadline.
  ContentionConfig share = cell;
  share.video.stations =
      1 + static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(flows)));
  const double at_share = DeadlineScheduler::predict_completion(
      d, d.policy, solve_contention(share));
  d.deadline_s = at_share * rng.uniform(0.7, 1.3);
  return d;
}

struct Case {
  SchedulerConfig config;
  ContentionConfig cell;
  std::vector<FlowDemand> demands;
};

/// Random flows drawn from a few templates.  Templates may be copies of
/// each other with another cipher — a separate demand class whose slack
/// ties bit for bit with its twin's, so the cross-class tie-break decides.
Case random_case(util::Rng& rng, int max_flows) {
  Case c;
  c.config.allow_degrade = rng.bernoulli(0.8);
  c.config.allow_shedding = rng.bernoulli(0.8);
  c.config.max_degrade_steps = static_cast<int>(rng.uniform_int(9));
  c.cell = random_cell(rng);
  const int flows =
      1 + static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(max_flows)));

  std::vector<FlowDemand> templates;
  const int distinct = 1 + static_cast<int>(rng.uniform_int(6));
  for (int t = 0; t < distinct; ++t) {
    if (!templates.empty() && rng.bernoulli(0.3)) {
      FlowDemand twin = templates[rng.uniform_int(templates.size())];
      twin.policy.algorithm =
          twin.policy.algorithm == crypto::Algorithm::kAes256
              ? crypto::Algorithm::kTripleDes
              : crypto::Algorithm::kAes256;
      templates.push_back(twin);
    } else {
      templates.push_back(random_template(rng, c.cell, flows));
    }
  }
  const bool all_distinct = rng.bernoulli(0.1);
  for (int f = 0; f < flows; ++f) {
    FlowDemand d = all_distinct
                       ? random_template(rng, c.cell, flows)
                       : templates[rng.uniform_int(templates.size())];
    d.index = static_cast<std::size_t>(f);
    c.demands.push_back(d);
  }
  return c;
}

ScheduleResult run_both(const Case& c, ScheduleResult* reference) {
  *reference = reference_schedule(c.config, c.demands, c.cell);
  return DeadlineScheduler{c.config}.schedule(c.demands, c.cell);
}

// Mixed classes, flows without deadlines, cross-class ties, both levers on
// and off, every ladder budget 0..8, with and without background stations:
// the class scheduler returns the scan scheduler's result bit for bit.
TEST(SchedulerProperty, MatchesScanSchedulerBitwise) {
  const auto config = proptest::Config::from_env(0x5c4ed01, 150);
  proptest::check(
      "class scheduler == scan scheduler", config,
      [&](util::Rng& rng, std::uint64_t) {
        const Case c = random_case(rng, 240);
        ScheduleResult want;
        const ScheduleResult got = run_both(c, &want);
        expect_identical(got, want);
      });
}

// A binding round budget stops the loop mid-schedule, including right
// after a degrade step, where the degraded flow still reports its
// pre-degrade prediction, and right after a deferral, where nobody has
// been re-predicted under the smaller cell yet.
TEST(SchedulerProperty, MatchesScanSchedulerUnderBindingRoundCaps) {
  const auto config = proptest::Config::from_env(0x5c4ed02, 100);
  proptest::check(
      "capped class scheduler == capped scan scheduler", config,
      [&](util::Rng& rng, std::uint64_t) {
        Case c = random_case(rng, 120);
        const ScheduleResult uncapped =
            reference_schedule(c.config, c.demands, c.cell);
        c.config.max_iterations =
            1 + static_cast<int>(rng.uniform_int(
                    static_cast<std::uint64_t>(uncapped.iterations)));
        ScheduleResult want;
        const ScheduleResult got = run_both(c, &want);
        expect_identical(got, want);
      });
}

// Every cap from one round to the uncapped count on one overloaded
// two-class cell: each possible last action is a loop exit once.
TEST(SchedulerProperty, EveryRoundCapOfAnOverloadedCell) {
  util::Rng rng{0x5c4ed03};
  Case c;
  c.cell = random_cell(rng);
  c.cell.background.stations = 2;
  FlowDemand all;
  all.policy = {policy::Mode::kAll, crypto::Algorithm::kAes256, 0.0};
  all.deadline_s = 4.0;
  all.clip_duration_s = 1.0;
  all.packet_count = 1200;
  all.i_packet_share = 0.3;
  all.encryption_mean_s = 3e-4;
  all.transmission_mean_s = 2e-3;
  FlowDemand i_only = all;
  i_only.policy.mode = policy::Mode::kIFrames;
  i_only.deadline_s = 8.0;
  for (std::size_t f = 0; f < 40; ++f) {
    c.demands.push_back(f % 2 == 0 ? all : i_only);
    c.demands.back().index = f;
  }
  const ScheduleResult uncapped =
      reference_schedule(c.config, c.demands, c.cell);
  ASSERT_GT(uncapped.total_degrade_steps, 0);
  ASSERT_GT(uncapped.deferred, 0);
  for (int cap = 1; cap <= uncapped.iterations; ++cap) {
    SCOPED_TRACE("max_iterations " + std::to_string(cap));
    c.config.max_iterations = cap;
    ScheduleResult want;
    const ScheduleResult got = run_both(c, &want);
    expect_identical(got, want);
  }
}

}  // namespace
}  // namespace tv::cell
