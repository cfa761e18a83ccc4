// The cell-scale multi-flow engine: contention mapping, deadline
// scheduling, the n=1 single-flow acceptance criterion and the
// thread-count determinism contract (docs/cell.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cell/cell.hpp"
#include "cell/contention.hpp"
#include "cell/scheduler.hpp"
#include "core/pipeline.hpp"
#include "core/sweep.hpp"
#include "crypto/suite.hpp"
#include "net/packetizer.hpp"
#include "util/thread_pool.hpp"

namespace tv::cell {
namespace {

void expect_bitwise_equal(const util::RunningStats& a,
                          const util::RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

// --- Contention mapping. ---------------------------------------------------

TEST(Contention, SoloFlowSeesNoCollisions) {
  ContentionConfig config;
  config.video = {1, 16, 6};
  const ContentionSolution s = solve_contention(config);
  EXPECT_EQ(s.contenders, 1);
  EXPECT_EQ(s.collision_prob, 0.0);
  EXPECT_EQ(s.mac_success_prob, 1.0);
  EXPECT_GT(s.backoff_rate, 0.0);
  EXPECT_GT(s.per_flow_throughput_mbps, 0.0);
  EXPECT_GT(s.mean_slot_s, 0.0);
}

TEST(Contention, ChannelErrorComposesIntoMacSuccess) {
  ContentionConfig config;
  config.video = {1, 16, 6};
  config.channel_error_prob = 0.2;
  const ContentionSolution s = solve_contention(config);
  EXPECT_DOUBLE_EQ(s.mac_success_prob, 0.8);
}

TEST(Contention, CollisionsGrowAndThroughputShrinksWithPopulation) {
  double last_success = 2.0;
  double last_collision = -1.0;
  double last_throughput = 1e9;
  for (int flows : {1, 2, 4, 8, 16}) {
    ContentionConfig config;
    config.video = {flows, 16, 6};
    const ContentionSolution s = solve_contention(config);
    EXPECT_GT(s.collision_prob, last_collision) << "flows=" << flows;
    EXPECT_LT(s.mac_success_prob, last_success) << "flows=" << flows;
    EXPECT_LT(s.per_flow_throughput_mbps, last_throughput)
        << "flows=" << flows;
    last_collision = s.collision_prob;
    last_success = s.mac_success_prob;
    last_throughput = s.per_flow_throughput_mbps;
  }
}

TEST(Contention, BackgroundStationsHurtTheVideoClass) {
  ContentionConfig alone;
  alone.video = {4, 16, 6};
  ContentionConfig shared = alone;
  shared.background = {6, 32, 6};
  const ContentionSolution a = solve_contention(alone);
  const ContentionSolution b = solve_contention(shared);
  EXPECT_EQ(b.contenders, 10);
  EXPECT_GT(b.collision_prob, a.collision_prob);
  EXPECT_LT(b.per_flow_throughput_mbps, a.per_flow_throughput_mbps);
  EXPECT_LT(b.backoff_rate, a.backoff_rate);
}

TEST(Contention, RejectsUnusableConfigurations) {
  ContentionConfig config;
  config.video = {0, 16, 6};
  EXPECT_THROW((void)solve_contention(config), std::invalid_argument);
  config.video = {1, 16, 6};
  config.mean_wire_bytes = 0.0;
  EXPECT_THROW((void)solve_contention(config), std::invalid_argument);
  config.mean_wire_bytes = 1200.0;
  config.channel_error_prob = 1.0;
  EXPECT_THROW((void)solve_contention(config), std::invalid_argument);
}

// --- Deadline scheduler. ---------------------------------------------------

std::vector<FlowDemand> uniform_demands(int flows, double deadline_s) {
  std::vector<FlowDemand> demands(static_cast<std::size_t>(flows));
  for (int f = 0; f < flows; ++f) {
    FlowDemand& d = demands[static_cast<std::size_t>(f)];
    d.index = static_cast<std::size_t>(f);
    d.policy = {policy::Mode::kAll, crypto::Algorithm::kAes256, 0.0};
    d.deadline_s = deadline_s;
    d.clip_duration_s = 1.0;
    d.packet_count = 1500;
    d.i_packet_share = 0.25;
    d.encryption_mean_s = 2e-4;
    d.transmission_mean_s = 3e-3;
  }
  return demands;
}

ContentionConfig scheduler_cell() {
  ContentionConfig config;
  config.video = {1, 16, 6};  // overwritten with the admitted count.
  return config;
}

TEST(Scheduler, RejectsEmptyDemandList) {
  const DeadlineScheduler scheduler;
  EXPECT_THROW((void)scheduler.schedule({}, scheduler_cell()),
               std::invalid_argument);
}

TEST(Scheduler, FlowsWithoutDeadlinesAreAllAdmittedUntouched) {
  const DeadlineScheduler scheduler;
  const ScheduleResult r =
      scheduler.schedule(uniform_demands(6, 0.0), scheduler_cell());
  EXPECT_EQ(r.admitted, 6);
  EXPECT_EQ(r.deferred, 0);
  EXPECT_EQ(r.total_degrade_steps, 0);
  for (const FlowDecision& d : r.flows) {
    EXPECT_TRUE(d.admitted);
    EXPECT_EQ(d.degrade_steps, 0);
    EXPECT_GT(d.predicted_completion_s, 0.0);
  }
}

TEST(Scheduler, GenerousDeadlinesAdmitEveryone) {
  const DeadlineScheduler scheduler;
  // Learn the loaded-cell completion time, then deadline comfortably above.
  const ScheduleResult probe =
      scheduler.schedule(uniform_demands(4, 0.0), scheduler_cell());
  const double worst = probe.flows[0].predicted_completion_s;
  const ScheduleResult r =
      scheduler.schedule(uniform_demands(4, worst * 1.5), scheduler_cell());
  EXPECT_EQ(r.admitted, 4);
  EXPECT_EQ(r.deferred, 0);
  EXPECT_EQ(r.total_degrade_steps, 0);
}

TEST(Scheduler, OverloadDegradesThenSheds) {
  const DeadlineScheduler scheduler;
  // Far below even a lone unencrypted flow's completion: the ladder is
  // walked to its floor, then flows defer — all but the last one.
  const ScheduleResult r =
      scheduler.schedule(uniform_demands(4, 1.05), scheduler_cell());
  EXPECT_GT(r.total_degrade_steps, 0);
  EXPECT_GT(r.deferred, 0);
  EXPECT_GE(r.admitted, 1);
  EXPECT_EQ(r.admitted + r.deferred, 4);
  EXPECT_GT(r.iterations, 1);
}

TEST(Scheduler, NeverDefersTheLastFlow) {
  const DeadlineScheduler scheduler;
  const ScheduleResult r =
      scheduler.schedule(uniform_demands(3, 0.01), scheduler_cell());
  EXPECT_GE(r.admitted, 1);
  int admitted = 0;
  for (const FlowDecision& d : r.flows) admitted += d.admitted ? 1 : 0;
  EXPECT_EQ(admitted, r.admitted);
}

TEST(Scheduler, DegradeAndSheddingCanBeDisabled) {
  SchedulerConfig no_degrade;
  no_degrade.allow_degrade = false;
  const ScheduleResult a = DeadlineScheduler{no_degrade}.schedule(
      uniform_demands(4, 1.05), scheduler_cell());
  EXPECT_EQ(a.total_degrade_steps, 0);

  SchedulerConfig no_shed;
  no_shed.allow_shedding = false;
  const ScheduleResult b = DeadlineScheduler{no_shed}.schedule(
      uniform_demands(4, 1.05), scheduler_cell());
  EXPECT_EQ(b.deferred, 0);
  EXPECT_EQ(b.admitted, 4);
}

TEST(Scheduler, IsDeterministic) {
  const DeadlineScheduler scheduler;
  const auto demands = uniform_demands(5, 1.2);
  const ScheduleResult a = scheduler.schedule(demands, scheduler_cell());
  const ScheduleResult b = scheduler.schedule(demands, scheduler_cell());
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t f = 0; f < a.flows.size(); ++f) {
    EXPECT_EQ(a.flows[f].admitted, b.flows[f].admitted);
    EXPECT_EQ(a.flows[f].degrade_steps, b.flows[f].degrade_steps);
    EXPECT_EQ(a.flows[f].predicted_completion_s,
              b.flows[f].predicted_completion_s);
  }
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(Scheduler, EncryptionLatencyLengthensPredictedCompletion) {
  const auto demands = uniform_demands(2, 0.0);
  const ContentionSolution sol = solve_contention(scheduler_cell());
  const policy::EncryptionPolicy all{policy::Mode::kAll,
                                     crypto::Algorithm::kAes256, 0.0};
  const policy::EncryptionPolicy none{policy::Mode::kNone,
                                      crypto::Algorithm::kAes256, 0.0};
  EXPECT_GT(DeadlineScheduler::predict_completion(demands[0], all, sol),
            DeadlineScheduler::predict_completion(demands[0], none, sol));
}

// --- Cell engine. ----------------------------------------------------------

CellSpec small_cell() {
  CellSpec spec;
  spec.flows = 1;
  spec.motions = {video::MotionLevel::kLow};
  spec.gop_sizes = {9};
  spec.policies = {{policy::Mode::kIFrames, crypto::Algorithm::kAes256, 0.0}};
  spec.algorithms = {crypto::Algorithm::kAes128};
  spec.deadlines_s = {0.0};
  spec.frames = 18;
  spec.repetitions = 4;
  spec.evaluate_quality = false;
  spec.seed = 33;
  return spec;
}

// Forwards to a JSONL sink and records how many workloads the runner's
// cache held when the grid began streaming.
template <class Spec, class Row>
class WarmAtBeginSink : public util::Sink<Spec, Row> {
 public:
  WarmAtBeginSink(std::ostream& out, const core::WorkloadCache& cache)
      : jsonl_(out), cache_(cache) {}
  void begin(const Spec& spec) override {
    built_at_begin = cache_.size();
    jsonl_.begin(spec);
  }
  void cell(const Row& row) override { jsonl_.cell(row); }
  void end() override { jsonl_.end(); }

  std::size_t built_at_begin = 0;

 private:
  util::JsonlSink<Spec, Row> jsonl_;
  const core::WorkloadCache& cache_;
};

// A cold cache on a pool: a grid task that built a workload could, while
// its build's parallel_for helps, pick up a sibling task that needs the
// same key and block on its own future.  Both runners build every key
// before they fan out, so each run must finish and match the serial run,
// and the cache must already be warm when the first row streams.
TEST(WorkloadCache, ColdGridOnPoolNeverSelfWaits) {
  using policy::Mode;
  core::SweepSpec sweep;  // 4 policies x 2 algorithms x 2 transports.
  sweep.motions = {video::MotionLevel::kLow};
  sweep.gop_sizes = {8};
  sweep.policies = {{Mode::kNone, crypto::Algorithm::kAes256, 0.0},
                    {Mode::kIFrames, crypto::Algorithm::kAes256, 0.0},
                    {Mode::kPFrames, crypto::Algorithm::kAes256, 0.0},
                    {Mode::kAll, crypto::Algorithm::kAes256, 0.0}};
  sweep.algorithms = {crypto::Algorithm::kAes128,
                      crypto::Algorithm::kAes256};
  sweep.transports = {core::Transport::kRtpUdp, core::Transport::kHttpTcp};
  sweep.frames = 16;
  sweep.repetitions = 1;
  sweep.evaluate_quality = false;
  sweep.seed = 41;
  ASSERT_GE(sweep.cell_count(), 16u);

  CapacitySpec capacity;  // 48 flows over two points, one workload.
  capacity.flow_counts = {16, 32};
  capacity.base = small_cell();
  capacity.base.repetitions = 1;

  const auto sweep_jsonl = [&](util::ThreadPool* pool) {
    std::ostringstream out;
    core::SweepRunner runner{pool};
    WarmAtBeginSink<core::SweepSpec, core::CellResult> sink{
        out, runner.workloads()};
    (void)runner.run(sweep, sink);
    EXPECT_EQ(sink.built_at_begin, 1u);
    EXPECT_EQ(runner.workloads().size(), 1u);
    return out.str();
  };
  const auto cell_jsonl = [&](util::ThreadPool* pool) {
    std::ostringstream out;
    CellRunner runner{pool};
    WarmAtBeginSink<CapacitySpec, CapacityPoint> sink{out,
                                                      runner.workloads()};
    (void)runner.run(capacity, sink);
    EXPECT_EQ(sink.built_at_begin, 1u);
    EXPECT_EQ(runner.workloads().size(), 1u);
    return out.str();
  };
  const std::string sweep_serial = sweep_jsonl(nullptr);
  const std::string cell_serial = cell_jsonl(nullptr);
  for (unsigned threads : {2U, 4U, 8U}) {
    util::ThreadPool pool{threads};
    EXPECT_EQ(sweep_jsonl(&pool), sweep_serial) << threads << " threads";
    EXPECT_EQ(cell_jsonl(&pool), cell_serial) << threads << " threads";
  }
}

TEST(CellSpecValidate, RejectsBadSpecs) {
  core::WorkloadCache cache;
  CellSpec spec = small_cell();
  spec.flows = 0;
  EXPECT_THROW((void)run_cell(spec, cache), std::invalid_argument);
  spec = small_cell();
  spec.gop_sizes = {32};  // frames (18) must cover every GOP.
  EXPECT_THROW((void)run_cell(spec, cache), std::invalid_argument);
  spec = small_cell();
  spec.fade_prob = 1.0;
  EXPECT_THROW((void)run_cell(spec, cache), std::invalid_argument);
  spec = small_cell();
  spec.deadlines_s = {};
  EXPECT_THROW((void)run_cell(spec, cache), std::invalid_argument);
}

TEST(CellSpecValidate, ResolvesAxesRoundRobin) {
  CellSpec spec = small_cell();
  spec.flows = 5;
  spec.motions = {video::MotionLevel::kLow, video::MotionLevel::kHigh};
  spec.gop_sizes = {9, 6, 3};
  const FlowConfig f0 = resolve_flow(spec, 0);
  const FlowConfig f3 = resolve_flow(spec, 3);
  const FlowConfig f4 = resolve_flow(spec, 4);
  EXPECT_EQ(f0.motion, video::MotionLevel::kLow);
  EXPECT_EQ(f3.motion, video::MotionLevel::kHigh);
  EXPECT_EQ(f0.gop_size, 9);
  EXPECT_EQ(f3.gop_size, 9);
  EXPECT_EQ(f4.gop_size, 6);
  // The algorithm axis overrides the policy shape's own algorithm.
  EXPECT_EQ(f0.policy.algorithm, crypto::Algorithm::kAes128);
}

// The ISSUE acceptance criterion: at N=1 (no background, no fading) the
// cell engine must reproduce a standalone core::simulate_transfer run wired
// with the same contention-derived knobs — within 1% on E[W], and in fact
// bit for bit, because the engine is the same code path.
TEST(CellEngine, SingleFlowMatchesStandalonePipeline) {
  const CellSpec spec = small_cell();
  core::WorkloadCache cache;
  const CellResult cell = run_cell(spec, cache);
  ASSERT_EQ(cell.admitted, 1);
  ASSERT_EQ(cell.flow_outcomes.size(), 1u);
  const FlowOutcome& out = cell.flow_outcomes[0];
  ASSERT_EQ(out.completed_repetitions, spec.repetitions);

  // Rebuild flow 0's exact pipeline by hand from the published seeds and
  // the cell's contention solution.
  core::WorkloadCache independent;
  const auto workload = independent.get(spec.motions[0], spec.gop_sizes[0],
                                        spec.frames, spec.seed, spec.fps);
  std::vector<net::VideoPacket> packets = workload->packets;
  policy::EncryptionPolicy policy = spec.policies[0];
  policy.algorithm = spec.algorithms[0];
  const std::vector<bool> selected = policy.select(packets);
  const std::uint64_t cipher_seed =
      util::derive_seed(spec.seed, kCipherStream, 0);
  const auto cipher =
      crypto::make_cipher_from_seed(policy.algorithm, cipher_seed);
  std::vector<std::uint8_t> iv(cipher->block_size());
  std::uint64_t state = cipher_seed ^ 0x1234567890abcdefULL;
  for (auto& b : iv) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    b = static_cast<std::uint8_t>(state >> 56);
  }
  net::encrypt_selected(packets, selected, *cipher, iv);

  core::PipelineConfig pipeline = spec.pipeline;
  pipeline.device = spec.devices[0];
  pipeline.algorithm = policy.algorithm;
  pipeline.fps = spec.fps;
  pipeline.phy = spec.phy;
  pipeline.backoff_rate = cell.contention.backoff_rate;
  pipeline.mac_success_prob = cell.contention.mac_success_prob * (1.0 - 0.0);
  pipeline.receiver_loss_prob =
      1.0 - (1.0 - spec.pipeline.receiver_loss_prob) * (1.0 - 0.0);

  util::RunningStats delay_ms;
  util::RunningStats duration_s;
  for (int r = 0; r < spec.repetitions; ++r) {
    const core::TransferResult transfer = core::simulate_transfer(
        pipeline, packets,
        flow_transfer_seed(spec.seed, 0, static_cast<std::uint64_t>(r)));
    delay_ms.add(transfer.mean_delay_ms());
    duration_s.add(transfer.duration_s);
  }

  // The documented acceptance band...
  EXPECT_NEAR(out.delay_ms.mean(), delay_ms.mean(),
              0.01 * delay_ms.mean());
  // ...and the stronger truth: identical seeds, identical knobs, identical
  // arithmetic.
  expect_bitwise_equal(out.delay_ms, delay_ms);
  expect_bitwise_equal(out.duration_s, duration_s);
}

TEST(CellEngine, DelayGrowsWithPopulation) {
  CapacitySpec spec;
  spec.flow_counts = {1, 6};
  spec.base = small_cell();
  spec.base.repetitions = 2;
  CellCollectSink sink;
  CellRunner runner;
  (void)runner.run(spec, sink);
  ASSERT_EQ(sink.points.size(), 2u);
  const CellResult& one = sink.points[0].result;
  const CellResult& six = sink.points[1].result;
  EXPECT_GT(six.contention.collision_prob, one.contention.collision_prob);
  EXPECT_LT(six.contention.per_flow_throughput_mbps,
            one.contention.per_flow_throughput_mbps);
  EXPECT_GT(six.delay_ms.mean(), one.delay_ms.mean());
  EXPECT_GT(six.duration_s.mean(), one.duration_s.mean());
}

TEST(CellEngine, DeadlineMissesAreCounted) {
  CellSpec spec = small_cell();
  // Far tighter than any transfer can finish; the lone flow is never
  // deferred, so every completed repetition misses.
  spec.deadlines_s = {0.01};
  core::WorkloadCache cache;
  const CellResult r = run_cell(spec, cache);
  EXPECT_EQ(r.admitted, 1);
  EXPECT_EQ(r.deadline_repetitions,
            static_cast<std::size_t>(spec.repetitions));
  EXPECT_EQ(r.deadline_misses, r.deadline_repetitions);
  EXPECT_DOUBLE_EQ(r.deadline_miss_fraction(), 1.0);
}

TEST(CellEngine, FadedRepetitionsRaiseLossAndAreCounted) {
  CellSpec spec = small_cell();
  spec.flows = 4;
  spec.fade_prob = 0.4;
  spec.mean_fade_reps = 2.0;
  spec.fade_error_prob = 0.3;
  core::WorkloadCache cache;
  const CellResult r = run_cell(spec, cache);
  int faded = 0;
  for (const FlowOutcome& o : r.flow_outcomes) faded += o.faded_repetitions;
  EXPECT_GT(faded, 0);  // 16 coherence blocks at stationary prob 0.4.
  EXPECT_LT(faded, 4 * spec.repetitions);
}

TEST(CellEngine, DeferredFlowsGetNoAirtime) {
  CellSpec spec = small_cell();
  spec.flows = 6;
  spec.frames = 18;
  spec.repetitions = 2;
  // Infeasible deadline: the scheduler walks the ladder, then sheds.
  spec.deadlines_s = {0.05};
  core::WorkloadCache cache;
  const CellResult r = run_cell(spec, cache);
  EXPECT_GT(r.deferred, 0);
  EXPECT_GE(r.admitted, 1);
  for (const FlowOutcome& o : r.flow_outcomes) {
    if (!o.admitted) {
      EXPECT_EQ(o.completed_repetitions, 0);
      EXPECT_EQ(o.delay_ms.count(), 0u);
    }
  }
  // Aggregates cover admitted flows only.
  std::size_t admitted_reps = 0;
  for (const FlowOutcome& o : r.flow_outcomes) {
    if (o.admitted) {
      admitted_reps += static_cast<std::size_t>(o.completed_repetitions);
    }
  }
  EXPECT_EQ(r.delay_ms.count(), admitted_reps);
}

// The determinism contract (named so the TSan pass of run_checks.sh picks
// it up): a capacity sweep is byte- and bit-identical between a serial
// runner and an 8-thread pool.
TEST(CellSweepRunner, EightThreadsBitIdenticalToSerial) {
  CapacitySpec spec;
  spec.flow_counts = {1, 3};
  spec.base = small_cell();
  spec.base.repetitions = 2;
  spec.base.evaluate_quality = true;
  spec.base.fade_prob = 0.25;
  spec.base.fade_error_prob = 0.3;
  spec.base.deadlines_s = {1.5, 0.0};

  CellCollectSink serial;
  std::ostringstream serial_jsonl;
  {
    CellRunner runner;  // no pool.
    CellJsonlSink jsonl{serial_jsonl};
    (void)runner.run(spec, jsonl);
    (void)runner.run(spec, serial);
  }

  CellCollectSink pooled;
  std::ostringstream pooled_jsonl;
  {
    util::ThreadPool pool{8};
    CellRunner runner{&pool};
    CellJsonlSink jsonl{pooled_jsonl};
    const auto summary = runner.run(spec, jsonl);
    EXPECT_EQ(summary.threads, 8u);
    (void)runner.run(spec, pooled);
  }

  // The streamed export is byte-identical...
  EXPECT_EQ(serial_jsonl.str(), pooled_jsonl.str());

  // ...stays valid JSON even where slack is unbounded (no-deadline flows
  // must serialize +inf slack as null, not a bare "inf" token)...
  EXPECT_NE(serial_jsonl.str().find("\"slack_s\":null"), std::string::npos);
  EXPECT_EQ(serial_jsonl.str().find(":inf"), std::string::npos);
  EXPECT_EQ(serial_jsonl.str().find(":nan"), std::string::npos);

  // ...and so is every in-memory statistic and scheduling decision.
  ASSERT_EQ(serial.points.size(), pooled.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    const CellResult& a = serial.points[i].result;
    const CellResult& b = pooled.points[i].result;
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.deferred, b.deferred);
    EXPECT_EQ(a.total_degrade_steps, b.total_degrade_steps);
    expect_bitwise_equal(a.delay_ms, b.delay_ms);
    expect_bitwise_equal(a.duration_s, b.duration_s);
    expect_bitwise_equal(a.power_w, b.power_w);
    expect_bitwise_equal(a.energy_j, b.energy_j);
    expect_bitwise_equal(a.receiver_psnr_db, b.receiver_psnr_db);
    expect_bitwise_equal(a.eavesdropper_psnr_db, b.eavesdropper_psnr_db);
    ASSERT_EQ(a.flow_outcomes.size(), b.flow_outcomes.size());
    for (std::size_t f = 0; f < a.flow_outcomes.size(); ++f) {
      EXPECT_EQ(a.flow_outcomes[f].admitted, b.flow_outcomes[f].admitted);
      EXPECT_EQ(a.flow_outcomes[f].faded_repetitions,
                b.flow_outcomes[f].faded_repetitions);
      expect_bitwise_equal(a.flow_outcomes[f].delay_ms,
                           b.flow_outcomes[f].delay_ms);
    }
  }
}

// An overloaded 2 000-flow point sheds most of its flows, so its
// scheduler solves the cell at well over a thousand admitted counts, on
// the pool ahead of the loop.  The point is the same at 1 and 4 threads:
// every record byte, including the contention solution and each flow's
// decision, prediction and fading.
TEST(CellSweepRunner, OverloadedPointBitIdenticalOnFourThreads) {
  CapacitySpec spec;
  spec.flow_counts = {2000};
  spec.base = small_cell();
  spec.base.gop_sizes = {8};
  spec.base.frames = 16;
  spec.base.repetitions = 1;
  spec.base.policies = {
      {policy::Mode::kIFrames, crypto::Algorithm::kAes256, 0.0},
      {policy::Mode::kAll, crypto::Algorithm::kAes256, 0.0}};
  spec.base.algorithms = {crypto::Algorithm::kAes256};
  spec.base.deadlines_s = {4.0, 8.0};
  spec.base.fade_prob = 0.2;

  const auto run = [&](util::ThreadPool* pool) {
    CellRunner runner{pool};
    CellCollectSink collect;
    std::ostringstream jsonl;
    CellJsonlSink sink{jsonl};
    util::TeeSink<CapacitySpec, CapacityPoint> tee;
    tee.add(&collect);
    tee.add(&sink);
    (void)runner.run(spec, tee);
    return std::pair{collect.points.at(0).result, jsonl.str()};
  };
  const auto [serial, serial_jsonl] = run(nullptr);
  util::ThreadPool pool{4};
  const auto [pooled, pooled_jsonl] = run(&pool);

  EXPECT_GT(serial.deferred, 1000);
  EXPECT_GT(serial.total_degrade_steps, 0);
  EXPECT_EQ(serial_jsonl, pooled_jsonl);
  EXPECT_EQ(serial.schedule_iterations, pooled.schedule_iterations);
  EXPECT_EQ(serial.contention.mac_success_prob,
            pooled.contention.mac_success_prob);
  EXPECT_EQ(serial.contention.backoff_rate, pooled.contention.backoff_rate);
  EXPECT_EQ(serial.contention.dcf.iterations, pooled.contention.dcf.iterations);
  expect_bitwise_equal(serial.delay_ms, pooled.delay_ms);
  expect_bitwise_equal(serial.energy_j, pooled.energy_j);
  EXPECT_EQ(serial.deadline_misses, pooled.deadline_misses);
}

}  // namespace
}  // namespace tv::cell
