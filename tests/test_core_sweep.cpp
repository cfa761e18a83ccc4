#include "core/sweep.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tv::core {
namespace {

// Small grid that still exercises several axes: 2 motions x 2 policies x
// 2 algorithms = 8 cells, tiny clips so the whole suite stays fast.
SweepSpec small_spec() {
  SweepSpec spec;
  spec.motions = {video::MotionLevel::kLow, video::MotionLevel::kHigh};
  spec.gop_sizes = {8};
  spec.policies = {{policy::Mode::kNone, crypto::Algorithm::kAes256, 0.0},
                   {policy::Mode::kIFrames, crypto::Algorithm::kAes256, 0.0}};
  spec.algorithms = {crypto::Algorithm::kAes128, crypto::Algorithm::kAes256};
  spec.frames = 16;
  spec.repetitions = 3;
  spec.seed = 99;
  return spec;
}

void expect_bitwise_equal(const util::RunningStats& a,
                          const util::RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

TEST(SweepSpec, CellCountIsAxisProduct) {
  const auto spec = small_spec();
  EXPECT_EQ(spec.cell_count(), 8u);
  EXPECT_EQ(enumerate_cells(spec).size(), 8u);
}

TEST(SweepSpec, ValidateRejectsBadSpecs) {
  auto spec = small_spec();
  spec.motions.clear();
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_spec();
  spec.repetitions = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_spec();
  spec.frames = 4;  // smaller than the GOP.
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  EXPECT_NO_THROW(small_spec().validate());
}

TEST(SweepCells, RowMajorOrderAppliesAlgorithmAxis) {
  const auto cells = enumerate_cells(small_spec());
  // Last axis (algorithm within policy block) varies fastest of the two.
  EXPECT_EQ(cells[0].policy.mode, policy::Mode::kNone);
  EXPECT_EQ(cells[0].policy.algorithm, crypto::Algorithm::kAes128);
  EXPECT_EQ(cells[1].policy.algorithm, crypto::Algorithm::kAes256);
  EXPECT_EQ(cells[2].policy.mode, policy::Mode::kIFrames);
  EXPECT_EQ(cells[0].motion, video::MotionLevel::kLow);
  EXPECT_EQ(cells[4].motion, video::MotionLevel::kHigh);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
  }
}

TEST(SweepCells, PerCellSeedsAreDerivedAndDistinct) {
  const auto spec = small_spec();
  const auto cells = enumerate_cells(spec);
  std::set<std::uint64_t> seeds;
  for (const auto& c : cells) {
    EXPECT_EQ(c.seed, util::derive_seed(spec.seed, 0x5eedC311ULL, c.index));
    seeds.insert(c.seed);
  }
  EXPECT_EQ(seeds.size(), cells.size());  // no collisions on this grid.
}

TEST(SweepCells, SharedSeedModeReusesRootSeed) {
  auto spec = small_spec();
  spec.seed_mode = SweepSpec::SeedMode::kShared;
  for (const auto& c : enumerate_cells(spec)) {
    EXPECT_EQ(c.seed, spec.seed);
  }
}

TEST(SweepRunner, FourThreadsBitIdenticalToSerial) {
  const auto spec = small_spec();

  CollectSink serial;
  std::ostringstream serial_jsonl;
  {
    SweepRunner runner;  // no pool.
    JsonlSink jsonl{serial_jsonl};
    runner.run(spec, jsonl);
    runner.run(spec, serial);
  }

  CollectSink pooled;
  std::ostringstream pooled_jsonl;
  {
    util::ThreadPool pool{4};
    SweepRunner runner{&pool};
    JsonlSink jsonl{pooled_jsonl};
    const auto summary = runner.run(spec, jsonl);
    EXPECT_EQ(summary.threads, 4u);
    runner.run(spec, pooled);
  }

  // The streamed export is byte-identical...
  EXPECT_EQ(serial_jsonl.str(), pooled_jsonl.str());

  // ...and so is every in-memory statistic, failure count, and seed.
  ASSERT_EQ(serial.results.size(), pooled.results.size());
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    const auto& a = serial.results[i];
    const auto& b = pooled.results[i];
    EXPECT_EQ(a.cell.index, b.cell.index);
    EXPECT_EQ(a.cell.seed, b.cell.seed);
    EXPECT_EQ(a.result.completed_repetitions, b.result.completed_repetitions);
    EXPECT_EQ(a.result.failed_repetitions, b.result.failed_repetitions);
    EXPECT_EQ(a.result.failures.size(), b.result.failures.size());
    expect_bitwise_equal(a.result.delay_ms, b.result.delay_ms);
    expect_bitwise_equal(a.result.duration_s, b.result.duration_s);
    expect_bitwise_equal(a.result.power_w, b.result.power_w);
    expect_bitwise_equal(a.result.receiver_psnr_db, b.result.receiver_psnr_db);
    expect_bitwise_equal(a.result.eavesdropper_psnr_db,
                         b.result.eavesdropper_psnr_db);
    expect_bitwise_equal(a.result.receiver_mos, b.result.receiver_mos);
    expect_bitwise_equal(a.result.eavesdropper_mos,
                         b.result.eavesdropper_mos);
  }
}

TEST(SweepRunner, PooledRunExperimentMatchesSerial) {
  const auto workload =
      build_workload(video::MotionLevel::kLow, 8, 16, 7);
  ExperimentSpec spec;
  spec.policy = {policy::Mode::kIFrames, crypto::Algorithm::kAes256, 0.0};
  spec.repetitions = 5;
  spec.seed = 7;
  spec.sensitivity_fraction = default_sensitivity(workload.motion);
  const auto serial = run_experiment(spec, workload);
  util::ThreadPool pool{4};
  const auto pooled = run_experiment(spec, workload, &pool);
  expect_bitwise_equal(serial.delay_ms, pooled.delay_ms);
  expect_bitwise_equal(serial.power_w, pooled.power_w);
  expect_bitwise_equal(serial.receiver_psnr_db, pooled.receiver_psnr_db);
  expect_bitwise_equal(serial.eavesdropper_psnr_db,
                       pooled.eavesdropper_psnr_db);
  EXPECT_EQ(serial.completed_repetitions, pooled.completed_repetitions);
  EXPECT_EQ(serial.total_retransmissions, pooled.total_retransmissions);
}

// The figure benches rest on this: a kShared cell is run_experiment at the
// root seed on the serially built workload, bit for bit, whatever the
// policy, device, transport or quality setting.
TEST(SweepRunner, SharedSeedCellEqualsDirectRunExperiment) {
  SweepSpec spec;
  spec.motions = {video::MotionLevel::kHigh};
  spec.gop_sizes = {8};
  spec.policies = {
      {policy::Mode::kIFrames, crypto::Algorithm::kAes256, 0.0},
      {policy::Mode::kIPlusFractionP, crypto::Algorithm::kAes256, 0.20}};
  spec.devices = {samsung_galaxy_s2(), htc_amaze_4g()};
  spec.transports = {Transport::kRtpUdp, Transport::kHttpTcp};
  spec.frames = 16;
  spec.repetitions = 2;
  spec.seed = 2013;
  spec.seed_mode = SweepSpec::SeedMode::kShared;
  const Workload workload = build_workload(video::MotionLevel::kHigh, 8,
                                           spec.frames, spec.seed);

  for (const bool quality : {true, false}) {
    spec.evaluate_quality = quality;
    util::ThreadPool pool{4};
    CollectSink sink;
    SweepRunner{&pool}.run(spec, sink);
    ASSERT_EQ(sink.results.size(), 8u);
    for (const CellResult& cell : sink.results) {
      ExperimentSpec es;
      es.policy = cell.cell.policy;
      es.pipeline.device = cell.cell.device;
      es.pipeline.transport = cell.cell.transport;
      es.repetitions = spec.repetitions;
      es.seed = spec.seed;
      es.evaluate_quality = quality;
      es.sensitivity_fraction = default_sensitivity(workload.motion);
      const CellResult direct{cell.cell, run_experiment(es, workload)};

      SCOPED_TRACE(cell.cell.index);
      std::ostringstream a, b;
      util::write_json(a, to_record(cell));
      util::write_json(b, to_record(direct));
      EXPECT_EQ(a.str(), b.str());
      EXPECT_EQ(cell.result.label, direct.result.label);
      expect_bitwise_equal(cell.result.delay_ms, direct.result.delay_ms);
      expect_bitwise_equal(cell.result.duration_s, direct.result.duration_s);
      expect_bitwise_equal(cell.result.power_w, direct.result.power_w);
      expect_bitwise_equal(cell.result.eavesdropper_psnr_db,
                           direct.result.eavesdropper_psnr_db);
      expect_bitwise_equal(cell.result.eavesdropper_mos,
                           direct.result.eavesdropper_mos);
    }
  }
}

TEST(WorkloadCache, BuildsOnceAndShares) {
  WorkloadCache cache;
  const auto a = cache.get(video::MotionLevel::kLow, 8, 16, 5);
  const auto b = cache.get(video::MotionLevel::kLow, 8, 16, 5);
  EXPECT_EQ(a.get(), b.get());  // same shared workload, no rebuild.
  EXPECT_EQ(cache.size(), 1u);
  const auto c = cache.get(video::MotionLevel::kLow, 8, 16, 6);
  EXPECT_NE(a.get(), c.get());  // seed participates in the key.
  EXPECT_EQ(cache.size(), 2u);
}

TEST(WorkloadCache, ConcurrentRequestersGetOneBuild) {
  WorkloadCache cache;
  util::ThreadPool pool{4};
  std::vector<std::shared_ptr<const Workload>> got(8);
  pool.parallel_for(got.size(), [&](std::size_t i) {
    got[i] = cache.get(video::MotionLevel::kLow, 8, 16, 11);
  });
  for (const auto& w : got) EXPECT_EQ(w.get(), got[0].get());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(Sinks, FormatsContainTheCells) {
  auto spec = small_spec();
  spec.policies = {{policy::Mode::kIFrames, crypto::Algorithm::kAes256, 0.0}};
  spec.algorithms = {crypto::Algorithm::kAes256};
  spec.motions = {video::MotionLevel::kLow};

  std::ostringstream table, jsonl, csv;
  {
    SweepRunner runner;
    util::TableSink<SweepSpec, CellResult> t{table};
    JsonlSink j{jsonl};
    util::CsvSink<SweepSpec, CellResult> c{csv};
    runner.run(spec, t);
    runner.run(spec, j);
    runner.run(spec, c);
  }
  EXPECT_NE(table.str().find("policy"), std::string::npos);
  EXPECT_NE(table.str().find("I"), std::string::npos);
  EXPECT_NE(jsonl.str().find("\"policy\":\"I\""), std::string::npos);
  EXPECT_NE(jsonl.str().find("\"cell\":0"), std::string::npos);
  // CSV: header row plus one line per cell.
  std::size_t lines = 0;
  for (char ch : csv.str()) lines += ch == '\n';
  EXPECT_EQ(lines, 1 + spec.cell_count());
}

TEST(Roundtrips, MotionDeviceTransportStrings) {
  for (auto m : {video::MotionLevel::kLow, video::MotionLevel::kMedium,
                 video::MotionLevel::kHigh}) {
    EXPECT_EQ(video::motion_from_string(video::to_string(m)), m);
  }
  EXPECT_THROW((void)video::motion_from_string("warp"),
               std::invalid_argument);

  for (const auto& d : {samsung_galaxy_s2(), htc_amaze_4g()}) {
    EXPECT_EQ(device_from_string(d.key).key, d.key);
    EXPECT_EQ(device_from_string(d.name).key, d.key);
  }
  EXPECT_THROW((void)device_from_string("nokia"), std::invalid_argument);

  for (auto t : {Transport::kRtpUdp, Transport::kHttpTcp}) {
    EXPECT_EQ(transport_from_string(transport_key(t)), t);
    EXPECT_EQ(transport_from_string(to_string(t)), t);
  }
  EXPECT_THROW((void)transport_from_string("sctp"), std::invalid_argument);
}

}  // namespace
}  // namespace tv::core
