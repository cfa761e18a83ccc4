// The leakage-vs-cost sweep: countermeasure efficacy, cost accounting,
// spec validation and the byte-identical-at-any-thread-count contract.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <vector>

#include "analysis/sweep.hpp"
#include "core/experiment.hpp"
#include "util/thread_pool.hpp"

namespace tv::analysis {
namespace {

policy::EncryptionPolicy policy_of(const char* spec) {
  return policy::policy_from_string(spec, crypto::Algorithm::kAes256);
}

/// Run one explicit (policy, shaping) cell.  Every call enumerates a
/// single-cell grid, so with/without-countermeasure pairs share the same
/// derived seed and differ only in the shaping knob.
LeakageCellResult run_cell(const policy::EncryptionPolicy& pol,
                           const policy::ShapingPolicy& shaping) {
  LeakageSpec spec;
  spec.policies = {pol};
  spec.shapings = {shaping};
  const std::vector<LeakageCell> cells = enumerate_leakage_cells(spec);
  const core::Workload workload =
      core::build_workload(spec.motion, spec.gop_size, spec.frames,
                           spec.seed, spec.pipeline.fps);
  return run_leakage_cell(spec, cells.front(), workload);
}

// ---- Each countermeasure knob suppresses its paired leakage metric,
// and its price is visible in the same result (docs/adversary.md).

TEST(AnalysisSweep, PaddingDegradesBitrateRecoveryAtAByteCost) {
  // Padding only pays off alongside encryption: on cleartext packets the
  // pad trailer stays readable and the adversary strips it exactly (the
  // features tier pins that), so the pairing is measured under "all".
  const LeakageCellResult plain =
      run_cell(policy_of("all"), policy::ShapingPolicy{});
  policy::ShapingPolicy pad;
  pad.pad_bucket_bytes = 256;
  const LeakageCellResult padded = run_cell(policy_of("all"), pad);

  EXPECT_GT(padded.metrics.bitrate_rel_error,
            plain.metrics.bitrate_rel_error);
  EXPECT_GT(padded.metrics.trajectory_mae_kbps,
            plain.metrics.trajectory_mae_kbps);
  // The cost side: pad bytes on the wire, charged through the same
  // service/energy models as everything else.
  EXPECT_EQ(plain.pad_overhead_bytes, 0u);
  EXPECT_GT(padded.pad_overhead_bytes, 0u);
  EXPECT_GT(padded.mean_power_w, 0.0);
}

TEST(AnalysisSweep, MarkerHidingErasesTheEncryptedFractionFingerprint) {
  const LeakageCellResult plain =
      run_cell(policy_of("I"), policy::ShapingPolicy{});
  policy::ShapingPolicy hide;
  hide.hide_markers = true;
  const LeakageCellResult hidden = run_cell(policy_of("I"), hide);

  // With visible markers the adversary nails the encrypted fraction;
  // with them hidden its estimate collapses to zero and the error jumps
  // to the policy's true fraction.
  EXPECT_LT(plain.metrics.encrypted_fraction_error, 0.05);
  EXPECT_GT(hidden.metrics.encrypted_fraction_error, 0.10);
  EXPECT_DOUBLE_EQ(hidden.inference.encrypted_fraction_est, 0.0);
  // Marker hiding is free on the delay/energy meters.
  EXPECT_EQ(hidden.pad_overhead_bytes, 0u);
  EXPECT_DOUBLE_EQ(hidden.jitter_mean_delay_s, 0.0);
}

TEST(AnalysisSweep, TimingJitterSmearsTheBitrateTrajectoryAtADelayCost) {
  // The sigma has to be commensurate with the adversary's 250 ms
  // trajectory window: 2 ms never moves a packet across a bin edge on
  // this workload, 20 ms does.
  const LeakageCellResult plain =
      run_cell(policy_of("none"), policy::ShapingPolicy{});
  policy::ShapingPolicy jitter;
  jitter.jitter_stddev_s = 20e-3;
  const LeakageCellResult jittered = run_cell(policy_of("none"), jitter);

  EXPECT_GT(jittered.metrics.trajectory_mae_kbps,
            plain.metrics.trajectory_mae_kbps);
  // The cost side: the half-normal mean delay is added to every packet.
  EXPECT_GT(jittered.jitter_mean_delay_s, 0.0);
  EXPECT_GT(jittered.mean_delay_ms, plain.mean_delay_ms);
  EXPECT_GE(jittered.duration_s, plain.duration_s);
}

// ---- Grid mechanics.

TEST(AnalysisSweep, DefaultAxesAreHeadlinePoliciesByNonePlusKnobs) {
  const LeakageSpec spec;
  EXPECT_EQ(spec.policy_axis().size(), 4u);
  EXPECT_EQ(spec.shaping_axis().size(), 4u);
  EXPECT_EQ(spec.cell_count(), 16u);
  EXPECT_FALSE(spec.shaping_axis()[0].enabled());
  const std::vector<LeakageCell> cells = enumerate_leakage_cells(spec);
  ASSERT_EQ(cells.size(), 16u);
  EXPECT_EQ(cells[0].index, 0u);
  EXPECT_EQ(cells[5].policy.spec(), cells[4].policy.spec());
  EXPECT_NE(cells[5].seed, cells[4].seed);
}

TEST(AnalysisSweep, ValidateRejectsBadSpecs) {
  LeakageSpec bad_gop;
  bad_gop.gop_size = 1;
  EXPECT_THROW(bad_gop.validate(), std::invalid_argument);

  LeakageSpec short_clip;
  short_clip.frames = 8;
  short_clip.gop_size = 16;
  EXPECT_THROW(short_clip.validate(), std::invalid_argument);

  LeakageSpec bad_separation;
  bad_separation.adversary.cluster_separation = 0.5;
  EXPECT_THROW(bad_separation.validate(), std::invalid_argument);

  LeakageSpec bad_shaping;
  bad_shaping.shapings.emplace_back();
  bad_shaping.shapings.back().pad_bucket_bytes = 1;
  EXPECT_THROW(bad_shaping.validate(), std::invalid_argument);
}

TEST(AnalysisSweep, RunnerOutputIsByteIdenticalAtAnyThreadCount) {
  LeakageSpec spec;
  spec.frames = 32;
  spec.gop_size = 8;

  std::ostringstream serial_out;
  util::JsonlSink<LeakageSpec, LeakageCellResult> serial_sink{serial_out};
  const util::GridSummary s1 = run_leakage(spec, serial_sink);

  util::ThreadPool pool{4};
  std::ostringstream pooled_out;
  util::JsonlSink<LeakageSpec, LeakageCellResult> pooled_sink{pooled_out};
  const util::GridSummary s4 = run_leakage(spec, pooled_sink, &pool);

  EXPECT_EQ(s1.cells, s4.cells);
  EXPECT_EQ(s4.threads, 4u);
  EXPECT_EQ(serial_out.str(), pooled_out.str());
  EXPECT_FALSE(serial_out.str().empty());
}

TEST(AnalysisSweep, TeeSinkFansOutToEveryFormat) {
  LeakageSpec spec;
  spec.policies = {policy_of("I")};
  spec.shapings = {policy::ShapingPolicy{}};

  std::ostringstream table_out, jsonl_out, csv_out;
  util::TableSink<LeakageSpec, LeakageCellResult> table{table_out};
  util::JsonlSink<LeakageSpec, LeakageCellResult> jsonl{jsonl_out};
  util::CsvSink<LeakageSpec, LeakageCellResult> csv{csv_out};
  util::CollectSink<LeakageSpec, LeakageCellResult> collect;
  util::TeeSink<LeakageSpec, LeakageCellResult> tee;
  tee.add(&table);
  tee.add(&jsonl);
  tee.add(&csv);
  tee.add(&collect);

  (void)run_leakage(spec, tee);
  ASSERT_EQ(collect.results.size(), 1u);
  EXPECT_NE(table_out.str().find("policy"), std::string::npos);
  EXPECT_NE(jsonl_out.str().find("\"policy\":\"I\""), std::string::npos);
  EXPECT_NE(csv_out.str().find("i_precision"), std::string::npos);
  // CSV: header + one row.
  std::size_t lines = 0;
  for (const char c : csv_out.str()) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 2u);
}

}  // namespace
}  // namespace tv::analysis
