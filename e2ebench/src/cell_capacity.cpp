// cell-capacity: cell::CellRunner over a capacity axis of 10^3-10^4
// flows with deadlines of 4 and 8 s and policies I and all assigned
// round-robin, so the scheduler's degrade ladder engages; quality off.
// A batch job: decoding is bypassed, the steady phase is the scheduler
// and contention solve, per-flow clone plus AES-NI encryption, and
// simulate_transfer.  One shared workload, so set-up builds exactly one.
#include <memory>
#include <optional>

#include "recompose.hpp"
#include "workloads.hpp"

namespace e2e {

namespace cell = tv::cell;
namespace core = tv::core;
namespace util = tv::util;
using tv::crypto::Algorithm;
using tv::policy::EncryptionPolicy;
using tv::policy::Mode;

namespace {

/// FNV-1a of the capacity sweep's JSONL at kDefaultSeed (any thread count).
constexpr std::uint64_t kReferenceDigest = 0x387f55e38dd61e7b;

cell::CapacitySpec capacity(std::uint64_t seed) {
  cell::CapacitySpec spec;
  spec.flow_counts = {1000, 3000, 10000};
  spec.base.policies = {
      EncryptionPolicy{Mode::kIFrames, Algorithm::kAes256, 0.0},
      EncryptionPolicy{Mode::kAll, Algorithm::kAes256, 0.0}};
  spec.base.deadlines_s = {4.0, 8.0};
  spec.base.evaluate_quality = false;
  spec.base.repetitions = 5;
  spec.base.seed = seed;
  return spec;
}

/// Builds the (single) workload of the sweep; returns the wall time.
double cold_setup(core::WorkloadCache& cache, const cell::CapacitySpec& spec) {
  const auto t0 = Clock::now();
  const cell::CellSpec& b = spec.base;
  for (std::size_t f = 0; f < b.motions.size() * b.gop_sizes.size(); ++f) {
    const cell::FlowConfig c = cell::resolve_flow(b, f);
    (void)cache.get(c.motion, c.gop_size, b.frames, b.seed, b.fps);
  }
  return seconds_since(t0);
}

/// Digest of the points as `thriftyvid cell --format=jsonl` renders them.
std::uint64_t jsonl_digest(const std::vector<cell::CapacityPoint>& points) {
  DigestStream out;
  cell::CellJsonlSink sink{out};
  for (const cell::CapacityPoint& p : points) sink.point(p);
  return out.digest();
}

struct Pass {
  double seconds = 0.0;
  std::vector<cell::CapacityPoint> points;
};

Pass library_pass(cell::CellRunner& runner, const cell::CapacitySpec& spec) {
  cell::CellCollectSink sink;
  const auto t0 = Clock::now();
  (void)runner.run(spec, sink);
  return {seconds_since(t0), std::move(sink.points)};
}

Pass traced_pass(cell::CellRunner& runner, const cell::CapacitySpec& spec,
                 util::ThreadPool& pool) {
  Pass pass;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < spec.flow_counts.size(); ++i) {
    cell::CellSpec c = spec.base;
    c.flows = spec.flow_counts[i];
    cell::CapacityPoint point;
    point.index = i;
    point.flows = c.flows;
    point.result = traced_run_cell(c, runner.workloads(), &pool);
    pass.points.push_back(std::move(point));
  }
  pass.seconds = seconds_since(t0);
  return pass;
}

/// Flows scheduled by a pass; its repetitions count as operations.
double count_flows(Report& report, const Pass& pass) {
  double flows = 0.0;
  for (const cell::CapacityPoint& p : pass.points) {
    flows += p.flows;
    for (const cell::FlowOutcome& f : p.result.flow_outcomes) {
      report.attempted += static_cast<std::size_t>(f.completed_repetitions +
                                                   f.failed_repetitions);
      report.failed += static_cast<std::size_t>(f.failed_repetitions);
    }
  }
  return flows;
}

Report untraced(const Options& o) {
  Report report;
  EndToEnd e;
  e.unit = "flows";
  const cell::CapacitySpec spec = capacity(o.seed);
  util::ThreadPool pool{o.threads};
  std::unique_ptr<cell::CellRunner> runner;
  std::optional<std::uint64_t> first;
  untraced_phases(
      o, e,
      [&] {
        runner.reset();
        runner = std::make_unique<cell::CellRunner>(&pool);
        return cold_setup(runner->workloads(), spec);
      },
      [&] {
        const Pass pass = library_pass(*runner, spec);
        e.add_pass(pass.seconds, count_flows(report, pass),
                   {1e3 * pass.seconds});
        check_digest(report, o, "cell-capacity", kReferenceDigest,
                     jsonl_digest(pass.points), first);
      });
  add_end_to_end(report, e);
  return report;
}

Report traced(const Options& o) {
  Report report;
  Layers layers;
  const cell::CapacitySpec spec = capacity(o.seed);
  util::ThreadPool pool{o.threads};
  cell::CellRunner runner{&pool};
  (void)cold_setup(runner.workloads(), spec);

  const cell::CellSpec& b = spec.base;
  const cell::FlowConfig c0 = cell::resolve_flow(b, 0);
  traced_setups(layers, [&] {
    const core::Workload built = traced_build_workload(
        c0.motion, c0.gop_size, b.frames, b.seed, b.fps);
    const auto library =
        runner.workloads().get(c0.motion, c0.gop_size, b.frames, b.seed, b.fps);
    report.check(identical(built, *library),
                 "traced build_workload equals core::build_workload");
  });
  traced_steady(
      o, report, layers,
      [&] {
        const Pass pass = library_pass(runner, spec);
        (void)count_flows(report, pass);
        return PassOutput{pass.seconds, jsonl_digest(pass.points)};
      },
      [&] {
        const Pass pass = traced_pass(runner, spec, pool);
        return PassOutput{pass.seconds, jsonl_digest(pass.points)};
      },
      "traced run_cell JSONL equals cell::CellRunner's");
  finish_traced(o, report, layers);
  return report;
}

}  // namespace

Report run_cell_capacity(const Options& options) {
  return options.trace ? traced(options) : untraced(options);
}

}  // namespace e2e
