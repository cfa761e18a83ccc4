// sweep-grid: the paper's Figs. 4/7/10 grid (motion low/high x policy
// I/all x AES256/3DES, samsung, UDP, GOP 30, quality on) through
// core::SweepRunner on a pool.  A batch job: its steady phase is decode,
// PSNR/MOS scoring and scalar-3DES OFB decryption in net::reassemble;
// simulate_transfer is about 0% of it.  The two motion levels are two
// distinct workloads, so set-up builds workloads in parallel.
#include <memory>
#include <optional>

#include "recompose.hpp"
#include "workloads.hpp"

namespace e2e {

namespace core = tv::core;
namespace util = tv::util;
namespace video = tv::video;
using tv::crypto::Algorithm;
using tv::policy::EncryptionPolicy;
using tv::policy::Mode;

namespace {

// Half of `thriftyvid sweep`'s default of 120 frames, so that a run's
// budget holds about ten passes instead of four: the run reports its
// fastest pass, and four samples of it spread too widely (README.md).
constexpr int kFrames = 60;
constexpr int kGop = 30;
constexpr int kRepetitions = 5;

/// FNV-1a of the grid's JSONL at kDefaultSeed (any thread count).
constexpr std::uint64_t kReferenceDigest = 0x821bc2b2830f8592;

core::SweepSpec grid(std::uint64_t seed) {
  core::SweepSpec spec;
  spec.motions = {video::MotionLevel::kLow, video::MotionLevel::kHigh};
  spec.gop_sizes = {kGop};
  spec.policies = {EncryptionPolicy{Mode::kIFrames, Algorithm::kAes256, 0.0},
                   EncryptionPolicy{Mode::kAll, Algorithm::kAes256, 0.0}};
  spec.algorithms = {Algorithm::kAes256, Algorithm::kTripleDes};
  spec.devices = {core::samsung_galaxy_s2()};
  spec.transports = {core::Transport::kRtpUdp};
  spec.frames = kFrames;
  spec.repetitions = kRepetitions;
  spec.evaluate_quality = true;
  spec.seed = seed;
  return spec;
}

/// Builds every distinct workload of the grid on the pool; returns the
/// wall time.
double cold_setup(core::WorkloadCache& cache, const core::SweepSpec& spec,
                  util::ThreadPool& pool) {
  const auto t0 = Clock::now();
  pool.parallel_for(spec.motions.size(), [&](std::size_t i) {
    (void)cache.get(spec.motions[i], kGop, spec.frames, spec.seed, spec.fps);
  });
  return seconds_since(t0);
}

/// Digest of the cells as `thriftyvid sweep --format=jsonl` renders them.
std::uint64_t jsonl_digest(const std::vector<core::CellResult>& cells) {
  DigestStream out;
  core::JsonlSink sink{out};
  for (const core::CellResult& c : cells) sink.cell(c);
  return out.digest();
}

struct Pass {
  double seconds = 0.0;
  std::vector<core::CellResult> cells;
};

Pass library_pass(core::SweepRunner& runner, const core::SweepSpec& spec) {
  core::CollectSink sink;
  const auto t0 = Clock::now();
  (void)runner.run(spec, sink);
  return {seconds_since(t0), std::move(sink.results)};
}

/// Transfers completed by a pass; its repetitions count as operations.
double count_reps(Report& report, const Pass& pass) {
  double transfers = 0.0;
  for (const core::CellResult& c : pass.cells) {
    const auto& r = c.result;
    report.attempted += static_cast<std::size_t>(r.completed_repetitions +
                                                 r.failed_repetitions);
    report.failed += static_cast<std::size_t>(r.failed_repetitions);
    transfers += r.completed_repetitions;
  }
  return transfers;
}

Report untraced(const Options& o) {
  Report report;
  EndToEnd e;
  e.unit = "transfers";
  const core::SweepSpec spec = grid(o.seed);
  util::ThreadPool pool{o.threads};
  std::unique_ptr<core::SweepRunner> runner;
  std::optional<std::uint64_t> first;
  untraced_phases(
      o, e,
      [&] {
        runner.reset();
        runner = std::make_unique<core::SweepRunner>(&pool);
        return cold_setup(runner->workloads(), spec, pool);
      },
      [&] {
        const Pass pass = library_pass(*runner, spec);
        e.add_pass(pass.seconds, count_reps(report, pass),
                   {1e3 * pass.seconds});
        check_digest(report, o, "sweep-grid", kReferenceDigest,
                     jsonl_digest(pass.cells), first);
      });
  add_end_to_end(report, e);
  return report;
}

Report traced(const Options& o) {
  Report report;
  Layers layers;
  const core::SweepSpec spec = grid(o.seed);
  util::ThreadPool pool{o.threads};
  core::SweepRunner runner{&pool};
  (void)cold_setup(runner.workloads(), spec, pool);

  traced_setups(layers, [&] {
    std::vector<std::optional<core::Workload>> built(spec.motions.size());
    pool.parallel_for(built.size(), [&](std::size_t i) {
      built[i].emplace(traced_build_workload(spec.motions[i], kGop,
                                             spec.frames, spec.seed, spec.fps));
    });
    for (std::size_t i = 0; i < built.size(); ++i) {
      const auto library = runner.workloads().get(spec.motions[i], kGop,
                                                  spec.frames, spec.seed);
      report.check(identical(*built[i], *library),
                   "traced build_workload equals core::build_workload");
    }
  });
  traced_steady(
      o, report, layers,
      [&] {
        const Pass pass = library_pass(runner, spec);
        (void)count_reps(report, pass);
        return PassOutput{pass.seconds, jsonl_digest(pass.cells)};
      },
      [&] {
        const auto t0 = Clock::now();
        const std::vector<core::CellResult> cells =
            traced_sweep(spec, runner.workloads(), &pool);
        return PassOutput{seconds_since(t0), jsonl_digest(cells)};
      },
      "traced sweep JSONL equals core::SweepRunner's");
  finish_traced(o, report, layers);
  return report;
}

}  // namespace

Report run_sweep_grid(const Options& options) {
  return options.trace ? traced(options) : untraced(options);
}

}  // namespace e2e
