// Shared harness for the per-figure reproduction benches.
//
// Every bench binary prints (a) the Table-1 style configuration banner,
// (b) the paper's rows/series with measured means, 95% confidence
// intervals, and the analytic prediction next to each measurement, and
// (c) a short "expected shape" note quoting what the paper reports.
// Absolute values are simulator-scale; the shapes are the reproduction
// target (see EXPERIMENTS.md).
//
// Every figure that is a cartesian grid (Figs. 4, 5, 7-15, Table 2, the
// policy ablations) states it as a core::SweepSpec and runs it through
// BenchEngine, a thin wrapper over core::SweepRunner that executes every
// grid cell on a work-stealing thread pool (--threads=N; docs/sweeps.md)
// and tees the cells to --json/--csv.  The engine runs in
// SeedMode::kShared, so each cell equals core::run_experiment at the root
// seed and the printed numbers are bit-identical at any thread count.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "util/flags.hpp"
#include "util/thread_pool.hpp"

namespace tv::bench {

/// Command-line knobs shared by all figure benches.  Parsing runs through
/// a util::FlagSet registry, so every bench rejects the same unknown
/// options and prints the same generated --help text.  The clip flags
/// (--frames, --reps, --seed, --quick) are always registered; a bench
/// registers --threads, --json and --csv only if it honours them, so the
/// others reject them as unknown options.
struct BenchOptions {
  /// The optional flags a bench honours, as a bit set.
  enum Extras : unsigned {
    kNoExtras = 0,
    kThreads = 1u << 0,  ///< --threads=N
    kJson = 1u << 1,     ///< --json=FILE
    kCsv = 1u << 2,      ///< --csv
    kGrid = kThreads | kJson | kCsv,  ///< a BenchEngine grid figure.
  };

  int frames = 300;     ///< clip length (paper: 300 frames at 30 fps).
  int quality_reps = 5; ///< repetitions when decoding is involved.
  int delay_reps = 20;  ///< repetitions for timing-only experiments.
  std::uint64_t seed = 2013;
  unsigned threads = util::ThreadPool::default_thread_count();
  std::string json_path;  ///< --json=FILE: machine-readable sweep cells.
  bool csv = false;       ///< --csv: CSV sweep cells on stdout.
  bool quick = false;     ///< --quick preset was requested.

  /// The shared flag registry; benches with extra flags chain more
  /// registrations onto the returned set before calling parse_with().
  static util::FlagSet flag_set(const char* command, unsigned extras = kGrid) {
    util::FlagSet fs{command, "paper-figure reproduction bench"};
    fs.flag("frames", "N", "clip length in frames (default 300)")
        .flag("reps", "N", "repetitions for every experiment class")
        .flag("seed", "S", "root RNG seed (default 2013)")
        .flag("quick", "", "smaller frames/reps preset for smoke runs");
    if (extras & kThreads) fs.flag("threads", "N", "worker threads");
    if (extras & kJson) fs.flag("json", "FILE", "write machine-readable results to FILE");
    if (extras & kCsv) {
      fs.flag("csv", "", "print sweep cells as CSV after each table");
    }
    return fs;
  }

  static BenchOptions parse(int argc, char** argv, unsigned extras = kGrid) {
    return parse_with(flag_set(argc > 0 ? argv[0] : "bench", extras), argc,
                      argv);
  }

  /// Parse against a caller-extended registry (shared flags still apply).
  /// A flag the registry lacks is a usage error, so reading it below
  /// always yields its default.
  static BenchOptions parse_with(const util::FlagSet& fs, int argc,
                                 char** argv) {
    BenchOptions o;
    try {
      const auto parsed = fs.parse(argc, argv);
      if (!parsed) std::exit(0);
      const util::Flags& args = *parsed;
      if (args.get_bool("quick", false)) {
        o.quick = true;
        o.frames = 120;
        o.quality_reps = 2;
        o.delay_reps = 5;
      }
      o.frames = args.get_int("frames", o.frames);
      if (args.has("reps")) {
        o.quality_reps = args.get_int("reps", o.quality_reps);
        o.delay_reps = o.quality_reps;
      }
      o.seed = args.get_uint64("seed", o.seed);
      const int threads = args.get_int("threads",
                                       static_cast<int>(o.threads));
      if (threads < 1) throw util::FlagError{"--threads must be >= 1"};
      o.threads = static_cast<unsigned>(threads);
      o.json_path = args.get("json", "");
      o.csv = args.get_bool("csv", false);
    } catch (const util::FlagError& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      std::fputs(fs.help_text().c_str(), stderr);
      std::exit(2);
    }
    return o;
  }
};

/// Sweep spec pre-filled with the bench conventions: clip length, rep
/// count for the experiment class, root seed, and — crucially — shared
/// seeding, so every cell reproduces the historical per-figure numbers.
inline core::SweepSpec base_spec(const BenchOptions& options, bool quality) {
  core::SweepSpec spec;
  spec.frames = options.frames;
  spec.repetitions = quality ? options.quality_reps : options.delay_reps;
  spec.seed = options.seed;
  spec.evaluate_quality = quality;
  spec.seed_mode = core::SweepSpec::SeedMode::kShared;
  return spec;
}

/// The eavesdropper-distortion grid of Figs. 4, 5, 14 and 15: slow/fast
/// motion, GOP 30/50 and the four headline AES256 policies on the Samsung
/// Galaxy S-II, quality on.
inline core::SweepSpec eavesdropper_spec(const BenchOptions& options,
                                         core::Transport transport) {
  auto spec = base_spec(options, /*quality=*/true);
  spec.motions = {video::MotionLevel::kLow, video::MotionLevel::kHigh};
  spec.gop_sizes = {30, 50};
  spec.policies = policy::headline_policies(crypto::Algorithm::kAes256);
  spec.devices = {core::samsung_galaxy_s2()};
  spec.transports = {transport};
  return spec;
}

/// Executes figure grids on the shared thread pool and accumulates a small
/// cells/wall-time tally for the end-of-run summary line.  With
/// --json=FILE / --csv the engine tees every cell into machine-readable
/// sinks alongside the in-memory results the figure printers consume.
class BenchEngine {
 public:
  explicit BenchEngine(const BenchOptions& options)
      : options_(options),
        pool_(options.threads > 1
                  ? std::make_unique<util::ThreadPool>(options.threads)
                  : nullptr),
        runner_(pool_.get()) {
    if (!options.json_path.empty()) {
      json_out_.open(options.json_path);
      if (!json_out_) {
        std::fprintf(stderr, "error: cannot open --json file '%s'\n",
                     options.json_path.c_str());
        std::exit(2);
      }
      json_sink_ = std::make_unique<core::JsonlSink>(json_out_);
    }
    if (options.csv) {
      csv_sink_ = std::make_unique<CsvSink>(std::cout);
    }
  }

  /// Runs the grid and returns results in row-major cell order.
  std::vector<core::CellResult> run(const core::SweepSpec& spec) {
    core::CollectSink collect;
    util::TeeSink<core::SweepSpec, core::CellResult> tee;
    tee.add(&collect);
    tee.add(json_sink_.get());
    tee.add(csv_sink_.get());
    const auto summary = runner_.run(spec, tee);
    cells_ += summary.cells;
    wall_s_ += summary.wall_s;
    return std::move(collect.results);
  }

  void print_summary() const {
    std::printf("# engine: %zu cells on %u thread(s), %.2f s in sweeps\n",
                cells_, pool_ ? static_cast<unsigned>(options_.threads) : 1u,
                wall_s_);
  }

 private:
  BenchOptions options_;
  std::unique_ptr<util::ThreadPool> pool_;
  core::SweepRunner runner_;
  std::ofstream json_out_;
  std::unique_ptr<core::JsonlSink> json_sink_;
  using CsvSink = util::CsvSink<core::SweepSpec, core::CellResult>;
  std::unique_ptr<CsvSink> csv_sink_;
  std::size_t cells_ = 0;
  double wall_s_ = 0.0;
};

/// Row-major results hold every grid point; figures print them in the
/// paper's nesting order via this lookup.  `pol` is the whole policy
/// (mode, cipher and fraction); a missing cell is a bench bug.
inline const core::ExperimentResult& find_cell(
    const std::vector<core::CellResult>& cells, video::MotionLevel motion,
    int gop, const policy::EncryptionPolicy& pol,
    const core::DeviceProfile& device,
    core::Transport transport = core::Transport::kRtpUdp) {
  for (const auto& c : cells) {
    if (c.cell.motion == motion && c.cell.gop_size == gop &&
        c.cell.policy == pol && c.cell.device.key == device.key &&
        c.cell.transport == transport) {
      return c.result;
    }
  }
  std::fprintf(stderr, "error: no grid cell for %s\n", pol.label().c_str());
  std::abort();
}

inline void print_banner(const char* figure, const char* description,
                         const BenchOptions& options) {
  std::printf("==========================================================\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("setup: CIF 352x288, %d frames @30fps, %d/%d reps, seed %llu\n",
              options.frames, options.quality_reps, options.delay_reps,
              static_cast<unsigned long long>(options.seed));
  std::printf("==========================================================\n");
}

inline void print_expectation(const char* note) {
  std::printf("\npaper shape: %s\n", note);
}

/// "12.3 ±0.4" with fixed widths.
inline std::string fmt_ci(const util::RunningStats& s, int precision = 1) {
  return util::fmt("%.*f ±%.*f", precision, s.mean(), precision,
                   s.ci95_halfwidth());
}

/// The slow/fast labels the paper uses (low/high motion presets).
inline video::MotionLevel motion_for(bool fast) {
  return fast ? video::MotionLevel::kHigh : video::MotionLevel::kLow;
}

/// Body of Figs. 5, 14 and 15: one eavesdropper statistic of an
/// eavesdropper_spec grid per policy, slow and fast motion side by side,
/// one `width`-column table per GOP.
inline void print_slow_fast(
    const core::SweepSpec& spec, const std::vector<core::CellResult>& cells,
    const char* slow, const char* fast, int width,
    util::RunningStats core::ExperimentResult::*stat) {
  const core::Transport transport = spec.transports.front();
  for (int gop : spec.gop_sizes) {
    std::printf(transport == core::Transport::kHttpTcp
                    ? "\n(GOP=%d, HTTP/TCP)\n"
                    : "\n(GOP=%d)\n",
                gop);
    std::printf("%-8s | %-*s %-*s\n", "level", width, slow, width, fast);
    for (const auto& pol : spec.policies) {
      std::string col[2];
      for (bool f : {false, true}) {
        const auto& r = find_cell(cells, motion_for(f), gop, pol,
                                  spec.devices.front(), transport);
        col[f ? 1 : 0] = fmt_ci(r.*stat, 2);
      }
      std::printf("%-8s | %-*s %-*s\n", policy::to_string(pol.mode), width,
                  col[0].c_str(), width, col[1].c_str());
    }
  }
}

/// Shared body of the delay figures (Figs. 7, 8, 12, 13): mean per-packet
/// delay, analysis vs. experiment, for AES256 and 3DES, GOP 30/50,
/// slow/fast motion, across the four headline policies — one 2x2x4x2-cell
/// sweep executed in parallel, printed in the paper's nesting order.
inline void run_delay_figure(BenchEngine& engine,
                             const core::DeviceProfile& device,
                             const BenchOptions& options,
                             core::Transport transport) {
  // Like the paper, the HTTP/TCP latency figures (12, 13) show experiment
  // bars only — the 2-MMPP/G/1 analysis models the RTP/UDP service path.
  const bool show_analysis = transport == core::Transport::kRtpUdp;
  auto spec = base_spec(options, /*quality=*/false);
  spec.motions = {video::MotionLevel::kLow, video::MotionLevel::kHigh};
  spec.gop_sizes = {30, 50};
  spec.policies = policy::headline_policies(crypto::Algorithm::kAes256);
  spec.algorithms = {crypto::Algorithm::kAes256,
                     crypto::Algorithm::kTripleDes};
  spec.devices = {device};
  spec.transports = {transport};
  const auto cells = engine.run(spec);

  for (auto alg : {crypto::Algorithm::kAes256, crypto::Algorithm::kTripleDes}) {
    for (int gop : {30, 50}) {
      std::printf("\n(%s, GOP=%d, %s, %s)\n",
                  std::string(crypto::to_string(alg)).c_str(), gop,
                  device.name.c_str(), core::to_string(transport));
      if (show_analysis) {
        std::printf("%-8s | %-13s %-16s | %-13s %-16s\n", "level",
                    "slow analysis", "slow experiment", "fast analysis",
                    "fast experiment");
      } else {
        std::printf("%-8s | %-16s %-16s\n", "level", "slow experiment",
                    "fast experiment");
      }
      for (const auto& pol : policy::headline_policies(alg)) {
        std::string col[2][2];
        for (bool fast : {false, true}) {
          const auto& r =
              find_cell(cells, motion_for(fast), gop, pol, device, transport);
          char pred[32];
          if (std::isfinite(r.predicted_delay.mean_delay_ms)) {
            std::snprintf(pred, sizeof pred, "%.1f ms",
                          r.predicted_delay.mean_delay_ms);
          } else {
            std::snprintf(pred, sizeof pred, "unstable");
          }
          col[fast ? 1 : 0][0] = pred;
          col[fast ? 1 : 0][1] = fmt_ci(r.delay_ms, 1) + " ms";
        }
        if (show_analysis) {
          std::printf("%-8s | %-13s %-16s | %-13s %-16s\n",
                      policy::to_string(pol.mode), col[0][0].c_str(),
                      col[0][1].c_str(), col[1][0].c_str(),
                      col[1][1].c_str());
        } else {
          std::printf("%-8s | %-16s %-16s\n", policy::to_string(pol.mode),
                      col[0][1].c_str(), col[1][1].c_str());
        }
      }
    }
  }
}

/// Shared body of the power figures (Figs. 10, 11): mean device power per
/// policy, for AES256 and 3DES, slow/fast motion, GOP 30/50 — the same
/// grid as the delay figures, printed against the power column.
inline void run_power_figure(BenchEngine& engine,
                             const core::DeviceProfile& device,
                             const BenchOptions& options) {
  auto spec = base_spec(options, /*quality=*/false);
  spec.motions = {video::MotionLevel::kLow, video::MotionLevel::kHigh};
  spec.gop_sizes = {30, 50};
  spec.policies = policy::headline_policies(crypto::Algorithm::kAes256);
  spec.algorithms = {crypto::Algorithm::kAes256,
                     crypto::Algorithm::kTripleDes};
  spec.devices = {device};
  const auto cells = engine.run(spec);

  for (bool fast : {false, true}) {
    for (auto alg :
         {crypto::Algorithm::kAes256, crypto::Algorithm::kTripleDes}) {
      std::printf("\n(%s-motion, %s, %s)\n", fast ? "Fast" : "Slow",
                  std::string(crypto::to_string(alg)).c_str(),
                  device.name.c_str());
      std::printf("%-8s | %-16s %-16s\n", "level", "GOP=30 (W)",
                  "GOP=50 (W)");
      for (const auto& pol : policy::headline_policies(alg)) {
        std::string col[2];
        int idx = 0;
        for (int gop : {30, 50}) {
          const auto& r = find_cell(cells, motion_for(fast), gop, pol, device);
          col[idx++] = fmt_ci(r.power_w, 2);
        }
        std::printf("%-8s | %-16s %-16s\n", policy::to_string(pol.mode),
                    col[0].c_str(), col[1].c_str());
      }
    }
  }
}

}  // namespace tv::bench
