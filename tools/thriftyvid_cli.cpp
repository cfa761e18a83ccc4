// thriftyvid — command-line front end.
//
// Commands: classify, simulate, sweep, cell, advise, export, analyze and the
// live roles.  One table, kCommands, lists every command and mode as
// {name, selecting flag, flag registry, handler}; dispatch, the top-level
// usage, `--help` and the unknown-flag check all come from it.  Run
// `thriftyvid <command> --help` for a command's options.
//
// A mode is a second row under the same name, chosen when its selecting
// flag is given: `simulate --events=N` runs the model-validation grid
// (docs/validation.md) instead of the packet-faithful pipeline experiment
// (Fig. 3), and `cell --validate` the fixed-point-vs-DES cross-check
// instead of the capacity sweep.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "analysis/sweep.hpp"
#include "cell/cell.hpp"
#include "cell/validation.hpp"
#include "core/advisor.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "core/trace.hpp"
#include "live/chaos.hpp"
#include "live/event_loop.hpp"
#include "live/load.hpp"
#include "live/loopback.hpp"
#include "live/receiver_session.hpp"
#include "live/sender.hpp"
#include "net/pcap.hpp"
#include "sim/validation.hpp"
#include "util/build_info.hpp"
#include "util/flags.hpp"
#include "util/thread_pool.hpp"
#include "video/motion.hpp"
#include "video/y4m.hpp"

using namespace tv;
using util::Flags;
using util::FlagSet;

namespace {

// --- Shared flag groups. -----------------------------------------------------
// Each group registers its flags and reads them back; a command passes its
// defaults through one constant used by both its registry and its handler.

/// The synthetic clip: --motion, --gop, --frames and the root --seed.  A
/// command's constant Clip holds its --gop and --frames defaults.
struct Clip {
  int gop;
  int frames;
  video::MotionLevel motion = video::MotionLevel::kLow;
  std::uint64_t seed = 1;

  void add(FlagSet& fs) const {
    fs.flag("motion", "low|medium|high", "synthetic clip motion level")
        .flag("gop", "N",
              "GOP size in frames (default " + std::to_string(gop) + ")")
        .flag("frames", "N",
              "clip length in frames (default " + std::to_string(frames) +
                  ")")
        .flag("seed", "S", "root RNG seed (default 1)");
  }

  /// This clip with the flags applied.
  [[nodiscard]] Clip read(const Flags& args) const {
    return {args.get_int("gop", gop), args.get_int("frames", frames),
            video::motion_from_string(args.get("motion", "low")),
            args.get_uint64("seed", seed)};
  }

  [[nodiscard]] core::Workload build() const {
    return core::build_workload(motion, gop, frames, seed);
  }
};

/// One flow's --policy, --alg and --device; the cipher is policy.algorithm.
struct FlowSpec {
  policy::EncryptionPolicy policy;  ///< encrypts nothing without --policy.
  core::DeviceProfile device;
};

struct FlowFlags {
  const char* alg;  ///< the --alg default.
  bool with_policy = true;
  bool with_device = true;

  void add(FlagSet& fs) const {
    if (with_policy) {
      fs.flag("policy", "none|I|P|all|I+<pct>P|<pct>I",
              "selective-encryption policy (default I)");
    }
    fs.flag("alg", "AES128|AES256|3DES",
            std::string{"cipher (default "} + alg + ")");
    if (with_device) {
      fs.flag("device", "samsung|htc", "calibrated device profile");
    }
  }

  [[nodiscard]] FlowSpec read(const Flags& args) const {
    const auto cipher = crypto::algorithm_from_string(args.get("alg", alg));
    return {with_policy
                ? policy::policy_from_string(args.get("policy", "I"), cipher)
                : policy::EncryptionPolicy{policy::Mode::kNone, cipher, 0.0},
            core::device_from_string(args.get("device", "samsung"))};
  }
};

/// --loss, --burst and --outage: the receiver path's Gilbert-Elliott chain
/// and the AP's blackout windows.
void add_channel(FlagSet& fs) {
  fs.flag("loss", "P", "receiver-path Gilbert-Elliott mean loss probability")
      .flag("burst", "L",
            "receiver-path Gilbert-Elliott mean burst length (packets)")
      .flag("outage", "START:DUR,...", "scheduled AP blackout windows (s)");
}

/// The channel those flags describe, with `loss` as the --loss default;
/// nullopt when none is given (the legacy i.i.d. losses).
std::optional<core::ChannelModel> read_channel(
    const Flags& args,
    double loss = core::PipelineConfig{}.receiver_loss_prob) {
  if (!args.has("loss") && !args.has("burst") && !args.has("outage")) {
    return std::nullopt;
  }
  core::ChannelModel channel;
  channel.receiver.mean_loss_prob = args.get_double("loss", loss);
  channel.receiver.mean_burst_length = args.get_double("burst", 1.0);
  channel.eavesdropper.mean_loss_prob =
      core::PipelineConfig{}.eavesdropper_loss_prob;
  channel.outages =
      wifi::parse_outage_windows(args.get("outage", ""), ',', "--outage");
  return channel;
}

/// The live proxy's --fault-* probabilities.
void add_faults(FlagSet& fs) {
  fs.flag("fault-drop", "P", "proxy datagram drop probability")
      .flag("fault-corrupt", "P", "proxy payload bit-flip probability")
      .flag("fault-truncate", "P", "proxy truncation probability")
      .flag("fault-dup", "P", "proxy duplication probability")
      .flag("fault-reorder", "P", "proxy reordering probability");
}

/// The fault plan those flags describe; nullopt when none is set.
std::optional<net::FaultPlan> read_faults(const Flags& args) {
  net::FaultPlan plan;
  plan.drop_prob = args.get_double("fault-drop", 0.0);
  plan.corrupt_payload_prob = args.get_double("fault-corrupt", 0.0);
  plan.truncate_prob = args.get_double("fault-truncate", 0.0);
  plan.duplicate_prob = args.get_double("fault-dup", 0.0);
  plan.reorder_prob = args.get_double("fault-reorder", 0.0);
  if (plan.drop_prob == 0.0 && plan.corrupt_payload_prob == 0.0 &&
      plan.truncate_prob == 0.0 && plan.duplicate_prob == 0.0 &&
      plan.reorder_prob == 0.0) {
    return std::nullopt;
  }
  plan.validate();
  return plan;
}

/// A grid command's --threads, --format and --out; read by run_grid.
void add_grid_output(FlagSet& fs) {
  fs.flag("threads", "N", "worker threads (default: hardware)")
      .flag("format", "table|jsonl|csv", "output format (default table)")
      .flag("out", "FILE", "write results to FILE instead of stdout");
}

/// The --threads worker pool of a grid command; null (serial) for one
/// thread.
std::unique_ptr<util::ThreadPool> pool_from(const Flags& args) {
  const int threads = args.get_int(
      "threads", static_cast<int>(util::ThreadPool::default_thread_count()));
  if (threads < 1) {
    throw util::FlagError{"invalid value for --threads: must be >= 1"};
  }
  if (threads == 1) return nullptr;
  return std::make_unique<util::ThreadPool>(static_cast<unsigned>(threads));
}

/// The stream named by --<flag>=FILE, opened into `file`; `fallback` when
/// the flag is absent.
std::ostream* open_output(const Flags& args, const char* flag,
                          std::ofstream& file, std::ostream* fallback) {
  const std::string path = args.get(flag, "");
  if (path.empty()) return fallback;
  file.open(path);
  if (!file) {
    throw util::FlagError{std::string{"cannot open --"} + flag +
                          " file: " + path};
  }
  return &file;
}

/// The grid sink --format selects (table, jsonl or csv) writing to `out`.
template <class Sink>
std::unique_ptr<Sink> make_sink(const std::string& format,
                                std::ostream& out) {
  using Spec = typename Sink::spec_type;
  using Row = typename Sink::row_type;
  if (format == "table") {
    return std::make_unique<util::TableSink<Spec, Row>>(out);
  }
  if (format == "jsonl") {
    return std::make_unique<util::JsonlSink<Spec, Row>>(out);
  }
  if (format == "csv") return std::make_unique<util::CsvSink<Spec, Row>>(out);
  throw util::FlagError{"invalid value for --format: '" + format +
                        "' (expected table, jsonl or csv)"};
}

/// Runs a grid command's run(spec, sink, pool) on the --threads pool into
/// the sink --format selects, writing to --out (stdout by default).  Each
/// non-null sink of `also` receives a copy of every row.
template <class Sink, class Run>
util::GridSummary run_grid(const Flags& args,
                           const typename Sink::spec_type& spec, Run&& run,
                           std::initializer_list<Sink*> also = {}) {
  const auto pool = pool_from(args);
  std::ofstream file;
  std::ostream* out = open_output(args, "out", file, &std::cout);
  const auto primary = make_sink<Sink>(args.get("format", "table"), *out);
  util::TeeSink<typename Sink::spec_type, typename Sink::row_type> tee;
  tee.add(primary.get());
  for (Sink* sink : also) tee.add(sink);
  const util::GridSummary summary = run(spec, tee, pool.get());
  out->flush();
  return summary;
}

/// Prints a validation grid's tally; the exit status is 0 iff every check
/// passed.
int report_checks(const char* grid, const util::GridSummary& summary) {
  std::fprintf(stderr,
               "# %s: %zu/%zu cells passed, %zu failed check(s), "
               "%u thread(s), %.2f s\n",
               grid, summary.passed_cells, summary.cells,
               summary.failed_checks, summary.threads, summary.wall_s);
  return summary.all_passed() ? 0 : 1;
}

/// Opens --trace=FILE (when present) as a JSONL trace sink.  The stream and
/// the sink must outlive the run; the caller keeps both alive.
struct TraceOutput {
  std::ofstream file;
  std::optional<core::JsonlTraceSink> sink;

  [[nodiscard]] core::TraceSink* open(const Flags& args) {
    std::ostream* out = open_output(args, "trace", file, nullptr);
    return out == nullptr ? nullptr : &sink.emplace(*out);
  }
};

/// Each item of the comma list --<flag> through `parse`; `fallback` when
/// the list is absent or empty.
template <class Parse>
auto list_flag(const Flags& args, const char* flag, Parse parse,
               std::vector<std::invoke_result_t<Parse, std::string>> fallback) {
  decltype(fallback) items;
  for (const auto& item : args.get_list(flag)) items.push_back(parse(item));
  return items.empty() ? fallback : items;
}

/// Parses policy specs whose cipher is `alg`.
auto policy_parser(crypto::Algorithm alg) {
  return [alg](const std::string& spec) {
    return policy::policy_from_string(spec, alg);
  };
}

// The paper's clip and cipher (simulate, advise, export), and the short
// clip the live roles and `analyze` share so a capture can be re-scored.
constexpr Clip kPaperClip{30, 120};
constexpr FlowFlags kPaperFlow{"AES256"};
constexpr Clip kLiveClip{16, 48};
constexpr FlowFlags kLiveFlow{"AES128"};

// --- classify ----------------------------------------------------------------

FlagSet classify_flags() {
  return FlagSet{"thriftyvid classify <clip.y4m>",
                 "AForge-style motion classification of a YUV4MPEG2 clip."};
}

int cmd_classify(const Flags& args) {
  if (args.positional().empty()) {
    std::fputs(classify_flags().help_text().c_str(), stderr);
    return 2;
  }
  const auto clip = video::read_y4m_file(args.positional().front());
  const auto report = video::classify_motion(clip.frames);
  std::printf("%s: %zu frames %dx%d @%d/%d fps\n",
              args.positional().front().c_str(), clip.frames.size(),
              clip.frames.front().width(), clip.frames.front().height(),
              clip.fps_numerator, clip.fps_denominator);
  std::printf("motion score %.4f -> %s motion\n", report.score,
              video::to_string(report.level));
  std::printf("suggested decoder sensitivity fraction: %.2f\n",
              core::default_sensitivity(report.level));
  return 0;
}

// --- simulate ----------------------------------------------------------------

FlagSet simulate_flags() {
  FlagSet fs{"thriftyvid simulate",
             "Run the full Fig.-3 pipeline and print measured metrics with "
             "95% CIs next to the analytic predictions.  With --events=N "
             "the command switches to the model-validation grid (see "
             "'thriftyvid simulate --events=1 --help')."};
  kPaperClip.add(fs);
  kPaperFlow.add(fs);
  fs.flag("transport", "udp|tcp", "RTP/UDP or the reliable HTTP/TCP ARQ")
      .flag("reps", "N", "experiment repetitions (default 5)");
  add_channel(fs);
  fs.flag("trace", "FILE", "write per-packet stage events as JSONL")
      .flag("stage-stats", "", "print per-stage counters and mean times");
  return fs;
}

int cmd_simulate(const Flags& args) {
  const Clip clip = kPaperClip.read(args);
  const FlowSpec flow = kPaperFlow.read(args);
  core::ExperimentSpec spec;
  spec.policy = flow.policy;
  spec.pipeline.device = flow.device;
  spec.pipeline.transport =
      core::transport_from_string(args.get("transport", "udp"));
  spec.repetitions = args.get_int("reps", 5);
  spec.seed = clip.seed;
  spec.sensitivity_fraction = core::default_sensitivity(clip.motion);
  spec.pipeline.channel = read_channel(args);
  // Fail fast on configuration mistakes; run_experiment itself downgrades
  // per-repetition failures to FailureEvents and would otherwise report a
  // bad --loss/--burst as "0 completed" with all-zero statistics.
  core::validate(spec.pipeline);

  TraceOutput trace;
  spec.trace = trace.open(args);
  spec.collect_stage_stats = args.get_bool("stage-stats", false);

  const auto workload = clip.build();
  const auto r = core::run_experiment(spec, workload);
  trace.file.flush();
  std::printf("workload: %s motion, GOP %d, %zu frames, I=%.0fB P=%.0fB\n",
              video::to_string(workload.motion), workload.codec.gop_size,
              workload.clip.size(), workload.stream.mean_i_bytes(),
              workload.stream.mean_p_bytes());
  std::printf("policy %s on %s over %s: %.0f%% of packets encrypted\n",
              r.label.c_str(), spec.pipeline.device.name.c_str(),
              core::to_string(spec.pipeline.transport),
              100.0 * r.encryption.packet_fraction());
  std::printf("  delay        %7.2f ms ±%.2f   (model %.2f ms, rho %.2f)\n",
              r.delay_ms.mean(), r.delay_ms.ci95_halfwidth(),
              r.predicted_delay.mean_delay_ms,
              r.predicted_delay.utilization);
  std::printf("  receiver     %7.2f dB ±%.2f   MOS %.2f\n",
              r.receiver_psnr_db.mean(), r.receiver_psnr_db.ci95_halfwidth(),
              r.receiver_mos.mean());
  std::printf("  eavesdropper %7.2f dB ±%.2f   MOS %.2f   (model %.2f dB)\n",
              r.eavesdropper_psnr_db.mean(),
              r.eavesdropper_psnr_db.ci95_halfwidth(),
              r.eavesdropper_mos.mean(), r.predicted_eavesdropper.psnr_db);
  std::printf("  power        %7.2f W           (model %.2f W)\n",
              r.power_w.mean(), r.predicted_power.mean_power_w);
  if (r.stage_stats) {
    std::printf("stage breakdown (all repetitions):\n");
    for (std::size_t s = 0; s < core::kStageCount; ++s) {
      const auto& entry = r.stage_stats->stages[s];
      std::printf("  %-12s %10llu events   mean %9.4f ms   max %9.4f ms\n",
                  core::stage_key(static_cast<core::Stage>(s)),
                  static_cast<unsigned long long>(entry.events),
                  entry.time_s.mean() * 1e3, entry.time_s.max() * 1e3);
    }
  }
  if (spec.pipeline.channel) {
    const auto& ch = *spec.pipeline.channel;
    std::printf("channel: Gilbert-Elliott loss %.0f%% burst %.1f, "
                "%zu outage window(s)\n",
                100.0 * ch.receiver.mean_loss_prob,
                ch.receiver.mean_burst_length, ch.outages.size());
    std::printf("  repetitions  %d completed, %d failed\n",
                r.completed_repetitions, r.failed_repetitions);
    std::printf("  resilience   %llu retransmissions, %llu deadline drops, "
                "%llu outage drops\n",
                static_cast<unsigned long long>(r.total_retransmissions),
                static_cast<unsigned long long>(r.total_deadline_drops),
                static_cast<unsigned long long>(r.total_outage_drops));
    std::printf("  failures     %zu recorded", r.failures.size());
    std::size_t shown = 0;
    for (const auto& f : r.failures) {
      if (shown++ >= 5) {
        std::printf(" ...");
        break;
      }
      std::printf("%s rep %d %s@%.3fs", shown == 1 ? ":" : ",", f.repetition,
                  core::to_string(f.kind), f.time_s);
    }
    std::printf("\n");
  }
  return 0;
}

FlagSet simulate_validation_flags() {
  FlagSet fs{"thriftyvid simulate --events=N",
             "Model-validation grid (docs/validation.md): discrete-event "
             "simulations of the MMPP/G/1 sender and the eavesdropper's GOP "
             "recovery, cross-checked against eqs. 3-28.  Exit 0 iff every "
             "check passes; output is bit-identical for any --threads."};
  fs.flag("events", "N", "measured sender packets per cell")
      .flag("warmup", "N", "discarded transient packets (default 40000)")
      .flag("batches", "N", "batch-mean batches for the E[W] CI")
      .flag("lambda1s", "A,B", "I-burst arrival-rate axis (1/s)")
      .flag("lambda2s", "A,B", "P-drain arrival-rate axis (1/s)")
      .flag("policies", "none,I,...", "policy axis")
      .flag("algs", "AES256,3DES", "cipher axis")
      .flag("device", "samsung|htc", "calibrated device profile")
      .flag("gop", "N", "GOP size for the eavesdropper model")
      .flag("ngops", "N", "GOPs per simulated flow")
      .flag("eaves-reps", "N", "simulated eavesdropper flows per cell")
      .flag("z", "Z", "acceptance multiplier on CI halfwidths");
  add_grid_output(fs);
  fs.flag("seed", "S", "root RNG seed (default 1)")
      .flag("trace", "FILE",
            "write sender service-stage events as JSONL (serializes cells)");
  return fs;
}

// The discrete-event sender and eavesdropper simulators over a (lambda1,
// lambda2, policy, cipher) grid, every statistic compared against the
// analytic model.
int cmd_simulate_validation(const Flags& args) {
  sim::ValidationSpec spec;
  if (args.has("lambda1s")) spec.lambda1s = args.get_double_list("lambda1s");
  if (args.has("lambda2s")) spec.lambda2s = args.get_double_list("lambda2s");
  spec.algorithms = list_flag(args, "algs", crypto::algorithm_from_string,
                              spec.algorithms);
  spec.policies = list_flag(args, "policies",
                            policy_parser(spec.algorithms.front()),
                            spec.policies);
  if (args.has("device")) {
    spec.device = core::device_from_string(args.get("device", "samsung"));
  }
  spec.gop_size = args.get_int("gop", spec.gop_size);
  spec.n_gops = args.get_int("ngops", spec.n_gops);
  spec.eavesdropper_repetitions =
      args.get_int("eaves-reps", spec.eavesdropper_repetitions);
  spec.events = args.get_uint64("events", spec.events);
  spec.warmup = args.get_uint64("warmup", spec.warmup);
  spec.batches = args.get_uint64("batches", spec.batches);
  spec.z = args.get_double("z", spec.z);
  spec.seed = args.get_uint64("seed", spec.seed);

  TraceOutput trace;
  spec.trace = trace.open(args);

  const auto summary =
      run_grid<sim::ValidationSink>(args, spec, sim::run_validation);
  trace.file.flush();
  return report_checks("validation", summary);
}

// --- sweep -------------------------------------------------------------------

FlagSet sweep_flags() {
  FlagSet fs{"thriftyvid sweep",
             "Run the cartesian experiment grid over every listed axis "
             "value on a work-stealing thread pool (docs/sweeps.md).  "
             "Per-cell seeds derive deterministically from --seed, so any "
             "--threads value produces bit-identical output."};
  fs.flag("motions", "low,high", "motion-level axis")
      .flag("gops", "30,50", "GOP-size axis")
      .flag("policies", "none,I,P,all", "policy axis")
      .flag("algs", "AES256,3DES", "cipher axis")
      .flag("devices", "samsung,htc", "device-profile axis")
      .flag("transports", "udp,tcp", "transport axis")
      .flag("frames", "N", "clip length in frames (default 120)")
      .flag("reps", "N", "repetitions per cell (default 5)")
      .flag("seed", "S", "root seed (also the workload seed)")
      .flag("quality", "on|off", "decode at receiver + eavesdropper");
  add_grid_output(fs);
  fs.flag("shared-seed", "",
          "reuse the root seed in every cell (figure-bench convention)");
  add_channel(fs);
  fs.flag("stage-stats", "",
          "collect per-stage aggregates and emit them per cell");
  return fs;
}

int cmd_sweep(const Flags& args) {
  core::SweepSpec spec;
  spec.motions = list_flag(args, "motions", video::motion_from_string,
                           {video::MotionLevel::kLow});
  if (args.has("gops")) spec.gop_sizes = args.get_int_list("gops");
  spec.algorithms = list_flag(args, "algs", crypto::algorithm_from_string,
                              {crypto::Algorithm::kAes256});
  const crypto::Algorithm alg = spec.algorithms.front();
  spec.policies = list_flag(args, "policies", policy_parser(alg),
                            policy::headline_policies(alg));
  spec.devices = list_flag(args, "devices", core::device_from_string,
                           {core::samsung_galaxy_s2()});
  spec.transports = list_flag(args, "transports", core::transport_from_string,
                              {core::Transport::kRtpUdp});
  spec.channels = {read_channel(args)};

  spec.frames = args.get_int("frames", 120);
  spec.repetitions = args.get_int("reps", 5);
  spec.seed = args.get_uint64("seed", 1);
  spec.evaluate_quality = args.get_bool("quality", true);
  spec.collect_stage_stats = args.get_bool("stage-stats", false);
  if (args.get_bool("shared-seed", false)) {
    spec.seed_mode = core::SweepSpec::SeedMode::kShared;
  }

  const auto summary = run_grid<core::ResultSink>(
      args, spec,
      [](const core::SweepSpec& grid, core::ResultSink& sink,
         util::ThreadPool* pool) {
        return core::SweepRunner{pool}.run(grid, sink);
      });
  std::fprintf(stderr,
               "# sweep: %zu cells x %d reps, %zu workload(s), "
               "%u thread(s), %.2f s\n",
               summary.cells, spec.repetitions, summary.workloads,
               summary.threads, summary.wall_s);
  return 0;
}

// --- cell --------------------------------------------------------------------

FlagSet cell_flags() {
  FlagSet fs{"thriftyvid cell",
             "Capacity sweep of a shared cell (docs/cell.md): N "
             "heterogeneous uploaders contend for one AP through the "
             "Bianchi fixed point; a deadline scheduler admits, degrades "
             "or defers flows; every admitted flow runs the full transfer "
             "pipeline.  With --validate the command switches to the "
             "fixed-point-vs-DES cross-check grid (see 'thriftyvid cell "
             "--validate --help')."};
  fs.flag("flows", "1,2,4,8", "population-size axis (uploaders per cell)")
      .flag("background", "N", "background cross-traffic stations")
      .flag("motions", "low,high", "per-flow motion levels (round-robin)")
      .flag("gops", "15,30", "per-flow GOP sizes (round-robin)")
      .flag("policies", "none,I,all", "per-flow policies (round-robin)")
      .flag("algs", "AES256,3DES", "per-flow ciphers (round-robin)")
      .flag("devices", "samsung,htc", "per-flow device profiles")
      .flag("deadlines", "4.0,8.0", "per-flow upload deadlines (s; 0=none)")
      .flag("frames", "N", "clip length in frames (default 90)")
      .flag("reps", "N", "repetitions per flow (default 5)")
      .flag("seed", "S", "root seed (also the workload seed)")
      .flag("quality", "on|off", "decode at receiver + eavesdropper")
      .flag("cw-min", "W", "uploader CWmin (default 16)")
      .flag("stages", "M", "uploader backoff stages (default 6)")
      .flag("bg-cw-min", "W", "background CWmin (default 32)")
      .flag("bg-stages", "M", "background backoff stages (default 6)")
      .flag("channel-error", "P", "flat per-attempt channel error prob")
      .flag("fade-prob", "P", "stationary deep-fade probability per block")
      .flag("fade-burst", "L", "mean consecutive faded blocks (default 1)")
      .flag("fade-error", "P", "extra error probability inside a fade")
      .flag("no-degrade", "", "disable the policy degradation ladder")
      .flag("no-shed", "", "never defer flows (they just miss deadlines)");
  add_grid_output(fs);
  fs.flag("trace", "FILE",
          "write per-packet stage events as JSONL (serializes flows)")
      .flag("validate", "", "run the fixed-point-vs-DES cross-check grid");
  return fs;
}

int cmd_cell(const Flags& args) {
  cell::CapacitySpec spec;
  if (args.has("flows")) spec.flow_counts = args.get_int_list("flows");

  cell::CellSpec& base = spec.base;
  base.background_stations = args.get_int("background", 0);

  base.motions = list_flag(args, "motions", video::motion_from_string,
                           {video::MotionLevel::kLow});
  if (args.has("gops")) base.gop_sizes = args.get_int_list("gops");
  base.algorithms = list_flag(args, "algs", crypto::algorithm_from_string,
                              {crypto::Algorithm::kAes256});
  const crypto::Algorithm alg = base.algorithms.front();
  base.policies = list_flag(args, "policies", policy_parser(alg),
                            {{policy::Mode::kIFrames, alg, 0.0}});
  base.devices = list_flag(args, "devices", core::device_from_string,
                           {core::samsung_galaxy_s2()});

  if (args.has("deadlines")) {
    base.deadlines_s = args.get_double_list("deadlines");
  }

  base.frames = args.get_int("frames", 90);
  base.repetitions = args.get_int("reps", 5);
  base.seed = args.get_uint64("seed", 1);
  base.evaluate_quality = args.get_bool("quality", true);
  base.cw_min = args.get_int("cw-min", base.cw_min);
  base.backoff_stages = args.get_int("stages", base.backoff_stages);
  base.background_cw_min = args.get_int("bg-cw-min", base.background_cw_min);
  base.background_stages = args.get_int("bg-stages", base.background_stages);
  base.channel_error_prob =
      args.get_double("channel-error", base.channel_error_prob);
  base.fade_prob = args.get_double("fade-prob", base.fade_prob);
  base.mean_fade_reps = args.get_double("fade-burst", base.mean_fade_reps);
  base.fade_error_prob = args.get_double("fade-error", base.fade_error_prob);
  base.scheduler.allow_degrade = !args.get_bool("no-degrade", false);
  base.scheduler.allow_shedding = !args.get_bool("no-shed", false);

  TraceOutput trace;
  base.trace = trace.open(args);

  const auto summary = run_grid<cell::CellSink>(
      args, spec,
      [](const cell::CapacitySpec& grid, cell::CellSink& sink,
         util::ThreadPool* pool) {
        return cell::CellRunner{pool}.run(grid, sink);
      });
  trace.file.flush();
  std::fprintf(stderr,
               "# cell: %zu point(s) x %d reps, %zu workload(s), "
               "%u thread(s), %.2f s\n",
               summary.cells, base.repetitions, summary.workloads,
               summary.threads, summary.wall_s);
  return 0;
}

FlagSet cell_validate_flags() {
  FlagSet fs{"thriftyvid cell --validate",
             "Cross-check the heterogeneous Bianchi fixed point against "
             "the multi-station DCF simulator over an (n, CWmin, stages) "
             "grid with z*CI acceptance bands (docs/cell.md).  Exit 0 iff "
             "every check passes; output is bit-identical for any "
             "--threads."};
  fs.flag("validate", "", "selects this mode")
      .flag("ns", "2,3,5,8", "contender-count axis")
      .flag("cws", "16,32", "CWmin axis")
      .flag("stages", "3,6", "backoff-stage axis")
      .flag("background", "N", "background stations in every cell")
      .flag("bg-cw-min", "W", "background CWmin (default 32)")
      .flag("bg-stages", "M", "background backoff stages (default 6)")
      .flag("slots", "N", "measured slots per cell (default 300000)")
      .flag("warmup", "N", "discarded cold-start slots (default 20000)")
      .flag("z", "Z", "acceptance multiplier on the SE estimate");
  add_grid_output(fs);
  fs.flag("seed", "S", "root RNG seed (default 1)");
  return fs;
}

// The heterogeneous Bianchi fixed point against the multi-station DCF
// simulator on the same population, per-class statistics compared under
// z*CI acceptance bands.
int cmd_cell_validate(const Flags& args) {
  cell::CellValidationSpec spec;
  if (args.has("ns")) spec.contenders = args.get_int_list("ns");
  if (args.has("cws")) spec.cw_mins = args.get_int_list("cws");
  if (args.has("stages")) spec.stage_counts = args.get_int_list("stages");
  spec.background_stations =
      args.get_int("background", spec.background_stations);
  spec.background_cw_min = args.get_int("bg-cw-min", spec.background_cw_min);
  spec.background_stages = args.get_int("bg-stages", spec.background_stages);
  spec.slots = args.get_uint64("slots", spec.slots);
  spec.warmup = args.get_uint64("warmup", spec.warmup);
  spec.z = args.get_double("z", spec.z);
  spec.seed = args.get_uint64("seed", spec.seed);

  const auto summary = run_grid<cell::CellValidationSink>(
      args, spec, cell::run_cell_validation);
  return report_checks("cell validation", summary);
}

// --- advise and export -------------------------------------------------------

constexpr FlowFlags kAdviseFlow{"AES256", /*with_policy=*/false};

FlagSet advise_flags() {
  FlagSet fs{"thriftyvid advise",
             "The Fig.-1 workflow: calibrate on a probe transfer, evaluate "
             "the policy ladder analytically, recommend the cheapest "
             "confidential policy."};
  kPaperClip.add(fs);
  kAdviseFlow.add(fs);
  fs.flag("ceiling", "DB", "max acceptable eavesdropper PSNR (default 18)")
      .flag("objective", "delay|power", "cost to minimize (default delay)");
  return fs;
}

int cmd_advise(const Flags& args) {
  const Clip clip = kPaperClip.read(args);
  const FlowSpec flow = kAdviseFlow.read(args);
  core::AdvisorRequest request;
  request.algorithm = flow.policy.algorithm;
  request.max_eavesdropper_psnr_db = args.get_double("ceiling", 18.0);
  const std::string objective = args.get("objective", "delay");
  if (objective != "delay" && objective != "power") {
    throw util::FlagError{"invalid value for --objective: '" + objective +
                          "' (expected delay or power)"};
  }
  request.objective = objective == "power"
                          ? core::AdvisorRequest::Objective::kPower
                          : core::AdvisorRequest::Objective::kDelay;

  const auto workload = clip.build();
  core::PipelineConfig pipeline;
  pipeline.device = flow.device;
  const auto probe =
      core::simulate_transfer(pipeline, workload.packets, clip.seed);
  const auto traffic =
      core::calibrate_traffic(workload.packets, probe.timings, workload.fps);
  const auto service = core::calibrate_service(workload.packets,
                                               probe.timings, pipeline,
                                               traffic);
  const core::DistortionInputs di = core::distortion_inputs_of(
      workload, core::default_sensitivity(workload.motion));
  const auto result =
      core::advise(request, traffic, service, pipeline.device, di,
                   1.0 - pipeline.eavesdropper_loss_prob);

  std::printf("%-16s %-11s %-10s %-9s %s\n", "policy", "delay ms",
              "eaves dB", "power W", "confidential");
  for (const auto& e : result.evaluations) {
    std::printf("%-16s %-11.1f %-10.1f %-9.2f %s\n",
                e.policy.label().c_str(), e.delay.mean_delay_ms,
                e.eavesdropper.psnr_db, e.power.mean_power_w,
                e.confidential ? "yes" : "no");
  }
  if (result.recommendation) {
    std::printf("\nrecommendation: %s\n",
                result.recommendation->policy.label().c_str());
    return 0;
  }
  std::printf("\nno policy meets the %.1f dB ceiling\n",
              request.max_eavesdropper_psnr_db);
  return 1;
}

FlagSet export_flags() {
  FlagSet fs{"thriftyvid export",
             "Write original/receiver/eavesdropper .y4m files plus the "
             "eavesdropper's .pcap capture."};
  kPaperClip.add(fs);
  kPaperFlow.add(fs);
  fs.flag("outdir", "DIR", "output directory (default out)");
  return fs;
}

int cmd_export(const Flags& args) {
  const Clip clip = kPaperClip.read(args);
  const FlowSpec spec = kPaperFlow.read(args);
  const auto workload = clip.build();
  const std::string outdir = args.get("outdir", "out");
  std::filesystem::create_directories(outdir);

  const core::Flow flow{workload, spec.policy, clip.seed};
  core::PipelineConfig pipeline;
  pipeline.device = spec.device;
  pipeline.algorithm = spec.policy.algorithm;
  const auto transfer =
      core::simulate_transfer(pipeline, flow.packets(), clip.seed);
  const auto rx = flow.decode(transfer.receiver_delivered, /*decrypt=*/true);
  const auto ev =
      flow.decode(transfer.eavesdropper_captured, /*decrypt=*/false);

  video::write_y4m_file(outdir + "/original.y4m", workload.clip);
  video::write_y4m_file(outdir + "/receiver.y4m", rx);
  video::write_y4m_file(outdir + "/eavesdropper.y4m", ev);
  std::vector<double> stamps;
  for (const auto& t : transfer.timings) stamps.push_back(t.completion);
  net::write_pcap_file(
      outdir + "/eavesdropper.pcap",
      net::capture_of(flow.packets(), transfer.eavesdropper_captured,
                      stamps));
  std::printf("wrote %s/{original,receiver,eavesdropper}.y4m and "
              "eavesdropper.pcap  (policy %s, rx %.1f dB, eaves %.1f dB)\n",
              outdir.c_str(), spec.policy.label().c_str(),
              video::sequence_psnr(workload.clip, rx),
              video::sequence_psnr(workload.clip, ev));
  return 0;
}

// --- analyze (docs/adversary.md) ---------------------------------------------
// The ciphertext-only traffic-analysis adversary.  Without a positional
// argument it runs the leakage-vs-cost sweep (policy x shaping grid) on
// in-memory captures; with a pcap file it scores that one capture against
// ground truth rebuilt deterministically from the workload flags.

// --policy only describes a pcap capture, so analyze registers its own.
constexpr FlowFlags kAnalyzeFlow{"AES128", /*with_policy=*/false};

FlagSet analyze_flags() {
  FlagSet fs{"thriftyvid analyze [capture.pcap]",
             "Ciphertext-only quality inference from eavesdropped traffic "
             "(docs/adversary.md): estimate I-frames, GOP, motion class, "
             "bitrate trajectory and an eavesdropper-PSNR proxy from packet "
             "lengths/timing/metadata only, scored as leakage against "
             "ground truth next to each countermeasure's delay/energy "
             "cost.  Without a pcap argument, runs the (policy x shaping) "
             "leakage sweep; per-cell seeds derive from --seed, so any "
             "--threads value produces bit-identical output.  With a pcap "
             "(from 'live loopback --pcap'), scores that capture; workload "
             "flags and --seed must match the run that produced it."};
  kLiveClip.add(fs);
  fs.flag("policies", "none,I,P,all", "policy axis (sweep mode)")
      .flag("shapings", "none,pad256,...",
            "shaping axis (sweep mode; specs like pad256+hidemark+jit2ms; "
            "default: none plus each knob alone)")
      .flag("policy", "none|I|P|all|I+<pct>P|<pct>I",
            "capture's policy (pcap mode; default I)")
      .flag("shaping", "SPEC", "capture's shaping (pcap mode; default none)");
  kAnalyzeFlow.add(fs);
  fs.flag("window", "S", "bitrate-trajectory window (default 0.25)");
  add_grid_output(fs);
  fs.flag("json", "FILE", "additionally tee JSONL results to FILE")
      .flag("csv", "FILE", "additionally tee CSV results to FILE");
  return fs;
}

int cmd_analyze(const Flags& args) {
  const Clip clip = kLiveClip.read(args);
  const FlowSpec flow = kAnalyzeFlow.read(args);
  analysis::LeakageSpec spec;
  spec.motion = clip.motion;
  spec.gop_size = clip.gop;
  spec.frames = clip.frames;
  const crypto::Algorithm alg = flow.policy.algorithm;
  spec.pipeline.algorithm = alg;
  spec.pipeline.device = flow.device;
  spec.seed = clip.seed;
  spec.adversary.trajectory_window_s = args.get_double("window", 0.25);
  spec.policies = list_flag(args, "policies", policy_parser(alg), {});
  spec.shapings = list_flag(args, "shapings", policy::shaping_from_string, {});

  // --json/--csv tee full-precision copies next to the primary output.
  std::ofstream json_file, csv_file;
  std::unique_ptr<analysis::LeakageSink> json_sink, csv_sink;
  if (std::ostream* json = open_output(args, "json", json_file, nullptr)) {
    json_sink = make_sink<analysis::LeakageSink>("jsonl", *json);
  }
  if (std::ostream* csv = open_output(args, "csv", csv_file, nullptr)) {
    csv_sink = make_sink<analysis::LeakageSink>("csv", *csv);
  }

  if (args.positional().empty()) {
    // ---- sweep mode: the full leakage-vs-cost grid.
    const auto summary = run_grid<analysis::LeakageSink>(
        args, spec, analysis::run_leakage, {json_sink.get(), csv_sink.get()});
    std::fprintf(stderr, "# analyze: %zu cells, %u thread(s), %.2f s\n",
                 summary.cells, summary.threads, summary.wall_s);
    return 0;
  }

  // ---- pcap mode: one capture, one cell.  The cell seed is the root seed
  // itself so the deterministic re-run (ground truth + costs) matches the
  // 'live loopback' invocation that wrote the capture.
  const std::string pcap_path = args.positional().front();
  const net::PcapFile capture = net::read_pcap_file(pcap_path);
  const std::vector<net::RawCapture> wire = net::extract_rtp(capture);
  spec.policies = {policy::policy_from_string(args.get("policy", "I"), alg)};
  spec.shapings = {policy::shaping_from_string(args.get("shaping", "none"))};
  spec.validate();
  const analysis::LeakageCell cell{0, spec.policies.front(),
                                   spec.shapings.front(), spec.seed};
  std::optional<analysis::LeakageCellResult> r;
  (void)run_grid<analysis::LeakageSink>(
      args, spec,
      [&](const analysis::LeakageSpec& grid, analysis::LeakageSink& sink,
          util::ThreadPool* pool) {
        const core::Workload workload =
            core::build_workload(grid.motion, grid.gop_size, grid.frames,
                                 grid.seed, grid.pipeline.fps, pool);
        r = analysis::run_leakage_cell(grid, cell, workload, &wire);
        sink.begin(grid);
        sink.cell(*r);
        sink.end();
        return util::GridSummary{};
      },
      {json_sink.get(), csv_sink.get()});
  std::fprintf(stderr,
               "# analyze: %s: %zu records, %zu RTP packets, "
               "%zu frames observed\n",
               pcap_path.c_str(), capture.records.size(), wire.size(),
               r->inference.frames.size());
  return 0;
}

// --- live roles (docs/live.md) -----------------------------------------------
// Real UDP sockets on an epoll/poll event loop: `loopback` runs all three
// roles in-process on a virtual clock (deterministic, the pinned e2e);
// `send`, `recv` and `proxy` run one role each in real time for LAN
// experiments; `load` drives N supervised sessions against the multi-session
// server under a seeded chaos plan (docs/resilience.md).

live::Endpoint endpoint_from(const Flags& args, const std::string& flag,
                             const std::string& fallback) {
  const std::string text = args.get(flag, fallback);
  if (text.empty()) {
    throw util::FlagError{"--" + flag + " is required"};
  }
  const auto endpoint = live::parse_endpoint(text);
  if (!endpoint) {
    throw util::FlagError{"invalid value for --" + flag + ": '" + text +
                          "' (expected HOST:PORT)"};
  }
  return *endpoint;
}

FlagSet live_loopback_flags() {
  FlagSet fs{"thriftyvid live loopback",
             "In-process live testbed: sender -> impairment proxy (+ "
             "eavesdropper tap) -> receiver over real loopback UDP, paced "
             "by the in-memory service law on a virtual clock.  Prints "
             "live vs. in-memory vs. model PSNRs."};
  kLiveClip.add(fs);
  kLiveFlow.add(fs);
  fs.flag("shaping", "SPEC",
          "traffic-shaping countermeasures, e.g. pad256+hidemark+jit2ms "
          "(default none; docs/adversary.md)")
      .flag("stochastic", "",
            "impair with the proxy's own channel/faults instead of "
            "replaying the in-memory transfer's delivery masks");
  add_channel(fs);
  add_faults(fs);
  fs.flag("pcap", "FILE", "write the eavesdropper's capture as pcap")
      .flag("trace", "FILE", "write stage events of all roles as JSONL");
  return fs;
}

int cmd_live_loopback(const Flags& args) {
  const Clip clip = kLiveClip.read(args);
  const FlowSpec flow = kLiveFlow.read(args);
  live::LoopbackConfig config;
  config.motion = clip.motion;
  config.gop_size = clip.gop;
  config.frames = clip.frames;
  config.policy = flow.policy;
  config.shaping = policy::shaping_from_string(args.get("shaping", "none"));
  config.pipeline.device = flow.device;
  config.pipeline.channel = read_channel(args);
  config.seed = clip.seed;
  config.stochastic = args.get_bool("stochastic", false);
  config.faults = read_faults(args);
  config.pcap_path = args.get("pcap", "");

  TraceOutput trace;
  config.trace = trace.open(args);

  const live::LoopbackReport r = live::run_loopback(config);
  std::printf("live loopback: %zu packets, policy %s, %zu/%zu encrypted, "
              "%s mode\n",
              r.packet_count, config.policy.label().c_str(),
              r.encryption.encrypted_packets, r.encryption.total_packets,
              config.stochastic ? "stochastic" : "replay");
  std::printf("%-24s %10s %10s %10s\n", "", "live", "in-memory", "model");
  std::printf("%-24s %10.2f %10.2f %10.2f\n", "receiver PSNR (dB)",
              r.live_receiver_psnr_db, r.memory_receiver_psnr_db,
              r.predicted_receiver_psnr_db);
  std::printf("%-24s %10.2f %10.2f %10.2f\n", "eavesdropper PSNR (dB)",
              r.live_eavesdropper_psnr_db, r.memory_eavesdropper_psnr_db,
              r.predicted_eavesdropper_psnr_db);
  std::printf("sender: %zu sent (%zu encrypted) over %.2f s\n",
              r.sender.packets_sent, r.sender.encrypted_packets,
              r.duration_s);
  std::printf("proxy: %zu heard, %zu forwarded, %zu dropped, %zu dup, "
              "%zu reordered\n",
              r.proxy.heard, r.proxy.forwarded, r.proxy.dropped,
              r.proxy.duplicated, r.proxy.reordered);
  std::printf("receiver: %zu accepted, %zu dup, %zu reordered, %zu invalid\n",
              r.receiver.accepted, r.receiver.duplicates,
              r.receiver.reordered, r.receiver.invalid);
  std::printf("eavesdropper: heard %zu, captured %zu\n", r.tap.heard,
              r.tap.captured);
  if (!config.pcap_path.empty()) {
    std::printf("pcap: %s (%zu clamped records)\n", config.pcap_path.c_str(),
                r.pcap_clamped);
  }
  return 0;
}

FlagSet live_send_flags() {
  FlagSet fs{"thriftyvid live send",
             "Stream the workload as RTP/UDP to a receiver or proxy, paced "
             "by fresh service-law draws (T_e+T_b+T_t) in real time."};
  fs.flag("to", "HOST:PORT", "destination endpoint (required)");
  kLiveClip.add(fs);
  kLiveFlow.add(fs);
  fs.flag("trace", "FILE", "write sender stage events as JSONL");
  return fs;
}

int cmd_live_send(const Flags& args) {
  const live::Endpoint to = endpoint_from(args, "to", "");
  const Clip clip = kLiveClip.read(args);
  const FlowSpec spec = kLiveFlow.read(args);
  const core::Workload workload = clip.build();
  const core::Flow flow{workload, spec.policy, clip.seed};
  const std::vector<net::VideoPacket>& packets = flow.packets();

  core::PipelineConfig pipeline;
  pipeline.device = spec.device;
  pipeline.algorithm = spec.policy.algorithm;

  TraceOutput trace;
  core::TraceSink* sink = trace.open(args);

  live::EventLoop loop{live::ClockMode::kMonotonic};
  live::UdpSocket socket;
  // Any local address: the kernel picks the interface that routes to --to
  // (a loopback-bound socket cannot reach another host).
  socket.bind(live::Endpoint{0, 0});
  live::SenderSession sender{
      loop, socket,
      live::SenderConfig{to, 0x74561D01, sink}, packets,
      live::paced_schedule_from_service_model(pipeline, packets, clip.seed,
                                              sink)
          .send_s};
  sender.start();
  loop.run();
  const live::SenderReport& r = sender.report();
  std::printf("sent %zu packets (%zu encrypted, %zu bytes) to %s over "
              "%.2f s, %zu kernel retries\n",
              r.packets_sent, r.encrypted_packets, r.datagram_bytes_sent,
              to.to_string().c_str(), r.last_send_s - r.first_send_s,
              r.kernel_retries);
  return 0;
}

// The receiver selects nothing and runs on no handset: it only needs the
// key and IV the sender derived from the same (algorithm, seed).
constexpr FlowFlags kRecvFlow{"AES128", /*with_policy=*/false,
                              /*with_device=*/false};

FlagSet live_recv_flags() {
  FlagSet fs{"thriftyvid live recv",
             "Receive a live stream, decrypt marked payloads, and report "
             "PSNR against the (deterministically rebuilt) original clip.  "
             "Workload flags and --seed must match the sender's."};
  fs.flag("bind", "HOST:PORT", "listen endpoint (default 0.0.0.0:5004)")
      .flag("idle-timeout", "S", "end of stream after S quiet seconds "
                                 "(default 3)");
  kLiveClip.add(fs);
  kRecvFlow.add(fs);
  fs.flag("trace", "FILE", "write receive events as JSONL");
  return fs;
}

int cmd_live_recv(const Flags& args) {
  const Clip clip = kLiveClip.read(args);
  const core::Workload workload = clip.build();
  const core::Flow flow{workload, kRecvFlow.read(args).policy, clip.seed};
  const int frame_count = static_cast<int>(workload.stream.frames.size());
  const live::StreamMap map = live::StreamMap::of(workload.packets,
                                                  frame_count);

  TraceOutput trace;
  live::ReceiverSessionConfig config;
  config.trace = trace.open(args);
  config.idle_timeout_s = args.get_double("idle-timeout", 3.0);

  live::EventLoop loop{live::ClockMode::kMonotonic};
  live::UdpSocket socket;
  socket.bind(endpoint_from(args, "bind", "0.0.0.0:5004"));
  live::ReceiverSession session{loop, socket, config};
  session.start();
  loop.run();

  const auto received = session.finish();
  const net::ReceiverStats& stats = session.stats();
  std::printf("received %zu packets (%zu datagrams, %zu dup, %zu reordered, "
              "%zu invalid)\n",
              received.size(), stats.datagrams, stats.duplicates,
              stats.reordered, stats.invalid);
  std::printf("receiver PSNR: %.2f dB\n",
              core::score_stream(workload,
                                 live::reassemble_wire(map, received,
                                                       &flow.cipher(),
                                                       flow.iv()))
                  .psnr_db);
  return 0;
}

FlagSet live_proxy_flags() {
  FlagSet fs{"thriftyvid live proxy",
             "UDP impairment proxy with an eavesdropper tap: forward "
             "datagrams through a Gilbert-Elliott channel, outages and a "
             "fault plan; optionally write the tap's capture as pcap."};
  fs.flag("bind", "HOST:PORT", "listen endpoint (default 0.0.0.0:5004)")
      .flag("to", "HOST:PORT", "forward endpoint (required)")
      .flag("idle-timeout", "S",
            "exit after S quiet seconds (default: run until killed)");
  add_channel(fs);
  add_faults(fs);
  fs.flag("seed", "S", "impairment RNG seed (default 1)")
      .flag("pcap", "FILE", "write the tap's capture as pcap on exit")
      .flag("trace", "FILE", "write channel events as JSONL");
  return fs;
}

int cmd_live_proxy(const Flags& args) {
  TraceOutput trace;
  live::ProxyConfig config;
  config.forward_to = endpoint_from(args, "to", "");
  config.faults = read_faults(args);
  // Outages alone give a lossless chain: its draws use their own stream.
  if (const auto channel = read_channel(args, /*loss=*/0.0)) {
    config.channel = channel->receiver;
    config.outages = channel->outages;
  }
  config.seed = args.get_uint64("seed", 1);
  config.trace = trace.open(args);
  config.idle_timeout_s = args.get_double("idle-timeout", 0.0);

  live::EventLoop loop{live::ClockMode::kMonotonic};
  live::UdpSocket socket;
  socket.bind(endpoint_from(args, "bind", "0.0.0.0:5004"));
  live::EavesdropperTap tap{config.trace};
  live::ImpairmentProxy proxy{loop, socket, config, &tap};
  proxy.start();
  std::printf("proxy: %s -> %s\n",
              socket.local_endpoint().to_string().c_str(),
              config.forward_to.to_string().c_str());
  loop.run();
  proxy.flush();
  const live::ProxyReport& r = proxy.report();
  std::printf("proxy: %zu heard, %zu forwarded, %zu dropped, %zu dup, "
              "%zu reordered; tap captured %zu\n",
              r.heard, r.forwarded, r.dropped, r.duplicated, r.reordered,
              tap.report().captured);
  const std::string pcap_path = args.get("pcap", "");
  if (!pcap_path.empty()) {
    const std::size_t clamped =
        net::write_pcap_file(pcap_path, tap.captures());
    std::printf("pcap: %s (%zu clamped records)\n", pcap_path.c_str(),
                clamped);
  }
  return 0;
}

constexpr Clip kLoadClip{8, 16};

FlagSet live_load_flags() {
  FlagSet fs{"thriftyvid live load",
             "Multi-session chaos/load harness: N supervised uploaders "
             "stream the same workload into one live server with admission "
             "control, all in-process on a virtual clock.  Deterministic in "
             "--seed; prints per-outcome session tallies."};
  fs.flag("sessions", "N", "concurrent uploader sessions (default 8)")
      .flag("max-sessions", "N",
            "server admission budget (default: --sessions, no contention)");
  kLoadClip.add(fs);
  kLiveFlow.add(fs);
  fs.flag("ramp", "S", "spread session starts over S seconds (default 2)")
      .flag("chaos", "K=V,...",
            "chaos spec: eagain,short,spurious,drop,corrupt,truncate,dup,"
            "loss,burst,ctrl-drop,kill,outage=S:D;...,stall=S:D;...")
      .flag("queue-cap", "N", "per-session send-queue cap (default 64)")
      .flag("degrade-depth", "N",
            "queue depth that steps the policy down (default 32)")
      .flag("stall-timeout", "S", "client stall watchdog (default 5)")
      .flag("idle-timeout", "S", "server idle watchdog (default 5)")
      .flag("retry-max", "N", "per-packet send retries (default 8)")
      .flag("overload-high", "N", "overload latch entry backlog (default 4096)")
      .flag("overload-low", "N", "overload latch exit backlog (default 1024)")
      .flag("psnr", "", "decode each delivered session and report PSNR")
      .flag("per-session", "", "print the per-session outcome table")
      .flag("trace", "FILE", "write supervision events of all sessions");
  return fs;
}

int cmd_live_load(const Flags& args) {
  live::LoadConfig config;
  config.sessions = args.get_int("sessions", 8);
  config.max_sessions = args.get_uint64("max-sessions", 0);
  const Clip clip = kLoadClip.read(args);
  const FlowSpec flow = kLiveFlow.read(args);
  config.motion = clip.motion;
  config.gop_size = clip.gop;
  config.frames = clip.frames;
  config.policy = flow.policy;
  config.pipeline.device = flow.device;
  config.pipeline.algorithm = flow.policy.algorithm;
  config.seed = clip.seed;
  config.ramp_s = args.get_double("ramp", 2.0);
  if (args.has("chaos")) {
    config.chaos = live::chaos_plan_from_string(args.get("chaos", ""));
  }
  config.supervisor.queue_cap = args.get_uint64("queue-cap", 64);
  config.supervisor.degrade_depth = args.get_uint64("degrade-depth", 32);
  config.supervisor.stall_timeout_s = args.get_double("stall-timeout", 5.0);
  config.supervisor.max_send_retries = args.get_int("retry-max", 8);
  config.server_idle_timeout_s = args.get_double("idle-timeout", 5.0);
  config.overload_high = args.get_uint64("overload-high", 4096);
  config.overload_low = args.get_uint64("overload-low", 1024);
  config.evaluate_psnr = args.get_bool("psnr", false);
  const bool per_session = args.get_bool("per-session", false);

  TraceOutput trace;
  config.trace = trace.open(args);

  const live::LoadReport r = live::run_load(config);

  std::printf("live load: %d sessions x %zu packets, policy %s, chaos %s\n",
              config.sessions, r.packet_count,
              config.policy.label().c_str(),
              args.has("chaos") ? args.get("chaos", "").c_str() : "off");
  std::printf("outcomes: %zu completed, %zu retried-recovered, %zu shed, "
              "%zu watchdog-killed\n",
              r.completed, r.recovered, r.shed, r.watchdog_killed);
  std::printf("clients: %zu send retries, %zu packets shed, %zu degraded, "
              "max queue depth %zu\n",
              r.total_send_retries, r.total_packets_shed,
              r.total_packets_degraded, r.max_client_queue_depth);
  std::printf("server: %zu hellos, %zu admitted, %zu rejected, %zu closed, "
              "%zu watchdog-killed, %zu ctrl drops\n",
              r.server.hellos, r.server.admitted, r.server.rejected,
              r.server.closed, r.server.watchdog_killed, r.server.ctrl_drops);
  std::printf("server backlog: max %zu, %zu overload entries, "
              "%zu stall-deferred (%zu dropped)\n",
              r.server.max_backlog, r.server.overload_entries,
              r.server.stall_deferred, r.server.stall_dropped);

  double delivered_sum = 0.0, psnr_sum = 0.0;
  std::size_t delivered_n = 0, psnr_n = 0;
  for (const auto& s : r.sessions) {
    if (s.server_outcome == live::SessionOutcome::kPending) continue;
    delivered_sum += s.delivered_fraction;
    ++delivered_n;
    if (config.evaluate_psnr && s.psnr_db > 0.0) {
      psnr_sum += s.psnr_db;
      ++psnr_n;
    }
  }
  if (delivered_n > 0) {
    std::printf("delivery: %.1f%% mean over %zu admitted sessions",
                100.0 * delivered_sum / static_cast<double>(delivered_n),
                delivered_n);
    if (psnr_n > 0) {
      std::printf(", mean PSNR %.2f dB",
                  psnr_sum / static_cast<double>(psnr_n));
    }
    std::printf("\n");
  }
  std::printf("duration: %.2f virtual seconds\n", r.duration_s);

  if (per_session) {
    std::printf("\n%-5s %-10s %-18s %8s %8s %6s %6s %s\n", "sess",
                "ssrc", "outcome", "deliv%", "retries", "shed",
                "degr", config.evaluate_psnr ? "  psnr" : "");
    for (const auto& s : r.sessions) {
      std::printf("%-5d 0x%08x %-18s %7.1f%% %8zu %6zu %6zu",
                  s.index, s.ssrc, to_string(s.client.outcome),
                  100.0 * s.delivered_fraction, s.client.send_retries,
                  s.client.packets_shed, s.client.packets_degraded);
      if (config.evaluate_psnr && s.psnr_db > 0.0) {
        std::printf(" %.2f", s.psnr_db);
      }
      std::printf("\n");
    }
  }
  return 0;
}

// --- The command table. ------------------------------------------------------

struct Command {
  const char* name;  ///< "simulate"; a live role is "live <role>".
  const char* mode;  ///< the flag selecting this mode; "" for the default.
  FlagSet (*flags)();
  int (*run)(const Flags&);
};

constexpr Command kCommands[] = {
    {"classify", "", classify_flags, cmd_classify},
    {"simulate", "", simulate_flags, cmd_simulate},
    {"simulate", "events", simulate_validation_flags,
     cmd_simulate_validation},
    {"sweep", "", sweep_flags, cmd_sweep},
    {"cell", "", cell_flags, cmd_cell},
    {"cell", "validate", cell_validate_flags, cmd_cell_validate},
    {"advise", "", advise_flags, cmd_advise},
    {"export", "", export_flags, cmd_export},
    {"analyze", "", analyze_flags, cmd_analyze},
    {"live loopback", "", live_loopback_flags, cmd_live_loopback},
    {"live send", "", live_send_flags, cmd_live_send},
    {"live recv", "", live_recv_flags, cmd_live_recv},
    {"live proxy", "", live_proxy_flags, cmd_live_proxy},
    {"live load", "", live_load_flags, cmd_live_load},
};

/// Top-level usage: one line per table row, taken from the registry that
/// also produces its --help.  Exit status 0 on stdout, 2 on stderr.
int usage(std::FILE* to) {
  std::fprintf(to, "%s\nusage: thriftyvid <command> [options]\n\ncommands:\n",
               util::build_info_line().c_str());
  for (const Command& c : kCommands) {
    const FlagSet fs = c.flags();
    std::fprintf(to, "  %-28s %s\n",
                 fs.command().substr(std::strlen("thriftyvid ")).c_str(),
                 fs.summary().c_str());
  }
  std::fprintf(to,
               "\nrun 'thriftyvid <command> --help' for the command's "
               "option list\n");
  return to == stdout ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "--help" || cmd == "help") return usage(stdout);
  if (cmd == "--version" || cmd == "version") {
    std::printf("%s\n", util::build_info_line().c_str());
    return 0;
  }
  // A live role is the two-word command `live <role>`.
  const int from = cmd == "live" ? 3 : 2;
  const std::string name = from == 3 && argc > 2 ? cmd + " " + argv[2] : cmd;
  const auto named = [&](const Command& c) { return name == c.name; };
  const Command* first =
      std::find_if(std::begin(kCommands), std::end(kCommands), named);
  if (first == std::end(kCommands)) return usage(stderr);
  try {
    // A name's first row is its default mode; a later row is chosen when
    // its selecting flag is given.
    const Flags given = Flags::parse(argc, argv, from);
    const Command* chosen = first;
    for (const Command* c = first; c != std::end(kCommands) && named(*c); ++c) {
      if (*c->mode != '\0' && c->flags().given(given, c->mode)) chosen = c;
    }
    const auto args = chosen->flags().parse(argc, argv, from);
    return args ? chosen->run(*args) : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
