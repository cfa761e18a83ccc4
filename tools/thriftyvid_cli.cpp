// thriftyvid — command-line front end.
//
// Subcommands: classify, simulate, sweep, cell, advise, export, analyze,
// live.  Every
// subcommand's flags are registered in a util::FlagSet, which both rejects
// unknown options and generates the command's `--help` text — run
// `thriftyvid <command> --help` for the authoritative option list.
//
// `simulate` has two modes: the default packet-faithful pipeline experiment
// (Fig. 3), and — when `--events` is given — the model-validation grid
// (docs/validation.md) that cross-checks the discrete-event simulators
// against the closed forms.  Both accept `--trace=FILE` to stream
// per-packet stage events as JSONL (schema in docs/architecture.md).
#include <cstdio>
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

// --- Flag registries (one per subcommand / mode). --------------------------
// The registry is the single source of truth: check() rejects anything not
// registered, help_text() renders the same list for --help.

FlagSet classify_flagset() {
  return FlagSet{"thriftyvid classify <clip.y4m>",
                 "AForge-style motion classification of a YUV4MPEG2 clip."};
}

FlagSet simulate_flagset() {
  FlagSet fs{"thriftyvid simulate",
             "Run the full Fig.-3 pipeline and print measured metrics with "
             "95% CIs next to the analytic predictions.  With --events=N "
             "the command switches to the model-validation grid (see "
             "'thriftyvid simulate --events=1 --help')."};
  fs.flag("motion", "low|medium|high", "synthetic clip motion level")
      .flag("gop", "N", "GOP size in frames (default 30)")
      .flag("frames", "N", "clip length in frames (default 120)")
      .flag("policy", "none|I|P|all|I+<pct>P|<pct>I",
            "selective-encryption policy (default I)")
      .flag("alg", "AES128|AES256|3DES", "cipher (default AES256)")
      .flag("device", "samsung|htc", "calibrated device profile")
      .flag("transport", "udp|tcp", "RTP/UDP or the reliable HTTP/TCP ARQ")
      .flag("reps", "N", "experiment repetitions (default 5)")
      .flag("seed", "S", "root RNG seed (default 1)")
      .flag("loss", "P", "Gilbert-Elliott mean loss probability")
      .flag("burst", "L", "Gilbert-Elliott mean burst length (packets)")
      .flag("outage", "START:DUR,...", "scheduled AP blackout windows (s)")
      .flag("trace", "FILE", "write per-packet stage events as JSONL")
      .flag("stage-stats", "", "print per-stage counters and mean times");
  return fs;
}

FlagSet simulate_validation_flagset() {
  FlagSet fs{"thriftyvid simulate --events=N",
             "Model-validation grid (docs/validation.md): discrete-event "
             "simulations of the MMPP/G/1 sender and the eavesdropper's GOP "
             "recovery, cross-checked against eqs. 3-28.  Exit 0 iff every "
             "check passes; output is bit-identical for any --threads."};
  fs.flag("events", "N", "measured sender packets per cell")
      .flag("warmup", "N", "discarded transient packets (default 40000)")
      .flag("batches", "N", "batch-mean batches for the E[W] CI")
      .flag("threads", "N", "worker threads (default: hardware)")
      .flag("lambda1s", "A,B", "I-burst arrival-rate axis (1/s)")
      .flag("lambda2s", "A,B", "P-drain arrival-rate axis (1/s)")
      .flag("policies", "none,I,...", "policy axis")
      .flag("algs", "AES256,3DES", "cipher axis")
      .flag("device", "samsung|htc", "calibrated device profile")
      .flag("gop", "N", "GOP size for the eavesdropper model")
      .flag("ngops", "N", "GOPs per simulated flow")
      .flag("eaves-reps", "N", "simulated eavesdropper flows per cell")
      .flag("z", "Z", "acceptance multiplier on CI halfwidths")
      .flag("format", "table|jsonl|csv", "output format (default table)")
      .flag("out", "FILE", "write results to FILE instead of stdout")
      .flag("seed", "S", "root RNG seed (default 1)")
      .flag("trace", "FILE",
            "write sender service-stage events as JSONL (serializes cells)");
  return fs;
}

FlagSet sweep_flagset() {
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
      .flag("threads", "N", "worker threads (default: hardware)")
      .flag("quality", "on|off", "decode at receiver + eavesdropper")
      .flag("format", "table|jsonl|csv", "output format (default table)")
      .flag("out", "FILE", "write results to FILE instead of stdout")
      .flag("shared-seed", "",
            "reuse the root seed in every cell (figure-bench convention)")
      .flag("loss", "P", "Gilbert-Elliott mean loss probability")
      .flag("burst", "L", "Gilbert-Elliott mean burst length (packets)")
      .flag("outage", "START:DUR,...", "scheduled AP blackout windows (s)")
      .flag("stage-stats", "",
            "collect per-stage aggregates and emit them per cell");
  return fs;
}

FlagSet cell_flagset() {
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
      .flag("threads", "N", "worker threads (default: hardware)")
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
      .flag("no-shed", "", "never defer flows (they just miss deadlines)")
      .flag("format", "table|jsonl|csv", "output format (default table)")
      .flag("out", "FILE", "write results to FILE instead of stdout")
      .flag("trace", "FILE",
            "write per-packet stage events as JSONL (serializes flows)")
      .flag("validate", "", "run the fixed-point-vs-DES cross-check grid");
  return fs;
}

FlagSet cell_validate_flagset() {
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
      .flag("z", "Z", "acceptance multiplier on the SE estimate")
      .flag("threads", "N", "worker threads (default: hardware)")
      .flag("format", "table|jsonl|csv", "output format (default table)")
      .flag("out", "FILE", "write results to FILE instead of stdout")
      .flag("seed", "S", "root RNG seed (default 1)");
  return fs;
}

FlagSet advise_flagset() {
  FlagSet fs{"thriftyvid advise",
             "The Fig.-1 workflow: calibrate on a probe transfer, evaluate "
             "the policy ladder analytically, recommend the cheapest "
             "confidential policy."};
  fs.flag("motion", "low|medium|high", "synthetic clip motion level")
      .flag("gop", "N", "GOP size in frames (default 30)")
      .flag("frames", "N", "clip length in frames (default 120)")
      .flag("alg", "AES128|AES256|3DES", "cipher (default AES256)")
      .flag("device", "samsung|htc", "calibrated device profile")
      .flag("ceiling", "DB", "max acceptable eavesdropper PSNR (default 18)")
      .flag("objective", "delay|power", "cost to minimize (default delay)")
      .flag("seed", "S", "root RNG seed (default 1)");
  return fs;
}

FlagSet export_flagset() {
  FlagSet fs{"thriftyvid export",
             "Write original/receiver/eavesdropper .y4m files plus the "
             "eavesdropper's .pcap capture."};
  fs.flag("motion", "low|medium|high", "synthetic clip motion level")
      .flag("gop", "N", "GOP size in frames (default 30)")
      .flag("frames", "N", "clip length in frames (default 120)")
      .flag("policy", "none|I|P|all|I+<pct>P|<pct>I",
            "selective-encryption policy (default I)")
      .flag("alg", "AES128|AES256|3DES", "cipher (default AES256)")
      .flag("device", "samsung|htc", "calibrated device profile")
      .flag("outdir", "DIR", "output directory (default out)")
      .flag("seed", "S", "root RNG seed (default 1)");
  return fs;
}

/// --help handling shared by every subcommand: print the generated help to
/// stdout and signal the caller to exit 0.
bool wants_help(const Flags& args, const FlagSet& fs) {
  if (!args.has("help")) return false;
  std::fputs(fs.help_text().c_str(), stdout);
  return true;
}

int cmd_classify(const Flags& args) {
  const FlagSet fs = classify_flagset();
  if (wants_help(args, fs)) return 0;
  fs.check(args);
  if (args.positional().empty()) {
    std::fputs(fs.help_text().c_str(), stderr);
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

// Parses "--outage=START:DURATION[,START:DURATION...]" (seconds).
std::vector<wifi::OutageWindow> parse_outages(const Flags& args) {
  std::vector<wifi::OutageWindow> outages;
  for (const std::string& item : args.get_list("outage")) {
    const auto colon = item.find(':');
    if (colon == std::string::npos) {
      throw util::FlagError{
          "invalid value for --outage: '" + item +
          "' (expected START:DURATION[,START:DURATION...] in seconds)"};
    }
    errno = 0;
    char* end = nullptr;
    const double start = std::strtod(item.c_str(), &end);
    const bool start_ok = end == item.c_str() + colon && errno == 0;
    errno = 0;
    const double duration = std::strtod(item.c_str() + colon + 1, &end);
    const bool duration_ok =
        end == item.c_str() + item.size() && colon + 1 < item.size() &&
        errno == 0;
    if (!start_ok || !duration_ok) {
      throw util::FlagError{"invalid value for --outage: '" + item +
                            "' (expected numeric START:DURATION)"};
    }
    outages.push_back({start, duration});
  }
  return outages;
}

// Builds a Gilbert-Elliott channel model when any of --loss/--burst/
// --outage is present; otherwise returns nullopt (legacy i.i.d. losses).
std::optional<core::ChannelModel> channel_from_flags(
    const Flags& args, const core::PipelineConfig& defaults) {
  const bool wants_channel =
      args.has("loss") || args.has("burst") || args.has("outage");
  if (!wants_channel) return std::nullopt;
  core::ChannelModel channel;
  channel.receiver.mean_loss_prob =
      args.get_double("loss", defaults.receiver_loss_prob);
  channel.receiver.mean_burst_length = args.get_double("burst", 1.0);
  channel.eavesdropper.mean_loss_prob = defaults.eavesdropper_loss_prob;
  channel.eavesdropper.mean_burst_length = 1.0;
  channel.outages = parse_outages(args);
  return channel;
}

core::Workload workload_from(const Flags& args) {
  return core::build_workload(
      video::motion_from_string(args.get("motion", "low")),
      args.get_int("gop", 30), args.get_int("frames", 120),
      args.get_uint64("seed", 1));
}

/// Opens --trace=FILE (when present) as a JSONL trace sink.  The stream and
/// the sink must outlive the run; the caller keeps both alive.
struct TraceOutput {
  std::ofstream file;
  std::optional<core::JsonlTraceSink> sink;

  [[nodiscard]] core::TraceSink* open(const Flags& args) {
    const std::string path = args.get("trace", "");
    if (path.empty()) return nullptr;
    file.open(path);
    if (!file) {
      throw util::FlagError{"cannot open --trace file: " + path};
    }
    sink.emplace(file);
    return &*sink;
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

/// Runs a grid command's runner on the --threads pool into the sink
/// --format selects, writing to --out (stdout by default).
template <class Runner, class Sink>
auto run_grid(const Flags& args, const typename Sink::spec_type& spec) {
  const auto pool = pool_from(args);
  std::ofstream file;
  std::ostream* out = open_output(args, "out", file, &std::cout);
  const auto sink = make_sink<Sink>(args.get("format", "table"), *out);
  Runner runner{pool.get()};
  const auto summary = runner.run(spec, *sink);
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

// Validation mode of `simulate` (docs/validation.md): run the discrete-
// event sender and eavesdropper simulators over a (lambda1, lambda2,
// policy, cipher) grid and compare every statistic against the analytic
// model.  Exit status 0 iff every check in every cell passed.
int cmd_simulate_validation(const Flags& args) {
  const FlagSet fs = simulate_validation_flagset();
  if (wants_help(args, fs)) return 0;
  fs.check(args);

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
      run_grid<sim::ValidationRunner, sim::ValidationSink>(args, spec);
  trace.file.flush();
  return report_checks("validation", summary);
}

int cmd_simulate(const Flags& args) {
  // `--events` selects the model-validation grid (no pipeline, no clip):
  // the discrete-event simulators against the closed forms.
  if (args.has("events")) return cmd_simulate_validation(args);
  const FlagSet fs = simulate_flagset();
  if (wants_help(args, fs)) return 0;
  fs.check(args);
  const auto alg = crypto::algorithm_from_string(args.get("alg", "AES256"));
  const auto workload = workload_from(args);
  core::ExperimentSpec spec;
  spec.policy = policy::policy_from_string(args.get("policy", "I"), alg);
  spec.pipeline.device = core::device_from_string(args.get("device", "samsung"));
  spec.pipeline.transport =
      core::transport_from_string(args.get("transport", "udp"));
  spec.repetitions = args.get_int("reps", 5);
  spec.seed = args.get_uint64("seed", 1);
  spec.sensitivity_fraction = core::default_sensitivity(workload.motion);
  spec.pipeline.channel = channel_from_flags(args, spec.pipeline);
  // Fail fast on configuration mistakes; run_experiment itself downgrades
  // per-repetition failures to FailureEvents and would otherwise report a
  // bad --loss/--burst as "0 completed" with all-zero statistics.
  core::validate(spec.pipeline);

  TraceOutput trace;
  spec.trace = trace.open(args);
  spec.collect_stage_stats = args.get_bool("stage-stats", false);

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

int cmd_sweep(const Flags& args) {
  const FlagSet fs = sweep_flagset();
  if (wants_help(args, fs)) return 0;
  fs.check(args);

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

  core::PipelineConfig channel_defaults;
  spec.channels = {channel_from_flags(args, channel_defaults)};

  spec.frames = args.get_int("frames", 120);
  spec.repetitions = args.get_int("reps", 5);
  spec.seed = args.get_uint64("seed", 1);
  spec.evaluate_quality = args.get_bool("quality", true);
  spec.collect_stage_stats = args.get_bool("stage-stats", false);
  if (args.get_bool("shared-seed", false)) {
    spec.seed_mode = core::SweepSpec::SeedMode::kShared;
  }

  const auto summary =
      run_grid<core::SweepRunner, core::ResultSink>(args, spec);
  std::fprintf(stderr,
               "# sweep: %zu cells x %d reps, %zu workload(s), "
               "%u thread(s), %.2f s\n",
               summary.cells, spec.repetitions, summary.workloads,
               summary.threads, summary.wall_s);
  return 0;
}

// Validation mode of `cell` (docs/cell.md): solve the heterogeneous
// Bianchi fixed point and simulate the same population with the
// multi-station DCF simulator, comparing per-class statistics under z*CI
// acceptance bands.  Exit status 0 iff every check in every cell passed.
int cmd_cell_validate(const Flags& args) {
  const FlagSet fs = cell_validate_flagset();
  if (wants_help(args, fs)) return 0;
  fs.check(args);

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

  const auto summary =
      run_grid<cell::CellValidationRunner, cell::CellValidationSink>(
          args, spec);
  return report_checks("cell validation", summary);
}

int cmd_cell(const Flags& args) {
  // `--validate` selects the fixed-point-vs-DES cross-check grid.
  if (args.has("validate")) return cmd_cell_validate(args);

  const FlagSet fs = cell_flagset();
  if (wants_help(args, fs)) return 0;
  fs.check(args);

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

  const auto summary = run_grid<cell::CellRunner, cell::CellSink>(args, spec);
  trace.file.flush();
  std::fprintf(stderr,
               "# cell: %zu point(s) x %d reps, %zu workload(s), "
               "%u thread(s), %.2f s\n",
               summary.cells, base.repetitions, summary.workloads,
               summary.threads, summary.wall_s);
  return 0;
}

int cmd_advise(const Flags& args) {
  const FlagSet fs = advise_flagset();
  if (wants_help(args, fs)) return 0;
  fs.check(args);
  const auto alg = crypto::algorithm_from_string(args.get("alg", "AES256"));
  const auto workload = workload_from(args);
  core::PipelineConfig pipeline;
  pipeline.device = core::device_from_string(args.get("device", "samsung"));
  const auto probe = core::simulate_transfer(pipeline, workload.packets,
                                             args.get_uint64("seed", 1));
  const auto traffic =
      core::calibrate_traffic(workload.packets, probe.timings, workload.fps);
  const auto service = core::calibrate_service(workload.packets,
                                               probe.timings, pipeline,
                                               traffic);
  const core::DistortionInputs di = core::distortion_inputs_of(
      workload, core::default_sensitivity(workload.motion));

  core::AdvisorRequest request;
  request.algorithm = alg;
  request.max_eavesdropper_psnr_db = args.get_double("ceiling", 18.0);
  request.objective = args.get("objective", "delay") == "power"
                          ? core::AdvisorRequest::Objective::kPower
                          : core::AdvisorRequest::Objective::kDelay;
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

int cmd_export(const Flags& args) {
  const FlagSet fs = export_flagset();
  if (wants_help(args, fs)) return 0;
  fs.check(args);
  const auto alg = crypto::algorithm_from_string(args.get("alg", "AES256"));
  const auto workload = workload_from(args);
  const auto pol = policy::policy_from_string(args.get("policy", "I"), alg);
  const std::string outdir = args.get("outdir", "out");
  std::filesystem::create_directories(outdir);

  const std::uint64_t seed = args.get_uint64("seed", 1);
  const core::Flow flow{workload, pol, seed};

  core::PipelineConfig pipeline;
  pipeline.device = core::device_from_string(args.get("device", "samsung"));
  pipeline.algorithm = pol.algorithm;
  const auto transfer = core::simulate_transfer(pipeline, flow.packets(), seed);
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
              outdir.c_str(), pol.label().c_str(),
              video::sequence_psnr(workload.clip, rx),
              video::sequence_psnr(workload.clip, ev));
  return 0;
}

// --- analyze subcommand (docs/adversary.md) --------------------------------
// The ciphertext-only traffic-analysis adversary.  Without a positional
// argument it runs the leakage-vs-cost sweep (policy x shaping grid) on
// in-memory captures; with a pcap file it scores that one capture against
// ground truth rebuilt deterministically from the workload flags.

FlagSet analyze_flagset() {
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
  fs.flag("motion", "low|medium|high", "synthetic clip motion level")
      .flag("gop", "N", "GOP size in frames (default 16)")
      .flag("frames", "N", "clip length in frames (default 48)")
      .flag("policies", "none,I,P,all", "policy axis (sweep mode)")
      .flag("shapings", "none,pad256,...",
            "shaping axis (sweep mode; specs like pad256+hidemark+jit2ms; "
            "default: none plus each knob alone)")
      .flag("policy", "none|I|P|all|I+<pct>P|<pct>I",
            "capture's policy (pcap mode; default I)")
      .flag("shaping", "SPEC", "capture's shaping (pcap mode; default none)")
      .flag("alg", "AES128|AES256|3DES",
            "cipher (default AES128, matching 'live loopback')")
      .flag("device", "samsung|htc", "calibrated device profile")
      .flag("seed", "S", "root RNG seed (default 1)")
      .flag("window", "S", "bitrate-trajectory window (default 0.25)")
      .flag("threads", "N", "worker threads (default: hardware)")
      .flag("format", "table|jsonl|csv", "output format (default table)")
      .flag("out", "FILE", "write results to FILE instead of stdout")
      .flag("json", "FILE", "additionally tee JSONL results to FILE")
      .flag("csv", "FILE", "additionally tee CSV results to FILE");
  return fs;
}

int cmd_analyze(const Flags& args) {
  const FlagSet fs = analyze_flagset();
  if (wants_help(args, fs)) return 0;
  fs.check(args);

  analysis::LeakageSpec spec;
  spec.motion = video::motion_from_string(args.get("motion", "low"));
  spec.gop_size = args.get_int("gop", 16);
  spec.frames = args.get_int("frames", 48);
  const auto alg = crypto::algorithm_from_string(args.get("alg", "AES128"));
  spec.pipeline.algorithm = alg;
  spec.pipeline.device =
      core::device_from_string(args.get("device", "samsung"));
  spec.seed = args.get_uint64("seed", 1);
  spec.adversary.trajectory_window_s = args.get_double("window", 0.25);
  spec.policies = list_flag(args, "policies", policy_parser(alg), {});
  spec.shapings = list_flag(args, "shapings", policy::shaping_from_string, {});

  std::ofstream file;
  std::ostream* out = open_output(args, "out", file, &std::cout);
  const auto primary =
      make_sink<analysis::LeakageSink>(args.get("format", "table"), *out);
  // --json/--csv tee full-precision copies next to the primary output.
  util::TeeSink<analysis::LeakageSpec, analysis::LeakageCellResult> tee;
  tee.add(primary.get());
  std::ofstream json_file, csv_file;
  std::unique_ptr<analysis::LeakageSink> json_sink, csv_sink;
  if (std::ostream* json = open_output(args, "json", json_file, nullptr)) {
    json_sink = make_sink<analysis::LeakageSink>("jsonl", *json);
    tee.add(json_sink.get());
  }
  if (std::ostream* csv = open_output(args, "csv", csv_file, nullptr)) {
    csv_sink = make_sink<analysis::LeakageSink>("csv", *csv);
    tee.add(csv_sink.get());
  }

  if (!args.positional().empty()) {
    // ---- pcap mode: one capture, one cell.  The cell seed is the root
    // seed itself so the deterministic re-run (ground truth + costs)
    // matches the 'live loopback' invocation that wrote the capture.
    const std::string pcap_path = args.positional().front();
    const net::PcapFile capture = net::read_pcap_file(pcap_path);
    const std::vector<net::RawCapture> wire = net::extract_rtp(capture);

    spec.policies = {
        policy::policy_from_string(args.get("policy", "I"), alg)};
    spec.shapings = {
        policy::shaping_from_string(args.get("shaping", "none"))};
    spec.validate();
    analysis::LeakageCell cell;
    cell.policy = spec.policies.front();
    cell.shaping = spec.shapings.front();
    cell.seed = spec.seed;
    const core::Workload workload =
        core::build_workload(spec.motion, spec.gop_size, spec.frames,
                             spec.seed, spec.pipeline.fps);

    tee.begin(spec);
    const analysis::LeakageCellResult r =
        analysis::run_leakage_cell(spec, cell, workload, &wire);
    tee.cell(r);
    tee.end();
    out->flush();
    std::fprintf(stderr,
                 "# analyze: %s: %zu records, %zu RTP packets, "
                 "%zu frames observed\n",
                 pcap_path.c_str(), capture.records.size(), wire.size(),
                 r.inference.frames.size());
    return 0;
  }

  // ---- sweep mode: the full leakage-vs-cost grid.
  const auto pool = pool_from(args);
  analysis::LeakageRunner runner{pool.get()};
  const analysis::LeakageSummary summary = runner.run(spec, tee);
  out->flush();
  std::fprintf(stderr, "# analyze: %zu cells, %u thread(s), %.2f s\n",
               summary.cells, summary.threads, summary.wall_s);
  return 0;
}

// --- live subcommand (docs/live.md) ----------------------------------------
// Real UDP sockets on an epoll/poll event loop: `loopback` runs all three
// roles in-process on a virtual clock (deterministic, the pinned e2e);
// `send`, `recv` and `proxy` run one role each in real time for LAN
// experiments; `load` drives N supervised sessions against the multi-session
// server under a seeded chaos plan (docs/resilience.md).

FlagSet live_loopback_flagset() {
  FlagSet fs{"thriftyvid live loopback",
             "In-process live testbed: sender -> impairment proxy (+ "
             "eavesdropper tap) -> receiver over real loopback UDP, paced "
             "by the in-memory service law on a virtual clock.  Prints "
             "live vs. in-memory vs. model PSNRs."};
  fs.flag("motion", "low|medium|high", "synthetic clip motion level")
      .flag("gop", "N", "GOP size in frames (default 16)")
      .flag("frames", "N", "clip length in frames (default 48)")
      .flag("policy", "none|I|P|all|I+<pct>P|<pct>I",
            "selective-encryption policy (default I)")
      .flag("shaping", "SPEC",
            "traffic-shaping countermeasures, e.g. pad256+hidemark+jit2ms "
            "(default none; docs/adversary.md)")
      .flag("alg", "AES128|AES256|3DES", "cipher (default AES128)")
      .flag("device", "samsung|htc", "calibrated device profile")
      .flag("seed", "S", "root RNG seed (default 1)")
      .flag("stochastic", "",
            "impair with the proxy's own channel/faults instead of "
            "replaying the in-memory transfer's delivery masks")
      .flag("loss", "P", "receiver-path GE mean loss (stochastic mode)")
      .flag("burst", "L", "receiver-path GE mean burst length")
      .flag("outage", "START:DUR,...", "scheduled AP blackout windows (s)")
      .flag("fault-drop", "P", "proxy datagram drop probability")
      .flag("fault-corrupt", "P", "proxy payload bit-flip probability")
      .flag("fault-truncate", "P", "proxy truncation probability")
      .flag("fault-dup", "P", "proxy duplication probability")
      .flag("fault-reorder", "P", "proxy reordering probability")
      .flag("pcap", "FILE", "write the eavesdropper's capture as pcap")
      .flag("trace", "FILE", "write stage events of all roles as JSONL");
  return fs;
}

FlagSet live_send_flagset() {
  FlagSet fs{"thriftyvid live send",
             "Stream the workload as RTP/UDP to a receiver or proxy, paced "
             "by fresh service-law draws (T_e+T_b+T_t) in real time."};
  fs.flag("to", "HOST:PORT", "destination endpoint (required)")
      .flag("motion", "low|medium|high", "synthetic clip motion level")
      .flag("gop", "N", "GOP size in frames (default 16)")
      .flag("frames", "N", "clip length in frames (default 48)")
      .flag("policy", "none|I|P|all|I+<pct>P|<pct>I",
            "selective-encryption policy (default I)")
      .flag("alg", "AES128|AES256|3DES", "cipher (default AES128)")
      .flag("device", "samsung|htc", "calibrated device profile")
      .flag("seed", "S", "root RNG seed (default 1)")
      .flag("trace", "FILE", "write sender stage events as JSONL");
  return fs;
}

FlagSet live_recv_flagset() {
  FlagSet fs{"thriftyvid live recv",
             "Receive a live stream, decrypt marked payloads, and report "
             "PSNR against the (deterministically rebuilt) original clip.  "
             "Workload flags and --seed must match the sender's."};
  fs.flag("bind", "HOST:PORT", "listen endpoint (default 0.0.0.0:5004)")
      .flag("idle-timeout", "S", "end of stream after S quiet seconds "
                                 "(default 3)")
      .flag("motion", "low|medium|high", "synthetic clip motion level")
      .flag("gop", "N", "GOP size in frames (default 16)")
      .flag("frames", "N", "clip length in frames (default 48)")
      .flag("alg", "AES128|AES256|3DES", "cipher (default AES128)")
      .flag("seed", "S", "root RNG seed (default 1)")
      .flag("trace", "FILE", "write receive events as JSONL");
  return fs;
}

FlagSet live_proxy_flagset() {
  FlagSet fs{"thriftyvid live proxy",
             "UDP impairment proxy with an eavesdropper tap: forward "
             "datagrams through a Gilbert-Elliott channel, outages and a "
             "fault plan; optionally write the tap's capture as pcap."};
  fs.flag("bind", "HOST:PORT", "listen endpoint (default 0.0.0.0:5004)")
      .flag("to", "HOST:PORT", "forward endpoint (required)")
      .flag("idle-timeout", "S",
            "exit after S quiet seconds (default: run until killed)")
      .flag("loss", "P", "receiver-path GE mean loss probability")
      .flag("burst", "L", "receiver-path GE mean burst length")
      .flag("outage", "START:DUR,...", "scheduled AP blackout windows (s)")
      .flag("fault-drop", "P", "datagram drop probability")
      .flag("fault-corrupt", "P", "payload bit-flip probability")
      .flag("fault-truncate", "P", "truncation probability")
      .flag("fault-dup", "P", "duplication probability")
      .flag("fault-reorder", "P", "reordering probability")
      .flag("seed", "S", "impairment RNG seed (default 1)")
      .flag("pcap", "FILE", "write the tap's capture as pcap on exit")
      .flag("trace", "FILE", "write channel events as JSONL");
  return fs;
}

FlagSet live_load_flagset() {
  FlagSet fs{"thriftyvid live load",
             "Multi-session chaos/load harness: N supervised uploaders "
             "stream the same workload into one live server with admission "
             "control, all in-process on a virtual clock.  Deterministic in "
             "--seed; prints per-outcome session tallies."};
  fs.flag("sessions", "N", "concurrent uploader sessions (default 8)")
      .flag("max-sessions", "N",
            "server admission budget (default: --sessions, no contention)")
      .flag("motion", "low|medium|high", "synthetic clip motion level")
      .flag("gop", "N", "GOP size in frames (default 8)")
      .flag("frames", "N", "clip length in frames (default 16)")
      .flag("policy", "none|I|P|all|I+<pct>P|<pct>I",
            "selective-encryption policy (default I)")
      .flag("alg", "AES128|AES256|3DES", "cipher (default AES128)")
      .flag("device", "samsung|htc", "calibrated device profile")
      .flag("seed", "S", "root RNG seed (default 1)")
      .flag("ramp", "S", "spread session starts over S seconds (default 2)")
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

/// Builds the proxy fault plan from the --fault-* flags; nullopt when
/// none is set.
std::optional<net::FaultPlan> faults_from(const Flags& args) {
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

int cmd_live_loopback(const Flags& args) {
  const FlagSet fs = live_loopback_flagset();
  if (wants_help(args, fs)) return 0;
  fs.check(args);

  live::LoopbackConfig config;
  config.motion = video::motion_from_string(args.get("motion", "low"));
  config.gop_size = args.get_int("gop", 16);
  config.frames = args.get_int("frames", 48);
  const auto alg = crypto::algorithm_from_string(args.get("alg", "AES128"));
  config.policy = policy::policy_from_string(args.get("policy", "I"), alg);
  config.shaping = policy::shaping_from_string(args.get("shaping", "none"));
  config.pipeline.device =
      core::device_from_string(args.get("device", "samsung"));
  config.pipeline.channel = channel_from_flags(args, config.pipeline);
  config.seed = args.get_uint64("seed", 1);
  config.stochastic = args.has("stochastic");
  config.faults = faults_from(args);
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

int cmd_live_send(const Flags& args) {
  const FlagSet fs = live_send_flagset();
  if (wants_help(args, fs)) return 0;
  fs.check(args);
  const live::Endpoint to = endpoint_from(args, "to", "");

  core::Workload workload = core::build_workload(
      video::motion_from_string(args.get("motion", "low")),
      args.get_int("gop", 16), args.get_int("frames", 48),
      args.get_uint64("seed", 1));
  const auto alg = crypto::algorithm_from_string(args.get("alg", "AES128"));
  const auto pol = policy::policy_from_string(args.get("policy", "I"), alg);
  const std::uint64_t seed = args.get_uint64("seed", 1);
  const core::Flow flow{workload, pol, seed};
  const std::vector<net::VideoPacket>& packets = flow.packets();

  core::PipelineConfig pipeline;
  pipeline.device = core::device_from_string(args.get("device", "samsung"));
  pipeline.algorithm = alg;

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
      live::schedule_from_service_model(pipeline, packets, seed, sink)};
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

int cmd_live_recv(const Flags& args) {
  const FlagSet fs = live_recv_flagset();
  if (wants_help(args, fs)) return 0;
  fs.check(args);

  core::Workload workload = core::build_workload(
      video::motion_from_string(args.get("motion", "low")),
      args.get_int("gop", 16), args.get_int("frames", 48),
      args.get_uint64("seed", 1));
  const auto alg = crypto::algorithm_from_string(args.get("alg", "AES128"));
  const std::uint64_t seed = args.get_uint64("seed", 1);
  // The receiver's side of the flow: it selects nothing, but holds the
  // key and IV the sender derived from the same (algorithm, seed).
  const core::Flow flow{
      workload, policy::EncryptionPolicy{policy::Mode::kNone, alg, 0.0},
      seed};
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
              core::decode_psnr(workload,
                                live::reassemble_wire(map, received,
                                                      &flow.cipher(),
                                                      flow.iv())));
  return 0;
}

int cmd_live_proxy(const Flags& args) {
  const FlagSet fs = live_proxy_flagset();
  if (wants_help(args, fs)) return 0;
  fs.check(args);

  TraceOutput trace;
  live::ProxyConfig config;
  config.forward_to = endpoint_from(args, "to", "");
  config.faults = faults_from(args);
  if (args.has("loss") || args.has("burst")) {
    wifi::GilbertElliottParams channel;
    channel.mean_loss_prob = args.get_double("loss", 0.0);
    channel.mean_burst_length = args.get_double("burst", 1.0);
    config.receiver_channel = channel;
  }
  config.outages = parse_outages(args);
  config.seed = args.get_uint64("seed", 1);
  config.trace = trace.open(args);
  config.idle_timeout_s = args.get_double("idle-timeout", 0.0);

  live::EventLoop loop{live::ClockMode::kMonotonic};
  live::UdpSocket socket;
  socket.bind(endpoint_from(args, "bind", "0.0.0.0:5004"));
  live::EavesdropperTap tap{config.trace};
  live::ImpairmentProxy proxy{loop, socket, socket, config, &tap};
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

int cmd_live_load(const Flags& args) {
  const FlagSet fs = live_load_flagset();
  if (wants_help(args, fs)) return 0;
  fs.check(args);

  live::LoadConfig config;
  config.sessions = args.get_int("sessions", 8);
  config.max_sessions = args.get_uint64("max-sessions", 0);
  config.motion = video::motion_from_string(args.get("motion", "low"));
  config.gop_size = args.get_int("gop", 8);
  config.frames = args.get_int("frames", 16);
  const auto alg = crypto::algorithm_from_string(args.get("alg", "AES128"));
  config.policy = policy::policy_from_string(args.get("policy", "I"), alg);
  config.pipeline.device = core::device_from_string(args.get("device",
                                                             "samsung"));
  config.pipeline.algorithm = alg;
  config.seed = args.get_uint64("seed", 1);
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
  config.evaluate_psnr = args.has("psnr");

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

  if (args.has("per-session")) {
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

int cmd_live(int argc, char** argv) {
  static const char* const kRoles =
      "usage: thriftyvid live <loopback|send|recv|proxy|load> [options]\n";
  if (argc < 3) {
    std::fputs(kRoles, stderr);
    return 2;
  }
  const std::string role = argv[2];
  const Flags args = Flags::parse(argc, argv, 3);
  if (role == "loopback") return cmd_live_loopback(args);
  if (role == "send") return cmd_live_send(args);
  if (role == "recv") return cmd_live_recv(args);
  if (role == "proxy") return cmd_live_proxy(args);
  if (role == "load") return cmd_live_load(args);
  std::fputs(kRoles, stderr);
  return 2;
}

/// Top-level usage: one line per subcommand, generated from the same
/// FlagSet registrations that produce the per-command --help.
void print_usage(std::FILE* to) {
  std::fprintf(to, "%s\nusage: thriftyvid <command> [options]\n\ncommands:\n",
               util::build_info_line().c_str());
  const FlagSet sets[] = {classify_flagset(),  simulate_flagset(),
                          simulate_validation_flagset(), sweep_flagset(),
                          cell_flagset(),      cell_validate_flagset(),
                          advise_flagset(),    export_flagset(),
                          analyze_flagset(),   live_loopback_flagset(),
                          live_send_flagset(), live_recv_flagset(),
                          live_proxy_flagset(), live_load_flagset()};
  for (const FlagSet& fs : sets) {
    // Strip the "thriftyvid " prefix for the listing.
    const std::string& cmd = fs.command();
    const std::string name =
        cmd.rfind("thriftyvid ", 0) == 0 ? cmd.substr(11) : cmd;
    std::fprintf(to, "  %-28s %s\n", name.c_str(), fs.summary().c_str());
  }
  std::fprintf(to,
               "\nrun 'thriftyvid <command> --help' for the command's "
               "option list\n");
}

int usage() {
  print_usage(stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "help") {
    print_usage(stdout);
    return 0;
  }
  if (cmd == "--version" || cmd == "version") {
    std::printf("%s\n", util::build_info_line().c_str());
    return 0;
  }
  try {
    if (cmd == "live") return cmd_live(argc, argv);
    const Flags args = Flags::parse(argc, argv, 2);
    if (cmd == "classify") return cmd_classify(args);
    if (cmd == "simulate") return cmd_simulate(args);
    if (cmd == "sweep") return cmd_sweep(args);
    if (cmd == "cell") return cmd_cell(args);
    if (cmd == "advise") return cmd_advise(args);
    if (cmd == "export") return cmd_export(args);
    if (cmd == "analyze") return cmd_analyze(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
