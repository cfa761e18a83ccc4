#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <set>

namespace e2e {

namespace {

std::string format(const char* fmt, double a, double b = 0.0, double c = 0.0,
                   double d = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, a, b, c, d);
  return buf;
}

const SpanTotals& totals(const SpanAggregate& agg, const char* name) {
  static const SpanTotals kNone;
  const auto it = agg.by_name.find(name);
  return it != agg.by_name.end() ? it->second : kNone;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double lowest(const std::vector<double>& samples) {
  return *std::ranges::min_element(samples);
}

}  // namespace

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    notes.push_back("CHECK FAILED: " + what);
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

void untraced_phases(const Options& options, EndToEnd& e,
                     const std::function<double()>& setup,
                     const std::function<void()>& pass) {
  const auto start = Clock::now();
  for (int k = 1; k <= kSetups; ++k) {
    e.setup_s.push_back(setup());
    until(after(start, options.seconds * k / kSetups), 1,
          [&](int) { pass(); });
  }
}

void check_digest(Report& report, const Options& options,
                  const std::string& workload, std::uint64_t reference,
                  std::uint64_t digest, std::optional<std::uint64_t>& first) {
  if (first) {
    report.check(digest == *first, workload + " JSONL equal across passes");
    return;
  }
  first = digest;
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest));
  report.notes.push_back(workload + " JSONL digest " + hex);
  if (options.seed == kDefaultSeed) {
    report.check(digest == reference,
                 workload + " JSONL equals the stored reference");
  }
}

void add_end_to_end(Report& report, const EndToEnd& e) {
  // setup_s is the median of the cold set-ups.  The other figures are the
  // best over the run: a set-up or a pass is a fixed, deterministic amount
  // of work, and interference from outside the process only ever slows
  // it, so the fastest one is the steadiest estimate of what it costs.
  const double setup = median(e.setup_s);
  const double pass = lowest(e.pass_s);
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> tails;
  std::size_t sessions = 0;
  TailSummary tail;
  for (std::size_t i = 0; i < e.pass_s.size(); ++i) {
    rates.push_back(ratio(e.pass_work[i], e.pass_s[i]));
    tail = summarize(e.pass_sessions_ms[i]);
    p50s.push_back(tail.median);
    tails.push_back(tail.value);
    sessions += tail.count;
  }
  MetricSet& m = report.metrics;
  m.add("setup_s", setup, "s");
  m.add("wall_s", lowest(e.setup_s) + pass, "s");
  m.add("throughput_per_s", *std::ranges::max_element(rates), "1/s");
  m.add("session_p50_ms", lowest(p50s), "ms");
  m.add("session_p99_ms", lowest(tails), "ms");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");

  std::string line = "setup seconds:";
  for (double s : e.setup_s) line += format(" %.4f", s);
  report.notes.push_back(line);
  line = "pass seconds:";
  for (double s : e.pass_s) line += format(" %.4f", s);
  report.notes.push_back(line);
  report.notes.push_back(std::string("throughput_per_s is ") + e.unit +
                         "_per_s: " + e.unit + " per steady-pass second");
  report.notes.push_back(format(
      "sessions: %.0f in %.0f passes; per pass the tail is p%.1f with %.0f "
      "beyond",
      static_cast<double>(sessions), static_cast<double>(e.pass_s.size()),
      tail.percentile, static_cast<double>(tail.beyond)));
}

namespace {

void add_layers(Report& report, const Layers& l) {
  const SpanAggregate setup = aggregate_spans(l.setup_spans);
  const SpanAggregate steady = aggregate_spans(l.pass_spans);
  const SpanAggregate sampled = aggregate_spans(l.sampled_spans);
  const double setups = l.setups > 0 ? l.setups : 1;
  const double passes = l.passes > 0 ? l.passes : 1;
  MetricSet& m = report.metrics;

  // Set-up layers, per cold set-up.
  m.add("video.scene_s", totals(setup, "video.scene").self_s / setups, "s");
  m.add("video.encode_s", totals(setup, "video.encode").self_s / setups, "s");
  m.add("video.encode_frames",
        static_cast<double>(totals(setup, "video.encode").count) / setups,
        "count");
  m.add("video.lossless_decode_s",
        totals(setup, "video.lossless_decode").self_s / setups, "s");
  m.add("distortion.fit_s", totals(setup, "distortion.fit").self_s / setups,
        "s");
  m.add("net.packetize_s", totals(setup, "net.packetize").self_s / setups,
        "s");

  // Steady-phase layers, per pass.
  const SpanTotals& decode = totals(steady, "video.decode");
  m.add("video.decode_s", decode.self_s / passes, "s");
  m.add("video.decode_frames", static_cast<double>(decode.count) / passes,
        "count");
  m.add("video.decode_clean_prefix_share",
        ratio(static_cast<double>(decode.aux),
              static_cast<double>(decode.count)),
        "share");
  m.add("video.quality_s", totals(steady, "video.quality").self_s / passes,
        "s");
  const SpanTotals& encrypt = totals(steady, "crypto.encrypt");
  m.add("crypto.encrypt_s", encrypt.self_s / passes, "s");
  m.add("crypto.encrypt_bytes", static_cast<double>(encrypt.count) / passes,
        "bytes");
  const SpanTotals& reassemble = totals(steady, "net.reassemble");
  m.add("net.reassemble_s", reassemble.self_s / passes, "s");
  m.add("crypto.decrypt_bytes",
        static_cast<double>(reassemble.count) / passes, "bytes");
  const SpanTotals& pipeline = totals(steady, "core.pipeline");
  m.add("core.pipeline_s", pipeline.self_s / passes, "s");
  m.add("core.pipeline_packets", static_cast<double>(pipeline.count) / passes,
        "count");
  const SpanTotals& sampled_pipeline = totals(sampled, "core.pipeline");
  m.add("core.pipeline_allocs_per_packet",
        ratio(static_cast<double>(sampled_pipeline.allocs),
              static_cast<double>(sampled_pipeline.count)),
        "count");
  // Threads that recorded steady spans: the pool's workers plus a caller
  // that runs tasks while it waits in parallel_for.
  std::set<std::uint32_t> threads;
  for (const SpanRecord& s : l.pass_spans) threads.insert(s.thread);
  m.add("core.pool_busy_share",
        ratio(steady.busy_s,
              static_cast<double>(threads.size()) * l.pass_wall_s),
        "share");

  const SpanTotals& schedule = totals(steady, "cell.schedule");
  const SpanTotals& flow = totals(steady, "cell.flow");
  m.add("cell.schedule_s", schedule.self_s / passes, "s");
  m.add("cell.schedule_iterations",
        static_cast<double>(schedule.count) / passes, "count");
  m.add("cell.admitted_share",
        ratio(static_cast<double>(schedule.aux),
              static_cast<double>(flow.calls)),
        "share");
  m.add("cell.flow_run_s", flow.total_s / passes, "s");

  m.add("live.loop_s", l.live_loop_s, "s");
  m.add("live.poll_rounds", l.live_poll_rounds, "count");
  m.add("live.datagrams", l.live_datagrams, "count");
  m.add("live.send_retries", l.live_send_retries, "count");
  m.add("live.server_max_backlog", l.live_max_backlog, "count");
  m.add("live.rate_first_tenth", l.live_rate_first_tenth, "1/s");
  m.add("live.rate_last_tenth", l.live_rate_last_tenth, "1/s");
  m.add("live.allocs_per_datagram", l.live_allocs_per_datagram, "count");

  // Busy time no layer above claims (bookkeeping, clones, folds, energy),
  // so that the self-time layers plus other_s add up to the busy time.
  // cell.flow_run_s is inclusive and overlaps the layers nested in it, so
  // the flow's own self time stays here.  live.loop_s is the inclusive
  // loop, session starts included, so it claims its total.
  double claimed = totals(steady, "live.loop").total_s;
  for (const char* name :
       {"video.decode", "video.quality", "crypto.encrypt", "net.reassemble",
        "core.pipeline", "cell.schedule"}) {
    claimed += totals(steady, name).self_s;
  }
  m.add("other_s", (steady.busy_s - claimed) / passes, "s");
  m.add("trace.overhead_pct", l.overhead_pct, "%");
}

}  // namespace

void traced_setups(Layers& layers,
                   const std::function<void()>& setup) {
  for (int k = 0; k < kSetups; ++k) {
    set_tracing(true);
    setup();
    set_tracing(false);
    layers.last_setup = collect_spans();
    layers.setup_spans.insert(layers.setup_spans.end(),
                              layers.last_setup.begin(),
                              layers.last_setup.end());
    ++layers.setups;
  }
}

void traced_steady(const Options& options, Report& report, Layers& layers,
                   const std::function<PassOutput()>& library,
                   const std::function<PassOutput()>& traced,
                   const std::string& what) {
  std::vector<double> library_s;
  std::vector<double> traced_s;
  std::uint64_t expected = 0;
  until(after(layers.start, options.seconds), 2, [&](int i) {
    if (i % 2 == 0) {
      const PassOutput pass = library();
      library_s.push_back(pass.seconds);
      expected = pass.digest;
      return;
    }
    set_tracing(true);
    const PassOutput pass = traced();
    set_tracing(false);
    layers.last_pass = collect_spans();
    traced_s.push_back(pass.seconds);
    if (!what.empty()) report.check(pass.digest == expected, what);
    std::vector<SpanRecord>& all = layers.pass_spans;
    all.insert(all.end(), layers.last_pass.begin(), layers.last_pass.end());
    if (layers.passes > 0) {
      std::vector<SpanRecord>& sampled = layers.sampled_spans;
      sampled.insert(sampled.end(), layers.last_pass.begin(),
                     layers.last_pass.end());
    }
    ++layers.passes;
    layers.pass_wall_s += pass.seconds;
  });
  if (layers.sampled_spans.empty()) layers.sampled_spans = layers.pass_spans;
  layers.overhead_pct = 100.0 * (lowest(traced_s) / lowest(library_s) - 1.0);
}

void finish_traced(const Options& options, Report& report,
                   const Layers& layers) {
  add_layers(report, layers);
  if (options.spans_out.empty()) return;
  std::vector<SpanRecord> spans = layers.last_setup;
  spans.insert(spans.end(), layers.last_pass.begin(), layers.last_pass.end());
  std::ofstream out(options.spans_out);
  write_spans_csv(out, spans);
  out.flush();
  report.check(static_cast<bool>(out), "write spans to " + options.spans_out);
  report.notes.push_back("spans: " + std::to_string(spans.size()) +
                         " written to " + options.spans_out);
}

}  // namespace e2e
