// In-memory span recorder for the benchmark's traced pass.
//
// A span is (id, parent, name, start, end) recorded around one call into
// a library layer, plus the heap allocations made on its thread while it
// was open and up to two work counts (frames, bytes, packets...).  Spans
// stay in per-thread buffers until collect(); nothing is written while
// the traced work runs.  With tracing off a Span is one branch.
//
// Busy time: a layer's self time is its span's duration minus the time
// spans nested inside it *on the same thread* were open.  Spans of kind
// kWait (a pass, a cell, an experiment that fans work out to the pool)
// may block, so their self time is waiting and is never counted as busy.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace e2e {

enum class SpanKind : std::uint8_t { kWork, kWait };

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root.
  const char* name = "";     ///< string literal.
  SpanKind kind = SpanKind::kWork;
  std::uint32_t thread = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t allocs = 0;  ///< heap allocations on this thread, inclusive.
  std::uint64_t count = 0;   ///< primary work count (layer-specific).
  std::uint64_t aux = 0;     ///< secondary work count (layer-specific).
};

/// Turn recording on or off process-wide (off by default).  Switch only
/// while no span is open.
void set_tracing(bool on);

/// Take every finished span from every thread's buffer.  Call only while
/// no traced work is running (after the pool's parallel_for returned).
[[nodiscard]] std::vector<SpanRecord> collect_spans();

class Span {
 public:
  static constexpr std::uint64_t kInherit = ~std::uint64_t{0};

  explicit Span(const char* name, SpanKind kind = SpanKind::kWork,
                std::uint64_t parent = kInherit);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void add_count(std::uint64_t n) { count_ += n; }
  void add_aux(std::uint64_t n) { aux_ += n; }
  [[nodiscard]] std::uint64_t id() const { return record_.id; }

 private:
  SpanRecord record_;
  std::uint64_t count_ = 0;
  std::uint64_t aux_ = 0;
  bool active_ = false;
};

/// Per-name totals over a set of spans.
struct SpanTotals {
  std::uint64_t calls = 0;
  double total_s = 0.0;  ///< summed durations (inclusive).
  double self_s = 0.0;   ///< summed same-thread self time.
  std::uint64_t allocs = 0;
  std::uint64_t count = 0;
  std::uint64_t aux = 0;
};

struct SpanAggregate {
  std::map<std::string, SpanTotals> by_name;
  double busy_s = 0.0;  ///< self time summed over kWork spans.
};

[[nodiscard]] SpanAggregate aggregate_spans(
    const std::vector<SpanRecord>& spans);

/// One CSV row per span: id,parent,name,kind,thread,start_ns,end_ns,
/// allocs,count,aux (times relative to the first span's start).
void write_spans_csv(std::ostream& out, const std::vector<SpanRecord>& spans);

}  // namespace e2e
