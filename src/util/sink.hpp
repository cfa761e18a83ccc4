// The one sink set shared by every grid engine (sweep, cell capacity,
// model validation, cell validation, leakage).
//
// A grid runner streams its rows through a Sink<Spec, Row> strictly in row
// order, so sinks need no locking and their output is deterministic.  The
// concrete sinks are generic; a grid supplies, in its own namespace (found
// by argument-dependent lookup):
//   * `util::Record to_record(const Row&)` — the JSONL/CSV field order;
//   * `void table_header(std::ostream&, const Spec&)` and
//     `void table_row(std::ostream&, const Spec&, const Row&)` — the
//     human-readable table.
#pragma once

#include <chrono>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/record.hpp"
#include "util/thread_pool.hpp"

namespace tv::util {

/// Consumer of a grid's rows; begin/end bracket one run.
template <class Spec, class Row>
class Sink {
 public:
  using spec_type = Spec;
  using row_type = Row;

  virtual ~Sink() = default;
  virtual void begin(const Spec& /*spec*/) {}
  virtual void cell(const Row& row) = 0;
  virtual void end() {}
};

/// Human-readable aligned table through the grid's printers.
template <class Spec, class Row>
class TableSink : public Sink<Spec, Row> {
 public:
  explicit TableSink(std::ostream& out) : out_(out) {}
  void begin(const Spec& spec) override {
    spec_ = &spec;
    table_header(out_, spec);
  }
  void cell(const Row& row) override { table_row(out_, *spec_, row); }

 private:
  std::ostream& out_;
  const Spec* spec_ = nullptr;
};

/// One JSON object per row per line.
template <class Spec, class Row>
class JsonlSink : public Sink<Spec, Row> {
 public:
  explicit JsonlSink(std::ostream& out) : out_(out) {}
  void cell(const Row& row) override {
    write_json(out_, to_record(row));
    out_ << '\n';
  }

 private:
  std::ostream& out_;
};

/// CSV of the flattened record.  Each run's header comes from its first
/// row; a row whose flattened keys differ from it throws std::logic_error.
template <class Spec, class Row>
class CsvSink : public Sink<Spec, Row> {
 public:
  explicit CsvSink(std::ostream& out) : out_(out) {}
  void begin(const Spec& /*spec*/) override { header_.clear(); }
  void cell(const Row& row) override {
    const CsvRow csv = flatten_csv(to_record(row));
    if (header_.empty()) {
      header_ = csv.keys;
      write_line(header_);
    } else if (csv.keys != header_) {
      throw std::logic_error{"CsvSink: row keys differ from the header"};
    }
    write_line(csv.cells);
  }

 private:
  void write_line(const std::vector<std::string>& items) {
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i > 0) out_ << ',';
      out_ << items[i];
    }
    out_ << '\n';
  }

  std::ostream& out_;
  std::vector<std::string> header_;
};

/// In-memory sink for programmatic consumers (benches, tests).
template <class Spec, class Row>
class CollectSink : public Sink<Spec, Row> {
 public:
  void cell(const Row& row) override { results.push_back(row); }
  std::vector<Row> results;
};

/// Fans one row stream out to several sinks, in the order added.
template <class Spec, class Row>
class TeeSink : public Sink<Spec, Row> {
 public:
  void add(Sink<Spec, Row>* sink) {
    if (sink != nullptr) sinks_.push_back(sink);
  }
  void begin(const Spec& spec) override {
    for (auto* s : sinks_) s->begin(spec);
  }
  void cell(const Row& row) override {
    for (auto* s : sinks_) s->cell(row);
  }
  void end() override {
    for (auto* s : sinks_) s->end();
  }

 private:
  std::vector<Sink<Spec, Row>*> sinks_;
};

/// What one grid run did.  The validation grids also tally their checks.
struct GridSummary {
  std::size_t cells = 0;      ///< rows streamed.
  std::size_t workloads = 0;  ///< distinct workloads built (cached grids).
  std::size_t passed_cells = 0;
  std::size_t failed_checks = 0;
  unsigned threads = 1;
  double wall_s = 0.0;
  [[nodiscard]] bool all_passed() const { return passed_cells == cells; }
};

/// Streams a grid of n rows into `sink`: begin, the rows run(i) produces in
/// index order (computed on `pool` when given; see run_ordered), end.
/// `seen(row)` observes each row before the sink does.  Records the row
/// count, pool size and wall time in `summary`.
template <class Spec, class Row, class Run,
          class Seen = void (*)(const Row&)>
void stream_grid(ThreadPool* pool, const Spec& spec, std::size_t n, Run&& run,
                 Sink<Spec, Row>& sink, GridSummary& summary,
                 Seen&& seen = [](const Row&) {}) {
  const auto t0 = std::chrono::steady_clock::now();
  sink.begin(spec);
  run_ordered(pool, n, run, [&](const Row& row) {
    seen(row);
    sink.cell(row);
  });
  sink.end();
  summary.cells = n;
  summary.threads = pool != nullptr ? pool->thread_count() : 1;
  summary.wall_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
}

}  // namespace tv::util
