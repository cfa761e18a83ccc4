// Summary statistics and the result line of the end-to-end benchmark.
//
// Timings are summarized as a median plus the highest percentile that
// still has at least ten samples beyond it, always with the sample count,
// so a tail figure is never read off a handful of points.  Metrics carry
// a name and a unit and are printed as one JSON object on the last line
// of standard output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

/// Median (mean of the two middle values for an even count).  Throws
/// std::invalid_argument on an empty sample.
[[nodiscard]] double median(std::vector<double> samples);

/// Nearest-rank percentile `p` in (0, 100] of a non-empty sample.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// Samples strictly above rank ceil(p/100 * n) — those beyond percentile p.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

struct TailSummary {
  std::size_t count = 0;
  double median = 0.0;
  /// Highest of {99.9, 99, 95, 90, 75, 50} with at least `min_beyond`
  /// samples beyond it; 100 (the maximum) when no candidate qualifies.
  double percentile = 100.0;
  double value = 0.0;       ///< the sample at `percentile`.
  std::size_t beyond = 0;   ///< samples beyond it.
};

[[nodiscard]] TailSummary summarize(const std::vector<double>& samples,
                                    std::size_t min_beyond = 10);

/// Metric names BENCHMARK.json allows: 1-64 of [A-Za-z0-9_.-], starting
/// with a letter or digit.
[[nodiscard]] bool valid_metric_name(std::string_view name);
/// Units: 1-16 of [A-Za-z0-9_/%.-].
[[nodiscard]] bool valid_unit(std::string_view unit);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered, name-checked metric list.  add() throws std::invalid_argument
/// on a bad name or unit, or on a name already present.
class MetricSet {
 public:
  void add(std::string name, double value, std::string unit);
  [[nodiscard]] const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":v,"unit":u},...}} with every value at %.17g.
/// A non-finite value is written as 0 and forces "correct": false.
[[nodiscard]] std::string result_json(bool correct, std::size_t attempted,
                                      std::size_t failed,
                                      const MetricSet& metrics);

/// 64-bit FNV-1a, the digest the output checks compare against.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes,
                                    std::uint64_t state = kFnvOffset);

/// An output stream that keeps only the FNV-1a digest of what is written,
/// so a large JSONL rendering is checked without being held in memory.
class DigestStream : public std::ostream {
 public:
  DigestStream() : std::ostream(&buf_) {}
  [[nodiscard]] std::uint64_t digest() const { return buf_.state; }

 private:
  struct Buf : std::streambuf {
    std::uint64_t state = kFnvOffset;
    int_type overflow(int_type c) override;
    std::streamsize xsputn(const char* s, std::streamsize n) override;
  };
  Buf buf_;
};

}  // namespace e2e
