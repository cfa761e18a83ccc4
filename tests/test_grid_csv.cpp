// Every grid's CSV is the flattening of its JSONL: the header equals the
// flattened JSONL keys and each CSV row equals that row's JSONL leaves.
//
// Each grid runs once through TeeSink{JsonlSink, CsvSink}; the JSONL lines
// are parsed independently here and flattened by the documented rules
// (nested key -> parent_key, statistics object -> _mean,_ci95, arrays
// omitted, null -> empty), then compared with the CSV text.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/sweep.hpp"
#include "cell/cell.hpp"
#include "cell/validation.hpp"
#include "core/sweep.hpp"
#include "sim/validation.hpp"

namespace tv {
namespace {

using Leaves = std::vector<std::pair<std::string, std::string>>;

/// Recursive-descent reader for one JSON object, flattening as it goes.
class JsonFlattener {
 public:
  explicit JsonFlattener(const std::string& text) : s_(text) {}

  Leaves flatten() {
    Leaves out;
    object("", out);
    skip_ws();
    EXPECT_EQ(pos_, s_.size()) << "trailing bytes in " << s_;
    return out;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && s_[pos_] == ' ') ++pos_;
  }
  char peek() {
    skip_ws();
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }
  void expect(char c) {
    ASSERT_EQ(peek(), c) << "at byte " << pos_ << " of " << s_;
    ++pos_;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        c = s_[pos_++];
        if (c == 'u') {
          c = static_cast<char>(std::stoi(s_.substr(pos_, 4), nullptr, 16));
          pos_ += 4;
        } else if (c == 'n') {
          c = '\n';
        }
      }
      out += c;
    }
    ++pos_;
    return out;
  }

  /// A scalar's text as the CSV renders it (null -> empty).
  std::string scalar() {
    if (peek() == '"') return string();
    const std::size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != ',' && s_[pos_] != '}' &&
           s_[pos_] != ']') {
      ++pos_;
    }
    const std::string text = s_.substr(start, pos_ - start);
    return text == "null" ? std::string{} : text;
  }

  void skip_value() {
    const char c = peek();
    if (c == '{' || c == '[') {
      ++pos_;
      const char close = c == '{' ? '}' : ']';
      while (peek() != close) {
        if (c == '{') {
          (void)string();
          expect(':');
        }
        skip_value();
        if (peek() == ',') ++pos_;
      }
      ++pos_;
    } else {
      (void)scalar();
    }
  }

  void object(const std::string& prefix, Leaves& out) {
    expect('{');
    while (peek() != '}') {
      const std::string key = prefix + string();
      expect(':');
      value(key, out);
      if (peek() == ',') ++pos_;
    }
    ++pos_;
  }

  void value(const std::string& key, Leaves& out) {
    const char c = peek();
    if (c == '[') {
      skip_value();  // arrays are not part of the CSV
    } else if (c == '{') {
      Leaves inner;
      object("", inner);
      const bool stats = inner.size() == 5 && inner[0].first == "n" &&
                         inner[1].first == "mean" &&
                         inner[2].first == "ci95" && inner[3].first == "min" &&
                         inner[4].first == "max";
      if (stats) {
        out.emplace_back(key + "_mean", inner[1].second);
        out.emplace_back(key + "_ci95", inner[2].second);
      } else {
        for (auto& [k, v] : inner) out.emplace_back(key + "_" + k, v);
      }
    } else {
      out.emplace_back(key, scalar());
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> cells(1);
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
        cells.back() += '"';
        ++i;
      } else if (c == '"') {
        quoted = false;
      } else {
        cells.back() += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      cells.emplace_back();
    } else {
      cells.back() += c;
    }
  }
  return cells;
}

/// JSON cannot tell an empty statistic (null) from any other null; where
/// the header expands the key into _mean/_ci95, expand the leaf too.
Leaves align_null_stats(const Leaves& leaves,
                        const std::vector<std::string>& header) {
  Leaves out;
  for (const auto& [key, value] : leaves) {
    const std::size_t i = out.size();
    if (value.empty() && i + 1 < header.size() && header[i] != key &&
        header[i] == key + "_mean" && header[i + 1] == key + "_ci95") {
      out.emplace_back(key + "_mean", "");
      out.emplace_back(key + "_ci95", "");
    } else {
      out.emplace_back(key, value);
    }
  }
  return out;
}

template <class Sink, class Runner>
void expect_csv_flattens_jsonl(Runner& runner,
                               const typename Sink::spec_type& spec) {
  using Spec = typename Sink::spec_type;
  using Row = typename Sink::row_type;
  std::ostringstream jsonl_out, csv_out;
  util::JsonlSink<Spec, Row> jsonl{jsonl_out};
  util::CsvSink<Spec, Row> csv{csv_out};
  util::TeeSink<Spec, Row> tee;
  tee.add(&jsonl);
  tee.add(&csv);
  (void)runner.run(spec, tee);

  std::istringstream jsonl_lines{jsonl_out.str()};
  std::istringstream csv_lines{csv_out.str()};
  std::string header_line;
  ASSERT_TRUE(std::getline(csv_lines, header_line));
  const std::vector<std::string> header = split_csv(header_line);

  std::string json_line, csv_line;
  std::size_t rows = 0;
  while (std::getline(jsonl_lines, json_line)) {
    ASSERT_TRUE(std::getline(csv_lines, csv_line)) << "CSV is short a row";
    const Leaves leaves =
        align_null_stats(JsonFlattener{json_line}.flatten(), header);
    std::vector<std::string> keys, values;
    for (const auto& [k, v] : leaves) {
      keys.push_back(k);
      values.push_back(v);
    }
    EXPECT_EQ(keys, header) << "row " << rows;
    EXPECT_EQ(values, split_csv(csv_line)) << "row " << rows;
    ++rows;
  }
  EXPECT_GT(rows, 0u);
  EXPECT_FALSE(std::getline(csv_lines, csv_line)) << "CSV has extra rows";
}

TEST(GridCsv, SweepCsvFlattensItsJsonl) {
  core::SweepSpec spec;
  spec.gop_sizes = {10};
  spec.frames = 20;
  spec.repetitions = 2;
  spec.policies = {{policy::Mode::kNone, crypto::Algorithm::kAes256, 0.0},
                   {policy::Mode::kIFrames, crypto::Algorithm::kAes256, 0.0}};
  core::SweepRunner runner;
  expect_csv_flattens_jsonl<core::ResultSink>(runner, spec);
  spec.collect_stage_stats = true;
  spec.evaluate_quality = false;
  expect_csv_flattens_jsonl<core::ResultSink>(runner, spec);
}

TEST(GridCsv, CapacityCsvFlattensItsJsonl) {
  cell::CapacitySpec spec;
  spec.flow_counts = {1, 3};
  spec.base.gop_sizes = {5};
  spec.base.frames = 10;
  spec.base.repetitions = 2;
  spec.base.deadlines_s = {0.0, 1.0};
  spec.base.evaluate_quality = false;
  cell::CellRunner runner;
  expect_csv_flattens_jsonl<cell::CellSink>(runner, spec);
}

TEST(GridCsv, ModelValidationCsvFlattensItsJsonl) {
  sim::ValidationSpec spec;
  spec.lambda1s = {2400.0};
  spec.lambda2s = {160.0};
  spec.events = 4000;
  spec.warmup = 400;
  spec.batches = 10;
  spec.eavesdropper_repetitions = 10;
  sim::ValidationRunner runner;
  expect_csv_flattens_jsonl<sim::ValidationSink>(runner, spec);
}

TEST(GridCsv, CellValidationCsvFlattensItsJsonl) {
  cell::CellValidationSpec spec;
  spec.contenders = {2, 3};
  spec.cw_mins = {16};
  spec.stage_counts = {6};
  spec.slots = 4000;
  spec.warmup = 400;
  cell::CellValidationRunner runner;
  expect_csv_flattens_jsonl<cell::CellValidationSink>(runner, spec);
}

TEST(GridCsv, LeakageCsvFlattensItsJsonl) {
  analysis::LeakageSpec spec;
  spec.frames = 16;
  spec.gop_size = 8;
  spec.policies = {
      policy::policy_from_string("I", crypto::Algorithm::kAes128)};
  spec.shapings = {policy::ShapingPolicy{},
                   policy::shaping_from_string("pad64+hidemark")};
  analysis::LeakageRunner runner;
  expect_csv_flattens_jsonl<analysis::LeakageSink>(runner, spec);
}

}  // namespace
}  // namespace tv
