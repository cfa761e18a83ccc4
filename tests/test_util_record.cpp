#include "util/record.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/sink.hpp"

namespace tv::util {
namespace {

std::string to_json(const Record& r) {
  std::ostringstream out;
  write_json(out, r);
  return out.str();
}

RunningStats stats_of(std::initializer_list<double> xs) {
  RunningStats s;
  for (double x : xs) s.add(x);
  return s;
}

TEST(Record, RendersScalarsInFieldOrder) {
  Record r;
  r.add("z", 1).add("a", "x").add("b", true).add("n", Value{});
  EXPECT_EQ(to_json(r), R"({"z":1,"a":"x","b":true,"n":null})");
}

TEST(Record, IntegersKeepTheirFullRange) {
  Record r;
  r.add("neg", -7)
      .add("max", std::numeric_limits<std::uint64_t>::max())
      .add("size", std::size_t{42});
  EXPECT_EQ(to_json(r), R"({"neg":-7,"max":18446744073709551615,"size":42})");
}

TEST(Record, DoublesPrintAtFullPrecision) {
  Record r;
  r.add("tenth", 0.1).add("two", 2.0).add("tiny", 1e-300);
  EXPECT_EQ(to_json(r),
            R"({"tenth":0.10000000000000001,"two":2,"tiny":1e-300})");
}

TEST(Record, NonFiniteDoublesAreNull) {
  Record r;
  r.add("inf", std::numeric_limits<double>::infinity())
      .add("ninf", -std::numeric_limits<double>::infinity())
      .add("nan", std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(to_json(r), R"({"inf":null,"ninf":null,"nan":null})");
  const CsvRow csv = flatten_csv(r);
  EXPECT_EQ(csv.cells, (std::vector<std::string>{"", "", ""}));
}

TEST(Record, EscapesStrings) {
  EXPECT_EQ(json_escape("plain I+20P"), "plain I+20P");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak\t\x01"), "line\\u000abreak\\u0009\\u0001");
  Record r;
  r.add("s", "say \"hi\"");
  EXPECT_EQ(to_json(r), R"({"s":"say \"hi\""})");
}

TEST(Record, StatsRenderAsObjectOrNull) {
  Record r;
  r.add("empty", RunningStats{}).add("one", stats_of({2.5}));
  EXPECT_EQ(to_json(r), R"({"empty":null,"one":{"n":1,"mean":2.5,)"
                        R"("ci95":0,"min":2.5,"max":2.5}})");
}

TEST(Record, NestsRecordsAndArrays) {
  Record inner;
  inner.add("k", 1);
  Record r;
  r.add("inner", std::move(inner))
      .add("list", Value::Array{1, "two", Value::Array{3.5}});
  EXPECT_EQ(to_json(r), R"({"inner":{"k":1},"list":[1,"two",[3.5]]})");
}

TEST(Record, LazyArraysRenderLikeArrays) {
  const std::size_t n = 1000;
  Value::Array eager;
  for (std::size_t i = 0; i < n; ++i) eager.push_back(fmt("item-%zu", i));
  Record a;
  a.add("list", eager);
  Record b;
  b.add("list", Value::Lazy{n, [](std::size_t i) -> Value {
                              return fmt("item-%zu", i);
                            }});
  EXPECT_EQ(to_json(b), to_json(a));
  EXPECT_TRUE(flatten_csv(b).keys.empty());
}

TEST(Record, CsvFlattensNestedKeysStatsAndSkipsArrays) {
  Record counters;
  counters.add("drops", 3);
  Record r;
  r.add("cell", 0)
      .add("counters", std::move(counters))
      .add("delay_ms", stats_of({1.0, 3.0}))
      .add("psnr_db", RunningStats{})
      .add("detail", Value::Array{1, 2})
      .add("ok", false)
      .add("policy", "a,b");
  const CsvRow csv = flatten_csv(r);
  EXPECT_EQ(csv.keys,
            (std::vector<std::string>{"cell", "counters_drops", "delay_ms_mean",
                                      "delay_ms_ci95", "psnr_db_mean",
                                      "psnr_db_ci95", "ok", "policy"}));
  const RunningStats delay = stats_of({1.0, 3.0});
  EXPECT_EQ(csv.cells,
            (std::vector<std::string>{"0", "3", "2",
                                      fmt("%.17g", delay.ci95_halfwidth()), "",
                                      "", "false", "\"a,b\""}));
}

TEST(Record, FmtHandlesLongOutput) {
  const std::string long_arg(1000, 'x');
  EXPECT_EQ(fmt("<%s>", long_arg.c_str()), "<" + long_arg + ">");
  EXPECT_EQ(fmt("%d/%d", 3, 4), "3/4");
}

// A two-row grid whose rows can disagree on their keys.
struct ToySpec {};
struct ToyRow {
  int id = 0;
  bool extra = false;
};

Record to_record(const ToyRow& row) {
  Record r;
  r.add("id", row.id);
  if (row.extra) r.add("extra", 1.5);
  return r;
}

TEST(RecordSinks, CsvWritesHeaderOnceAndRejectsKeyDrift) {
  std::ostringstream out;
  CsvSink<ToySpec, ToyRow> csv{out};
  csv.begin(ToySpec{});
  csv.cell(ToyRow{1, false});
  csv.cell(ToyRow{2, false});
  EXPECT_EQ(out.str(), "id\n1\n2\n");
  EXPECT_THROW(csv.cell(ToyRow{3, true}), std::logic_error);
}

TEST(RecordSinks, TeeFansOutToJsonlAndCollect) {
  std::ostringstream out;
  JsonlSink<ToySpec, ToyRow> jsonl{out};
  CollectSink<ToySpec, ToyRow> collect;
  TeeSink<ToySpec, ToyRow> tee;
  tee.add(&jsonl);
  tee.add(nullptr);  // ignored
  tee.add(&collect);
  tee.begin(ToySpec{});
  tee.cell(ToyRow{7, true});
  tee.end();
  EXPECT_EQ(out.str(), "{\"id\":7,\"extra\":1.5}\n");
  ASSERT_EQ(collect.results.size(), 1u);
  EXPECT_EQ(collect.results[0].id, 7);
}

}  // namespace
}  // namespace tv::util
