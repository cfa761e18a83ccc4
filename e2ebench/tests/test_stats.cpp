// Tests of the benchmark's own summary statistics and result line.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // n, n-1, ..., 1: unsorted on purpose.
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(e2e::median({3.0}), 3.0);
  EXPECT_DOUBLE_EQ(e2e::median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(e2e::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW((void)e2e::median({}), std::invalid_argument);
}

TEST(Percentile, NearestRank) {
  const std::vector<double> v = ramp(100);
  EXPECT_DOUBLE_EQ(e2e::percentile(v, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(e2e::percentile(v, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(e2e::percentile(v, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(e2e::percentile({7.0}, 99.0), 7.0);
  EXPECT_THROW((void)e2e::percentile(v, 0.0), std::invalid_argument);
  EXPECT_THROW((void)e2e::percentile({}, 50.0), std::invalid_argument);
}

TEST(SamplesBeyond, CountsSamplesPastTheRank) {
  EXPECT_EQ(e2e::samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(e2e::samples_beyond(999, 99.0), 9u);
  EXPECT_EQ(e2e::samples_beyond(100, 90.0), 10u);
  EXPECT_EQ(e2e::samples_beyond(0, 50.0), 0u);
}

TEST(Summarize, PicksHighestPercentileWithTenBeyond) {
  const e2e::TailSummary big = e2e::summarize(ramp(1000));
  EXPECT_EQ(big.count, 1000u);
  EXPECT_DOUBLE_EQ(big.percentile, 99.0);
  EXPECT_DOUBLE_EQ(big.value, 990.0);
  EXPECT_EQ(big.beyond, 10u);
  EXPECT_DOUBLE_EQ(big.median, 500.5);

  const e2e::TailSummary mid = e2e::summarize(ramp(999));
  EXPECT_DOUBLE_EQ(mid.percentile, 95.0);  // p99 has only 9 beyond.
  EXPECT_GE(mid.beyond, 10u);

  const e2e::TailSummary p999 = e2e::summarize(ramp(10000));
  EXPECT_DOUBLE_EQ(p999.percentile, 99.9);
  EXPECT_EQ(p999.beyond, 10u);
}

TEST(Summarize, FallsBackToMaximumOnFewSamples) {
  const e2e::TailSummary s = e2e::summarize({2.0, 9.0, 4.0});
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.percentile, 100.0);
  EXPECT_DOUBLE_EQ(s.value, 9.0);
  EXPECT_EQ(s.beyond, 0u);
  EXPECT_DOUBLE_EQ(s.median, 4.0);

  const e2e::TailSummary twenty = e2e::summarize(ramp(20));
  EXPECT_DOUBLE_EQ(twenty.percentile, 50.0);
  EXPECT_EQ(twenty.beyond, 10u);
}

TEST(MetricNames, AcceptsTheNameAlphabet) {
  EXPECT_TRUE(e2e::valid_metric_name("setup_s"));
  EXPECT_TRUE(e2e::valid_metric_name("video.decode_clean_prefix_share"));
  EXPECT_TRUE(e2e::valid_metric_name("a-b.c_9"));
  EXPECT_TRUE(e2e::valid_metric_name("9lives"));
  EXPECT_TRUE(e2e::valid_metric_name(std::string(64, 'x')));
}

TEST(MetricNames, RejectsEverythingElse) {
  EXPECT_FALSE(e2e::valid_metric_name(""));
  EXPECT_FALSE(e2e::valid_metric_name(std::string(65, 'x')));
  EXPECT_FALSE(e2e::valid_metric_name("_lead"));
  EXPECT_FALSE(e2e::valid_metric_name(".lead"));
  EXPECT_FALSE(e2e::valid_metric_name("has space"));
  EXPECT_FALSE(e2e::valid_metric_name("slash/name"));
  EXPECT_FALSE(e2e::valid_metric_name("quote\""));
}

TEST(Units, AcceptsRatesAndPercent) {
  EXPECT_TRUE(e2e::valid_unit("1/s"));
  EXPECT_TRUE(e2e::valid_unit("%"));
  EXPECT_TRUE(e2e::valid_unit("MB"));
  EXPECT_FALSE(e2e::valid_unit(""));
  EXPECT_FALSE(e2e::valid_unit("per second!"));
  EXPECT_FALSE(e2e::valid_unit(std::string(17, 's')));
}

TEST(MetricSet, RejectsBadAndDuplicateNames) {
  e2e::MetricSet m;
  m.add("wall_s", 1.5, "s");
  EXPECT_THROW(m.add("wall_s", 2.0, "s"), std::invalid_argument);
  EXPECT_THROW(m.add("bad name", 2.0, "s"), std::invalid_argument);
  EXPECT_THROW(m.add("ok", 2.0, "bad unit"), std::invalid_argument);
  ASSERT_EQ(m.items().size(), 1u);
  EXPECT_EQ(m.items()[0].name, "wall_s");
}

TEST(ResultJson, KeepsAllDigitsAndFlagsNonFinite) {
  e2e::MetricSet m;
  m.add("latency_ms", 0.1, "ms");
  const std::string ok = e2e::result_json(true, 10, 0, m);
  EXPECT_EQ(ok,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 0.10000000000000001, "
            "\"unit\": \"ms\"}}}");
  m.add("bad", 1.0 / 0.0, "s");
  const std::string bad = e2e::result_json(true, 1, 0, m);
  EXPECT_NE(bad.find("\"correct\": false"), std::string::npos);
}

TEST(DigestStream, MatchesDigestOfTheWholeString) {
  e2e::DigestStream out;
  out << "{\"flows\":" << 1000 << ",\"p\":" << 0.25 << "}\n";
  EXPECT_EQ(out.digest(), e2e::fnv1a64("{\"flows\":1000,\"p\":0.25}\n"));
  EXPECT_EQ(e2e::DigestStream{}.digest(), e2e::fnv1a64(""));
  EXPECT_NE(e2e::fnv1a64("a"), e2e::fnv1a64("b"));
}

TEST(Spans, SelfTimeSubtractsSameThreadChildren) {
  using e2e::SpanKind;
  using e2e::SpanRecord;
  std::vector<SpanRecord> spans(3);
  spans[0] = {1, 0, "outer", SpanKind::kWait, 0, 0, 1000, 0, 0, 0};
  spans[1] = {2, 1, "inner", SpanKind::kWork, 0, 100, 400, 0, 5, 2};
  spans[2] = {3, 1, "other_thread", SpanKind::kWork, 1, 100, 900, 0, 0, 0};
  const e2e::SpanAggregate agg = e2e::aggregate_spans(spans);
  EXPECT_NEAR(agg.by_name.at("outer").self_s, 700e-9, 1e-15);
  EXPECT_NEAR(agg.by_name.at("inner").self_s, 300e-9, 1e-15);
  EXPECT_NEAR(agg.by_name.at("other_thread").self_s, 800e-9, 1e-15);
  EXPECT_EQ(agg.by_name.at("inner").count, 5u);
  EXPECT_EQ(agg.by_name.at("inner").aux, 2u);
  // Wait spans never count as busy.
  EXPECT_NEAR(agg.busy_s, 1100e-9, 1e-15);
}

TEST(Spans, RecordsOnlyWhileTracing) {
  e2e::set_tracing(false);
  { e2e::Span ignored("off"); }
  EXPECT_TRUE(e2e::collect_spans().empty());
  e2e::set_tracing(true);
  {
    e2e::Span outer("outer", e2e::SpanKind::kWait);
    e2e::Span inner("inner");
    inner.add_count(3);
  }
  e2e::set_tracing(false);
  const auto spans = e2e::collect_spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_STREQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].parent, spans[1].id);
  EXPECT_EQ(spans[0].count, 3u);
  EXPECT_EQ(spans[1].parent, 0u);
}

}  // namespace
