// Unit tests for the observability subsystem: log-level filtering, the text
// sink's format, counter/gauge/histogram semantics, quantile extraction, JSON
// export, and span nesting.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>
#include <sstream>
#include <thread>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cloudrtt::obs {
namespace {

/// Redirect the global logger into a string for the duration of one test and
/// restore the stderr sink afterwards.
class CaptureLog {
 public:
  explicit CaptureLog(Level level) {
    Logger& logger = Logger::global();
    previous_level_ = logger.level();
    logger.clear_sinks();
    logger.add_sink(std::make_unique<TextSink>(stream_));
    logger.set_level(level);
  }
  ~CaptureLog() {
    Logger& logger = Logger::global();
    logger.clear_sinks();
    logger.add_sink(std::make_unique<TextSink>(std::cerr));
    logger.set_level(previous_level_);
  }
  [[nodiscard]] std::string text() const { return stream_.str(); }

 private:
  std::ostringstream stream_;
  Level previous_level_ = Level::Warn;
};

TEST(LogLevel, ParseAndPrint) {
  EXPECT_EQ(level_from_string("info"), Level::Info);
  EXPECT_EQ(level_from_string("WARN"), Level::Warn);
  EXPECT_EQ(level_from_string("Trace"), Level::Trace);
  EXPECT_EQ(level_from_string("off"), Level::Off);
  EXPECT_FALSE(level_from_string("loud").has_value());
  EXPECT_EQ(to_string(Level::Debug), "debug");
  EXPECT_EQ(to_string(Level::Error), "error");
}

TEST(LogLevel, FilteringIsByThreshold) {
  CaptureLog capture{Level::Warn};
  CLOUDRTT_LOG_DEBUG("dropped.debug");
  CLOUDRTT_LOG_INFO("dropped.info", {"k", 1});
  CLOUDRTT_LOG_WARN("kept.warn");
  CLOUDRTT_LOG_ERROR("kept.error", {"code", 7});
  const std::string out = capture.text();
  EXPECT_EQ(out.find("dropped"), std::string::npos);
  EXPECT_NE(out.find("kept.warn"), std::string::npos);
  EXPECT_NE(out.find("kept.error code=7"), std::string::npos);
}

TEST(LogLevel, OffSilencesEverything) {
  CaptureLog capture{Level::Off};
  CLOUDRTT_LOG_ERROR("nope");
  EXPECT_TRUE(capture.text().empty());
}

TEST(LogLevel, DisabledStatementDoesNotEvaluateFields) {
  CaptureLog capture{Level::Error};
  int evaluations = 0;
  const auto count = [&evaluations] {
    ++evaluations;
    return 1;
  };
  CLOUDRTT_LOG_DEBUG("dropped", {"v", count()});
  EXPECT_EQ(evaluations, 0);
  CLOUDRTT_LOG_ERROR("kept", {"v", count()});
  EXPECT_EQ(evaluations, 1);
}

TEST(TextSinkTest, FormatsFields) {
  CaptureLog capture{Level::Info};
  CLOUDRTT_LOG_INFO("campaign.day", {"day", 3}, {"country", "DE"},
                    {"ratio", 0.25}, {"done", true});
  const std::string out = capture.text();
  EXPECT_NE(out.find("[info ] campaign.day"), std::string::npos);
  EXPECT_NE(out.find("day=3"), std::string::npos);
  EXPECT_NE(out.find("country=DE"), std::string::npos);
  EXPECT_NE(out.find("ratio=0.25"), std::string::npos);
  EXPECT_NE(out.find("done=true"), std::string::npos);
}

TEST(CounterTest, IncrementAndReset) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.inc();
  counter.inc(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(CounterTest, ConcurrentIncrementsDoNotLoseCounts) {
  Counter counter;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  gauge.set(10.0);
  gauge.add(2.5);
  gauge.add(-5.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 7.5);
  gauge.reset();
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
}

TEST(HistogramTest, CountSumMaxMean) {
  Histogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.5), 0.0);
  for (const double v : {1.0, 2.0, 3.0, 4.0}) histogram.record(v);
  EXPECT_EQ(histogram.count(), 4u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 10.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 4.0);
  EXPECT_DOUBLE_EQ(histogram.mean(), 2.5);
}

TEST(HistogramTest, QuantilesOnUniformDistribution) {
  Histogram histogram;
  for (int i = 1; i <= 10000; ++i) histogram.record(static_cast<double>(i));
  // Buckets are geometric with 4 per octave => ~9% max relative error, plus
  // interpolation error; allow 20%.
  EXPECT_NEAR(histogram.quantile(0.50), 5000.0, 1000.0);
  EXPECT_NEAR(histogram.quantile(0.90), 9000.0, 1800.0);
  EXPECT_NEAR(histogram.quantile(0.99), 9900.0, 1980.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(1.0), 10000.0);
  EXPECT_LE(histogram.quantile(0.999), histogram.max());
}

TEST(HistogramTest, QuantilesOnPointMass) {
  Histogram histogram;
  for (int i = 0; i < 1000; ++i) histogram.record(50.0);
  for (const double q : {0.01, 0.5, 0.99}) {
    EXPECT_NEAR(histogram.quantile(q), 50.0, 50.0 * 0.2) << q;
  }
  EXPECT_DOUBLE_EQ(histogram.max(), 50.0);
}

TEST(HistogramTest, ExtremeValuesClampIntoRange) {
  Histogram histogram;
  histogram.record(0.0);        // non-positive -> lowest bucket
  histogram.record(-3.0);
  histogram.record(1e300);      // beyond the top bucket
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_DOUBLE_EQ(histogram.max(), 1e300);
  EXPECT_GE(histogram.quantile(0.99), 0.0);
}

TEST(HistogramQuantileTest, SingleSampleIsExact) {
  Histogram histogram;
  histogram.record(42.0);
  // The log-bucketed histogram cannot invent precision it doesn't have, but
  // with one sample every quantile IS that sample (previously the geometric
  // bucket midpoint under-reported it by up to ~9%).
  EXPECT_DOUBLE_EQ(histogram.quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(1.0), 42.0);
}

TEST(HistogramQuantileTest, SmallCountsStayInsideTheSampleRange) {
  Histogram histogram;
  histogram.record(10.0);
  histogram.record(1000.0);
  // Two samples: p50 resolves inside the lower sample's bucket (log buckets
  // are ~19% wide, so the bound is loose but must bracket the sample)...
  EXPECT_GE(histogram.quantile(0.5), 10.0 * 0.99);
  EXPECT_LE(histogram.quantile(0.5), 10.0 * 1.20);
  // ...and the extreme quantiles never escape the recorded range.
  EXPECT_LE(histogram.quantile(1.0), 1000.0);
  EXPECT_GE(histogram.quantile(0.0), 10.0 * 0.80);
  // Empty histogram: a defined zero, not NaN.
  EXPECT_DOUBLE_EQ(Histogram{}.quantile(0.5), 0.0);
}

// Samples tallied in plain integers and merged read back as recorded ones:
// same count, max and bucket quantiles, however they are split among
// tallies. An empty tally adds nothing.
TEST(HistogramTest, MergedTalliesEqualRecordedSamples) {
  Histogram recorded;
  Histogram merged;
  std::array<Histogram::Tally, 3> tallies;
  for (int i = 0; i < 3000; ++i) {
    const double value = 0.01 * static_cast<double>((i * 7919) % 100000);
    recorded.record(value);
    tallies[static_cast<std::size_t>(i) % tallies.size()].record(value);
  }
  recorded.record(-1.0);
  tallies[0].record(-1.0);
  for (const Histogram::Tally& tally : tallies) merged.merge(tally);
  merged.merge(Histogram::Tally{});
  EXPECT_EQ(merged.count(), recorded.count());
  EXPECT_EQ(merged.max(), recorded.max());
  EXPECT_NEAR(merged.sum(), recorded.sum(), 1e-9 * recorded.sum());
  for (const double q : {0.0, 0.01, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(merged.quantile(q), recorded.quantile(q)) << q;
  }
}

TEST(RegistryTest, FindOrCreateReturnsStableReferences) {
  Registry registry;
  Counter& a = registry.counter("x.total");
  Counter& b = registry.counter("x.total");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  // Creating more metrics must not invalidate earlier references.
  for (int i = 0; i < 100; ++i) {
    (void)registry.counter("filler." + std::to_string(i));
  }
  EXPECT_EQ(registry.counter("x.total").value(), 3u);
  Gauge& gauge = registry.gauge("x.gauge");
  Histogram& histogram = registry.histogram("x.hist");
  EXPECT_EQ(&gauge, &registry.gauge("x.gauge"));
  EXPECT_EQ(&histogram, &registry.histogram("x.hist"));
}

TEST(RegistryTest, JsonExportContainsEverything) {
  Registry registry;
  registry.counter("campaign.tasks_total").inc(7);
  registry.gauge("fleet.probes").set(123.0);
  registry.histogram("rtt_ms").record(10.0);
  std::ostringstream out;
  registry.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"campaign.tasks_total\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"fleet.probes\": 123"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(RegistryTest, ResetValuesKeepsRegistrations) {
  Registry registry;
  Counter& counter = registry.counter("c");
  counter.inc(9);
  registry.histogram("h").record(1.0);
  registry.reset_values();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(registry.histogram("h").count(), 0u);
  EXPECT_EQ(&counter, &registry.counter("c"));
}

TEST(SpanTest, NestingBuildsATree) {
  SpanTracker& tracker = SpanTracker::global();
  tracker.reset();
  {
    Span outer = span("study.run");
    {
      Span inner = span("campaign");
      Span deepest = span("day");
    }
    {
      Span sibling = span("resolver");
    }
  }
  std::ostringstream out;
  tracker.write_text(out);
  const std::string text = out.str();
  const std::size_t outer_at = text.find("study.run");
  const std::size_t inner_at = text.find("\n  campaign");
  const std::size_t deepest_at = text.find("\n    day");
  const std::size_t sibling_at = text.find("\n  resolver");
  EXPECT_NE(outer_at, std::string::npos);
  EXPECT_NE(inner_at, std::string::npos);
  EXPECT_NE(deepest_at, std::string::npos);
  EXPECT_NE(sibling_at, std::string::npos);
  EXPECT_LT(outer_at, inner_at);
  EXPECT_LT(inner_at, deepest_at);
  EXPECT_LT(deepest_at, sibling_at);
  EXPECT_GT(tracker.total_ms("study.run"), 0.0);
  tracker.reset();
}

TEST(SpanTest, RepeatedSpansAggregate) {
  SpanTracker& tracker = SpanTracker::global();
  tracker.reset();
  {
    Span outer = span("campaign.run");
    for (int day = 0; day < 3; ++day) {
      Span daily = span("day");
    }
  }
  std::ostringstream out;
  tracker.write_text(out);
  const std::string text = out.str();
  // Three day spans collapse into one aggregated row with a x3 count.
  EXPECT_NE(text.find("day"), std::string::npos);
  EXPECT_NE(text.find("x3"), std::string::npos);
  EXPECT_EQ(text.find("x2"), std::string::npos);
  tracker.reset();
}

TEST(SpanTest, JsonExportNestsChildren) {
  SpanTracker& tracker = SpanTracker::global();
  tracker.reset();
  {
    Span outer = span("build");
    Span inner = span("transit");
  }
  std::ostringstream out;
  util::JsonWriter json{out};
  json.begin_object();
  tracker.write_json_fields(json);
  json.end_object();
  const std::string text = out.str();
  EXPECT_NE(text.find("\"phases\""), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"build\""), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"transit\""), std::string::npos);
  EXPECT_NE(text.find("\"total_ms\""), std::string::npos);
  EXPECT_LT(text.find("\"name\": \"build\""),
            text.find("\"name\": \"transit\""));
  tracker.reset();
}

TEST(ObservabilityJson, GlobalDocumentIsComposed) {
  Registry::global().counter("campaign.tasks_total").inc();
  SpanTracker::global().reset();
  { Span phase = span("topology.world.build"); }
  std::ostringstream out;
  write_observability_json(out);
  const std::string json = out.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"campaign.tasks_total\""), std::string::npos);
  EXPECT_NE(json.find("\"phases\""), std::string::npos);
  EXPECT_NE(json.find("\"topology.world.build\""), std::string::npos);
  SpanTracker::global().reset();
}

}  // namespace
}  // namespace cloudrtt::obs
