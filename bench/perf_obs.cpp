// perf_obs — microbenchmarks for the observability hot paths. The contract
// (ISSUE 1): a disabled log statement and a counter increment must each cost
// single-digit nanoseconds, so instrumentation compiled into the measurement
// engine is effectively free. ISSUE 6 extends the contract to the
// Chrome-trace recorder and progress reporter (one relaxed atomic load while
// off) and proves it end-to-end: BM_CampaignDayTrace{Off,On} run the same
// campaign day with the recorder disabled and enabled — the enabled run must
// stay within 1% of the disabled one.

#include <benchmark/benchmark.h>

#include <memory>
#include <sstream>

#include "measure/campaign.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "obs/trace_events.hpp"
#include "probes/fleet.hpp"
#include "topology/world.hpp"

namespace {

using namespace cloudrtt;

/// The common case: statement compiled in, level filtered out. Must be one
/// relaxed atomic load + branch; the fields are never constructed.
void BM_LogDisabled(benchmark::State& state) {
  obs::Logger::global().set_level(obs::Level::Error);
  std::uint64_t day = 0;
  for (auto _ : state) {
    CLOUDRTT_LOG_DEBUG("campaign.day", {"day", day}, {"budget_left", day * 3});
    benchmark::DoNotOptimize(day++);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LogDisabled);

/// Enabled statement into the text sink (buffer reset per iteration batch
/// to bound memory) — the slow path, for contrast.
void BM_LogEnabledText(benchmark::State& state) {
  obs::Logger& logger = obs::Logger::global();
  logger.clear_sinks();
  std::ostringstream sink;
  logger.add_sink(std::make_unique<obs::TextSink>(sink));
  logger.set_level(obs::Level::Debug);
  std::uint64_t day = 0;
  for (auto _ : state) {
    CLOUDRTT_LOG_DEBUG("campaign.day", {"day", day}, {"budget_left", day * 3});
    ++day;
    if (sink.tellp() > (1 << 20)) {
      sink.str({});
      sink.clear();
    }
  }
  logger.clear_sinks();
  logger.set_level(obs::Level::Error);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LogEnabledText);

void BM_CounterInc(benchmark::State& state) {
  obs::Counter& counter = obs::Registry::global().counter("perf.counter");
  for (auto _ : state) {
    counter.inc();
  }
  benchmark::DoNotOptimize(counter.value());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CounterInc);

void BM_HistogramRecord(benchmark::State& state) {
  obs::Histogram& histogram = obs::Registry::global().histogram("perf.histogram");
  double value = 0.1;
  for (auto _ : state) {
    histogram.record(value);
    value = value < 1000.0 ? value * 1.37 : 0.1;
  }
  benchmark::DoNotOptimize(histogram.count());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HistogramRecord);

void BM_SpanNesting(benchmark::State& state) {
  for (auto _ : state) {
    obs::Span outer = obs::span("perf.outer");
    obs::Span inner = obs::span("perf.inner");
    benchmark::ClobberMemory();
  }
  obs::SpanTracker::global().reset();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SpanNesting);

/// The common case: recorder compiled in, --trace-out not given. Must be one
/// relaxed atomic load + branch; no event is constructed.
void BM_TraceEventDisabled(benchmark::State& state) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  recorder.disable();
  const std::uint64_t start = obs::monotonic_ns();
  for (auto _ : state) {
    recorder.record_complete("perf.event", "bench", start, 100,
                             {{"chunk", 1.0}, {"tasks", 64.0}});
  }
  benchmark::DoNotOptimize(recorder.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceEventDisabled);

/// Enabled recording (mutex + vector push) — the --trace-out price tag. The
/// buffer is cleared whenever it reaches a million events to bound memory.
void BM_TraceEventEnabled(benchmark::State& state) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  recorder.enable();
  const std::uint64_t start = obs::monotonic_ns();
  for (auto _ : state) {
    recorder.record_complete("perf.event", "bench", start, 100,
                             {{"chunk", 1.0}, {"tasks", 64.0}});
    if (recorder.size() >= (1u << 20)) recorder.enable();  // clears
  }
  recorder.disable();
  recorder.reset();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceEventEnabled);

/// Disabled progress reporting: one relaxed load per completed day.
void BM_ProgressDisabled(benchmark::State& state) {
  obs::Progress& progress = obs::Progress::global();
  progress.disable();
  std::uint32_t day = 0;
  for (auto _ : state) {
    progress.day_completed(++day, 1u << 30, 15000, 0.9);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ProgressDisabled);

/// Shared fixture for the end-to-end overhead proof: a small but realistic
/// campaign day (schedule + parallel execute + merge).
struct CampaignFixture {
  topology::World world{topology::WorldConfig{7}};
  probes::ProbeFleet fleet{
      world, probes::FleetConfig{probes::Platform::Speedchecker, 500}};

  static CampaignFixture& instance() {
    static CampaignFixture fixture;
    return fixture;
  }

  [[nodiscard]] measure::Campaign make_campaign() const {
    measure::CampaignConfig config;
    config.days = 1;
    config.daily_budget = 4000;
    config.run_case_studies = false;
    config.threads = 2;
    return measure::Campaign{world, fleet, config};
  }
};

void run_campaign_day(benchmark::State& state) {
  CampaignFixture& f = CampaignFixture::instance();
  const measure::Campaign campaign = f.make_campaign();
  for (auto _ : state) {
    const measure::Dataset data = campaign.run(f.world.fork_rng("bench/obs"));
    benchmark::DoNotOptimize(data.pings.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4000);
}

/// Baseline: the instrumented campaign day with every recorder off — what
/// production runs pay for carrying the instrumentation.
void BM_CampaignDayTraceOff(benchmark::State& state) {
  obs::TraceRecorder::global().disable();
  run_campaign_day(state);
}
BENCHMARK(BM_CampaignDayTraceOff)->Unit(benchmark::kMillisecond)->UseRealTime();

/// The <1% contract: the same day with the Chrome-trace recorder buffering
/// per-chunk/per-worker/phase events. Compare against BM_CampaignDayTraceOff.
void BM_CampaignDayTraceOn(benchmark::State& state) {
  obs::TraceRecorder::global().enable();
  run_campaign_day(state);
  obs::TraceRecorder::global().disable();
  obs::TraceRecorder::global().reset();
}
BENCHMARK(BM_CampaignDayTraceOn)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
