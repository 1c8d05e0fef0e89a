// Parallel determinism gate: `--threads N` is a pure wall-clock knob. For
// every thread count the campaign must produce the same dataset, bit for
// bit, as the inline sequential path — including across a kill+resume cycle
// with both platforms enabled. The comparison is on core::dataset_hash, the
// FNV-1a fold of the full canonical CSV export, i.e. exactly what CI's
// determinism gate checks via `cloudrtt study --dataset-hash`.
//
// Why this holds (see measure/executor.hpp): the schedule phase is always
// sequential, chunk decomposition uses a constant chunk size independent of
// the worker count, every chunk forks its RNG from (day, chunk index) alone,
// and results merge in schedule order. Threads only change which core runs a
// chunk, never which random numbers it draws.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>

#include "core/export.hpp"
#include "core/study.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "store/io_env.hpp"
#include "store/salvage.hpp"

namespace cloudrtt {
namespace {

namespace fs = std::filesystem;

/// Small two-platform campaign with faults on — fault retries, mid-visit
/// drops, and outage days all feed the schedule phase, so this exercises the
/// hardest schedule/execute interleavings.
[[nodiscard]] core::StudyConfig parallel_config(std::uint64_t seed,
                                               unsigned threads) {
  core::StudyConfig config;
  config.seed = seed;
  config.threads = threads;
  config.sc_probes = 1200;
  config.include_atlas = true;
  config.atlas_probes = 400;
  config.sc_campaign.days = 3;
  config.sc_campaign.daily_budget = 2000;
  config.sc_campaign.case_study_probes = 5;
  config.atlas_campaign.days = 3;
  config.atlas_campaign.daily_budget = 900;
  config.fault_profile = fault::FaultProfile::Mild;
  return config;
}

/// Combined hash over both platforms, mirroring the CLI's --dataset-hash
/// line: any drift in either campaign flips the result.
[[nodiscard]] std::string combined_hash(const core::Study& study) {
  return core::format_dataset_hash(core::dataset_hash(study.sc_dataset())) +
         "/" +
         core::format_dataset_hash(core::dataset_hash(study.atlas_dataset()));
}

/// Sequential baselines, computed once per seed and shared across cases (the
/// suite runs as one ctest entry, like the determinism gate).
[[nodiscard]] const std::string& baseline(std::uint64_t seed) {
  static const std::string seed23 = [] {
    core::Study study{parallel_config(23, 1)};
    study.run();
    return combined_hash(study);
  }();
  static const std::string seed57 = [] {
    core::Study study{parallel_config(57, 1)};
    study.run();
    return combined_hash(study);
  }();
  return seed == 23 ? seed23 : seed57;
}

TEST(ParallelGate, FourThreadsHashLikeOneThreadSeed23) {
  core::Study study{parallel_config(23, 4)};
  study.run();
  EXPECT_EQ(baseline(23), combined_hash(study));
}

TEST(ParallelGate, FourThreadsHashLikeOneThreadSeed57) {
  core::Study study{parallel_config(57, 4)};
  study.run();
  EXPECT_EQ(baseline(57), combined_hash(study));
}

TEST(ParallelGate, OddThreadCountHashesIdenticallyToo) {
  // Three workers split the fixed-size chunks unevenly — the merge order,
  // not the worker count, must decide the output.
  core::Study study{parallel_config(23, 3)};
  study.run();
  EXPECT_EQ(baseline(23), combined_hash(study));
}

TEST(ParallelGate, KillAndResumeWithAtlasAtFourThreads) {
  const fs::path dir = fs::path{::testing::TempDir()} / "cloudrtt_par_resume";
  fs::remove_all(dir);

  core::Study killed{parallel_config(23, 4)};
  core::RunControl first;
  first.checkpoint_dir = dir.string();
  first.stop_after_day = 2;
  killed.run(first);
  EXPECT_FALSE(killed.completed());
  store::IoEnv io;
  ASSERT_EQ(
      store::open_store(dir, "speedchecker", io, /*repair=*/false).format, 4);

  core::Study resumed{parallel_config(23, 4)};
  core::RunControl second;
  second.checkpoint_dir = dir.string();
  second.resume = true;
  resumed.run(second);
  ASSERT_TRUE(resumed.completed());

  EXPECT_EQ(baseline(23), combined_hash(resumed));
  fs::remove_all(dir);
}

/// What one parallel_config(23, threads) study adds to the engine's metrics:
/// every `engine.*` counter's delta, and the ping-RTT histogram's count, max
/// and bucket quantiles (the histogram is reset first; nothing else in this
/// suite reads it). Not its sum: the workers' tallies add their partial
/// sums in whatever order they finish, so its last bits may differ.
struct EngineDelta {
  std::map<std::string, double> counters;
  std::uint64_t rtt_count = 0;
  double rtt_max = 0.0;
  std::array<double, 3> rtt_quantiles{};  ///< p50, p90, p99
  std::size_t tasks = 0;  ///< ping rows in both datasets
};

[[nodiscard]] EngineDelta engine_delta(unsigned threads) {
  obs::Registry& registry = obs::Registry::global();
  const auto engine_counters = [&registry] {
    std::map<std::string, double> values;
    for (const auto& entry : registry.snapshot().counters) {
      if (entry.name.starts_with("engine.")) values[entry.name] = entry.value;
    }
    return values;
  };
  obs::Histogram& rtt = registry.histogram("engine.ping.rtt_ms");
  const std::map<std::string, double> before = engine_counters();
  rtt.reset();
  core::Study study{parallel_config(23, threads)};
  study.run();
  EngineDelta delta;
  for (const auto& [name, value] : engine_counters()) {
    const auto prior = before.find(name);
    delta.counters[name] =
        value - (prior == before.end() ? 0.0 : prior->second);
  }
  delta.rtt_count = rtt.count();
  delta.rtt_max = rtt.max();
  delta.rtt_quantiles = {rtt.quantile(0.50), rtt.quantile(0.90),
                         rtt.quantile(0.99)};
  delta.tasks =
      study.sc_dataset().pings.size() + study.atlas_dataset().pings.size();
  return delta;
}

TEST(ParallelGate, EngineMetricsAreThreadInvariant) {
  const EngineDelta one = engine_delta(1);
  for (const unsigned threads : {3u, 4u}) {
    SCOPED_TRACE(threads);
    const EngineDelta many = engine_delta(threads);
    EXPECT_EQ(one.counters, many.counters);
    EXPECT_EQ(one.rtt_count, many.rtt_count);
    EXPECT_EQ(one.rtt_max, many.rtt_max);
    EXPECT_EQ(one.rtt_quantiles, many.rtt_quantiles);
  }
  // A task whose traceroute reuses the ping's path still counts one ping
  // and one traceroute.
  ASSERT_GT(one.tasks, 0U);
  EXPECT_EQ(one.counters.at("engine.pings_total"),
            static_cast<double>(one.tasks));
  EXPECT_EQ(one.counters.at("engine.traceroutes_total"),
            static_cast<double>(one.tasks));
  EXPECT_EQ(one.rtt_count, one.tasks);
  EXPECT_GT(one.rtt_quantiles[0], 0.0);
}

TEST(ParallelGate, BusyAccountingIsPublishedAtDayEnd) {
  (void)baseline(23);  // guarantees at least one campaign execute phase has run
  const obs::Registry::Snapshot snap = obs::Registry::global().snapshot();

  // The executor publishes a busy fraction in (0, 1] and a monotonically
  // growing busy-time counter; the old last-write-wins `measure.worker_busy`
  // up/down gauge is gone.
  bool found_fraction = false;
  for (const auto& gauge : snap.gauges) {
    if (gauge.name == "measure.worker_busy_fraction") {
      found_fraction = true;
      EXPECT_GT(gauge.value, 0.0);
      EXPECT_LE(gauge.value, 1.0);
    }
    EXPECT_NE(gauge.name, "measure.worker_busy");
  }
  EXPECT_TRUE(found_fraction);

  bool found_busy_ms = false;
  for (const auto& counter : snap.counters) {
    if (counter.name == "measure.worker_busy_ms_total") {
      found_busy_ms = true;
      EXPECT_GT(counter.value, 0.0);
    }
  }
  EXPECT_TRUE(found_busy_ms);
}

}  // namespace
}  // namespace cloudrtt
