// perf_fault — cost of the fault-injection subsystem. The ISSUE's contract
// is that a campaign without a FaultPlan pays nothing measurable for the
// hooks: BM_TracerouteNoFaultArg (the pre-existing call shape) and
// BM_TracerouteNullFaults (hooks present, pointer null) must agree within
// noise (<2%). BM_TracerouteActiveFaults shows the price of a mild-profile
// fault day.
//
// The streaming-store legs carry the durability contract at the scale it
// is stated: BM_StudyDefaultStreaming (default-scale study, spill on) must
// stay within 2% of BM_StudyDefaultInMemory — the async spill worker
// serialises, checksums and fsyncs behind the campaign, so the critical
// path only pays row copies. The single-day pair
// (BM_CampaignDayInMemory/BM_CampaignDayStreaming) prices the worst case
// instead: one day leaves the worker nothing to overlap with, so its delta
// is the full serialise+fsync cost a drain would expose. BM_StoreSpillDay
// and BM_StoreOpen price the store in isolation: drained spill throughput
// and the salvage-validated reopen a resume pays.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "core/export.hpp"
#include "core/study.hpp"
#include "fault/plan.hpp"
#include "measure/campaign.hpp"
#include "measure/engine.hpp"
#include "probes/fleet.hpp"
#include "store/codec.hpp"
#include "store/io_env.hpp"
#include "store/salvage.hpp"
#include "store/shard_writer.hpp"
#include "topology/world.hpp"
#include "util/rng.hpp"

namespace {

using namespace cloudrtt;

struct Fixture {
  topology::World world{topology::WorldConfig{7}};
  probes::ProbeFleet fleet{
      world, probes::FleetConfig{probes::Platform::Speedchecker, 600}};
  measure::Engine engine{world};

  static Fixture& instance() {
    static Fixture fixture;
    return fixture;
  }
};

// Identical body to perf_core's BM_Traceroute: the default-argument call the
// whole pre-fault codebase makes.
void BM_TracerouteNoFaultArg(benchmark::State& state) {
  Fixture& f = Fixture::instance();
  util::Rng rng{4};
  const auto& probes = f.fleet.probes();
  const auto& endpoints = f.world.endpoints();
  for (auto _ : state) {
    const probes::Probe& probe = probes[rng.below(probes.size())];
    const topology::CloudEndpoint& endpoint =
        endpoints[rng.below(endpoints.size())];
    benchmark::DoNotOptimize(f.engine.traceroute(probe, endpoint, 0, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TracerouteNoFaultArg);

// The campaign's call shape on a clean day: hooks threaded through, fault
// pointer null. Must be indistinguishable from BM_TracerouteNoFaultArg.
void BM_TracerouteNullFaults(benchmark::State& state) {
  Fixture& f = Fixture::instance();
  util::Rng rng{4};
  const auto& probes = f.fleet.probes();
  const auto& endpoints = f.world.endpoints();
  for (auto _ : state) {
    const probes::Probe& probe = probes[rng.below(probes.size())];
    const topology::CloudEndpoint& endpoint =
        endpoints[rng.below(endpoints.size())];
    benchmark::DoNotOptimize(
        f.engine.traceroute(probe, endpoint, 0, rng,
                            measure::Engine::TraceMethod::Classic, 0, nullptr));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TracerouteNullFaults);

// A mild-profile fault day's trace damage, for scale.
void BM_TracerouteActiveFaults(benchmark::State& state) {
  Fixture& f = Fixture::instance();
  util::Rng rng{4};
  const fault::FaultIntensity intensity =
      fault::FaultIntensity::for_profile(fault::FaultProfile::Mild);
  const fault::TraceFaults faults{intensity.trace_truncate_prob, 0.03};
  const auto& probes = f.fleet.probes();
  const auto& endpoints = f.world.endpoints();
  for (auto _ : state) {
    const probes::Probe& probe = probes[rng.below(probes.size())];
    const topology::CloudEndpoint& endpoint =
        endpoints[rng.below(endpoints.size())];
    benchmark::DoNotOptimize(
        f.engine.traceroute(probe, endpoint, 0, rng,
                            measure::Engine::TraceMethod::Classic, 0, &faults));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TracerouteActiveFaults);

// Building a whole campaign's fault schedule (done once per run).
void BM_FaultPlanConstruction(benchmark::State& state) {
  Fixture& f = Fixture::instance();
  const fault::FaultIntensity intensity =
      fault::FaultIntensity::for_profile(fault::FaultProfile::Harsh);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fault::FaultPlan{f.world, 180, intensity, ++seed});
  }
  state.SetItemsProcessed(state.iterations() * 180);
}
BENCHMARK(BM_FaultPlanConstruction);

/// One day's worth of campaign data for the store benchmarks.
[[nodiscard]] const measure::Dataset& bench_dataset() {
  static const measure::Dataset data = [] {
    Fixture& f = Fixture::instance();
    measure::CampaignConfig config;
    config.days = 1;
    config.daily_budget = 2000;
    config.run_case_studies = false;
    const measure::Campaign campaign{f.world, f.fleet, config};
    return campaign.run(f.world.fork_rng("bench/checkpoint"));
  }();
  return data;
}

/// Campaign config shared by the in-memory/streaming A-B pair.
[[nodiscard]] measure::CampaignConfig day_config() {
  measure::CampaignConfig config;
  config.days = 1;
  config.daily_budget = 2000;
  config.run_case_studies = false;
  return config;
}

// One campaign day, rows kept in memory only — the baseline leg of the
// streaming-overhead contract.
void BM_CampaignDayInMemory(benchmark::State& state) {
  Fixture& f = Fixture::instance();
  const measure::Campaign campaign{f.world, f.fleet, day_config()};
  std::size_t rows = 0;
  for (auto _ : state) {
    const measure::Dataset data =
        campaign.run(f.world.fork_rng("bench/spill"));
    rows = data.pings.size();
    benchmark::DoNotOptimize(data.pings.rtt_column().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rows));
}
BENCHMARK(BM_CampaignDayInMemory);

// The same day with the streaming store attached, drained to durability by
// the writer's destructor inside the timed region. A single day gives the
// async worker nothing to overlap with, so this is the *upper bound* on
// spill cost — the study-scale A/B below shows what the campaign actually
// pays once later days hide the worker.
void BM_CampaignDayStreaming(benchmark::State& state) {
  Fixture& f = Fixture::instance();
  const measure::Campaign campaign{f.world, f.fleet, day_config()};
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "cloudrtt_perf_spill_ab";
  store::IoEnv io;
  std::size_t rows = 0;
  for (auto _ : state) {
    store::ShardWriter writer{dir, store::StoreMeta{"speedchecker", 7}, io,
                              /*fresh=*/true};
    measure::RunHooks hooks;
    hooks.day_rows = [&writer](std::uint32_t day, std::size_t cursor,
                               std::uint32_t first_task,
                               const measure::Dataset& data,
                               std::size_t ping_begin,
                               std::size_t trace_begin) {
      (void)writer.append_day(day, cursor, first_task, data, ping_begin,
                              trace_begin);
    };
    hooks.after_day = [&writer](const measure::CampaignState& next,
                                const measure::Dataset&) {
      (void)writer.commit(next);
      return true;
    };
    const measure::Dataset data =
        campaign.run(f.world.fork_rng("bench/spill"), {}, hooks);
    rows = data.pings.size();
    benchmark::DoNotOptimize(data.pings.rtt_column().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rows));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_CampaignDayStreaming);

// Pure spill throughput: frame + checksum + append + commit one day of
// already-collected rows (what the day_rows hook adds to a campaign day).
void BM_StoreSpillDay(benchmark::State& state) {
  const measure::Dataset& data = bench_dataset();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "cloudrtt_perf_spill_day";
  store::IoEnv io;
  measure::CampaignState done;
  done.next_day = 1;
  for (auto _ : state) {
    store::ShardWriter writer{dir, store::StoreMeta{"speedchecker", 7}, io,
                              /*fresh=*/true};
    if (!writer.adopt(data, done)) {
      state.SkipWithError("spill was not durable");
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.pings.size()));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_StoreSpillDay);

// The durability contract, measured where ISSUE 8 states it: the default-
// scale workflow — run the study, then produce the canonical dataset hash
// the determinism gates check — once in memory and once streaming every
// day through the store. The streaming leg's spill worker is drained
// before run() returns, so the pair differing by more than 2% means the
// async pipeline stopped hiding serialisation or fsyncs. Caveat for
// single-core machines: the worker's CPU (serialise + checksum, ~tens of
// ms for the whole study) cannot overlap with the campaign there and is
// the floor this pair measures; with >=2 cores only the row copies in
// append_day() remain on the critical path.
void BM_StudyDefaultInMemory(benchmark::State& state) {
  std::size_t rows = 0;
  for (auto _ : state) {
    core::Study study{core::StudyConfig{}};
    study.run();
    rows = study.sc_dataset().pings.size();
    benchmark::DoNotOptimize(core::dataset_hash(study.sc_dataset()));
    benchmark::DoNotOptimize(core::dataset_hash(study.atlas_dataset()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rows));
}
BENCHMARK(BM_StudyDefaultInMemory)->Unit(benchmark::kMillisecond);

void BM_StudyDefaultStreaming(benchmark::State& state) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "cloudrtt_perf_spill_study";
  std::size_t rows = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(dir);
    state.ResumeTiming();
    core::Study study{core::StudyConfig{}};
    core::RunControl control;
    control.checkpoint_dir = dir.string();
    study.run(control);
    rows = study.sc_dataset().pings.size();
    benchmark::DoNotOptimize(core::dataset_hash(study.sc_dataset()));
    benchmark::DoNotOptimize(core::dataset_hash(study.atlas_dataset()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rows));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_StudyDefaultStreaming)->Unit(benchmark::kMillisecond);

// Salvage-validated reopen: what an in-memory resume pays to re-check every
// committed block's checksum and decode its rows, in one pass.
void BM_StoreOpen(benchmark::State& state) {
  Fixture& f = Fixture::instance();
  const measure::Dataset& data = bench_dataset();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "cloudrtt_perf_store_open";
  store::IoEnv io;
  measure::CampaignState done;
  done.next_day = 1;
  {
    store::ShardWriter writer{dir, store::StoreMeta{"speedchecker", 7}, io,
                              /*fresh=*/true};
    if (!writer.adopt(data, done)) {
      state.SkipWithError("spill was not durable");
      return;
    }
  }
  for (auto _ : state) {
    measure::Dataset rows;
    rows.bind(&f.fleet, nullptr);
    const store::OpenResult opened = store::open_store(
        dir, "speedchecker", io, /*repair=*/false, std::nullopt,
        [&](const store::BlockHeader& header, std::string_view payload) {
          return store::parse_block(payload, header, &f.fleet, nullptr, rows);
        });
    if (!opened.ok()) state.SkipWithError(opened.error.c_str());
    benchmark::DoNotOptimize(rows.pings.rtt_column().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.pings.size()));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_StoreOpen);

}  // namespace

BENCHMARK_MAIN();
