// perf_core — google-benchmark microbenchmarks for the hot kernels of the
// simulator and the analysis pipeline: longest-prefix match, backbone
// routing, forwarding-path construction, full traceroute execution, the
// statistics kernels, and the FNV-1a fold of the dataset hash.

#include <benchmark/benchmark.h>

#include <sstream>
#include <string>

#include "analysis/resolve.hpp"
#include "analysis/trace_analysis.hpp"
#include "core/export.hpp"
#include "measure/campaign.hpp"
#include "measure/engine.hpp"
#include "probes/fleet.hpp"
#include "routing/path_builder.hpp"
#include "topology/world.hpp"
#include "util/check.hpp"
#include "util/fnv1a_fold.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace cloudrtt;

/// One shared world + tiny fleet for all fixtures (built once).
struct Fixture {
  topology::World world{topology::WorldConfig{7}};
  probes::ProbeFleet fleet{
      world, probes::FleetConfig{probes::Platform::Speedchecker, 600}};
  analysis::IpToAsn resolver = analysis::IpToAsn::from_world(world);
  measure::Engine engine{world};

  static Fixture& instance() {
    static Fixture fixture;
    return fixture;
  }
};

void BM_TrieLookup(benchmark::State& state) {
  Fixture& f = Fixture::instance();
  util::Rng rng{1};
  std::vector<net::Ipv4Address> addresses;
  for (const probes::Probe& probe : f.fleet.probes()) {
    addresses.push_back(probe.address);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.resolver.resolve(addresses[i++ % addresses.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TrieLookup);

void BM_BackboneRoute(benchmark::State& state) {
  Fixture& f = Fixture::instance();
  const auto countries = f.world.countries().all();
  util::Rng rng{2};
  for (auto _ : state) {
    const auto& a = countries[rng.below(countries.size())];
    const auto& b = countries[rng.below(countries.size())];
    benchmark::DoNotOptimize(f.world.backbone().route(a.code, b.code));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BackboneRoute);

/// The call Engine::run_task makes: build_into into one reused path, whose
/// hop vector keeps its capacity. One case per interconnect mode (the
/// argument is the InterconnectMode value; the label names it).
void BM_PathBuild(benchmark::State& state) {
  Fixture& f = Fixture::instance();
  const routing::PathBuilder builder{f.world};
  const auto mode = static_cast<topology::InterconnectMode>(state.range(0));
  util::Rng rng{3};
  const auto& probes = f.fleet.probes();
  const auto& endpoints = f.world.endpoints();
  routing::ForwardingPath path;
  for (auto _ : state) {
    const probes::Probe& probe = probes[rng.below(probes.size())];
    const topology::CloudEndpoint& endpoint =
        endpoints[rng.below(endpoints.size())];
    builder.build_into(probe, endpoint, mode, path);
    benchmark::DoNotOptimize(path.hops.data());
  }
  state.SetLabel(std::string{topology::to_string(mode)});
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PathBuild)->DenseRange(0, 3);

void BM_Traceroute(benchmark::State& state) {
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
BENCHMARK(BM_Traceroute);

void BM_ClassifyInterconnect(benchmark::State& state) {
  Fixture& f = Fixture::instance();
  util::Rng rng{5};
  std::vector<measure::TraceRecord> traces;
  const auto& probes = f.fleet.probes();
  const auto& endpoints = f.world.endpoints();
  for (int i = 0; i < 256; ++i) {
    traces.push_back(
        f.engine.traceroute(probes[rng.below(probes.size())],
                            endpoints[rng.below(endpoints.size())], 0, rng));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::classify_interconnect(
        traces[i++ % traces.size()], f.resolver));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ClassifyInterconnect);

void BM_QuantileSweep(benchmark::State& state) {
  util::Rng rng{6};
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(state.range(0)));
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    samples.push_back(rng.lognormal_median(50.0, 0.5));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::summarize(samples));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QuantileSweep)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_WorldConstruction(benchmark::State& state) {
  for (auto _ : state) {
    topology::World world{topology::WorldConfig{42}};
    benchmark::DoNotOptimize(world.endpoints().size());
  }
}
BENCHMARK(BM_WorldConstruction)->Unit(benchmark::kMillisecond);

/// The first 64 KiB of the canonical trace CSV (the bytes dataset_hash
/// folds) of a one-day campaign over the shared fleet.
const std::string& canonical_csv() {
  static const std::string bytes = [] {
    Fixture& f = Fixture::instance();
    measure::CampaignConfig config;
    config.days = 1;
    config.daily_budget = 2000;
    config.run_case_studies = false;
    const measure::Campaign campaign{f.world, f.fleet, config};
    const measure::Dataset data =
        campaign.run(f.world.fork_rng("bench/fnv1a_fold"));
    std::ostringstream csv;
    core::export_traces_csv(csv, data, core::CsvFlavour::Canonical);
    std::string text = csv.str();
    CLOUDRTT_CHECK(text.size() >= 64 * 1024, "trace CSV under 64 KiB");
    text.resize(64 * 1024);
    return text;
  }();
  return bytes;
}

/// The dataset hash's fold over 64 KiB of canonical CSV: the byte loop
/// (argument 0, util::fnv1a_accum) against util::fnv1a_fold (argument 1),
/// which runs the wide kernel where the CPU has it (the label says).
void BM_Fnv1aFold(benchmark::State& state) {
  const std::string& csv = canonical_csv();
  const bool fold = state.range(0) != 0;
  std::uint64_t hash = util::kFnv1aBasis;
  for (auto _ : state) {
    hash = fold ? util::fnv1a_fold(hash, csv) : util::fnv1a_accum(hash, csv);
    benchmark::DoNotOptimize(hash);
  }
  if (!fold) {
    state.SetLabel("byte loop");
  } else if (util::fnv1a_fold_wide_bytes(csv.size()) != 0) {
    state.SetLabel("fold, wide kernel");
  } else {
    state.SetLabel("fold, byte loop: no wide kernel on this CPU");
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(csv.size()));
}
BENCHMARK(BM_Fnv1aFold)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
