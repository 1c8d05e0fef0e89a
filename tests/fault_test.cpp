// Chaos suite: campaigns under fault injection. The paper's six-month
// campaign survived probe churn, scheduler outages and cable cuts; these
// tests assert the reproduction does too — the headline shapes (fig4
// continent ordering, fig10 hypergiant directness) hold under the documented
// mild profile across seeds, most of the nominal budget still gets
// delivered, and a checkpointed campaign resumes bit-identically.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "analysis/experiments.hpp"
#include "catalogue_rows.hpp"
#include "core/export.hpp"
#include "core/study.hpp"
#include "fault/plan.hpp"
#include "measure/campaign.hpp"
#include "measure/engine.hpp"
#include "probes/fleet.hpp"
#include "store/io_env.hpp"
#include "store/salvage.hpp"
#include "topology/backbone.hpp"
#include "topology/world.hpp"
#include "util/stats.hpp"

namespace cloudrtt {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// FaultPlan unit behaviour

TEST(FaultPlan, ProfileStringsRoundTrip) {
  using fault::FaultProfile;
  for (const FaultProfile profile :
       {FaultProfile::None, FaultProfile::Mild, FaultProfile::Harsh}) {
    const auto parsed = fault::profile_from_string(to_string(profile));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, profile);
  }
  EXPECT_FALSE(fault::profile_from_string("catastrophic").has_value());
  EXPECT_FALSE(fault::profile_from_string("").has_value());
}

TEST(FaultPlan, NoneProfileYieldsNoPlan) {
  const topology::World world{topology::WorldConfig{5}};
  EXPECT_FALSE(fault::FaultPlan::make(world, 10, fault::FaultProfile::None, 1)
                   .has_value());
  EXPECT_TRUE(fault::FaultPlan::make(world, 10, fault::FaultProfile::Mild, 1)
                  .has_value());
}

TEST(FaultPlan, ScheduleIsDeterministicInSeed) {
  const topology::World world{topology::WorldConfig{5}};
  const auto intensity =
      fault::FaultIntensity::for_profile(fault::FaultProfile::Harsh);
  const fault::FaultPlan a{world, 12, intensity, 77};
  const fault::FaultPlan b{world, 12, intensity, 77};
  const fault::FaultPlan other{world, 12, intensity, 78};
  ASSERT_EQ(a.days(), b.days());
  bool any_difference_vs_other = false;
  for (std::uint32_t d = 0; d < a.days(); ++d) {
    EXPECT_EQ(a.day(d).api_down, b.day(d).api_down) << "day " << d;
    EXPECT_EQ(a.day(d).regions_down, b.day(d).regions_down) << "day " << d;
    EXPECT_EQ(a.day(d).backbone_cuts, b.day(d).backbone_cuts) << "day " << d;
    any_difference_vs_other |=
        a.day(d).api_down != other.day(d).api_down ||
        a.day(d).regions_down != other.day(d).regions_down ||
        a.day(d).backbone_cuts != other.day(d).backbone_cuts;
  }
  // A different seed is a different history.
  EXPECT_TRUE(any_difference_vs_other);
}

TEST(FaultPlan, RetryBackoffIsExponentialCappedAndJittered) {
  const fault::RetryPolicy policy;  // 250ms base, 4000ms cap, +-25% jitter
  util::Rng rng{3};
  for (int round = 0; round < 50; ++round) {
    double previous_nominal = 0.0;
    for (std::size_t attempt = 1; attempt <= 6; ++attempt) {
      const double nominal =
          std::min(policy.backoff_cap_ms,
                   policy.base_backoff_ms * std::pow(2.0, double(attempt - 1)));
      const double delay = policy.backoff_ms(attempt, rng);
      EXPECT_GE(delay, nominal * 0.75) << "attempt " << attempt;
      EXPECT_LE(delay, nominal * 1.25) << "attempt " << attempt;
      EXPECT_GE(nominal, previous_nominal);
      previous_nominal = nominal;
    }
  }
}

// ---------------------------------------------------------------------------
// Engine-level fault hooks

class EngineFaultTest : public ::testing::Test {
 protected:
  topology::World world_{topology::WorldConfig{21}};
  probes::ProbeFleet fleet_{
      world_, probes::FleetConfig{probes::Platform::Speedchecker, 400}};
  measure::Engine engine_{world_};

  const probes::Probe& any_probe() { return fleet_.probes().front(); }
};

TEST_F(EngineFaultTest, TruncationLeavesTracesIncomplete) {
  util::Rng rng{9};
  const fault::TraceFaults faults{/*truncate_prob=*/1.0, /*loss_boost=*/0.0};
  const auto& endpoint = world_.endpoints().front();
  for (int i = 0; i < 50; ++i) {
    const measure::TraceRecord trace =
        engine_.traceroute(any_probe(), endpoint, 0, rng,
                           measure::Engine::TraceMethod::Classic, 0, &faults);
    EXPECT_FALSE(trace.completed);  // the final echo is never reached
    EXPECT_FALSE(trace.hops.empty());
  }
}

TEST_F(EngineFaultTest, LossBoostSilencesIntermediateHops) {
  util::Rng rng{10};
  const fault::TraceFaults faults{/*truncate_prob=*/0.0, /*loss_boost=*/1.0};
  const auto& endpoint = world_.endpoints().front();
  for (int i = 0; i < 20; ++i) {
    const measure::TraceRecord trace =
        engine_.traceroute(any_probe(), endpoint, 0, rng,
                           measure::Engine::TraceMethod::Classic, 0, &faults);
    for (std::size_t h = 0; h + 1 < trace.hops.size(); ++h) {
      EXPECT_FALSE(trace.hops[h].responded);
    }
  }
}

// ---------------------------------------------------------------------------
// Backbone outages

TEST(BackboneOutage, CableCutReroutesAndRestores) {
  const topology::World world{topology::WorldConfig{5}};
  const topology::Backbone& backbone = world.backbone();
  const topology::BackboneRoute baseline = backbone.route("BR", "US");
  ASSERT_TRUE(baseline.reachable);

  backbone.set_outages({{"BR", "US"}});
  EXPECT_TRUE(backbone.outages_active());
  const topology::BackboneRoute rerouted = backbone.route("BR", "US");
  EXPECT_TRUE(rerouted.reachable);  // the mesh always offers a detour
  EXPECT_NE(rerouted.countries, baseline.countries);
  EXPECT_GT(rerouted.effective_km, baseline.effective_km);

  backbone.clear_outages();
  EXPECT_FALSE(backbone.outages_active());
  const topology::BackboneRoute restored = backbone.route("BR", "US");
  EXPECT_EQ(restored.countries, baseline.countries);
  EXPECT_DOUBLE_EQ(restored.effective_km, baseline.effective_km);
}

// ---------------------------------------------------------------------------
// Campaign under scheduled faults

class CampaignChaosTest : public ::testing::Test {
 protected:
  topology::World world_{topology::WorldConfig{33}};
  probes::ProbeFleet fleet_{
      world_, probes::FleetConfig{probes::Platform::Speedchecker, 700}};

  [[nodiscard]] measure::CampaignConfig small_config() const {
    measure::CampaignConfig config;
    config.days = 2;
    config.daily_budget = 600;
    config.run_case_studies = false;
    return config;
  }
};

TEST_F(CampaignChaosTest, AllApiSlotsDownStillCompletesTheDay) {
  fault::FaultIntensity intensity;
  intensity.api_outages_per_day = 6.0;  // P[slot down] == 1 for all six slots
  const fault::FaultPlan plan{world_, 2, intensity, 4};
  const measure::Campaign campaign{world_, fleet_, small_config()};
  measure::RunHooks hooks;
  hooks.faults = &plan;
  const measure::Dataset data =
      campaign.run(world_.fork_rng("chaos/all-down"), {}, hooks);
  EXPECT_TRUE(data.pings.empty());  // nothing submittable, but no crash/hang
  EXPECT_TRUE(data.traces.empty());
}

TEST_F(CampaignChaosTest, HeavyTransientFailuresStillDeliverSomething) {
  fault::FaultIntensity intensity;
  intensity.task_failure_rate = 0.30;  // retries + occasional country aborts
  const fault::FaultPlan plan{world_, 2, intensity, 4};
  const measure::Campaign campaign{world_, fleet_, small_config()};
  measure::RunHooks hooks;
  hooks.faults = &plan;
  const measure::Dataset data =
      campaign.run(world_.fork_rng("chaos/flaky"), {}, hooks);
  EXPECT_FALSE(data.pings.empty());
  // Budget is metered per attempt, so deliveries < budget under failures.
  EXPECT_LT(data.pings.size(), std::size_t{2} * 600);
}

TEST_F(CampaignChaosTest, NullHooksMatchPlainRunExactly) {
  const measure::Campaign campaign{world_, fleet_, small_config()};
  const measure::Dataset plain = campaign.run(world_.fork_rng("chaos/base"));
  const measure::Dataset hooked =
      campaign.run(world_.fork_rng("chaos/base"), {}, measure::RunHooks{});
  ASSERT_EQ(plain.pings.size(), hooked.pings.size());
  for (std::size_t i = 0; i < plain.pings.size(); ++i) {
    EXPECT_DOUBLE_EQ(plain.pings[i].rtt_ms, hooked.pings[i].rtt_ms) << i;
  }
}

// ---------------------------------------------------------------------------
// Chaos sweep: paper shapes + delivery under the mild profile, across seeds

class ChaosSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static const core::Study& study_for(std::uint64_t seed,
                                      fault::FaultProfile profile) {
    static std::map<std::pair<std::uint64_t, int>, std::unique_ptr<core::Study>>
        cache;
    const auto key = std::make_pair(seed, static_cast<int>(profile));
    auto it = cache.find(key);
    if (it == cache.end()) {
      core::StudyConfig config;
      config.seed = seed;
      config.sc_probes = 2500;
      config.include_atlas = false;
      config.sc_campaign.days = 5;
      config.sc_campaign.daily_budget = 7000;
      config.fault_profile = profile;
      auto study = std::make_unique<core::Study>(config);
      study->run();
      it = cache.emplace(key, std::move(study)).first;
    }
    return *it->second;
  }
};

TEST_P(ChaosSweep, ContinentOrderingSurvivesMildChaos) {
  const auto series = analysis::fig4_continent_rtt(
      study_for(GetParam(), fault::FaultProfile::Mild).view());
  double af = 0.0;
  double eu = 0.0;
  for (const auto& s : series) {
    if (s.label == "AF") af = util::median(s.values);
    if (s.label == "EU") eu = util::median(s.values);
  }
  ASSERT_GT(af, 0.0);
  ASSERT_GT(eu, 0.0);
  EXPECT_GT(af, 2.0 * eu);
}

TEST_P(ChaosSweep, HypergiantsStayDirectUnderMildChaos) {
  const auto rows = analysis::fig10_interconnect_share(
      study_for(GetParam(), fault::FaultProfile::Mild).view());
  for (const auto& row : rows) {
    if (row.ticker == "AMZN" || row.ticker == "GCP" || row.ticker == "MSFT") {
      EXPECT_GT(row.direct_pct, 45.0) << row.ticker;
      EXPECT_GT(row.direct_pct, row.multi_as_pct) << row.ticker;
    }
  }
}

TEST_P(ChaosSweep, MildChaosDeliversMostOfTheNominalBudget) {
  const std::size_t nominal =
      study_for(GetParam(), fault::FaultProfile::None)
          .sc_dataset()
          .pings.size();
  const std::size_t delivered =
      study_for(GetParam(), fault::FaultProfile::Mild)
          .sc_dataset()
          .pings.size();
  ASSERT_GT(nominal, 0u);
  EXPECT_GE(delivered, (nominal * 8) / 10)
      << "delivered " << delivered << " of " << nominal;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweep, ::testing::Values(7, 101, 9001));

// ---------------------------------------------------------------------------
// Checkpoint / resume

[[nodiscard]] std::string serialize(const measure::Dataset& data) {
  std::ostringstream pings;
  core::export_pings_csv(pings, data, core::CsvFlavour::Canonical);
  std::ostringstream traces;
  core::export_traces_csv(traces, data, core::CsvFlavour::Canonical);
  return pings.str() + traces.str();
}

[[nodiscard]] core::StudyConfig resume_config() {
  core::StudyConfig config;
  config.seed = 11;
  config.sc_probes = 1200;
  config.include_atlas = false;
  config.sc_campaign.days = 3;
  config.sc_campaign.daily_budget = 2000;
  config.sc_campaign.case_study_probes = 5;
  config.fault_profile = fault::FaultProfile::Mild;
  return config;
}

TEST(CheckpointResume, KilledAndResumedRunIsBitIdentical) {
  const fs::path dir = fs::path{::testing::TempDir()} / "cloudrtt_resume";
  fs::remove_all(dir);

  core::Study uninterrupted{resume_config()};
  uninterrupted.run();
  ASSERT_TRUE(uninterrupted.completed());

  // "Kill" the driver after two of three days...
  core::Study killed{resume_config()};
  core::RunControl first;
  first.checkpoint_dir = dir.string();
  first.stop_after_day = 2;
  killed.run(first);
  EXPECT_FALSE(killed.completed());
  store::IoEnv io;
  ASSERT_EQ(
      store::open_store(dir, "speedchecker", io, /*repair=*/false).format, 4);

  // ...and resume in a fresh process (a fresh Study stands in for one).
  core::Study resumed{resume_config()};
  core::RunControl second;
  second.checkpoint_dir = dir.string();
  second.resume = true;
  resumed.run(second);
  EXPECT_TRUE(resumed.completed());

  EXPECT_EQ(serialize(uninterrupted.sc_dataset()),
            serialize(resumed.sc_dataset()));
  fs::remove_all(dir);
}

TEST(CheckpointResume, SeedMismatchRefusesToResume) {
  const fs::path dir =
      fs::path{::testing::TempDir()} / "cloudrtt_seed_mismatch";
  fs::remove_all(dir);

  core::Study original{resume_config()};
  core::RunControl first;
  first.checkpoint_dir = dir.string();
  first.stop_after_day = 1;
  original.run(first);

  core::StudyConfig other = resume_config();
  other.seed = 12;
  core::Study imposter{other};
  core::RunControl second;
  second.checkpoint_dir = dir.string();
  second.resume = true;
  EXPECT_THROW(imposter.run(second), std::runtime_error);
  fs::remove_all(dir);
}

TEST(CheckpointCorruption, AddressPlanIsIdenticalAcrossFreshWorlds) {
  // Resume correctness no longer rides on snapshot replay: two worlds built
  // from the same seed materialize the same plan, so records referencing
  // router addresses stay valid across process restarts.
  const topology::World world{topology::WorldConfig{33}};
  const topology::World fresh{topology::WorldConfig{33}};
  ASSERT_EQ(fresh.address_plan().size(), world.address_plan().size());
  const std::size_t frankfurt = test::hub_row(3257, "Frankfurt");
  EXPECT_EQ(fresh.address_plan().hub(frankfurt).in.ip,
            world.address_plan().hub(frankfurt).in.ip);
  const std::size_t vodafone = world.isp(3209).index;
  EXPECT_EQ(fresh.address_plan().isp_core(vodafone),
            world.address_plan().isp_core(vodafone));
}

}  // namespace
}  // namespace cloudrtt
