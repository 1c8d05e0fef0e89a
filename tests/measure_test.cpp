// Unit tests for the measurement engine and the campaign scheduler.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "fault/plan.hpp"
#include "measure/campaign.hpp"
#include "measure/engine.hpp"
#include "measure/executor.hpp"
#include "obs/metrics.hpp"
#include "probes/fleet.hpp"
#include "store/codec.hpp"
#include "topology/world.hpp"
#include "util/stats.hpp"

namespace cloudrtt::measure {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  topology::World world_{topology::WorldConfig{21}};
  probes::ProbeFleet fleet_{
      world_, probes::FleetConfig{probes::Platform::Speedchecker, 800}};
  Engine engine_{world_};

  const probes::Probe& probe_in(std::string_view country) {
    for (const probes::Probe& probe : fleet_.probes()) {
      if (probe.country->code == country) return probe;
    }
    throw std::logic_error{"no probe in test country"};
  }
};

TEST_F(EngineTest, PingIsPositiveAndBoundedBelow) {
  util::Rng rng{1};
  const probes::Probe& probe = probe_in("DE");
  const auto& endpoint = world_.endpoints().front();
  for (int i = 0; i < 200; ++i) {
    const PingRecord ping =
        engine_.ping(probe, endpoint, Protocol::Tcp, 0, rng);
    EXPECT_GT(ping.rtt_ms, 1.0);
    EXPECT_LT(ping.rtt_ms, 2000.0);
    EXPECT_EQ(ping.probe, &probe);
    EXPECT_EQ(ping.region, endpoint.region);
  }
}

TEST_F(EngineTest, IcmpIsSlightlySlowerOnAverage) {
  util::Rng rng{2};
  const probes::Probe& probe = probe_in("EG");  // low quality => bigger gap
  const auto& endpoint = world_.endpoints().front();
  std::vector<double> tcp;
  std::vector<double> icmp;
  for (int i = 0; i < 800; ++i) {
    tcp.push_back(engine_.ping(probe, endpoint, Protocol::Tcp, 0, rng).rtt_ms);
    icmp.push_back(
        engine_.ping(probe, endpoint, Protocol::Icmp, 0, rng).rtt_ms);
  }
  EXPECT_GT(util::mean(icmp), util::mean(tcp));
  // ...but medians stay comparable (§A.2).
  EXPECT_NEAR(util::median(icmp), util::median(tcp), util::median(tcp) * 0.25);
}

TEST_F(EngineTest, TracerouteHopsAreOrderedAndMostlyResponsive) {
  util::Rng rng{3};
  const probes::Probe& probe = probe_in("GB");
  const auto& endpoint = world_.endpoints().front();
  std::size_t responded = 0;
  std::size_t total = 0;
  for (int i = 0; i < 100; ++i) {
    const TraceRecord trace = engine_.traceroute(probe, endpoint, 0, rng);
    EXPECT_EQ(trace.target_ip, endpoint.vm_ip);
    for (std::size_t h = 0; h < trace.hops.size(); ++h) {
      EXPECT_EQ(trace.hops[h].ttl, h + 1);
      ++total;
      if (trace.hops[h].responded) {
        ++responded;
        EXPECT_GT(trace.hops[h].rtt_ms, 0.0);
      }
    }
  }
  const double rate =
      static_cast<double>(responded) / static_cast<double>(total);
  EXPECT_GT(rate, 0.75);
  EXPECT_LT(rate, 0.99);
}

TEST_F(EngineTest, MostTracesCompleteButSomeAreFirewalled) {
  util::Rng rng{4};
  const probes::Probe& probe = probe_in("FR");
  const auto& endpoint = world_.endpoints().front();
  int completed = 0;
  constexpr int kRuns = 400;
  for (int i = 0; i < kRuns; ++i) {
    if (engine_.traceroute(probe, endpoint, 0, rng).completed) ++completed;
  }
  EXPECT_GT(completed, kRuns * 80 / 100);
  EXPECT_LT(completed, kRuns);
}

TEST_F(EngineTest, EndToEndAtLeastLastHopBase) {
  util::Rng rng{5};
  const probes::Probe& probe = probe_in("JP");
  const auto& endpoint = world_.endpoints().back();
  for (int i = 0; i < 50; ++i) {
    const TraceRecord trace = engine_.traceroute(probe, endpoint, 0, rng);
    if (!trace.completed) continue;
    EXPECT_GE(trace.end_to_end_ms, trace.hops.back().rtt_ms - 1e-9);
  }
}

TEST_F(EngineTest, DeterministicGivenSameRngState) {
  const probes::Probe& probe = probe_in("US");
  const auto& endpoint = world_.endpoints().front();
  util::Rng rng_a{77};
  util::Rng rng_b{77};
  const TraceRecord a = engine_.traceroute(probe, endpoint, 3, rng_a);
  const TraceRecord b = engine_.traceroute(probe, endpoint, 3, rng_b);
  ASSERT_EQ(a.hops.size(), b.hops.size());
  for (std::size_t i = 0; i < a.hops.size(); ++i) {
    EXPECT_EQ(a.hops[i].responded, b.hops[i].responded);
    if (a.hops[i].responded) {
      EXPECT_EQ(a.hops[i].ip, b.hops[i].ip);
      EXPECT_DOUBLE_EQ(a.hops[i].rtt_ms, b.hops[i].rtt_ms);
    }
  }
}

// The single-shot entries fold their own counts per call: the CLI's
// `trace`, the examples and perf_core read the registry right after one.
// ping() counts one ping and no traceroute; traceroute() and
// traceroute_into() one traceroute and no ping; each ping adds one sample
// to the RTT histogram.
TEST_F(EngineTest, SingleShotEntriesCountEachMeasurementOnce) {
  obs::Registry& registry = obs::Registry::global();
  const obs::Counter& pings = registry.counter("engine.pings_total");
  const obs::Counter& traces = registry.counter("engine.traceroutes_total");
  const obs::Histogram& rtt = registry.histogram("engine.ping.rtt_ms");
  const probes::Probe& probe = probe_in("DE");
  const auto& endpoint = world_.endpoints().front();
  util::Rng rng{41};
  std::vector<HopRecord> hops;
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t pings_before = pings.value();
    const std::uint64_t traces_before = traces.value();
    const std::uint64_t samples_before = rtt.count();
    (void)engine_.ping(probe, endpoint, Protocol::Icmp, 0, rng);
    EXPECT_EQ(pings.value() - pings_before, 1u);
    EXPECT_EQ(traces.value() - traces_before, 0u);
    EXPECT_EQ(rtt.count() - samples_before, 1u);
    (void)engine_.traceroute(probe, endpoint, 0, rng);
    EXPECT_EQ(pings.value() - pings_before, 1u);
    EXPECT_EQ(traces.value() - traces_before, 1u);
    (void)engine_.traceroute_into(probe, endpoint, 0, rng, hops);
    EXPECT_EQ(pings.value() - pings_before, 1u);
    EXPECT_EQ(traces.value() - traces_before, 2u);
    EXPECT_EQ(rtt.count() - samples_before, 1u);
  }
}

TEST_F(EngineTest, ModeRollFollowsPolicyMostOfTheTime) {
  util::Rng rng{6};
  const probes::Probe& probe = probe_in("DE");
  const cloud::RegionInfo& region = *world_.endpoints().front().region;
  const topology::PairPolicy& policy =
      world_.interconnect(*probe.isp, region.provider, region.continent);
  int base_hits = 0;
  constexpr int kRolls = 1000;
  for (int i = 0; i < kRolls; ++i) {
    if (engine_.roll_mode(probe, region, rng) == policy.base) ++base_hits;
  }
  EXPECT_NEAR(static_cast<double>(base_hits) / kRolls, policy.adherence, 0.05);
}

TEST_F(EngineTest, ParisTracerouteShowsStableInterfaces) {
  const probes::Probe& probe = probe_in("DE");
  // A small provider reached over public transit => ECMP segments on path.
  const topology::CloudEndpoint* endpoint = nullptr;
  for (const topology::CloudEndpoint& candidate : world_.endpoints()) {
    if (candidate.region->provider == cloud::ProviderId::Linode) {
      endpoint = &candidate;
      break;
    }
  }
  ASSERT_NE(endpoint, nullptr);

  const auto interfaces_seen = [&](Engine::TraceMethod method) {
    util::Rng rng{11};
    std::set<std::uint32_t> seen;
    for (int i = 0; i < 40; ++i) {
      const TraceRecord trace =
          engine_.traceroute(probe, *endpoint, 0, rng, method);
      for (const HopRecord& hop : trace.hops) {
        if (hop.responded) seen.insert(hop.ip.value());
      }
    }
    return seen.size();
  };
  // Classic flow-id churn exposes the ECMP siblings; Paris does not.
  EXPECT_GT(interfaces_seen(Engine::TraceMethod::Classic),
            interfaces_seen(Engine::TraceMethod::Paris));
}

TEST_F(EngineTest, ClassicInflationIsMild) {
  const probes::Probe& probe = probe_in("JP");
  const auto& endpoint = world_.endpoints().front();
  std::vector<double> classic;
  std::vector<double> paris;
  util::Rng rng_a{12};
  util::Rng rng_b{12};
  for (int i = 0; i < 300; ++i) {
    const TraceRecord a = engine_.traceroute(probe, endpoint, 0, rng_a,
                                             Engine::TraceMethod::Classic);
    const TraceRecord b = engine_.traceroute(probe, endpoint, 0, rng_b,
                                             Engine::TraceMethod::Paris);
    if (a.completed) classic.push_back(a.end_to_end_ms);
    if (b.completed) paris.push_back(b.end_to_end_ms);
  }
  // End-to-end medians stay comparable: ECMP noise is per-hop, the final
  // echo is what the study's Fig. 15 consumed.
  EXPECT_NEAR(util::median(classic), util::median(paris),
              util::median(paris) * 0.15);
}

TEST_F(EngineTest, InterDcPrivateBackboneBeatsPublicAtMatchedDistance) {
  util::Rng rng{14};
  // Frankfurt -> Tokyo on Amazon's WAN vs Frankfurt -> Tokyo for Linode
  // (public backbone): roughly the same geography, different transport.
  const auto find = [&](cloud::ProviderId provider, std::string_view country)
      -> const topology::CloudEndpoint* {
    for (const topology::CloudEndpoint& endpoint : world_.endpoints()) {
      if (endpoint.region->provider == provider &&
          endpoint.region->country == country) {
        return &endpoint;
      }
    }
    return nullptr;
  };
  const auto* amzn_de = find(cloud::ProviderId::Amazon, "DE");
  const auto* amzn_jp = find(cloud::ProviderId::Amazon, "JP");
  const auto* lin_de = find(cloud::ProviderId::Linode, "DE");
  const auto* lin_jp = find(cloud::ProviderId::Linode, "JP");
  ASSERT_TRUE(amzn_de && amzn_jp && lin_de && lin_jp);

  std::vector<double> wan;
  std::vector<double> pub;
  for (int i = 0; i < 200; ++i) {
    wan.push_back(engine_.interdc_rtt(*amzn_de, *amzn_jp, rng));
    pub.push_back(engine_.interdc_rtt(*lin_de, *lin_jp, rng));
  }
  EXPECT_LT(util::median(wan), util::median(pub));
  const auto wan_cv = util::coefficient_of_variation(wan);
  const auto pub_cv = util::coefficient_of_variation(pub);
  ASSERT_TRUE(wan_cv && pub_cv);
  EXPECT_LT(*wan_cv, *pub_cv);
}

TEST_F(EngineTest, InterDcIsRoughlySymmetric) {
  util::Rng rng{15};
  const auto& a = world_.endpoints().front();
  const auto& b = world_.endpoints().back();
  std::vector<double> forward;
  std::vector<double> backward;
  for (int i = 0; i < 150; ++i) {
    forward.push_back(engine_.interdc_rtt(a, b, rng));
    backward.push_back(engine_.interdc_rtt(b, a, rng));
  }
  EXPECT_NEAR(util::median(forward), util::median(backward),
              util::median(forward) * 0.2);
}

TEST_F(EngineTest, EveningSlotsRunHotterOnWeakBackhauls) {
  // Direct model check: for a fixed low-quality-country probe, the slot
  // whose local time hits the evening peak must yield higher mean RTTs.
  const probes::Probe& probe = probe_in("EG");
  const auto& endpoint = world_.endpoints().front();
  // Find the slot mapping closest to 20:00 local and the one furthest away.
  std::uint8_t peak_slot = 0;
  std::uint8_t off_slot = 0;
  double peak_best = 0.0;
  double off_best = 2.0;
  for (std::uint8_t slot = 0; slot < 6; ++slot) {
    const double factor = Engine::diurnal_factor(probe, slot);
    if (factor > peak_best) {
      peak_best = factor;
      peak_slot = slot;
    }
    if (factor < off_best) {
      off_best = factor;
      off_slot = slot;
    }
  }
  EXPECT_GT(peak_best, off_best);

  util::Rng rng_a{31};
  util::Rng rng_b{31};
  std::vector<double> peak;
  std::vector<double> off;
  for (int i = 0; i < 600; ++i) {
    peak.push_back(
        engine_.ping(probe, endpoint, Protocol::Tcp, 0, rng_a, peak_slot)
            .rtt_ms);
    off.push_back(
        engine_.ping(probe, endpoint, Protocol::Tcp, 0, rng_b, off_slot)
            .rtt_ms);
  }
  EXPECT_GT(util::mean(peak), util::mean(off));
}

TEST_F(EngineTest, DiurnalFactorIsBounded) {
  for (const probes::Probe& probe : fleet_.probes()) {
    for (std::uint8_t slot = 0; slot < 6; ++slot) {
      const double factor = Engine::diurnal_factor(probe, slot);
      EXPECT_GE(factor, 1.0);
      EXPECT_LE(factor, 1.25);
    }
  }
}

[[nodiscard]] bool same_ping(const PingRecord& a, const PingRecord& b) {
  return a.probe == b.probe && a.region == b.region &&
         a.protocol == b.protocol && a.rtt_ms == b.rtt_ms && a.day == b.day &&
         a.slot == b.slot;
}

[[nodiscard]] bool same_trace(const TraceCore& a, const TraceCore& b) {
  return a.probe == b.probe && a.region == b.region &&
         a.target_ip == b.target_ip && a.completed == b.completed &&
         a.end_to_end_ms == b.end_to_end_ms && a.day == b.day &&
         a.slot == b.slot && a.true_mode == b.true_mode;
}

[[nodiscard]] bool same_hops(std::span<const HopRecord> a,
                             std::span<const HopRecord> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const HopRecord& x, const HopRecord& y) {
                      return x.ttl == y.ttl && x.responded == y.responded &&
                             x.ip == y.ip && x.rtt_ms == y.rtt_ms;
                    });
}

/// Engine::run_task against the two measurements it stands for: ping() then
/// traceroute_into() on fresh scratch, from a copy of the same RNG. The
/// entry's scratch is reused across tasks, as a worker's is.
void expect_task_entry_matches_split(std::uint64_t seed, bool cut) {
  topology::World world{topology::WorldConfig{seed}};
  const probes::ProbeFleet fleet{
      world, probes::FleetConfig{probes::Platform::Speedchecker, 800}};
  const Engine engine{world};
  if (cut) {
    // Reroute every path that crossed one of the first cables.
    std::vector<std::pair<std::string_view, std::string_view>> cuts;
    for (const topology::BackboneLinkRef& link : world.backbone().links()) {
      if (cuts.size() == 12) break;
      cuts.emplace_back(link.a, link.b);
    }
    world.backbone().set_outages(cuts);
    ASSERT_TRUE(world.backbone().outages_active());
  }
  const fault::TraceFaults faults{0.3, 0.1};
  util::Rng pick{seed};
  MeasurementScratch worker;
  std::size_t same_mode = 0;
  std::size_t other_mode = 0;
  constexpr std::size_t kTasks = 2000;
  for (std::size_t i = 0; i < kTasks; ++i) {
    MeasurementTask task;
    task.probe = &pick.pick(fleet.probes());
    task.endpoint = &pick.pick(world.endpoints());
    task.day = static_cast<std::uint32_t>(pick.below(10));
    task.slot = static_cast<std::uint8_t>(pick.below(6));
    task.trace_faults = pick.chance(0.3) ? &faults : nullptr;
    util::Rng entry_rng = pick.fork(i);
    util::Rng split_rng = entry_rng;

    const std::size_t hop_begin = worker.hops.size();
    EngineTally tally;
    const TaskRecords got = engine.run_task(task, entry_rng, worker, tally);

    MeasurementScratch fresh;
    const PingRecord ping =
        engine.ping(*task.probe, *task.endpoint, Protocol::Tcp, task.day,
                    split_rng, task.slot, &fresh);
    const topology::InterconnectMode ping_mode = fresh.path.mode;
    std::vector<HopRecord> hops;
    const TraceCore trace = engine.traceroute_into(
        *task.probe, *task.endpoint, task.day, split_rng, hops,
        Engine::TraceMethod::Classic, task.slot, task.trace_faults, &fresh);
    ++(trace.true_mode == ping_mode ? same_mode : other_mode);

    ASSERT_TRUE(same_ping(got.ping, ping))
        << "seed " << seed << " task " << i;
    ASSERT_TRUE(same_trace(got.trace, trace))
        << "seed " << seed << " task " << i;
    ASSERT_TRUE(same_hops(std::span{worker.hops}.subspan(hop_begin), hops))
        << "seed " << seed << " task " << i;
    ASSERT_EQ(entry_rng.next(), split_rng.next())
        << "seed " << seed << " task " << i;
  }
  // Both branches ran: traceroutes that reuse the ping's path and ones that
  // rolled another mode and rebuilt.
  EXPECT_GT(same_mode, kTasks / 2);
  EXPECT_GT(other_mode, 0U);
  world.backbone().clear_outages();
}

TEST(TaskEntry, MatchesPingThenTracerouteBitForBit) {
  for (const std::uint64_t seed : {23U, 57U}) {
    expect_task_entry_matches_split(seed, /*cut=*/false);
    expect_task_entry_matches_split(seed, /*cut=*/true);
  }
}

class CampaignTest : public ::testing::Test {
 protected:
  CampaignTest() {
    config_.days = 2;
    config_.daily_budget = 1500;
    config_.run_case_studies = true;
    config_.case_study_probes = 4;
  }

  topology::World world_{topology::WorldConfig{22}};
  probes::ProbeFleet fleet_{
      world_, probes::FleetConfig{probes::Platform::Speedchecker, 1500}};
  CampaignConfig config_;
};

TEST_F(CampaignTest, RespectsDailyBudget) {
  const Campaign campaign{world_, fleet_, config_};
  const Dataset data = campaign.run(util::Rng{1});
  EXPECT_LE(data.pings.size(), config_.days * config_.daily_budget);
  EXPECT_EQ(data.pings.size(), data.traces.size());
  EXPECT_GT(data.pings.size(), config_.daily_budget / 2);
}

TEST_F(CampaignTest, DaysAreStamped) {
  const Campaign campaign{world_, fleet_, config_};
  const Dataset data = campaign.run(util::Rng{1});
  std::set<std::uint32_t> days;
  for (const PingRecord& ping : data.pings) days.insert(ping.day);
  EXPECT_LE(*days.rbegin(), config_.days - 1);
  EXPECT_GE(days.size(), 2u);
}

TEST_F(CampaignTest, SchedulesOnlyCountriesAboveThePaperThreshold) {
  const Campaign campaign{world_, fleet_, config_};
  for (const std::string_view code : campaign.scheduled_countries()) {
    EXPECT_GE(world_.countries().at(code).sc_weight,
              config_.paper_country_threshold)
        << code;
  }
  // Fiji (weight 25) never qualifies.
  for (const std::string_view code : campaign.scheduled_countries()) {
    EXPECT_NE(code, "FJ");
  }
}

TEST_F(CampaignTest, CaseStudiesProduceFocusedMeasurements) {
  const Campaign campaign{world_, fleet_, config_};
  const Dataset data = campaign.run(util::Rng{1});
  std::size_t de_to_gb = 0;
  std::size_t bh_to_in = 0;
  for (const TraceRef& trace : data.traces) {
    if (trace.probe->country->code == std::string_view{"DE"} &&
        trace.region->country == std::string_view{"GB"}) {
      ++de_to_gb;
    }
    if (trace.probe->country->code == std::string_view{"BH"} &&
        trace.region->country == std::string_view{"IN"}) {
      ++bh_to_in;
    }
  }
  EXPECT_GT(de_to_gb, 20u);
  EXPECT_GT(bh_to_in, 20u);
}

TEST_F(CampaignTest, AfricanProbesTargetNeighbouringContinents) {
  const Campaign campaign{world_, fleet_, config_};
  const Dataset data = campaign.run(util::Rng{1});
  bool af_to_eu = false;
  bool af_to_na = false;
  bool sa_to_na = false;
  for (const PingRecord& ping : data.pings) {
    const geo::Continent src = ping.probe->country->continent;
    const geo::Continent dst = ping.region->continent;
    if (src == geo::Continent::Africa && dst == geo::Continent::Europe)
      af_to_eu = true;
    if (src == geo::Continent::Africa && dst == geo::Continent::NorthAmerica)
      af_to_na = true;
    if (src == geo::Continent::SouthAmerica &&
        dst == geo::Continent::NorthAmerica)
      sa_to_na = true;
  }
  EXPECT_TRUE(af_to_eu);
  EXPECT_TRUE(af_to_na);
  EXPECT_TRUE(sa_to_na);
}

TEST_F(CampaignTest, EuropeDoesNotTargetOtherContinents) {
  const Campaign campaign{world_, fleet_, config_};
  const Dataset data = campaign.run(util::Rng{1});
  for (const PingRecord& ping : data.pings) {
    if (ping.probe->country->continent == geo::Continent::Europe) {
      EXPECT_EQ(ping.region->continent, geo::Continent::Europe);
    }
  }
}

TEST_F(CampaignTest, DeterministicForSameRng) {
  const Campaign campaign{world_, fleet_, config_};
  const Dataset a = campaign.run(util::Rng{9});
  const Dataset b = campaign.run(util::Rng{9});
  ASSERT_EQ(a.pings.size(), b.pings.size());
  for (std::size_t i = 0; i < a.pings.size(); ++i) {
    EXPECT_EQ(a.pings[i].probe, b.pings[i].probe);
    EXPECT_DOUBLE_EQ(a.pings[i].rtt_ms, b.pings[i].rtt_ms);
  }
}

TEST_F(CampaignTest, SlotsSpanTheDay) {
  const Campaign campaign{world_, fleet_, config_};
  const Dataset data = campaign.run(util::Rng{1});
  std::set<std::uint8_t> slots;
  for (const PingRecord& ping : data.pings) {
    EXPECT_LE(ping.slot, 5);
    slots.insert(ping.slot);
  }
  EXPECT_GE(slots.size(), 4u);  // the budget drains across the day
}

TEST_F(CampaignTest, ZeroDailyBudgetCompletesCleanly) {
  // A platform quota of zero is a degenerate but legal configuration: every
  // day ends immediately with nothing delivered.
  config_.daily_budget = 0;
  const Campaign campaign{world_, fleet_, config_};
  const Dataset data = campaign.run(util::Rng{5});
  EXPECT_TRUE(data.pings.empty());
  EXPECT_TRUE(data.traces.empty());
}

TEST_F(CampaignTest, AllOfflineFleetCompletesCleanly) {
  // Churn factor 0 knocks every probe offline: the campaign must walk its
  // days without crashing or spinning, and deliver nothing.
  config_.run_case_studies = false;
  fault::FaultIntensity intensity;
  intensity.churn_factor = 0.0;
  const fault::FaultPlan plan{world_, config_.days, intensity, 1};
  const Campaign campaign{world_, fleet_, config_};
  RunHooks hooks;
  hooks.faults = &plan;
  const Dataset data = campaign.run(util::Rng{5}, {}, hooks);
  EXPECT_TRUE(data.pings.empty());
  EXPECT_TRUE(data.traces.empty());
}

TEST_F(CampaignTest, ResumeMidCampaignMatchesStraightRun) {
  // The after_day hook reports a (next_day, cursor) state; feeding that state
  // back into a second run must produce the same tail the straight run did.
  config_.run_case_studies = false;
  const Campaign campaign{world_, fleet_, config_};
  const Dataset straight = campaign.run(util::Rng{7});

  CampaignState checkpoint;
  Dataset first_half;
  RunHooks stop_after_first_day;
  stop_after_first_day.after_day = [&](const CampaignState& state,
                                       const Dataset& data) {
    checkpoint = state;
    first_half = data;
    return state.next_day < 1;
  };
  (void)campaign.run(util::Rng{7}, {}, stop_after_first_day);

  const Dataset resumed =
      campaign.run(util::Rng{7}, checkpoint, {}, std::move(first_half));
  ASSERT_EQ(straight.pings.size(), resumed.pings.size());
  for (std::size_t i = 0; i < straight.pings.size(); ++i) {
    EXPECT_EQ(straight.pings[i].probe, resumed.pings[i].probe);
    EXPECT_DOUBLE_EQ(straight.pings[i].rtt_ms, resumed.pings[i].rtt_ms);
  }
}

// A streamed campaign holds one executor batch of rows, not one day, so its
// memory does not grow with the daily volume. Counted, not read off RSS: at
// daily budgets B (two batches) and 8B, every call of the day_rows hook
// sees only the batch just merged, each batch starts on a store block
// boundary right where the previous one ended, and the executor's staging
// peaks at the same size.
TEST_F(CampaignTest, StreamedRunHoldsOneBatchWhateverTheDailyVolume) {
  constexpr std::size_t kBatch = ParallelExecutor::kBatchTasks;
  // Every connected probe joins its country's visit and measures many
  // targets, so even 8B tasks a day are there to be had: the budget binds.
  config_.visit_probes_by_continent.fill(fleet_.probes().size());
  config_.visit_probes_cap = fleet_.probes().size();
  config_.extra_targets = 150;
  config_.threads = 2;
  const obs::Gauge& staging = obs::Registry::global().gauge(
      "measure.staging_arena_high_water_bytes");
  std::vector<double> staging_high_water;
  for (const std::size_t budget : {2 * kBatch, 16 * kBatch}) {
    SCOPED_TRACE(budget);
    config_.daily_budget = budget;
    const Campaign campaign{world_, fleet_, config_};
    std::size_t rows = 0;
    std::size_t batches = 0;
    std::uint32_t day_seen = 0;
    std::size_t day_rows = 0;
    RunHooks hooks;
    hooks.drop_day_rows = true;
    hooks.day_rows = [&](std::uint32_t day, std::size_t /*cursor*/,
                         std::uint32_t first_task, const Dataset& data,
                         std::size_t ping_begin, std::size_t trace_begin) {
      if (day != day_seen) {
        day_seen = day;
        day_rows = 0;
      }
      EXPECT_EQ(ping_begin, 0u);
      EXPECT_EQ(trace_begin, 0u);
      EXPECT_LE(data.pings.size(), kBatch);
      EXPECT_EQ(data.traces.size(), data.pings.size());
      EXPECT_EQ(first_task % store::kBlockTasks, 0u);
      EXPECT_EQ(first_task, day_rows);
      day_rows += data.pings.size();
      rows += data.pings.size();
      ++batches;
    };
    const Dataset left = campaign.run(util::Rng{5}, CampaignState{}, hooks);
    EXPECT_TRUE(left.pings.empty());
    EXPECT_EQ(rows, config_.days * budget);
    EXPECT_EQ(batches, config_.days * (budget / kBatch));
    staging_high_water.push_back(staging.value());
  }
  EXPECT_GT(staging_high_water[0], 0.0);
  EXPECT_LE(staging_high_water[1], staging_high_water[0]);
}

// Each Campaign::run builds its own executor, so a study's Atlas campaign
// stages less than its Speedchecker campaign did. The staging gauge keeps the
// larger of the two: after a day of 2,500 tasks, one of 900 must not lower it.
TEST_F(CampaignTest, StagingHighWaterKeepsTheLargerCampaign) {
  config_.visit_probes_by_continent.fill(fleet_.probes().size());
  config_.visit_probes_cap = fleet_.probes().size();
  config_.extra_targets = 150;
  config_.days = 1;
  config_.run_case_studies = false;
  obs::Gauge& staging = obs::Registry::global().gauge(
      "measure.staging_arena_high_water_bytes");
  staging.reset();
  std::vector<double> high_water;
  for (const std::size_t budget : {std::size_t{2500}, std::size_t{900}}) {
    config_.daily_budget = budget;
    const Campaign campaign{world_, fleet_, config_};
    EXPECT_EQ(campaign.run(util::Rng{5}).pings.size(), budget);
    high_water.push_back(staging.value());
  }
  EXPECT_GT(high_water[0], 0.0);
  EXPECT_EQ(high_water[1], high_water[0]);
}

TEST_F(CampaignTest, OnlyConnectedProbesMeasure) {
  // All selected probes must come from the fleet (sanity of the pointers).
  const Campaign campaign{world_, fleet_, config_};
  const Dataset data = campaign.run(util::Rng{1});
  std::unordered_set<const probes::Probe*> known;
  for (const probes::Probe& probe : fleet_.probes()) known.insert(&probe);
  for (const PingRecord& ping : data.pings) {
    EXPECT_TRUE(known.contains(ping.probe));
  }
}

// -- columnar core (AoS -> SoA equivalence gates) ----------------------------

TEST_F(CampaignTest, ColumnarCursorMatchesColumnCells) {
  // The materialised row views must agree with the raw per-cell accessors
  // the serialisers use — they are two reads of the same columns.
  const Campaign campaign{world_, fleet_, config_};
  const Dataset data = campaign.run(util::Rng{3});
  ASSERT_GT(data.traces.size(), 0u);
  for (std::size_t row = 0; row < data.traces.size(); ++row) {
    const TraceRef view = data.traces[row];
    EXPECT_EQ(view.completed, data.traces.completed(row));
    EXPECT_DOUBLE_EQ(view.end_to_end_ms, data.traces.end_to_end_ms(row));
    EXPECT_EQ(view.day, data.traces.day(row));
    EXPECT_EQ(view.true_mode, data.traces.true_mode(row));
    EXPECT_EQ(view.hops.size(), data.traces.hop_count(row));
    EXPECT_EQ(view.hops.data(), data.traces.hops(row).data());
  }
  for (std::size_t row = 0; row < data.pings.size(); ++row) {
    const PingRecord view = data.pings[row];
    EXPECT_DOUBLE_EQ(view.rtt_ms, data.pings.rtt_ms(row));
    EXPECT_EQ(view.protocol, data.pings.protocol(row));
    EXPECT_EQ(view.probe->id, data.pings.probe_id(row));
  }
}

TEST_F(CampaignTest, ColumnarHopPoolIsFlatAndContiguous) {
  // Hop spans tile the flat pool in task order: each row's span starts where
  // the previous row's ended, and the pool holds exactly the sum of counts.
  const Campaign campaign{world_, fleet_, config_};
  const Dataset data = campaign.run(util::Rng{3});
  std::size_t expected_offset = 0;
  for (std::size_t row = 0; row < data.traces.size(); ++row) {
    const std::span<const HopRecord> hops = data.traces.hops(row);
    EXPECT_EQ(hops.data(), data.traces.hop_pool().data() + expected_offset);
    expected_offset += hops.size();
  }
  EXPECT_EQ(expected_offset, data.traces.hop_pool().size());
}

TEST(ColumnarDataset, RoundTripsHandBuiltRecordsThroughExtras) {
  // Records pushed into an *unbound* Dataset (no fleets registered, as unit
  // tests build them) fall back to the extras table and must still
  // round-trip every field exactly.
  topology::World world{topology::WorldConfig{5}};
  probes::ProbeFleet fleet{
      world, probes::FleetConfig{probes::Platform::Speedchecker, 50}};
  Engine engine{world};
  util::Rng rng{9};
  const probes::Probe& probe = fleet.probes().front();
  const auto& endpoint = world.endpoints().front();

  Dataset data;  // deliberately unbound: every code is an extras code
  PingRecord ping = engine.ping(probe, endpoint, Protocol::Icmp, 4, rng, 2);
  data.pings.push_back(ping);

  TraceRecord trace = engine.traceroute(probe, endpoint, 4, rng,
                                        Engine::TraceMethod::Classic, 2);
  data.traces.push_back(trace);

  EXPECT_FALSE(data.binding().pure());
  const PingRecord ping_back = data.pings[0];
  EXPECT_EQ(ping_back.probe, ping.probe);
  EXPECT_EQ(ping_back.region, ping.region);
  EXPECT_DOUBLE_EQ(ping_back.rtt_ms, ping.rtt_ms);
  EXPECT_EQ(ping_back.day, 4u);
  EXPECT_EQ(ping_back.slot, 2);

  const TraceRecord trace_back = data.traces[0].to_record();
  EXPECT_EQ(trace_back.probe, trace.probe);
  EXPECT_EQ(trace_back.region, trace.region);
  EXPECT_EQ(trace_back.target_ip, trace.target_ip);
  EXPECT_EQ(trace_back.completed, trace.completed);
  EXPECT_DOUBLE_EQ(trace_back.end_to_end_ms, trace.end_to_end_ms);
  EXPECT_EQ(trace_back.true_mode, trace.true_mode);
  ASSERT_EQ(trace_back.hops.size(), trace.hops.size());
  for (std::size_t i = 0; i < trace.hops.size(); ++i) {
    EXPECT_EQ(trace_back.hops[i].ttl, trace.hops[i].ttl);
    EXPECT_EQ(trace_back.hops[i].responded, trace.hops[i].responded);
    EXPECT_EQ(trace_back.hops[i].ip, trace.hops[i].ip);
    EXPECT_DOUBLE_EQ(trace_back.hops[i].rtt_ms, trace.hops[i].rtt_ms);
  }
}

}  // namespace
}  // namespace cloudrtt::measure
