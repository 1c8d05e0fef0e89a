// Unit tests for the analysis pipeline: IP->ASN resolution, AS-path
// reduction, interconnection classification, last-mile inference and
// pervasiveness — validated against the simulator's ground truth.

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

#include "analysis/geolocate.hpp"
#include "analysis/nearest.hpp"
#include "analysis/resolve.hpp"
#include "analysis/experiments.hpp"
#include "analysis/trace_analysis.hpp"
#include "catalogue_rows.hpp"
#include "measure/engine.hpp"
#include "probes/fleet.hpp"
#include "topology/world.hpp"

namespace cloudrtt::analysis {
namespace {

class AnalysisTest : public ::testing::Test {
 protected:
  AnalysisTest() : resolver_(IpToAsn::from_world(world_)) {}

  topology::World world_{topology::WorldConfig{31}};
  probes::ProbeFleet fleet_{world_,
                            probes::FleetConfig{probes::Platform::Speedchecker, 900}};
  IpToAsn resolver_;
  measure::Engine engine_{world_};
};

TEST_F(AnalysisTest, ResolvesProbeAddressesToTheirIsp) {
  for (const probes::Probe& probe : fleet_.probes()) {
    const auto res = resolver_.resolve(probe.address);
    if (probe.behind_cgn) {
      EXPECT_FALSE(res.has_value());  // shared address space never resolves
    } else {
      ASSERT_TRUE(res.has_value());
      EXPECT_EQ(res->asn, probe.isp->asn);
      EXPECT_EQ(res->source, ResolutionSource::Rib);
    }
  }
}

TEST_F(AnalysisTest, ResolvesVmAddressesToTheProviderWan) {
  for (const topology::CloudEndpoint& endpoint : world_.endpoints()) {
    const auto res = resolver_.resolve(endpoint.vm_ip);
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(res->asn, cloud::provider_info(endpoint.region->provider).asn);
  }
}

TEST_F(AnalysisTest, PrivateSpaceNeverResolves) {
  EXPECT_FALSE(resolver_.resolve(net::Ipv4Address{192, 168, 1, 1}).has_value());
  EXPECT_FALSE(resolver_.resolve(net::Ipv4Address{10, 0, 0, 1}).has_value());
  EXPECT_FALSE(resolver_.resolve(net::Ipv4Address{100, 64, 0, 1}).has_value());
}

TEST_F(AnalysisTest, WhoisFallbackResolvesGttRouters) {
  // GTT keeps infrastructure out of the RIB; the resolver must fall back.
  const net::Ipv4Address router =
      world_.address_plan().hub(test::hub_row(3257, "Frankfurt")).in.ip;
  const auto res = resolver_.resolve(router);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->asn, 3257u);
  EXPECT_EQ(res->source, ResolutionSource::Whois);
}

TEST_F(AnalysisTest, IxpLansAreTagged) {
  const net::Ipv4Address lan =
      world_.address_plan().ixp_lan(test::ixp_row(6695));  // DE-CIX
  const auto res = resolver_.resolve(lan);
  ASSERT_TRUE(res.has_value());
  EXPECT_TRUE(res->is_ixp);
  EXPECT_TRUE(resolver_.is_ixp_asn(6695));
  EXPECT_FALSE(resolver_.is_ixp_asn(3209));
}

TEST_F(AnalysisTest, AsPathCollapsesConsecutiveHops) {
  util::Rng rng{1};
  const probes::Probe& probe = fleet_.probes().front();
  const auto& endpoint = world_.endpoints().front();
  const measure::TraceRecord trace = engine_.traceroute(probe, endpoint, 0, rng);
  const AsPath path = as_level_path(trace, resolver_);
  for (std::size_t i = 1; i < path.asns.size(); ++i) {
    EXPECT_NE(path.asns[i], path.asns[i - 1]);
  }
}

TEST_F(AnalysisTest, ClassificationAgreesWithGroundTruthMostly) {
  // The paper's caveats (§6.1): unresponsive hops and invisible IXPs cause
  // some misclassification; the bulk must still be right.
  util::Rng rng{2};
  std::size_t agree = 0;
  std::size_t valid = 0;
  for (int i = 0; i < 600; ++i) {
    const probes::Probe& probe = fleet_.probes()[rng.below(fleet_.size())];
    const auto& endpoint = world_.endpoints()[rng.below(world_.endpoints().size())];
    const measure::TraceRecord trace = engine_.traceroute(probe, endpoint, 0, rng);
    const InterconnectObservation obs = classify_interconnect(trace, resolver_);
    if (!obs.valid) continue;
    ++valid;
    // DirectIxp and Direct collapse when the IXP hop goes dark — accept both.
    const bool match =
        obs.mode == trace.true_mode ||
        (obs.mode == topology::InterconnectMode::Direct &&
         trace.true_mode == topology::InterconnectMode::DirectIxp);
    if (match) ++agree;
  }
  ASSERT_GT(valid, 400u);
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(valid), 0.75);
}

TEST_F(AnalysisTest, ClassificationIdentifiesIspAndCloud) {
  util::Rng rng{3};
  const probes::Probe& probe = fleet_.probes().front();
  const auto& endpoint = world_.endpoints().front();
  for (int i = 0; i < 50; ++i) {
    const measure::TraceRecord trace = engine_.traceroute(probe, endpoint, 0, rng);
    const InterconnectObservation obs = classify_interconnect(trace, resolver_);
    if (!obs.valid) continue;
    EXPECT_EQ(obs.cloud_asn, cloud::provider_info(endpoint.region->provider).asn);
    EXPECT_EQ(obs.isp_asn, probe.isp->asn);
  }
}

TEST_F(AnalysisTest, LastMileInferenceMatchesAccessTypeWithoutCgn) {
  util::Rng rng{4};
  std::size_t agree = 0;
  std::size_t valid = 0;
  for (const probes::Probe& probe : fleet_.probes()) {
    if (probe.behind_cgn) continue;  // CGN is a documented confounder
    const auto& endpoint = world_.endpoints()[rng.below(world_.endpoints().size())];
    const measure::TraceRecord trace = engine_.traceroute(probe, endpoint, 0, rng);
    const LastMileObservation obs = infer_last_mile(trace, resolver_);
    if (!obs.valid) continue;
    ++valid;
    const bool expected_home = probe.access == lastmile::AccessTech::HomeWifi;
    if ((obs.access == AccessClass::Home) == expected_home) ++agree;
  }
  ASSERT_GT(valid, 400u);
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(valid), 0.85);
}

TEST_F(AnalysisTest, CgnCellularLooksLikeHome) {
  // The §5 caveat: CGN gateways answer with shared-space addresses, so
  // cellular probes behind CGN classify as home.
  util::Rng rng{5};
  for (const probes::Probe& probe : fleet_.probes()) {
    if (!probe.behind_cgn || probe.access != lastmile::AccessTech::Cellular) {
      continue;
    }
    const measure::TraceRecord trace =
        engine_.traceroute(probe, world_.endpoints().front(), 0, rng);
    const LastMileObservation obs = infer_last_mile(trace, resolver_);
    if (!obs.valid) continue;
    // First hop is the CGN gateway (private): inferred Home despite being
    // cellular — unless the gateway hop went unresponsive.
    if (trace.hops.front().responded) {
      EXPECT_EQ(obs.access, AccessClass::Home);
    }
    return;  // one positive example suffices
  }
}

TEST_F(AnalysisTest, LastMileSplitsUsrAndRtr) {
  util::Rng rng{6};
  for (const probes::Probe& probe : fleet_.probes()) {
    if (probe.access != lastmile::AccessTech::HomeWifi || probe.behind_cgn) continue;
    const measure::TraceRecord trace =
        engine_.traceroute(probe, world_.endpoints().front(), 0, rng);
    const LastMileObservation obs = infer_last_mile(trace, resolver_);
    if (!obs.valid || !obs.rtr_isp_ms) continue;
    EXPECT_GE(obs.usr_isp_ms, *obs.rtr_isp_ms);
    EXPECT_GE(*obs.rtr_isp_ms, 0.0);
    return;
  }
  FAIL() << "no usable home trace found";
}

TEST_F(AnalysisTest, PervasivenessIsAValidRatio) {
  util::Rng rng{7};
  std::size_t produced = 0;
  for (int i = 0; i < 200; ++i) {
    const probes::Probe& probe = fleet_.probes()[rng.below(fleet_.size())];
    const auto& endpoint = world_.endpoints()[rng.below(world_.endpoints().size())];
    const measure::TraceRecord trace = engine_.traceroute(probe, endpoint, 0, rng);
    const auto ratio = pervasiveness(trace, resolver_);
    if (!ratio) continue;
    ++produced;
    EXPECT_GE(*ratio, 0.0);
    EXPECT_LE(*ratio, 1.0);
  }
  EXPECT_GT(produced, 150u);
}

TEST_F(AnalysisTest, IxpCollapseRateMatchesHopResponsiveness) {
  // §6.1 caveat: "it is not guaranteed that IXP hops will show up in
  // traceroutes, and therefore we might [mis]classify routes that traverse
  // via IXPs as direct." The collapse rate should track the IXP hop's
  // unresponsiveness (~10%), not be pervasive.
  util::Rng rng{41};
  std::size_t true_ixp = 0;
  std::size_t collapsed_to_direct = 0;
  for (int i = 0; i < 4000; ++i) {
    const probes::Probe& probe = fleet_.probes()[rng.below(fleet_.size())];
    const auto& endpoint = world_.endpoints()[rng.below(world_.endpoints().size())];
    const measure::TraceRecord trace = engine_.traceroute(probe, endpoint, 0, rng);
    if (trace.true_mode != topology::InterconnectMode::DirectIxp) continue;
    const InterconnectObservation obs = classify_interconnect(trace, resolver_);
    if (!obs.valid) continue;
    ++true_ixp;
    if (obs.mode == topology::InterconnectMode::Direct) ++collapsed_to_direct;
  }
  ASSERT_GT(true_ixp, 50u);
  const double rate = static_cast<double>(collapsed_to_direct) /
                      static_cast<double>(true_ixp);
  EXPECT_GT(rate, 0.01);
  EXPECT_LT(rate, 0.40);
}

TEST_F(AnalysisTest, CgnMisclassificationRateIsHigh) {
  // §5 caveat, quantified: cellular probes behind CGN present a private
  // first hop, so the home/cell classifier calls the large majority of them
  // "home".
  util::Rng rng{42};
  std::size_t cgn_cellular = 0;
  std::size_t misclassified_home = 0;
  for (const probes::Probe& probe : fleet_.probes()) {
    if (!probe.behind_cgn || probe.access != lastmile::AccessTech::Cellular) {
      continue;
    }
    const auto& endpoint = world_.endpoints()[rng.below(world_.endpoints().size())];
    const measure::TraceRecord trace = engine_.traceroute(probe, endpoint, 0, rng);
    const LastMileObservation obs = infer_last_mile(trace, resolver_);
    if (!obs.valid) continue;
    ++cgn_cellular;
    if (obs.access == AccessClass::Home) ++misclassified_home;
  }
  ASSERT_GT(cgn_cellular, 30u);
  EXPECT_GT(static_cast<double>(misclassified_home) /
                static_cast<double>(cgn_cellular),
            0.75);
}

TEST_F(AnalysisTest, NonCgnClassificationIsNearlyPerfectWhenHopsRespond) {
  // With a responsive first hop and no CGN, the classifier must be exact.
  util::Rng rng{43};
  for (const probes::Probe& probe : fleet_.probes()) {
    if (probe.behind_cgn) continue;
    const measure::TraceRecord trace =
        engine_.traceroute(probe, world_.endpoints().front(), 0, rng);
    if (trace.hops.empty() || !trace.hops.front().responded) continue;
    const LastMileObservation obs = infer_last_mile(trace, resolver_);
    if (!obs.valid) continue;
    if (probe.access == lastmile::AccessTech::HomeWifi) {
      EXPECT_EQ(obs.access, AccessClass::Home) << probe.id;
    } else {
      // Cellular/wired: first hop is public.
      EXPECT_EQ(obs.access, AccessClass::Cell) << probe.id;
    }
  }
}

class GeoDatabaseTest : public ::testing::Test {
 protected:
  topology::World world_{topology::WorldConfig{51}};
  GeoDatabase db_ = GeoDatabase::from_world(world_, 0.15);
  GeoDatabase perfect_ = GeoDatabase::from_world(world_, 0.0);
};

TEST_F(GeoDatabaseTest, PrivateSpaceHasNoEntry) {
  EXPECT_FALSE(db_.lookup(net::Ipv4Address{192, 168, 1, 1}).has_value());
  EXPECT_FALSE(db_.lookup(net::Ipv4Address{100, 64, 0, 1}).has_value());
}

TEST_F(GeoDatabaseTest, ZeroErrorRateLocatesEyeballsCorrectly) {
  for (const topology::IspNetwork& isp : world_.isps()) {
    const auto entry = perfect_.lookup(isp.customer_prefix.address_at(100));
    ASSERT_TRUE(entry.has_value()) << isp.name;
    EXPECT_EQ(entry->country, isp.country) << isp.name;
    EXPECT_FALSE(entry->registration_only);
  }
}

TEST_F(GeoDatabaseTest, ErrorRateProducesStaleEntries) {
  std::size_t stale = 0;
  std::size_t total = 0;
  for (const topology::IspNetwork& isp : world_.isps()) {
    const auto entry = db_.lookup(isp.customer_prefix.address_at(100));
    ASSERT_TRUE(entry.has_value());
    ++total;
    if (entry->country != isp.country) ++stale;
  }
  const double rate = static_cast<double>(stale) / static_cast<double>(total);
  EXPECT_GT(rate, 0.05);
  EXPECT_LT(rate, 0.30);
}

TEST_F(GeoDatabaseTest, CloudWanBackbonesGeolocateToHeadquarters) {
  // A WAN router physically in Europe still geolocates to the provider HQ —
  // the database's systematic failure mode.
  const net::Ipv4Address wan_router = world_.address_plan().pop(
      cloud::ProviderId::Microsoft, world_.countries().row("DE"));
  const auto entry = perfect_.lookup(wan_router);
  ASSERT_TRUE(entry.has_value());
  EXPECT_TRUE(entry->registration_only);
  EXPECT_EQ(entry->country, "US");
}

TEST_F(GeoDatabaseTest, CarrierBackbonesCarryRegistrationLocation) {
  // Any Telia router, anywhere, geolocates to the Stockholm registration.
  const net::Ipv4Address hub =
      world_.address_plan().hub(test::hub_row(1299, "Marseille")).in.ip;
  const auto entry = perfect_.lookup(hub);
  ASSERT_TRUE(entry.has_value());
  EXPECT_TRUE(entry->registration_only);
  EXPECT_EQ(entry->country, "SE");
}

TEST_F(GeoDatabaseTest, RegionPrefixesMostlyAtTheDcMetro) {
  std::size_t at_metro = 0;
  for (const topology::CloudEndpoint& endpoint : world_.endpoints()) {
    const auto entry = db_.lookup(endpoint.vm_ip);
    ASSERT_TRUE(entry.has_value());
    if (geo::haversine_km(entry->location, endpoint.region->location) < 100.0) {
      ++at_metro;
    }
  }
  EXPECT_GT(static_cast<double>(at_metro) /
                static_cast<double>(world_.endpoints().size()),
            0.75);
}

TEST(NearestIndexTest, PicksLowestMeanRegion) {
  measure::Dataset data;
  probes::Probe probe;
  probe.id = 1;
  const auto& regions = cloud::RegionCatalog::instance();
  const cloud::RegionInfo* near = regions.all().data();
  const cloud::RegionInfo* far = regions.all().data() + 1;
  for (const double rtt : {10.0, 12.0, 11.0}) {
    data.pings.push_back(
        measure::PingRecord{&probe, near, measure::Protocol::Tcp, rtt, 0});
  }
  for (const double rtt : {30.0, 31.0}) {
    data.pings.push_back(
        measure::PingRecord{&probe, far, measure::Protocol::Tcp, rtt, 0});
  }
  const NearestIndex index{data};
  EXPECT_EQ(index.nearest(&probe), near);
  EXPECT_EQ(index.samples(&probe, far)->size(), 2u);
  EXPECT_EQ(index.samples_to_nearest(&probe).size(), 3u);
  EXPECT_EQ(index.nearest(&probe, geo::Continent::Oceania), nullptr);
}

// Footnote 1 picks the region of lowest mean RTT. Equal means go to the
// lower region_name, then the lower provider (Amazon and Alibaba share
// region names), so the pick never depends on the order pings arrive in.
TEST(NearestIndexTest, EqualMeansPickTheSameRegionInEitherPingOrder) {
  const auto& catalog = cloud::RegionCatalog::instance().all();
  const auto find = [&](cloud::ProviderId provider, std::string_view name) {
    const auto it = std::find_if(
        catalog.begin(), catalog.end(), [&](const cloud::RegionInfo& r) {
          return r.provider == provider && r.region_name == name;
        });
    return it == catalog.end() ? nullptr : &*it;
  };
  const cloud::RegionInfo* frankfurt =
      find(cloud::ProviderId::Amazon, "eu-central-1");
  const cloud::RegionInfo* ireland = find(cloud::ProviderId::Amazon, "eu-west-1");
  const cloud::RegionInfo* alibaba =
      find(cloud::ProviderId::Alibaba, "eu-central-1");
  ASSERT_TRUE(frankfurt && ireland && alibaba);

  const auto nearest = [](const cloud::RegionInfo* first,
                          const cloud::RegionInfo* second) {
    probes::Probe probe;
    probe.id = 1;
    measure::Dataset data;
    // Means 20 and 20, summed in different orders.
    for (const double rtt : {10.0, 30.0}) {
      data.pings.push_back(
          measure::PingRecord{&probe, first, measure::Protocol::Tcp, rtt, 0});
    }
    for (const double rtt : {30.0, 10.0}) {
      data.pings.push_back(
          measure::PingRecord{&probe, second, measure::Protocol::Tcp, rtt, 0});
    }
    return NearestIndex{data}.nearest(&probe);
  };
  EXPECT_EQ(nearest(frankfurt, ireland), frankfurt);
  EXPECT_EQ(nearest(ireland, frankfurt), frankfurt);
  EXPECT_EQ(nearest(alibaba, frankfurt), frankfurt);
  EXPECT_EQ(nearest(frankfurt, alibaba), frankfurt);
}

TEST(QuantileDifferences, SignReflectsOrdering) {
  const std::vector<double> fast{1, 2, 3, 4, 5};
  const std::vector<double> slow{11, 12, 13, 14, 15};
  for (const double d : quantile_differences(fast, slow, 20)) {
    EXPECT_LT(d, 0.0);
  }
  for (const double d : quantile_differences(slow, fast, 20)) {
    EXPECT_GT(d, 0.0);
  }
  EXPECT_TRUE(quantile_differences({}, slow, 20).empty());
  EXPECT_EQ(quantile_differences(fast, slow, 50).size(), 50u);
}

TEST(LatencyBuckets, MatchFig3Legend) {
  EXPECT_EQ(latency_bucket(10.0), "<30");
  EXPECT_EQ(latency_bucket(45.0), "30-60");
  EXPECT_EQ(latency_bucket(80.0), "60-100");
  EXPECT_EQ(latency_bucket(200.0), "100-250");
  EXPECT_EQ(latency_bucket(400.0), ">250");
}

}  // namespace
}  // namespace cloudrtt::analysis
