// Unit tests for forwarding-path construction: per-mode path shapes, hop
// ownership, latency monotonicity, the case-study geography (§6.2), and the
// distance tables the builder makes its carrier/hub/IXP choices from.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string_view>
#include <tuple>
#include <vector>

#include "probes/fleet.hpp"
#include "routing/path_builder.hpp"
#include "topology/world.hpp"

namespace cloudrtt::routing {
namespace {

using topology::InterconnectMode;

class PathBuilderTest : public ::testing::Test {
 protected:
  PathBuilderTest() : builder_(world_) {}

  /// A synthetic probe pinned to a given country's first ISP.
  probes::Probe make_probe(std::string_view country,
                           lastmile::AccessTech access = lastmile::AccessTech::HomeWifi,
                           bool cgn = false) {
    const geo::CountryInfo& info = world_.countries().at(country);
    probes::Probe probe;
    probe.id = next_id_++;
    probe.country = &info;
    probe.isp = world_.isps_in(country).front();
    probe.city = &geo::CityDirectory::instance().cities(country).front();
    probe.location = probe.city->location;
    probe.access = access;
    probe.behind_cgn = cgn;
    util::Rng rng{probe.id};
    probe.lastmile = lastmile::make_profile(access, info.backhaul_quality, rng);
    probe.address = cgn ? world_.allocate_cgn_ip(probe.isp->asn)
                        : world_.allocate_customer_ip(probe.isp->asn);
    return probe;
  }

  const topology::CloudEndpoint& endpoint_in(std::string_view country,
                                             cloud::ProviderId provider) {
    for (const topology::CloudEndpoint& endpoint : world_.endpoints()) {
      if (endpoint.region->country == country &&
          endpoint.region->provider == provider) {
        return endpoint;
      }
    }
    throw std::logic_error{"no such endpoint in test"};
  }

  /// Count distinct non-ISP, non-cloud, non-IXP ASes between ISP and cloud.
  int intermediate_as_count(const ForwardingPath& path,
                            topology::Asn isp_asn, topology::Asn cloud_asn) {
    std::vector<topology::Asn> seen;
    for (const RouterHop& hop : path.hops) {
      if (hop.is_private || hop.asn == isp_asn) continue;
      if (hop.asn == cloud_asn) break;
      if (world_.registry().contains(hop.asn) &&
          world_.registry().at(hop.asn).is_ixp()) {
        continue;
      }
      if (std::find(seen.begin(), seen.end(), hop.asn) == seen.end()) {
        seen.push_back(hop.asn);
      }
    }
    return static_cast<int>(seen.size());
  }

  topology::World world_{topology::WorldConfig{11}};
  PathBuilder builder_;
  std::uint32_t next_id_ = 1;
};

TEST_F(PathBuilderTest, PathEndsAtTheTargetVm) {
  const probes::Probe probe = make_probe("DE");
  const auto& endpoint = endpoint_in("GB", cloud::ProviderId::Amazon);
  for (const InterconnectMode mode :
       {InterconnectMode::Direct, InterconnectMode::DirectIxp,
        InterconnectMode::OneAs, InterconnectMode::Public}) {
    const ForwardingPath path = builder_.build(probe, endpoint, mode);
    ASSERT_FALSE(path.hops.empty());
    EXPECT_EQ(path.hops.back().ip, endpoint.vm_ip);
    EXPECT_TRUE(path.hops.back().cloud_owned);
    EXPECT_EQ(path.mode, mode);
  }
}

TEST_F(PathBuilderTest, BaseRttIsMonotoneAlongThePath) {
  const probes::Probe probe = make_probe("JP");
  const auto& endpoint = endpoint_in("IN", cloud::ProviderId::Microsoft);
  const ForwardingPath path =
      builder_.build(probe, endpoint, InterconnectMode::Public);
  double previous = -1.0;
  for (const RouterHop& hop : path.hops) {
    EXPECT_GE(hop.base_rtt_ms, previous);
    previous = hop.base_rtt_ms;
  }
}

TEST_F(PathBuilderTest, HomeProbeStartsWithPrivateRouter) {
  const probes::Probe probe = make_probe("DE", lastmile::AccessTech::HomeWifi);
  const ForwardingPath path = builder_.build(
      probe, endpoint_in("DE", cloud::ProviderId::Amazon), InterconnectMode::Direct);
  ASSERT_GE(path.hops.size(), 2u);
  EXPECT_TRUE(path.hops.front().is_private);
  EXPECT_TRUE(net::is_rfc1918(path.hops.front().ip));
  EXPECT_FALSE(path.hops[1].is_private);
}

TEST_F(PathBuilderTest, CellularProbeHitsIspDirectly) {
  const probes::Probe probe = make_probe("DE", lastmile::AccessTech::Cellular);
  const ForwardingPath path = builder_.build(
      probe, endpoint_in("DE", cloud::ProviderId::Amazon), InterconnectMode::Direct);
  EXPECT_FALSE(path.hops.front().is_private);
  EXPECT_EQ(path.hops.front().asn, probe.isp->asn);
}

TEST_F(PathBuilderTest, CgnInsertsSharedSpaceHop) {
  const probes::Probe probe =
      make_probe("DE", lastmile::AccessTech::Cellular, /*cgn=*/true);
  const ForwardingPath path = builder_.build(
      probe, endpoint_in("DE", cloud::ProviderId::Amazon), InterconnectMode::Direct);
  EXPECT_TRUE(path.hops.front().is_private);
  EXPECT_TRUE(net::is_cgn(path.hops.front().ip));
}

TEST_F(PathBuilderTest, DirectPathHasNoIntermediateAs) {
  const probes::Probe probe = make_probe("DE");
  const auto& endpoint = endpoint_in("GB", cloud::ProviderId::Google);
  const ForwardingPath path =
      builder_.build(probe, endpoint, InterconnectMode::Direct);
  EXPECT_EQ(intermediate_as_count(path, probe.isp->asn,
                                  cloud::provider_info(cloud::ProviderId::Google).asn),
            0);
}

TEST_F(PathBuilderTest, OneAsPathHasExactlyOneCarrier) {
  const probes::Probe probe = make_probe("DE");
  const auto& endpoint = endpoint_in("GB", cloud::ProviderId::Vultr);
  const ForwardingPath path =
      builder_.build(probe, endpoint, InterconnectMode::OneAs);
  EXPECT_EQ(intermediate_as_count(path, probe.isp->asn,
                                  cloud::provider_info(cloud::ProviderId::Vultr).asn),
            1);
}

TEST_F(PathBuilderTest, PublicPathHasTwoOrMoreIntermediates) {
  const probes::Probe probe = make_probe("DE");
  const auto& endpoint = endpoint_in("GB", cloud::ProviderId::Linode);
  const ForwardingPath path =
      builder_.build(probe, endpoint, InterconnectMode::Public);
  EXPECT_GE(intermediate_as_count(path, probe.isp->asn,
                                  cloud::provider_info(cloud::ProviderId::Linode).asn),
            2);
}

TEST_F(PathBuilderTest, DirectIxpExposesAnExchangeHop) {
  const probes::Probe probe = make_probe("DE");
  const auto& endpoint = endpoint_in("GB", cloud::ProviderId::Ibm);
  const ForwardingPath path =
      builder_.build(probe, endpoint, InterconnectMode::DirectIxp);
  bool has_ixp_hop = false;
  for (const RouterHop& hop : path.hops) {
    if (world_.registry().contains(hop.asn) &&
        world_.registry().at(hop.asn).is_ixp()) {
      has_ixp_hop = true;
    }
  }
  EXPECT_TRUE(has_ixp_hop);
}

TEST_F(PathBuilderTest, HypergiantDirectPathsAreCloudHeavy) {
  // Fig. 11: >60% of routers on a hypergiant path belong to the provider.
  const probes::Probe probe = make_probe("FR");
  const ForwardingPath path = builder_.build(
      probe, endpoint_in("JP", cloud::ProviderId::Google), InterconnectMode::Direct);
  const double ratio = static_cast<double>(path.cloud_owned_hops()) /
                       static_cast<double>(path.hops.size());
  EXPECT_GT(ratio, 0.45);
}

TEST_F(PathBuilderTest, PublicPathsAreCloudLight) {
  const probes::Probe probe = make_probe("FR");
  const ForwardingPath path = builder_.build(
      probe, endpoint_in("JP", cloud::ProviderId::Linode), InterconnectMode::Public);
  const double ratio = static_cast<double>(path.cloud_owned_hops()) /
                       static_cast<double>(path.hops.size());
  EXPECT_LT(ratio, 0.35);
}

TEST_F(PathBuilderTest, GeographyOrdersLatency) {
  const probes::Probe probe = make_probe("DE");
  const double to_fr =
      builder_.build(probe, endpoint_in("FR", cloud::ProviderId::Amazon),
                     InterconnectMode::Direct)
          .base_rtt_ms();
  const double to_jp =
      builder_.build(probe, endpoint_in("JP", cloud::ProviderId::Amazon),
                     InterconnectMode::Direct)
          .base_rtt_ms();
  const double to_au =
      builder_.build(probe, endpoint_in("AU", cloud::ProviderId::Amazon),
                     InterconnectMode::Direct)
          .base_rtt_ms();
  EXPECT_LT(to_fr, to_jp);
  EXPECT_LT(to_jp, to_au);
  EXPECT_GT(to_fr, 2.0);
}

TEST_F(PathBuilderTest, BahrainDirectBeatsPublicToIndia) {
  // Fig. 18b: where direct peering exists (MSFT), it is substantially faster
  // than transit paths that hairpin via Egypt.
  const probes::Probe probe = make_probe("BH");
  const auto& endpoint = endpoint_in("IN", cloud::ProviderId::Microsoft);
  const double direct =
      builder_.build(probe, endpoint, InterconnectMode::Direct).base_rtt_ms();
  const double pub =
      builder_.build(probe, endpoint, InterconnectMode::Public).base_rtt_ms();
  EXPECT_LT(direct * 1.5, pub);
}

TEST_F(PathBuilderTest, GermanyDirectAndTransitAreComparableToUk) {
  // Fig. 12b: the well-provisioned EU backbone leaves no margin.
  const probes::Probe probe = make_probe("DE");
  const auto& endpoint = endpoint_in("GB", cloud::ProviderId::Amazon);
  const double direct =
      builder_.build(probe, endpoint, InterconnectMode::Direct).base_rtt_ms();
  const double one_as =
      builder_.build(probe, endpoint, InterconnectMode::OneAs).base_rtt_ms();
  EXPECT_LT(std::abs(direct - one_as), 15.0);
}

TEST_F(PathBuilderTest, JapanDirectHasLowerJitterBudgetThanPublic) {
  // Fig. 13b: comparable medians, much tighter spread over direct peering.
  const probes::Probe probe = make_probe("JP");
  const auto& endpoint = endpoint_in("IN", cloud::ProviderId::Microsoft);
  const ForwardingPath direct =
      builder_.build(probe, endpoint, InterconnectMode::Direct);
  const ForwardingPath pub =
      builder_.build(probe, endpoint, InterconnectMode::Public);
  EXPECT_LT(direct.noise_abs_ms() * 1.5, pub.noise_abs_ms());
  EXPECT_LT(std::abs(direct.base_rtt_ms() - pub.base_rtt_ms()),
            pub.base_rtt_ms() * 0.4);
}

TEST_F(PathBuilderTest, WanServesMatchesBackboneClasses) {
  const auto& catalog = cloud::RegionCatalog::instance();
  for (const cloud::RegionInfo& region : catalog.all()) {
    const bool wan = PathBuilder::wan_serves(region.provider, region);
    switch (cloud::provider_info(region.provider).backbone) {
      case cloud::BackboneClass::Private:
        EXPECT_TRUE(wan) << region.region_name;
        break;
      case cloud::BackboneClass::Public:
        EXPECT_FALSE(wan) << region.region_name;
        break;
      case cloud::BackboneClass::Semi:
        if (region.provider == cloud::ProviderId::Alibaba) {
          EXPECT_EQ(wan, region.country == std::string_view{"CN"} ||
                             region.country == std::string_view{"HK"})
              << region.region_name;
        } else {
          EXPECT_EQ(wan, region.continent == geo::Continent::Europe ||
                             region.continent == geo::Continent::NorthAmerica)
              << region.region_name;
        }
        break;
    }
  }
}

TEST_F(PathBuilderTest, DeterministicForSameInputs) {
  const probes::Probe probe = make_probe("UA");
  const auto& endpoint = endpoint_in("GB", cloud::ProviderId::Oracle);
  const ForwardingPath a = builder_.build(probe, endpoint, InterconnectMode::OneAs);
  const ForwardingPath b = builder_.build(probe, endpoint, InterconnectMode::OneAs);
  ASSERT_EQ(a.hops.size(), b.hops.size());
  for (std::size_t i = 0; i < a.hops.size(); ++i) {
    EXPECT_EQ(a.hops[i].ip, b.hops[i].ip);
    EXPECT_DOUBLE_EQ(a.hops[i].base_rtt_ms, b.hops[i].base_rtt_ms);
  }
}

// --- the distance tables against the haversine loops they replaced ---------
//
// The reference below is PathBuilder's former selection code, verbatim in
// its loop order, strict `<` and `(a + b) + c` sums: choices made from the
// tables must be the same pointers for every catalogue pair.

using topology::IxpInfo;
using topology::TransitCarrier;
using topology::TransitHub;

[[nodiscard]] std::uint64_t bits(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

[[nodiscard]] PathBuilder::HubChoice ref_nearest_hub(
    const geo::GeoPoint& from, const TransitCarrier* exclude = nullptr) {
  PathBuilder::HubChoice best;
  double best_km = std::numeric_limits<double>::infinity();
  for (const TransitCarrier& carrier : topology::tier1_carriers()) {
    if (&carrier == exclude) continue;
    for (const TransitHub& hub : carrier.hubs) {
      const double km = geo::haversine_km(from, hub.location);
      if (km < best_km) {
        best_km = km;
        best = {&carrier, &hub};
      }
    }
  }
  return best;
}

[[nodiscard]] const TransitHub* ref_nearest_hub_of(
    const TransitCarrier& carrier, const geo::GeoPoint& from) {
  const TransitHub* best = nullptr;
  double best_km = std::numeric_limits<double>::infinity();
  for (const TransitHub& hub : carrier.hubs) {
    const double km = geo::haversine_km(from, hub.location);
    if (km < best_km) {
      best_km = km;
      best = &hub;
    }
  }
  return best;
}

[[nodiscard]] PathBuilder::CarrierPlan ref_best_single_carrier(
    const geo::GeoPoint& from, const geo::GeoPoint& to) {
  PathBuilder::CarrierPlan best;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const TransitCarrier& carrier : topology::tier1_carriers()) {
    for (const TransitHub& entry : carrier.hubs) {
      for (const TransitHub& exit : carrier.hubs) {
        const double cost = geo::haversine_km(from, entry.location) +
                            geo::haversine_km(entry.location, exit.location) +
                            geo::haversine_km(exit.location, to);
        if (cost < best_cost) {
          best_cost = cost;
          best = {&carrier, &entry, &exit};
        }
      }
    }
  }
  return best;
}

[[nodiscard]] PathBuilder::TransitPlan ref_transit(const geo::GeoPoint& from,
                                                   const geo::GeoPoint& to) {
  PathBuilder::TransitPlan plan;
  plan.first = ref_nearest_hub(from);
  if (plan.first.carrier == nullptr) {
    // No carrier has a hub: the plans cannot match, so the caller's
    // comparison fails too.
    ADD_FAILURE() << "the reference found no tier-1 hub";
    return plan;
  }
  plan.exit = ref_nearest_hub_of(*plan.first.carrier, to);
  if (geo::haversine_km(plan.exit->location, to) > 2500.0) {
    plan.second = ref_nearest_hub(to, plan.first.carrier);
  }
  return plan;
}

[[nodiscard]] const IxpInfo* ref_choose_ixp(std::string_view country,
                                            const geo::GeoPoint& near) {
  const IxpInfo* best = nullptr;
  double best_km = std::numeric_limits<double>::infinity();
  for (const IxpInfo& ixp : topology::known_ixps()) {
    if (ixp.country == country) return &ixp;
    const double km = geo::haversine_km(near, ixp.location);
    if (km < best_km) {
      best_km = km;
      best = &ixp;
    }
  }
  return best;
}

void expect_same_transit(const PathBuilder::TransitPlan& got,
                         const PathBuilder::TransitPlan& want,
                         std::string_view what) {
  EXPECT_EQ(got.first.carrier, want.first.carrier) << what;
  EXPECT_EQ(got.first.hub, want.first.hub) << what;
  EXPECT_EQ(got.exit, want.exit) << what;
  EXPECT_EQ(got.second.carrier, want.second.carrier) << what;
  EXPECT_EQ(got.second.hub, want.second.hub) << what;
}

TEST_F(PathBuilderTest, TableEntriesAreHaversineBitForBit) {
  const HubTables& t = builder_.tables();
  std::vector<const TransitHub*> hubs;
  const auto carriers = topology::tier1_carriers();
  ASSERT_EQ(t.carrier_first.size(), carriers.size());
  for (std::size_t c = 0; c < carriers.size(); ++c) {
    EXPECT_EQ(t.carrier_first[c], hubs.size()) << carriers[c].name;
    for (const TransitHub& hub : carriers[c].hubs) hubs.push_back(&hub);
  }
  ASSERT_EQ(t.hubs, hubs.size());
  ASSERT_EQ(t.hub_km.size(), t.hubs * t.hubs);
  for (std::size_t a = 0; a < t.hubs; ++a) {
    for (std::size_t b = 0; b < t.hubs; ++b) {
      EXPECT_EQ(bits(t.hub_km[a * t.hubs + b]),
                bits(geo::haversine_km(hubs[a]->location, hubs[b]->location)))
          << hubs[a]->city << " -> " << hubs[b]->city;
    }
  }

  const auto countries = world_.countries().all();
  ASSERT_EQ(t.country_km.size(), countries.size() * t.hubs);
  ASSERT_EQ(t.country_ixp.size(), countries.size());
  for (std::size_t c = 0; c < countries.size(); ++c) {
    for (std::size_t h = 0; h < t.hubs; ++h) {
      EXPECT_EQ(bits(t.country_km[c * t.hubs + h]),
                bits(geo::haversine_km(countries[c].centroid,
                                       hubs[h]->location)))
          << countries[c].code;
    }
    EXPECT_EQ(t.country_ixp[c],
              ref_choose_ixp(countries[c].code, countries[c].centroid))
        << countries[c].code;
  }

  const auto& endpoints = world_.endpoints();
  ASSERT_EQ(t.endpoint_km.size(), endpoints.size() * t.hubs);
  for (std::size_t e = 0; e < endpoints.size(); ++e) {
    for (std::size_t h = 0; h < t.hubs; ++h) {
      EXPECT_EQ(bits(t.endpoint_km[e * t.hubs + h]),
                bits(geo::haversine_km(endpoints[e].region->location,
                                       hubs[h]->location)))
          << endpoints[e].region->region_name;
    }
  }

  // Each catalogue point's spur: its country's row, and the haversine from
  // the point to that country's centroid, argument order as the backbone
  // once computed it.
  const auto expect_spur = [&](const topology::Waypoint& got,
                               const geo::GeoPoint& at, std::string_view code) {
    const std::size_t row = world_.countries().row(code);
    EXPECT_EQ(got.at, at) << code;
    EXPECT_EQ(got.row, row) << code;
    EXPECT_EQ(bits(got.spur_km),
              bits(geo::haversine_km(at, countries[row].centroid)))
        << code;
  };
  ASSERT_EQ(t.hub_points.size(), t.hubs);
  for (std::size_t h = 0; h < t.hubs; ++h) {
    expect_spur(t.hub_points[h], hubs[h]->location, hubs[h]->country);
  }
  ASSERT_EQ(t.endpoint_points.size(), endpoints.size());
  for (std::size_t e = 0; e < endpoints.size(); ++e) {
    expect_spur(t.endpoint_points[e], endpoints[e].region->location,
                endpoints[e].region->country);
  }
  const auto ixps = topology::known_ixps();
  ASSERT_EQ(t.ixp_points.size(), ixps.size());
  for (std::size_t x = 0; x < ixps.size(); ++x) {
    expect_spur(t.ixp_points[x], ixps[x].location, ixps[x].country);
  }
}

TEST_F(PathBuilderTest, HaversineIsBitwiseSymmetricForEveryHubPair) {
  // One row per point pair serves both argument orders: builds compare
  // hub -> region distances the old code took as haversine(hub, region).
  std::vector<geo::GeoPoint> points;
  for (const geo::CountryInfo& country : world_.countries().all()) {
    points.push_back(country.centroid);
  }
  for (const topology::CloudEndpoint& endpoint : world_.endpoints()) {
    points.push_back(endpoint.region->location);
  }
  for (const IxpInfo& ixp : topology::known_ixps()) {
    points.push_back(ixp.location);
  }
  for (const TransitCarrier& carrier : topology::tier1_carriers()) {
    for (const TransitHub& hub : carrier.hubs) points.push_back(hub.location);
  }
  std::size_t pairs = 0;
  for (const TransitCarrier& carrier : topology::tier1_carriers()) {
    for (const TransitHub& hub : carrier.hubs) {
      for (const geo::GeoPoint& point : points) {
        ASSERT_EQ(bits(geo::haversine_km(hub.location, point)),
                  bits(geo::haversine_km(point, hub.location)))
            << hub.city << " <-> " << point.lat_deg << "," << point.lon_deg;
        ++pairs;
      }
    }
  }
  EXPECT_EQ(pairs, builder_.tables().hubs * points.size());
  // A build reads a region's or an IXP's spur for the leg from its
  // country's centroid to it, which the old code took as
  // haversine(centroid, point).
  for (const geo::CountryInfo& country : world_.countries().all()) {
    for (const geo::GeoPoint& point : points) {
      ASSERT_EQ(bits(geo::haversine_km(country.centroid, point)),
                bits(geo::haversine_km(point, country.centroid)))
          << country.code << " <-> " << point.lat_deg << "," << point.lon_deg;
    }
  }
}

TEST_F(PathBuilderTest, ChoicesMatchHaversineLoopsForEveryCountryAndEndpoint) {
  const auto countries = world_.countries().all();
  for (std::size_t row = 0; row < countries.size(); ++row) {
    const geo::CountryInfo& country = countries[row];
    for (const topology::CloudEndpoint& endpoint : world_.endpoints()) {
      const geo::GeoPoint& to = endpoint.region->location;
      const PathBuilder::CarrierPlan plan =
          builder_.carrier_plan(row, endpoint);
      const PathBuilder::CarrierPlan want =
          ref_best_single_carrier(country.centroid, to);
      ASSERT_EQ(plan.carrier, want.carrier)
          << country.code << " -> " << endpoint.region->region_name;
      ASSERT_EQ(plan.entry, want.entry) << country.code;
      ASSERT_EQ(plan.exit, want.exit) << country.code;
      expect_same_transit(builder_.transit_plan(row, endpoint),
                          ref_transit(country.centroid, to), country.code);
    }
  }
}

TEST_F(PathBuilderTest, InterdcChoicesMatchHaversineLoopsForEveryPair) {
  for (const topology::CloudEndpoint& src : world_.endpoints()) {
    for (const topology::CloudEndpoint& dst : world_.endpoints()) {
      expect_same_transit(
          builder_.transit_plan(src, dst),
          ref_transit(src.region->location, dst.region->location),
          src.region->region_name);
    }
  }
}

using PathBuilderDeathTest = PathBuilderTest;

TEST_F(PathBuilderDeathTest, EndpointOutsideTheWorldIsRefused) {
  // The tables hold one row per world endpoint; a copy has no row.
  const topology::CloudEndpoint copy =
      endpoint_in("IN", cloud::ProviderId::Microsoft);
  const probes::Probe probe = make_probe("BH");
  EXPECT_DEATH((void)builder_.build(probe, copy, InterconnectMode::OneAs),
               "is not a row of world.endpoints");
}

// Property sweep: from several source countries to several destinations, the
// base RTT never undercuts the speed of light over the great circle. The
// country codes are string_views, not const char*, so gtest prints them as
// text instead of pointer addresses and the test names are the same on
// every run.
using CountryPair = std::tuple<std::string_view, std::string_view>;

class PhysicsSweep : public ::testing::TestWithParam<CountryPair> {};

TEST_P(PhysicsSweep, NoFasterThanLight) {
  topology::World world{topology::WorldConfig{13}};
  PathBuilder builder{world};
  const auto [src, dst] = GetParam();

  const geo::CountryInfo& src_info = world.countries().at(src);
  probes::Probe probe;
  probe.id = 1;
  probe.country = &src_info;
  probe.isp = world.isps_in(src).front();
  probe.city = &geo::CityDirectory::instance().cities(src).front();
  probe.location = probe.city->location;
  probe.access = lastmile::AccessTech::Cellular;

  for (const topology::CloudEndpoint& endpoint : world.endpoints()) {
    if (endpoint.region->country != std::string_view{dst}) continue;
    for (const InterconnectMode mode :
         {InterconnectMode::Direct, InterconnectMode::OneAs,
          InterconnectMode::Public}) {
      const ForwardingPath path = builder.build(probe, endpoint, mode);
      const double light =
          geo::fibre_rtt_ms(geo::haversine_km(probe.location,
                                              endpoint.region->location));
      EXPECT_GE(path.base_rtt_ms(), light * 0.999)
          << src << "->" << dst << " mode " << static_cast<int>(mode);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, PhysicsSweep,
    ::testing::Values(std::make_tuple("DE", "GB"), std::make_tuple("JP", "IN"),
                      std::make_tuple("BR", "US"), std::make_tuple("EG", "ZA"),
                      std::make_tuple("AU", "SG"), std::make_tuple("US", "JP")));

}  // namespace
}  // namespace cloudrtt::routing
