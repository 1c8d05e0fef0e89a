// Unit tests for the topology substrate: AS registry, backbone graph,
// interconnection policy and the assembled World.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <unordered_set>

#include "catalogue_rows.hpp"
#include "cloud/region.hpp"
#include "geo/cities.hpp"
#include "obs/metrics.hpp"
#include "topology/as_registry.hpp"
#include "topology/backbone.hpp"
#include "topology/interconnect.hpp"
#include "topology/world.hpp"

namespace cloudrtt::topology {
namespace {

using geo::Continent;

TEST(AsRegistryCatalog, PaperNamedCarriersPresent) {
  // §6: Telia AS1299 and GTT AS3257 (carrier peering), NTT AS2914 (in-Japan
  // transit), TATA AS6453 (JP->IN transit).
  std::set<Asn> asns;
  for (const TransitCarrier& carrier : tier1_carriers()) {
    asns.insert(carrier.asn);
    EXPECT_FALSE(carrier.hubs.empty()) << carrier.name;
  }
  for (const Asn expected : {1299u, 3257u, 2914u, 6453u}) {
    EXPECT_TRUE(asns.contains(expected)) << expected;
  }
}

TEST(AsRegistryCatalog, CaseStudyIspsMatchPaperFigures) {
  EXPECT_EQ(named_isps_in("DE").size(), 5u);  // Fig. 12a
  EXPECT_EQ(named_isps_in("JP").size(), 5u);  // Fig. 13a
  EXPECT_EQ(named_isps_in("UA").size(), 5u);  // Fig. 17a
  EXPECT_EQ(named_isps_in("BH").size(), 4u);  // Fig. 18a
  EXPECT_TRUE(named_isps_in("FR").empty());

  bool found_vodafone = false;
  for (const NamedIsp* isp : named_isps_in("DE")) {
    if (isp->asn == 3209) found_vodafone = true;
  }
  EXPECT_TRUE(found_vodafone);
}

TEST(AsRegistry, AddFindAndDuplicateRejection) {
  AsRegistry registry;
  registry.add(AsInfo{64512, "test", AsType::AccessIsp, "DE", Continent::Europe,
                      cloud::ProviderId::Amazon});
  EXPECT_TRUE(registry.contains(64512));
  EXPECT_EQ(registry.at(64512).name, "test");
  EXPECT_THROW(registry.add(AsInfo{64512, "dup", AsType::AccessIsp, "DE",
                                   Continent::Europe, cloud::ProviderId::Amazon}),
               std::logic_error);
  EXPECT_EQ(registry.find(99), nullptr);
  EXPECT_THROW((void)registry.at(99), std::out_of_range);
}

TEST(AsRegistry, SyntheticAsnsAreFresh) {
  AsRegistry registry;
  const Asn a = registry.next_synthetic_asn();
  const Asn b = registry.next_synthetic_asn();
  EXPECT_NE(a, b);
  EXPECT_GE(a, 210000u);
}

class BackboneTest : public ::testing::Test {
 protected:
  /// `at` in the country `code`, with its spur priced as a path builder
  /// prices one.
  [[nodiscard]] static Waypoint waypoint(const geo::GeoPoint& at,
                                         std::string_view code) {
    const geo::CountryTable& table = geo::CountryTable::instance();
    const std::size_t row = table.row(code);
    return Waypoint{at, row, geo::haversine_km(at, table.all()[row].centroid)};
  }

  Backbone backbone_{geo::CountryTable::instance()};
};

TEST_F(BackboneTest, AllCountriesReachable) {
  const auto all = geo::CountryTable::instance().all();
  const std::string_view hub = "DE";
  for (const geo::CountryInfo& country : all) {
    const BackboneRoute& route = backbone_.route(hub, country.code);
    EXPECT_TRUE(route.reachable) << country.code;
  }
}

TEST_F(BackboneTest, SameCountryRouteIsZero) {
  const BackboneRoute& route = backbone_.route("DE", "DE");
  EXPECT_TRUE(route.reachable);
  EXPECT_DOUBLE_EQ(route.km, 0.0);
  EXPECT_EQ(route.countries.size(), 1u);
}

TEST_F(BackboneTest, RouteIsSymmetricInLength) {
  for (const auto& [a, b] : std::vector<std::pair<const char*, const char*>>{
           {"DE", "JP"}, {"BR", "ZA"}, {"US", "IN"}, {"KE", "GB"}}) {
    EXPECT_NEAR(backbone_.route(a, b).km, backbone_.route(b, a).km, 1e-6)
        << a << "-" << b;
  }
}

TEST_F(BackboneTest, EgyptToSouthAfricaIsFarLongerThanToEurope) {
  // The geographic core of Fig. 6a.
  EXPECT_GT(backbone_.route("EG", "ZA").effective_km,
            3.0 * backbone_.route("EG", "IT").effective_km);
}

TEST_F(BackboneTest, KenyaKeepsCoastalPathToSouthAfrica) {
  // KE->ZA must not hairpin through Europe (paper: lowest median in-continent).
  const BackboneRoute& route = backbone_.route("KE", "ZA");
  for (const std::string_view hop : route.countries) {
    const geo::CountryInfo& info = geo::CountryTable::instance().at(hop);
    EXPECT_EQ(info.continent, Continent::Africa) << hop;
  }
  EXPECT_LT(route.km, 8000.0);
}

TEST_F(BackboneTest, PenaltiesAccumulatePerCrossing) {
  const BackboneRoute& direct = backbone_.route("DE", "FR");
  const BackboneRoute& far = backbone_.route("PT", "VN");
  EXPECT_GT(far.penalty_ms, direct.penalty_ms);
  EXPECT_GE(direct.penalty_ms, 0.0);
}

TEST_F(BackboneTest, SegmentCostAddsLocalSpurs) {
  const geo::GeoPoint berlin{52.52, 13.40};
  const geo::GeoPoint paris{48.86, 2.35};
  const auto cost = backbone_.segment_cost(
      waypoint(berlin, "DE"), waypoint(paris, "FR"),
      geo::haversine_km(berlin, paris));
  EXPECT_GT(cost.effective_km, geo::haversine_km(berlin, paris) * 0.8);
  EXPECT_LT(cost.effective_km, 6000.0);
}

TEST_F(BackboneTest, SameCountrySegmentScalesWithDistance) {
  const geo::GeoPoint a{40.0, -100.0};
  const geo::GeoPoint b{40.0, -90.0};
  const geo::GeoPoint c{40.0, -80.0};
  const auto short_cost = backbone_.segment_cost(
      waypoint(a, "US"), waypoint(b, "US"), geo::haversine_km(a, b));
  const auto long_cost = backbone_.segment_cost(
      waypoint(a, "US"), waypoint(c, "US"), geo::haversine_km(a, c));
  EXPECT_GT(long_cost.effective_km, short_cost.effective_km);
}

TEST_F(BackboneTest, PhysicalKmIsBelowEffectiveKm) {
  const geo::CountryTable& t = geo::CountryTable::instance();
  for (const auto& [a, b] : std::vector<std::pair<const char*, const char*>>{
           {"DE", "JP"}, {"EG", "ZA"}, {"US", "AU"}}) {
    const Waypoint from = waypoint(t.at(a).centroid, a);
    const Waypoint to = waypoint(t.at(b).centroid, b);
    const double direct = geo::haversine_km(from.at, to.at);
    const auto cost = backbone_.segment_cost(from, to, direct);
    const double physical = backbone_.physical_km(from, to, direct);
    EXPECT_LT(physical, cost.effective_km * 1.01) << a << "-" << b;
    EXPECT_GT(physical, 0.0);
  }
}

TEST_F(BackboneTest, DetourAndPenaltyShrinkWithQuality) {
  EXPECT_LT(Backbone::detour_factor(0.9), Backbone::detour_factor(0.3));
  EXPECT_LT(Backbone::crossing_penalty_ms(0.9), Backbone::crossing_penalty_ms(0.3));
  EXPECT_NEAR(Backbone::crossing_penalty_ms(1.0), 0.0, 1e-12);
}

TEST(UplinkGateways, GulfFunnelsThroughEgypt) {
  const geo::CountryTable& table = geo::CountryTable::instance();
  const Backbone backbone{table};
  const auto gateways = [&](std::string_view code) {
    return backbone.uplink_gateways(table.row(code));
  };
  ASSERT_EQ(gateways("BH").size(), 1u);
  EXPECT_EQ(gateways("BH").front(), table.row("EG"));
  EXPECT_TRUE(gateways("DE").empty());
  EXPECT_TRUE(gateways("JP").empty());
  // North Africa hairpins through Europe; east Africa through Nairobi.
  EXPECT_FALSE(gateways("EG").empty());
  ASSERT_EQ(gateways("UG").size(), 1u);
  EXPECT_EQ(gateways("UG").front(), table.row("KE"));
}

TEST(PolicyOverride, MatchesPaperMatrices) {
  using cloud::ProviderId;
  // Fig. 12a exceptions.
  EXPECT_EQ(policy_override(6805, ProviderId::Alibaba), InterconnectMode::Public);
  EXPECT_EQ(policy_override(3209, ProviderId::DigitalOcean), InterconnectMode::Public);
  // Fig. 13a: NTT is the one Japanese ISP without direct Amazon peering.
  EXPECT_EQ(policy_override(4713, ProviderId::Amazon), InterconnectMode::OneAs);
  EXPECT_EQ(policy_override(2516, ProviderId::Amazon), InterconnectMode::Direct);
  // Fig. 18a: Microsoft peers directly with Batelco in Bahrain.
  EXPECT_EQ(policy_override(5416, ProviderId::Microsoft), InterconnectMode::Direct);
  // Lightsail rides Amazon's fabric.
  EXPECT_EQ(policy_override(2516, ProviderId::Lightsail), InterconnectMode::Direct);
  // Unnamed pairs have no override.
  EXPECT_FALSE(policy_override(99999, ProviderId::Amazon).has_value());
}

class WorldTest : public ::testing::Test {
 protected:
  [[nodiscard]] std::size_t row(std::string_view code) const {
    return world_.countries().row(code);
  }

  World world_{WorldConfig{1234}};
};

TEST_F(WorldTest, NamedIspsExistWithTheirAsns) {
  EXPECT_EQ(world_.isp(3209).name, "Vodafone");
  EXPECT_EQ(world_.isp(3209).country, "DE");
  EXPECT_TRUE(world_.isp(3209).named);
  EXPECT_EQ(world_.isp(5416).country, "BH");
  EXPECT_THROW((void)world_.isp(4242424), std::out_of_range);
}

TEST_F(WorldTest, EveryCountryHasIsps) {
  for (const geo::CountryInfo& country : world_.countries().all()) {
    EXPECT_GE(world_.isps_in(country.code).size(), 2u) << country.code;
  }
}

TEST_F(WorldTest, EndpointsCoverTheCatalog) {
  EXPECT_EQ(world_.endpoints().size(), cloud::RegionCatalog::instance().total());
  for (const topology::CloudEndpoint& endpoint : world_.endpoints()) {
    EXPECT_TRUE(endpoint.prefix.contains(endpoint.vm_ip));
    EXPECT_TRUE(endpoint.prefix.contains(endpoint.dc_router));
    EXPECT_NE(endpoint.vm_ip, endpoint.dc_router);
  }
}

TEST_F(WorldTest, PrefixesAreDisjointAcrossIsps) {
  std::vector<net::Ipv4Prefix> prefixes;
  for (const IspNetwork& isp : world_.isps()) {
    prefixes.push_back(isp.customer_prefix);
    prefixes.push_back(isp.infra_prefix);
  }
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    for (std::size_t j = i + 1; j < prefixes.size(); ++j) {
      EXPECT_FALSE(prefixes[i].contains(prefixes[j].base()) ||
                   prefixes[j].contains(prefixes[i].base()))
          << prefixes[i].to_string() << " vs " << prefixes[j].to_string();
    }
  }
}

TEST_F(WorldTest, CgnPrefixesAreInSharedAddressSpace) {
  for (const IspNetwork& isp : world_.isps()) {
    EXPECT_TRUE(net::is_cgn(isp.cgn_prefix.base())) << isp.name;
    EXPECT_GE(isp.cgn_fraction, 0.0);
    EXPECT_LE(isp.cgn_fraction, 0.45);
  }
}

TEST_F(WorldTest, RibCoversCustomerAndCloudPrefixes) {
  std::unordered_set<std::uint32_t> announced;
  for (const RibEntry& entry : world_.rib_dump()) {
    announced.insert(entry.prefix.base().value());
  }
  for (const IspNetwork& isp : world_.isps()) {
    EXPECT_TRUE(announced.contains(isp.customer_prefix.base().value())) << isp.name;
  }
  for (const CloudEndpoint& endpoint : world_.endpoints()) {
    EXPECT_TRUE(announced.contains(endpoint.prefix.base().value()));
  }
}

TEST_F(WorldTest, WhoisHoldsUnannouncedCarrierInfrastructure) {
  // GTT (AS3257) and Zayo (AS6461) infrastructure lives in whois only,
  // exercising the Team Cymru fallback of §3.3.
  std::set<Asn> whois_asns;
  for (const RibEntry& entry : world_.whois_entries()) {
    whois_asns.insert(entry.asn);
  }
  EXPECT_TRUE(whois_asns.contains(3257u));
  EXPECT_TRUE(whois_asns.contains(6461u));
  for (const RibEntry& rib : world_.rib_dump()) {
    EXPECT_NE(rib.asn, 3257u);
    EXPECT_NE(rib.asn, 6461u);
  }
}

TEST_F(WorldTest, IxpPrefixesAreSeparateFromRib) {
  EXPECT_EQ(world_.ixp_prefixes().size(), known_ixps().size());
  for (const RibEntry& ixp : world_.ixp_prefixes()) {
    EXPECT_TRUE(world_.registry().at(ixp.asn).is_ixp());
  }
}

TEST_F(WorldTest, CaseStudyPopsMatchThePaper) {
  using cloud::ProviderId;
  for (const std::string_view cc : {"DE", "JP", "UA"}) {
    EXPECT_TRUE(world_.has_pop(ProviderId::Amazon, row(cc))) << cc;
    EXPECT_TRUE(world_.has_pop(ProviderId::Google, row(cc))) << cc;
    EXPECT_TRUE(world_.has_pop(ProviderId::Microsoft, row(cc))) << cc;
  }
  // Bahrain: MSFT/GCP edge presence, no Amazon edge (Fig. 18a).
  EXPECT_TRUE(world_.has_pop(ProviderId::Microsoft, row("BH")));
  EXPECT_TRUE(world_.has_pop(ProviderId::Google, row("BH")));
  EXPECT_FALSE(world_.has_pop(ProviderId::Amazon, row("BH")));
  // Datacenter presence implies an edge.
  EXPECT_TRUE(world_.has_pop(ProviderId::Amazon, row("BR")));
  EXPECT_TRUE(world_.has_pop(ProviderId::Microsoft, row("ZA")));
  // Vultr runs no WAN edge anywhere it has no DC.
  EXPECT_FALSE(world_.has_pop(ProviderId::Vultr, row("UA")));
}

TEST_F(WorldTest, InterconnectPolicyIsDeterministicAndCached) {
  const PairPolicy& a =
      world_.interconnect(world_.isp(3209), cloud::ProviderId::Vultr,
                          Continent::Europe);
  const PairPolicy& b =
      world_.interconnect(world_.isp(3209), cloud::ProviderId::Vultr,
                          Continent::Europe);
  EXPECT_EQ(&a, &b);
  EXPECT_GT(a.adherence, 0.5);
  EXPECT_LE(a.adherence, 1.0);
}

TEST_F(WorldTest, OverriddenPolicyUsesThePaperMode) {
  const PairPolicy& policy =
      world_.interconnect(world_.isp(6805), cloud::ProviderId::Alibaba,
                          Continent::Europe);
  EXPECT_EQ(policy.base, InterconnectMode::Public);
}

TEST_F(WorldTest, DigitalOceanIsPublicTowardsAsia) {
  const PairPolicy& policy = world_.interconnect(
      world_.isp(2516), cloud::ProviderId::DigitalOcean, Continent::Asia);
  EXPECT_EQ(policy.base, InterconnectMode::Public);
}

TEST_F(WorldTest, RouterIpsAreStableAndInsideInfraPrefix) {
  const std::size_t vodafone = world_.isp(3209).index;
  const net::Ipv4Address a = world_.address_plan().isp_core(vodafone);
  const net::Ipv4Address b = world_.address_plan().isp_core(vodafone);
  const net::Ipv4Address c = world_.address_plan().isp_edge(vodafone, 0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_TRUE(world_.isp(3209).infra_prefix.contains(a));
  EXPECT_TRUE(world_.isp(3209).infra_prefix.contains(c));
}

TEST_F(WorldTest, CustomerAllocationYieldsUniquePublicAddresses) {
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 200; ++i) {
    const net::Ipv4Address addr = world_.allocate_customer_ip(3209);
    EXPECT_FALSE(net::is_private(addr));
    EXPECT_TRUE(seen.insert(addr.value()).second);
  }
}

TEST_F(WorldTest, SameSeedSameWorld) {
  World other{WorldConfig{1234}};
  EXPECT_EQ(other.isps().size(), world_.isps().size());
  for (std::size_t i = 0; i < world_.isps().size(); ++i) {
    EXPECT_EQ(other.isps()[i].asn, world_.isps()[i].asn);
    EXPECT_EQ(other.isps()[i].customer_prefix, world_.isps()[i].customer_prefix);
  }
  EXPECT_EQ(other.has_pop(cloud::ProviderId::Amazon, row("SE")),
            world_.has_pop(cloud::ProviderId::Amazon, row("SE")));
}

TEST_F(WorldTest, DifferentSeedDiffersSomewhere) {
  World other{WorldConfig{4321}};
  bool any_difference = false;
  for (std::size_t r = 0; r < world_.countries().all().size(); ++r) {
    if (other.has_pop(cloud::ProviderId::Amazon, r) !=
        world_.has_pop(cloud::ProviderId::Amazon, r)) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference);
}

// --- the typed address plan ------------------------------------------------

/// The endpoint of `provider`'s region `name`.
[[nodiscard]] std::size_t endpoint_row(const World& world,
                                       cloud::ProviderId provider,
                                       std::string_view name) {
  const auto& endpoints = world.endpoints();
  for (std::size_t e = 0; e < endpoints.size(); ++e) {
    if (endpoints[e].region->provider == provider &&
        endpoints[e].region->region_name == name) {
      return e;
    }
  }
  ADD_FAILURE() << "no endpoint " << name;
  return 0;
}

TEST(AddressPlan, TypedTablesKeepTheStringPlansAddresses) {
  // The addresses the string-keyed plan gave these sites at seed 42, by
  // their former labels: the typed tables keep its canonical walk and its
  // allocator draws, so every site keeps its address.
  const World world{WorldConfig{42}};
  const AddressPlan& plan = world.address_plan();
  const geo::CountryTable& table = world.countries();
  const auto ip = [](net::Ipv4Address address) { return address.to_string(); };
  using cloud::ProviderId;

  // AS3257 hub/Frankfurt, hub/Frankfurt/ecmp-b, hub-out/Frankfurt.
  const std::size_t frankfurt = test::hub_row(3257, "Frankfurt");
  EXPECT_EQ(ip(plan.hub(frankfurt).in.ip), "5.0.64.1");
  EXPECT_EQ(ip(plan.hub(frankfurt).in.sibling), "5.0.64.2");
  EXPECT_EQ(ip(plan.hub(frankfurt).out), "5.0.64.3");
  // Europe's transit up/DE, up/DE/ecmp-b, gw/DE; Asia's transit gw/EG.
  const UpstreamSites& de = plan.upstream(Continent::Europe, table.row("DE"));
  EXPECT_EQ(ip(de.up.ip), "5.3.192.1");
  EXPECT_EQ(ip(de.up.sibling), "5.3.192.2");
  EXPECT_EQ(ip(de.gw), "5.3.192.3");
  EXPECT_EQ(ip(plan.upstream(Continent::Asia, table.row("EG")).gw),
            "5.3.129.17");
  // AS6695 (DE-CIX) lan/DE.
  EXPECT_EQ(ip(plan.ixp_lan(test::ixp_row(6695))), "5.4.192.1");
  // AS3209 core/DE, edge/DE-city-1, edge/DE-city-3.
  const std::size_t vodafone = world.isp(3209).index;
  EXPECT_EQ(ip(plan.isp_core(vodafone)), "5.6.0.13");
  EXPECT_EQ(ip(plan.isp_edge(vodafone, 0)), "5.6.0.1");
  EXPECT_EQ(ip(plan.isp_edge(vodafone, 2)), "5.6.0.3");
  // AS5416 (Batelco, Bahrain) core/BH and gw/EG.
  const std::size_t batelco = world.isp(5416).index;
  EXPECT_EQ(ip(plan.isp_core(batelco)), "6.162.0.3");
  EXPECT_EQ(ip(plan.isp_gateway(batelco, 0)), "6.162.0.4");
  // Microsoft pop/DE, pop@Frankfurt, wan/DE-ukwest and
  // wan/westeurope-ukwest; Amazon pop@Frankfurt.
  EXPECT_EQ(ip(plan.pop(ProviderId::Microsoft, table.row("DE"))), "8.25.0.1");
  EXPECT_EQ(ip(plan.pop_at(ProviderId::Microsoft, frankfurt)), "8.25.0.151");
  EXPECT_EQ(ip(plan.pop_at(ProviderId::Amazon, frankfurt)), "8.23.0.151");
  const std::size_t ukwest =
      endpoint_row(world, ProviderId::Microsoft, "ukwest");
  EXPECT_EQ(ip(plan.wan(ukwest, table.row("DE"))), "8.25.2.251");
  EXPECT_EQ(ip(plan.wan_from(ukwest, endpoint_row(world, ProviderId::Microsoft,
                                                  "westeurope"))),
            "8.25.3.144");
}

TEST(AddressPlan, EveryPlannedAddressIsDistinct) {
  const World world{WorldConfig{42}};
  const AddressPlan& plan = world.address_plan();
  const std::size_t countries = world.countries().all().size();
  std::size_t hubs = 0;
  for (const TransitCarrier& carrier : tier1_carriers()) {
    hubs += carrier.hubs.size();
  }
  std::set<std::uint32_t> seen;
  const auto add = [&seen](net::Ipv4Address address) {
    seen.insert(address.value());
  };
  for (std::size_t h = 0; h < hubs; ++h) {
    add(plan.hub(h).in.ip);
    add(plan.hub(h).in.sibling);
    add(plan.hub(h).out);
  }
  for (const Continent c : geo::kAllContinents) {
    for (std::size_t row = 0; row < countries; ++row) {
      add(plan.upstream(c, row).up.ip);
      add(plan.upstream(c, row).up.sibling);
      add(plan.upstream(c, row).gw);
    }
  }
  for (std::size_t x = 0; x < known_ixps().size(); ++x) add(plan.ixp_lan(x));
  for (const IspNetwork& isp : world.isps()) {
    const std::size_t cities =
        geo::CityDirectory::instance().cities(isp.country_row).size();
    for (std::size_t city = 0; city < cities; ++city) {
      add(plan.isp_edge(isp.index, city));
    }
    add(plan.isp_core(isp.index));
    const std::size_t gateways =
        world.backbone().uplink_gateways(isp.country_row).size();
    for (std::size_t g = 0; g < gateways; ++g) {
      add(plan.isp_gateway(isp.index, g));
    }
  }
  for (const cloud::ProviderId provider : cloud::kAllProviders) {
    for (std::size_t row = 0; row < countries; ++row) {
      add(plan.pop(provider, row));
    }
    // Hubs in one city share their PoP interface.
    for (std::size_t h = 0; h < hubs; ++h) add(plan.pop_at(provider, h));
  }
  const auto& endpoints = world.endpoints();
  for (std::size_t e = 0; e < endpoints.size(); ++e) {
    for (std::size_t row = 0; row < countries; ++row) add(plan.wan(e, row));
    for (std::size_t s = 0; s < endpoints.size(); ++s) {
      if (endpoints[s].region->provider == endpoints[e].region->provider) {
        add(plan.wan_from(e, s));
      }
    }
  }
  EXPECT_EQ(plan.size(), 40337u);
  EXPECT_EQ(seen.size(), plan.size());
  EXPECT_EQ(obs::Registry::global().gauge("world.router_sites").value(),
            40337.0);
}

// Property sweep: every <named ISP, provider, continent> policy is one of
// the four modes with a sane fallback.
class PolicySweep
    : public ::testing::TestWithParam<std::tuple<Asn, cloud::ProviderId>> {};

TEST_P(PolicySweep, PolicyIsWellFormed) {
  World world{WorldConfig{7}};
  const auto [asn, provider] = GetParam();
  for (const Continent c : geo::kAllContinents) {
    const PairPolicy& policy = world.interconnect(world.isp(asn), provider, c);
    EXPECT_NE(policy.base, policy.fallback);
    EXPECT_GE(policy.adherence, 0.85);
    EXPECT_LE(policy.adherence, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    NamedPairs, PolicySweep,
    ::testing::Combine(::testing::Values<Asn>(3209, 3320, 2516, 4713, 5416, 15895),
                       ::testing::Values(cloud::ProviderId::Amazon,
                                         cloud::ProviderId::DigitalOcean,
                                         cloud::ProviderId::Vultr,
                                         cloud::ProviderId::Ibm)));

}  // namespace
}  // namespace cloudrtt::topology
