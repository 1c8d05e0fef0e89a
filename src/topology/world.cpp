#include "topology/world.hpp"

#include <algorithm>
#include <stdexcept>

#include "geo/cities.hpp"
#include "util/check.hpp"

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cloudrtt::topology {

namespace {

constexpr std::uint32_t kCgnBase = 0x64400000u;  // 100.64.0.0
constexpr std::uint32_t kCgnStep = 1u << 12;     // /20 slices
constexpr std::uint32_t kCgnEnd = 0x64800000u;   // 100.128.0.0 (exclusive)

[[nodiscard]] std::string_view continent_transit_name(geo::Continent c) {
  switch (c) {
    case geo::Continent::Africa: return "PanAfrican Backbone";
    case geo::Continent::Asia: return "AsiaNet Transit";
    case geo::Continent::Europe: return "EuroRing Carrier";
    case geo::Continent::NorthAmerica: return "NorthBridge Transit";
    case geo::Continent::Oceania: return "Southern Cross Transit";
    case geo::Continent::SouthAmerica: return "AndesNet Backbone";
  }
  return "Continental Transit";
}

}  // namespace

World::World(const WorldConfig& config)
    : config_(config),
      root_rng_(config.seed),
      backbone_(geo::CountryTable::instance()),
      prefix_allocator_(net::Ipv4Address{5, 0, 0, 0}),
      cgn_cursor_(kCgnBase) {
  obs::Span build = obs::span("topology.world.build");
  {
    obs::Span phase = obs::span("transit");
    build_transit();
  }
  {
    obs::Span phase = obs::span("ixps");
    build_ixps();
  }
  {
    obs::Span phase = obs::span("isps");
    build_isps();
  }
  {
    obs::Span phase = obs::span("clouds");
    build_clouds();
  }
  {
    obs::Span phase = obs::span("pops");
    build_pops();
  }
  {
    obs::Span phase = obs::span("materialize");
    materialize_address_plan();
    materialize_policies();
  }
  obs::Registry& registry = obs::Registry::global();
  registry.gauge("world.ases").set(static_cast<double>(registry_.size()));
  registry.gauge("world.isps").set(static_cast<double>(isps_.size()));
  registry.gauge("world.endpoints").set(static_cast<double>(endpoints_.size()));
  registry.gauge("world.rib_prefixes").set(static_cast<double>(rib_.size()));
  registry.gauge("world.router_sites")
      .set(static_cast<double>(address_plan_.size()));
  registry.gauge("world.policies").set(static_cast<double>(policies_.size()));
  CLOUDRTT_LOG_DEBUG("world.built", {"seed", config_.seed},
                     {"ases", registry_.size()}, {"isps", isps_.size()},
                     {"endpoints", endpoints_.size()},
                     {"rib_prefixes", rib_.size()},
                     {"router_sites", address_plan_.size()},
                     {"policies", policies_.size()});
}

net::Ipv4Prefix World::allocate_infra(Asn asn, std::uint8_t length,
                                      bool announced) {
  const net::Ipv4Prefix prefix = prefix_allocator_.allocate(length);
  infra_alloc_.emplace(asn, net::HostAllocator{prefix});
  (announced ? rib_ : whois_).push_back(RibEntry{prefix, asn});
  return prefix;
}

void World::build_transit() {
  for (const TransitCarrier& carrier : tier1_carriers()) {
    registry_.add(AsInfo{carrier.asn, std::string{carrier.name},
                         AsType::Tier1Transit, "", geo::Continent::Europe,
                         cloud::ProviderId::Amazon});
    // GTT and Zayo keep their infrastructure out of the RIB so the analysis
    // pipeline has to fall back to registration (whois) data, exercising the
    // paper's Team Cymru path.
    const bool announced = carrier.asn != 3257 && carrier.asn != 6461;
    (void)allocate_infra(carrier.asn, 18, announced);
  }
  for (const geo::Continent c : geo::kAllContinents) {
    const Asn asn = registry_.next_synthetic_asn();
    registry_.add(AsInfo{asn, std::string{continent_transit_name(c)},
                         AsType::RegionalTransit, "", c,
                         cloud::ProviderId::Amazon});
    (void)allocate_infra(asn, 18, true);
    continental_transit_[geo::index_of(c)] = asn;
  }
}

void World::build_ixps() {
  for (const IxpInfo& ixp : known_ixps()) {
    const geo::CountryInfo& country = countries().at(ixp.country);
    registry_.add(AsInfo{ixp.asn, std::string{ixp.name}, AsType::Ixp,
                         std::string{ixp.country}, country.continent,
                         cloud::ProviderId::Amazon});
    const net::Ipv4Prefix lan = prefix_allocator_.allocate(22);
    infra_alloc_.emplace(ixp.asn, net::HostAllocator{lan});
    // Peering LANs are visible in traceroutes but live in the IXP dataset,
    // not the RIB (route-servers don't originate them globally).
    ixp_rib_.push_back(RibEntry{lan, ixp.asn});
  }
}

void World::build_isps() {
  util::Rng rng = root_rng_.fork("isps");
  for (const geo::CountryInfo& country : countries().all()) {
    const auto named = named_isps_in(country.code);
    std::size_t synthetic = 2;
    if (!named.empty()) {
      synthetic = 1;
    } else {
      if (country.sc_weight > 500) ++synthetic;
      if (country.sc_weight > 1500) ++synthetic;
      if (country.sc_weight > 4000) ++synthetic;
    }

    std::size_t rank = 0;
    auto add_isp = [&](Asn asn, std::string name, bool is_named) {
      IspNetwork isp;
      isp.asn = asn;
      isp.name = std::move(name);
      isp.country = country.code;
      isp.index = isps_.size();
      isp.country_row = countries().row(country.code);
      isp.continent = country.continent;
      isp.share = 1.0 / static_cast<double>(1 + rank);
      isp.named = is_named;
      isp.customer_prefix = prefix_allocator_.allocate(16);
      isp.infra_prefix = allocate_infra(asn, 20, true);
      if (cgn_cursor_ + kCgnStep > kCgnEnd) {
        throw std::runtime_error{"World: CGN pool exhausted"};
      }
      isp.cgn_prefix = net::Ipv4Prefix{net::Ipv4Address{cgn_cursor_}, 20};
      cgn_cursor_ += kCgnStep;
      isp.cgn_fraction =
          std::clamp(0.10 + 0.30 * (1.0 - country.backhaul_quality), 0.0, 0.45);
      rib_.push_back(RibEntry{isp.customer_prefix, asn});

      registry_.add(AsInfo{asn, isp.name, AsType::AccessIsp, isp.country,
                           isp.continent, cloud::ProviderId::Amazon});
      isp_index_.emplace(asn, isps_.size());
      customer_alloc_.emplace(asn, net::HostAllocator{isp.customer_prefix});
      cgn_alloc_.emplace(asn, net::HostAllocator{isp.cgn_prefix});
      isps_.push_back(std::move(isp));
      ++rank;
    };

    for (const NamedIsp* isp : named) {
      add_isp(isp->asn, std::string{isp->name}, true);
    }
    for (std::size_t i = 0; i < synthetic; ++i) {
      const Asn asn = registry_.next_synthetic_asn();
      std::string name = std::string{country.name} + " Telecom " +
                         std::to_string(i + 1);
      add_isp(asn, std::move(name), false);
    }
    (void)rng;
  }
}

void World::build_clouds() {
  for (const cloud::ProviderId id : cloud::kAllProviders) {
    const cloud::ProviderInfo& info = cloud::provider_info(id);
    registry_.add(AsInfo{info.asn, std::string{info.name}, AsType::CloudWan, "",
                         geo::Continent::NorthAmerica, id});
    (void)allocate_infra(info.asn, 16, true);
  }
  for (const cloud::RegionInfo& region :
       cloud::RegionCatalog::instance().all()) {
    const cloud::ProviderInfo& info = cloud::provider_info(region.provider);
    CloudEndpoint endpoint;
    endpoint.region = &region;
    endpoint.prefix = prefix_allocator_.allocate(24);
    endpoint.dc_router = endpoint.prefix.address_at(1);
    endpoint.vm_ip = endpoint.prefix.address_at(10);
    rib_.push_back(RibEntry{endpoint.prefix, info.asn});
    endpoint_index_.emplace(&region, endpoints_.size());
    endpoints_.push_back(endpoint);
  }
}

void World::build_pops() {
  util::Rng rng = root_rng_.fork("pops");
  const std::size_t n = countries().all().size();
  pops_.assign(cloud::kProviderCount * n, false);
  const auto pop = [this, n](cloud::ProviderId p, std::string_view cc) {
    return pops_[cloud::provider_index(p) * n + countries().row(cc)];
  };
  const auto add_pop = [&pop](cloud::ProviderId p, std::string_view cc) {
    pop(p, cc) = true;
  };

  for (const geo::CountryInfo& country : countries().all()) {
    const double q = country.backhaul_quality;
    util::Rng country_rng = rng.fork(country.code);
    // Hypergiants deploy edge PoPs nearly everywhere the backhaul supports
    // them; Lightsail rides Amazon's edge.
    for (const cloud::ProviderId p :
         {cloud::ProviderId::Amazon, cloud::ProviderId::Google,
          cloud::ProviderId::Microsoft}) {
      // Edge presence needs a business case and a functioning peering
      // ecosystem: nonexistent below ~0.5 backhaul quality, near-certain in
      // well-provisioned markets.
      const double prob = std::clamp((q - 0.45) * 2.4, 0.0, 0.98);
      if (country_rng.chance(prob)) {
        add_pop(p, country.code);
        if (p == cloud::ProviderId::Amazon) {
          add_pop(cloud::ProviderId::Lightsail, country.code);
        }
      }
    }
    // DigitalOcean and IBM keep their (semi) WAN edges in EU/NA only.
    if ((country.continent == geo::Continent::Europe ||
         country.continent == geo::Continent::NorthAmerica) &&
        q >= 0.80) {
      add_pop(cloud::ProviderId::DigitalOcean, country.code);
      add_pop(cloud::ProviderId::Ibm, country.code);
    }
    // Alibaba's WAN edge is a Chinese phenomenon.
    if (country.code == std::string_view{"CN"} ||
        country.code == std::string_view{"HK"}) {
      add_pop(cloud::ProviderId::Alibaba, country.code);
    }
  }
  // Operating a datacenter implies local peering presence: every provider
  // has an edge in the countries hosting its regions.
  for (const cloud::RegionInfo& region :
       cloud::RegionCatalog::instance().all()) {
    add_pop(region.provider, region.country);
  }
  // Case-study ground truth (Figs. 12a/13a/17a/18a): fix the PoPs the
  // override table depends on. Bahrain: Microsoft and Google maintain edge
  // presence, Amazon does not (me-south traffic still ingresses at the DC).
  for (const std::string_view cc : {"DE", "JP", "UA"}) {
    for (const cloud::ProviderId p :
         {cloud::ProviderId::Amazon, cloud::ProviderId::Google,
          cloud::ProviderId::Microsoft, cloud::ProviderId::Lightsail}) {
      add_pop(p, cc);
    }
  }
  add_pop(cloud::ProviderId::Microsoft, "BH");
  add_pop(cloud::ProviderId::Google, "BH");
  pop(cloud::ProviderId::Amazon, "BH") = false;
  pop(cloud::ProviderId::Lightsail, "BH") = false;
}

std::vector<const IspNetwork*> World::isps_in(std::string_view country) const {
  std::vector<const IspNetwork*> out;
  for (const IspNetwork& isp : isps_) {
    if (isp.country == country) out.push_back(&isp);
  }
  return out;
}

const IspNetwork& World::isp(Asn asn) const {
  const auto it = isp_index_.find(asn);
  if (it == isp_index_.end()) {
    throw std::out_of_range{"World::isp: unknown ASN " + std::to_string(asn)};
  }
  return isps_[it->second];
}

net::Ipv4Address World::allocate_customer_ip(Asn isp_asn) {
  const auto it = customer_alloc_.find(isp_asn);
  if (it == customer_alloc_.end()) {
    throw std::out_of_range{"World::allocate_customer_ip: unknown ISP"};
  }
  return it->second.allocate();
}

net::Ipv4Address World::allocate_cgn_ip(Asn isp_asn) {
  const auto it = cgn_alloc_.find(isp_asn);
  if (it == cgn_alloc_.end()) {
    throw std::out_of_range{"World::allocate_cgn_ip: unknown ISP"};
  }
  return it->second.allocate();
}

Asn World::continental_transit(geo::Continent continent) const {
  return continental_transit_[geo::index_of(continent)];
}

void World::materialize_address_plan() {
  // Canonical walk of the router space: tier-1 carriers (catalogue order),
  // continental transit (continent order), IXPs, access ISPs (build order),
  // cloud WANs (provider order). Each AS's sites draw sequentially from its
  // infrastructure allocator, so this order *is* the address plan — it can
  // change freely between versions (hashes only ever compare runs of one
  // build), but within a build it is a pure function of the world config.
  // Each site lands in its kind's table, indexed by the rows path builds
  // hold (the continent and provider catalogues list their enums in order),
  // so every site a build can request is planned by construction. Braced
  // lists evaluate left to right: HubSites{{a, b}, c} draws a, b, c.
  const auto next = [this](Asn asn) {
    const auto it = infra_alloc_.find(asn);
    CLOUDRTT_CHECK(it != infra_alloc_.end(), "materialize: AS", asn,
                   " has no infrastructure prefix");
    return it->second.allocate();
  };
  AddressPlan& plan = address_plan_;
  const std::size_t n = countries().all().size();
  plan.countries_ = n;

  // Tier-1 carriers: hub ingress/egress interfaces plus the ECMP sibling the
  // load-balanced segments expose.
  for (const TransitCarrier& carrier : tier1_carriers()) {
    for (std::size_t h = 0; h < carrier.hubs.size(); ++h) {
      plan.hubs_.push_back(
          HubSites{{next(carrier.asn), next(carrier.asn)}, next(carrier.asn)});
    }
  }

  // Continental transit: per-country upstream interfaces (with ECMP sibling)
  // and gateway egress interfaces. Planned for every country — a superset of
  // the continent's members and their gateways, but the /18 has room and a
  // uniform walk keeps the enumeration obviously complete.
  for (const Asn asn : continental_transit_) {
    for (std::size_t row = 0; row < n; ++row) {
      plan.upstream_.push_back(
          UpstreamSites{{next(asn), next(asn)}, next(asn)});
    }
  }

  // IXP peering LANs.
  for (const IxpInfo& ixp : known_ixps()) {
    plan.ixp_lans_.push_back(next(ixp.asn));
  }

  // Access ISPs: one edge router per city of the home country, the national
  // core, and the uplink-gateway egress routers (planned regardless of the
  // gateway ablation knob — the knob gates path construction, not the plan).
  for (const IspNetwork& isp : isps_) {
    AddressPlan::IspSites sites;
    sites.first_edge = plan.isp_edges_.size();
    sites.first_gateway = plan.isp_gateways_.size();
    const std::size_t cities =
        geo::CityDirectory::instance().cities(isp.country_row).size();
    for (std::size_t city = 0; city < cities; ++city) {
      plan.isp_edges_.push_back(next(isp.asn));
    }
    sites.core = next(isp.asn);
    for ([[maybe_unused]] const std::size_t gw :
         backbone_.uplink_gateways(isp.country_row)) {
      plan.isp_gateways_.push_back(next(isp.asn));
    }
    plan.isps_.push_back(sites);
  }

  // Cloud WANs: one edge PoP interface per country (paths ingress either in
  // the probe's country or the region's), one PNI interface per carrier hub
  // city, and one mid-backbone router per <ingress, region> long-haul pair,
  // where the ingress is a country (probe paths) or a region of the same
  // provider (inter-DC paths).
  std::vector<std::string_view> hub_cities;
  for (const TransitCarrier& carrier : tier1_carriers()) {
    for (const TransitHub& hub : carrier.hubs) {
      const auto it = std::find(hub_cities.begin(), hub_cities.end(), hub.city);
      plan.hub_city_.push_back(
          static_cast<std::size_t>(it - hub_cities.begin()));
      if (it == hub_cities.end()) hub_cities.push_back(hub.city);
    }
  }
  plan.hub_cities_ = hub_cities.size();
  plan.wans_.resize(endpoints_.size() * n);
  plan.provider_rank_.resize(endpoints_.size());
  plan.first_region_wan_.resize(endpoints_.size());
  for (const cloud::ProviderId id : cloud::kAllProviders) {
    const Asn asn = cloud::provider_info(id).asn;
    for (std::size_t row = 0; row < n; ++row) plan.pops_.push_back(next(asn));
    for (std::size_t city = 0; city < hub_cities.size(); ++city) {
      plan.pop_ats_.push_back(next(asn));
    }
    const auto regions = cloud::RegionCatalog::instance().of_provider(id);
    for (std::size_t rank = 0; rank < regions.size(); ++rank) {
      const std::size_t e = endpoint_index_.at(regions[rank]);
      plan.provider_rank_[e] = rank;
      for (std::size_t row = 0; row < n; ++row) {
        plan.wans_[e * n + row] = next(asn);
      }
      plan.first_region_wan_[e] = plan.region_wans_.size();
      for (std::size_t from = 0; from < regions.size(); ++from) {
        plan.region_wans_.push_back(next(asn));
      }
    }
  }
}

void World::materialize_policies() {
  // Both catalogues list their enum in order, so this walk is the layout
  // interconnect() indexes.
  for (const IspNetwork& isp : isps_) {
    for (const cloud::ProviderId provider : cloud::kAllProviders) {
      for (const geo::Continent dst : geo::kAllContinents) {
        policies_.push_back(compute_policy(isp, provider, dst));
        CLOUDRTT_CHECK(&interconnect(isp, provider, dst) == &policies_.back(),
                       "policy table out of catalogue order");
      }
    }
  }
}

PairPolicy World::compute_policy(const IspNetwork& isp,
                                 cloud::ProviderId provider,
                                 geo::Continent dst) const {
  PairPolicy policy;
  const auto fallback_of = [](InterconnectMode mode) {
    switch (mode) {
      case InterconnectMode::Direct: return InterconnectMode::OneAs;
      case InterconnectMode::DirectIxp: return InterconnectMode::Direct;
      case InterconnectMode::OneAs: return InterconnectMode::Public;
      case InterconnectMode::Public: return InterconnectMode::OneAs;
    }
    return InterconnectMode::Public;
  };

  const std::optional<InterconnectMode> forced =
      config_.enable_edge_pops ? policy_override(isp.asn, provider)
                               : std::optional<InterconnectMode>{};
  if (forced) {
    policy.base = *forced;
    policy.fallback = fallback_of(*forced);
    policy.adherence = 0.90;
    return policy;
  }

  util::Rng rng =
      root_rng_.fork("policy").fork(isp.asn).fork(
          cloud::provider_index(provider) * 8 + geo::index_of(dst));
  const cloud::ProviderInfo& info = cloud::provider_info(provider);
  const bool pop = has_pop(provider, isp.country_row);
  const bool developed = isp.continent == geo::Continent::Europe ||
                         isp.continent == geo::Continent::NorthAmerica ||
                         isp.continent == geo::Continent::Oceania;
  const bool dst_core_wan = dst == geo::Continent::Europe ||
                            dst == geo::Continent::NorthAmerica;

  double p_direct = 0.0;
  double p_ixp = 0.0;
  double p_oneas = 0.0;
  if (info.hypergiant) {
    if (pop) {
      p_direct = 0.84;
      p_ixp = developed ? 0.04 : 0.02;
      p_oneas = 0.09;
    } else {
      // No edge presence: carrier PNI where the transit market is healthy,
      // plain public transit elsewhere.
      p_oneas = developed ? 0.65 : 0.35;
    }
  } else if (provider == cloud::ProviderId::DigitalOcean) {
    if (dst_core_wan) {
      p_direct = pop ? 0.12 : 0.0;
      p_ixp = pop ? 0.05 : 0.0;
      p_oneas = pop ? 0.75 : 0.72;
    } else {
      p_oneas = 0.05;  // no PoPs outside the WAN footprint => public Internet
    }
  } else if (provider == cloud::ProviderId::Ibm) {
    if (dst_core_wan) {
      p_direct = pop ? 0.30 : 0.0;
      p_ixp = pop ? 0.18 : 0.0;
      p_oneas = pop ? 0.42 : 0.62;
    } else {
      p_oneas = 0.22;  // hybrid: public transit for the long (Asian) paths
    }
  } else if (provider == cloud::ProviderId::Alibaba) {
    if (isp.country == "CN" || isp.country == "HK") {
      p_direct = 0.90;
      p_oneas = 0.08;
    } else {
      p_oneas = 0.18;  // islands outside China: ingress via public transit
    }
  } else if (provider == cloud::ProviderId::Oracle) {
    if (developed) {
      p_direct = pop ? 0.04 : 0.0;
      p_oneas = 0.33;
    } else {
      p_oneas = 0.12;
    }
  } else {  // Vultr, Linode: no WAN, carrier or public transit only
    if (developed) {
      p_direct = 0.02;
      p_oneas = 0.55;
    } else {
      p_oneas = 0.15;
    }
  }

  const double roll = rng.uniform();
  if (roll < p_direct) {
    policy.base = InterconnectMode::Direct;
  } else if (roll < p_direct + p_ixp) {
    policy.base = InterconnectMode::DirectIxp;
  } else if (roll < p_direct + p_ixp + p_oneas) {
    policy.base = InterconnectMode::OneAs;
  } else {
    policy.base = InterconnectMode::Public;
  }
  policy.fallback = fallback_of(policy.base);
  policy.adherence = 0.90 + 0.07 * rng.uniform();
  return policy;
}

}  // namespace cloudrtt::topology
