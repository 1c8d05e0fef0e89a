#include "routing/path_builder.hpp"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>

#include "util/check.hpp"

namespace cloudrtt::routing {

namespace {

using topology::InterconnectMode;

constexpr double kWanDetour = 1.05;       // private WAN over the cable systems
constexpr double kCarrierDetour = 1.10;   // tier-1 inter-hub backbone
constexpr double kWanMidHopKm = 3000.0;   // long WAN runs expose a mid router

const net::Ipv4Address kHomeRouterIp{192, 168, 1, 1};

/// Distances from one catalogue point to tier-1 hubs, in flat hub order.
using HubKm = std::span<const double>;
using HubChoice = PathBuilder::HubChoice;

struct NearestHub {
  HubChoice choice;
  std::size_t first_hub = 0;  ///< the carrier's offset in flat hub order
};

/// Nearest hub of any carrier (optionally excluding one) to the point whose
/// hub distances are `km`.
// lint:hot
[[nodiscard]] NearestHub nearest_hub(
    HubKm km, const topology::TransitCarrier* exclude = nullptr) {
  NearestHub best;
  double best_km = std::numeric_limits<double>::infinity();
  std::size_t first = 0;
  for (const topology::TransitCarrier& carrier : topology::tier1_carriers()) {
    if (&carrier != exclude) {
      for (std::size_t i = 0; i < carrier.hubs.size(); ++i) {
        if (km[first + i] < best_km) {
          best_km = km[first + i];
          best = NearestHub{{&carrier, &carrier.hubs[i]}, first};
        }
      }
    }
    first += carrier.hubs.size();
  }
  return best;
}

/// Public transit from the point with hub distances `from_km` to the one
/// with `to_km`: nearest hub, its carrier's exit, and the handoff carrier.
// lint:hot
[[nodiscard]] PathBuilder::TransitPlan transit_haul(HubKm from_km,
                                                    HubKm to_km) {
  const NearestHub first = nearest_hub(from_km);
  const topology::TransitCarrier& carrier = *first.choice.carrier;
  std::size_t exit = 0;
  double exit_km = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < carrier.hubs.size(); ++i) {
    if (to_km[first.first_hub + i] < exit_km) {
      exit_km = to_km[first.first_hub + i];
      exit = i;
    }
  }
  PathBuilder::TransitPlan plan{first.choice, &carrier.hubs[exit], {}};
  if (exit_km > 2500.0) plan.second = nearest_hub(to_km, &carrier).choice;
  return plan;
}

/// The exchange a country's DirectIxp paths cross: its own, else the one
/// nearest its centroid. Priced once per country by the constructor.
[[nodiscard]] const topology::IxpInfo* choose_ixp(std::string_view country,
                                                  const geo::GeoPoint& near) {
  const topology::IxpInfo* best = nullptr;
  double best_km = std::numeric_limits<double>::infinity();
  for (const topology::IxpInfo& ixp : topology::known_ixps()) {
    if (ixp.country == country) return &ixp;
    const double km = geo::haversine_km(near, ixp.location);
    if (km < best_km) {
      best_km = km;
      best = &ixp;
    }
  }
  return best;
}

/// Position of `item` in `rows`, or rows.size() when it lives elsewhere.
/// Addresses compare as integers: subtracting pointers into different
/// arrays is UB, and a caller may pass a copy from outside `rows`.
template <typename T>
[[nodiscard]] std::size_t position_in(std::span<const T> rows, const T& item) {
  const auto addr = reinterpret_cast<std::uintptr_t>(&item);
  const auto first = reinterpret_cast<std::uintptr_t>(rows.data());
  if (addr < first || addr >= first + rows.size_bytes()) return rows.size();
  return (addr - first) / sizeof(T);
}

/// Distances from `from` to every hub, in flat hub order.
void price_hubs(const geo::GeoPoint& from, std::span<double> out) {
  std::size_t h = 0;
  for (const topology::TransitCarrier& carrier : topology::tier1_carriers()) {
    for (const topology::TransitHub& hub : carrier.hubs) {
      out[h++] = geo::haversine_km(from, hub.location);
    }
  }
}

/// Mutable builder state threading location, RTT and jitter budget.
class Builder {
 public:
  Builder(const topology::World& world, ForwardingPath& path)
      : world_(world), path_(path) {}

  void push(net::Ipv4Address ip, topology::Asn asn, const geo::GeoPoint& loc,
            bool is_private, bool cloud_owned, double processing_ms = 0.2,
            net::Ipv4Address alt_ip = net::Ipv4Address{}) {
    rtt_ += processing_ms;
    path_.hops.push_back(RouterHop{ip, asn, loc, is_private, cloud_owned, rtt_,
                                   std::sqrt(var_), alt_ip});
  }

  /// `load_balanced` segments expose an ECMP sibling interface that classic
  /// per-TTL traceroute may hit instead (transit cores are ECMP-heavy;
  /// access and cloud segments are pinned).
  void push_router(topology::Asn asn, std::string_view site,
                   const geo::GeoPoint& loc, bool cloud_owned,
                   double processing_ms = 0.2, bool load_balanced = false) {
    net::Ipv4Address alt;
    if (load_balanced) {
      alt_scratch_.assign(site);
      alt_scratch_ += "/ecmp-b";
      alt = world_.router_ip(asn, alt_scratch_);
    }
    push(world_.router_ip(asn, site), asn, loc, false, cloud_owned, processing_ms,
         alt);
  }

  /// Compose a router site label in the reused scratch buffer: the returned
  /// view is valid until the next site() call, which is exactly long enough
  /// for the push_router it feeds. One path mints at most two heap buffers
  /// (the scratches), not one string per visible router.
  [[nodiscard]] std::string_view site(std::string_view a, std::string_view b,
                                      std::string_view c = {},
                                      std::string_view d = {}) {
    site_scratch_.clear();
    site_scratch_.append(a);
    site_scratch_.append(b);
    site_scratch_.append(c);
    site_scratch_.append(d);
    return site_scratch_;
  }

  /// Move over the public backbone between two concrete points.
  void advance_public(const geo::GeoPoint& to, std::string_view to_cc,
                      double sigma_base, double jitter_mult) {
    const auto cost = world_.backbone().segment_cost(loc_, cc_, to, to_cc);
    const double seg_rtt = geo::fibre_rtt_ms(cost.effective_km) + cost.penalty_ms;
    rtt_ += seg_rtt;
    const double sigma_abs =
        (sigma_base + jitter_mult * cost.jitter_scale) * seg_rtt;
    var_ += sigma_abs * sigma_abs;
    loc_ = to;
    cc_ = to_cc;
  }

  /// Move along a pre-priced leg of `km` cable to a new location (used to
  /// split one physical run across several visible routers).
  void advance_fixed(double km, const geo::GeoPoint& to, std::string_view to_cc,
                     double sigma) {
    const double seg_rtt = geo::fibre_rtt_ms(km);
    rtt_ += seg_rtt;
    const double sigma_abs = sigma * seg_rtt;
    var_ += sigma_abs * sigma_abs;
    loc_ = to;
    cc_ = to_cc;
  }

  /// Move over a private/managed backbone (cloud WAN or carrier core):
  /// low jitter, no transit-border penalties, but the glass still follows
  /// the physical cable systems, not the great circle.
  void advance_managed(const geo::GeoPoint& to, std::string_view to_cc,
                       double detour, double sigma) {
    const double km = world_.backbone().physical_km(loc_, cc_, to, to_cc);
    const double seg_rtt = geo::fibre_rtt_ms(km * detour);
    rtt_ += seg_rtt;
    const double sigma_abs = sigma * seg_rtt;
    var_ += sigma_abs * sigma_abs;
    loc_ = to;
    cc_ = to_cc;
  }

  void set_origin(const geo::GeoPoint& loc, std::string_view cc) {
    loc_ = loc;
    cc_ = cc;
    var_ = 0.35 * 0.35;  // floor: NIC/serialisation noise
  }

  [[nodiscard]] const geo::GeoPoint& location() const { return loc_; }
  [[nodiscard]] std::string_view country() const { return cc_; }

 private:
  const topology::World& world_;
  ForwardingPath& path_;
  geo::GeoPoint loc_{};
  std::string_view cc_;
  double rtt_ = 0.0;
  double var_ = 0.0;
  std::string site_scratch_;  ///< backs site(); reused across push_router calls
  std::string alt_scratch_;   ///< ECMP sibling label (site() view stays valid)
};

}  // namespace

PathBuilder::PathBuilder(const topology::World& world) : world_(world) {
  HubTables& t = tables_;
  for (const topology::TransitCarrier& carrier : topology::tier1_carriers()) {
    for (const topology::TransitHub& entry : carrier.hubs) {
      for (const topology::TransitHub& exit : carrier.hubs) {
        t.pair_km.push_back(geo::haversine_km(entry.location, exit.location));
      }
    }
    t.hubs += carrier.hubs.size();
  }
  const auto countries = world_.countries().all();
  const auto& endpoints = world_.endpoints();
  t.country_km.resize(countries.size() * t.hubs);
  t.endpoint_km.resize(endpoints.size() * t.hubs);
  for (std::size_t c = 0; c < countries.size(); ++c) {
    price_hubs(countries[c].centroid,
               std::span{t.country_km}.subspan(c * t.hubs, t.hubs));
    t.country_ixp.push_back(
        choose_ixp(countries[c].code, countries[c].centroid));
  }
  for (std::size_t e = 0; e < endpoints.size(); ++e) {
    price_hubs(endpoints[e].region->location,
               std::span{t.endpoint_km}.subspan(e * t.hubs, t.hubs));
  }
}

// lint:hot
const geo::CountryInfo& PathBuilder::choice_country(
    std::string_view code, const geo::GeoPoint& at) const {
  const geo::CountryInfo* info = world_.countries().find(code);
  CLOUDRTT_CHECK(info != nullptr && info->centroid == at, "path choice in ",
                 code, " made away from its centroid");
  return *info;
}

// lint:hot
std::size_t PathBuilder::country_index(const geo::CountryInfo& from) const {
  const auto countries = world_.countries().all();
  const std::size_t index = position_in(countries, from);
  CLOUDRTT_CHECK(index < countries.size(), "country ", from.code,
                 " is not a row of the country table");
  return index;
}

// lint:hot
std::span<const double> PathBuilder::country_km(
    const geo::CountryInfo& from) const {
  return std::span{tables_.country_km}.subspan(
      country_index(from) * tables_.hubs, tables_.hubs);
}

// lint:hot
std::span<const double> PathBuilder::endpoint_km(
    const topology::CloudEndpoint& endpoint) const {
  const std::span<const topology::CloudEndpoint> endpoints{world_.endpoints()};
  const std::size_t index = position_in(endpoints, endpoint);
  CLOUDRTT_CHECK(index < endpoints.size(), "endpoint ",
                 endpoint.region->region_name,
                 " is not a row of world.endpoints()");
  return std::span{tables_.endpoint_km}.subspan(index * tables_.hubs,
                                                tables_.hubs);
}

// lint:hot
PathBuilder::CarrierPlan PathBuilder::carrier_plan(
    const geo::CountryInfo& from, const topology::CloudEndpoint& to) const {
  const HubKm from_km = country_km(from);
  const HubKm to_km = endpoint_km(to);
  CarrierPlan best;
  double best_cost = std::numeric_limits<double>::infinity();
  std::size_t first = 0;
  std::size_t block = 0;  // the carrier's entry x exit block in pair_km
  for (const topology::TransitCarrier& carrier : topology::tier1_carriers()) {
    const std::size_t n = carrier.hubs.size();
    for (std::size_t entry = 0; entry < n; ++entry) {
      for (std::size_t exit = 0; exit < n; ++exit) {
        const double cost = from_km[first + entry] +
                            tables_.pair_km[block + entry * n + exit] +
                            to_km[first + exit];
        if (cost < best_cost) {
          best_cost = cost;
          best = CarrierPlan{&carrier, &carrier.hubs[entry],
                             &carrier.hubs[exit]};
        }
      }
    }
    first += n;
    block += n * n;
  }
  return best;
}

// lint:hot
PathBuilder::TransitPlan PathBuilder::transit_plan(
    const geo::CountryInfo& from, const topology::CloudEndpoint& to) const {
  return transit_haul(country_km(from), endpoint_km(to));
}

PathBuilder::TransitPlan PathBuilder::transit_plan(
    const topology::CloudEndpoint& from,
    const topology::CloudEndpoint& to) const {
  return transit_haul(endpoint_km(from), endpoint_km(to));
}

bool PathBuilder::wan_serves(cloud::ProviderId provider,
                             const cloud::RegionInfo& region) {
  switch (cloud::provider_info(provider).backbone) {
    case cloud::BackboneClass::Private:
      return true;
    case cloud::BackboneClass::Semi:
      if (provider == cloud::ProviderId::Alibaba) {
        return region.country == std::string_view{"CN"} ||
               region.country == std::string_view{"HK"};
      }
      return region.continent == geo::Continent::Europe ||
             region.continent == geo::Continent::NorthAmerica;
    case cloud::BackboneClass::Public:
      return false;
  }
  return false;
}

ForwardingPath PathBuilder::build(const probes::Probe& probe,
                                  const topology::CloudEndpoint& endpoint,
                                  topology::InterconnectMode mode) const {
  ForwardingPath path;
  build_into(probe, endpoint, mode, path);
  return path;
}

// lint:hot
void PathBuilder::build_into(const probes::Probe& probe,
                             const topology::CloudEndpoint& endpoint,
                             topology::InterconnectMode mode,
                             ForwardingPath& path) const {
  path.hops.clear();
  path.mode = mode;
  Builder b{world_, path};

  const topology::IspNetwork& isp = *probe.isp;
  const cloud::RegionInfo& region = *endpoint.region;
  const cloud::ProviderInfo& provider = cloud::provider_info(region.provider);
  const topology::Asn cloud_asn = provider.asn;
  const bool wan = wan_serves(region.provider, region);

  b.set_origin(probe.location, isp.country);

  // Gateway hairpins only exist when the world models them (ablation knob).
  // Stack buffer, not a vector: no country funnels through more than a
  // couple of gateways.
  std::string_view gateway_buffer[4];
  const std::size_t gateway_count =
      world_.config().enable_uplink_gateways
          ? topology::uplink_gateways(isp.country, gateway_buffer)
          : 0;
  const std::span<const std::string_view> gateways{gateway_buffer,
                                                   gateway_count};

  // --- last-mile hops (latency added by the engine, not here) --------------
  if (probe.access == lastmile::AccessTech::HomeWifi) {
    b.push(kHomeRouterIp, isp.asn, probe.location, /*is_private=*/true,
           /*cloud_owned=*/false, 0.0);
  }
  if (probe.behind_cgn) {
    b.push(isp.cgn_prefix.address_at(1), isp.asn, probe.location,
           /*is_private=*/true, /*cloud_owned=*/false, 0.1);
  }

  // --- inside the serving ISP ------------------------------------------------
  b.push_router(isp.asn, b.site("edge/", probe.city->name),
                probe.city->location, false, 0.7);
  const geo::CountryInfo& home = world_.countries().at(isp.country);
  b.advance_public(home.centroid, isp.country, 0.05, 0.10);
  b.push_router(isp.asn, b.site("core/", isp.country), home.centroid, false,
                0.3);

  // --- interconnection-specific middle ---------------------------------------
  const auto wan_run = [&](std::string_view from_label) {
    // Inside the provider's WAN towards the DC. The leg is priced once over
    // the physical cable systems; long hauls expose a mid backbone router
    // (the paper's pervasiveness counts these).
    const double km = world_.backbone().physical_km(
        b.location(), b.country(), region.location, region.country);
    const bool long_haul = km > kWanMidHopKm;
    if (long_haul) {
      const geo::GeoPoint mid{(b.location().lat_deg + region.location.lat_deg) / 2.0,
                              (b.location().lon_deg + region.location.lon_deg) / 2.0};
      b.advance_fixed(km * kWanDetour / 2.0, mid, region.country, 0.02);
      b.push_router(cloud_asn,
                    b.site("wan/", from_label, "-", region.region_name), mid,
                    true, 0.25);
      b.advance_fixed(km * kWanDetour / 2.0, region.location, region.country, 0.02);
    } else {
      b.advance_fixed(km * kWanDetour, region.location, region.country, 0.02);
    }
  };

  switch (mode) {
    case InterconnectMode::DirectIxp: {
      const geo::CountryInfo& at = choice_country(b.country(), b.location());
      if (const topology::IxpInfo* ixp =
              tables_.country_ixp[country_index(at)]) {
        b.advance_public(ixp->location, ixp->country, 0.04, 0.08);
        b.push_router(ixp->asn, b.site("lan/", ixp->country), ixp->location,
                      false, 0.25);
      }
      [[fallthrough]];
    }
    case InterconnectMode::Direct: {
      const bool pop = world_.has_pop(region.provider, isp.country);
      const std::string_view ingress_cc = pop ? std::string_view{isp.country}
                                              : std::string_view{region.country};
      const geo::CountryInfo& ingress = world_.countries().at(ingress_cc);
      b.advance_public(ingress.centroid, ingress_cc, 0.03, 0.06);
      b.push_router(cloud_asn, b.site("pop/", ingress_cc), ingress.centroid,
                    true, 0.35);
      wan_run(ingress_cc);
      break;
    }
    case InterconnectMode::OneAs: {
      // The ISP hauls to its (possibly remote) uplink gateway itself.
      for (const std::string_view gw : gateways) {
        const geo::CountryInfo& info = world_.countries().at(gw);
        b.advance_public(info.centroid, gw, 0.06, 0.18);
        b.push_router(isp.asn, b.site("gw/", gw), info.centroid, false, 0.3);
      }
      const CarrierPlan plan =
          carrier_plan(choice_country(b.country(), b.location()), endpoint);
      b.advance_public(plan.entry->location, plan.entry->country, 0.06, 0.16);
      b.push_router(plan.carrier->asn, b.site("hub/", plan.entry->city),
                    plan.entry->location, false, 0.3, /*load_balanced=*/true);
      if (plan.exit != plan.entry) {
        b.advance_managed(plan.exit->location, plan.exit->country, kCarrierDetour,
                          0.085);
        b.push_router(plan.carrier->asn, b.site("hub/", plan.exit->city),
                      plan.exit->location, false, 0.3,
                      /*load_balanced=*/true);
      }
      if (wan) {
        // Cloud edge PoP hosted at the carrier facility (PNI).
        b.push_router(cloud_asn, b.site("pop@", plan.exit->city),
                      plan.exit->location, true, 0.35);
        wan_run(plan.exit->country);
      } else {
        b.advance_public(region.location, region.country, 0.06, 0.18);
      }
      break;
    }
    case InterconnectMode::Public: {
      // Continental upstream first (the extra AS of "2+").
      const topology::Asn upstream = world_.continental_transit(home.continent);
      b.push_router(upstream, b.site("up/", isp.country), b.location(), false,
                    0.3, /*load_balanced=*/true);
      for (const std::string_view gw : gateways) {
        const geo::CountryInfo& info = world_.countries().at(gw);
        b.advance_public(info.centroid, gw, 0.07, 0.22);
        b.push_router(upstream, b.site("gw/", gw), info.centroid, false, 0.3);
      }
      const TransitPlan haul =
          transit_plan(choice_country(b.country(), b.location()), endpoint);
      const HubChoice& first = haul.first;
      b.advance_public(first.hub->location, first.hub->country, 0.07, 0.20);
      b.push_router(first.carrier->asn, b.site("hub/", first.hub->city),
                    first.hub->location, false, 0.3, /*load_balanced=*/true);
      // Carrier hubs expose separate ingress/egress interfaces in
      // traceroutes — public paths look longer at router level.
      b.push_router(first.carrier->asn, b.site("hub-out/", first.hub->city),
                    first.hub->location, false, 0.15);
      if (const HubChoice& second = haul.second; second.hub != nullptr) {
        // Hand off to a second carrier closer to the destination.
        b.advance_managed(second.hub->location, second.hub->country, kCarrierDetour,
                          0.09);
        b.push_router(second.carrier->asn, b.site("hub/", second.hub->city),
                      second.hub->location, false, 0.3,
                      /*load_balanced=*/true);
      } else if (haul.exit != first.hub) {
        b.advance_managed(haul.exit->location, haul.exit->country,
                          kCarrierDetour, 0.085);
        b.push_router(first.carrier->asn, b.site("hub/", haul.exit->city),
                      haul.exit->location, false, 0.3,
                      /*load_balanced=*/true);
      }
      b.advance_public(region.location, region.country, 0.06, 0.18);
      break;
    }
  }

  // --- datacenter -------------------------------------------------------------
  b.push(endpoint.dc_router, cloud_asn, region.location, false, true, 0.35);
  b.push(endpoint.vm_ip, cloud_asn, region.location, false, true, 0.25);
}

ForwardingPath PathBuilder::build_interdc(const topology::CloudEndpoint& src,
                                          const topology::CloudEndpoint& dst) const {
  ForwardingPath path;
  const cloud::RegionInfo& from = *src.region;
  const cloud::RegionInfo& to = *dst.region;
  const topology::Asn src_asn = cloud::provider_info(from.provider).asn;
  const topology::Asn dst_asn = cloud::provider_info(to.provider).asn;

  Builder b{world_, path};
  b.set_origin(from.location, from.country);
  b.push(src.vm_ip, src_asn, from.location, false, true, 0.1);
  b.push(src.dc_router, src_asn, from.location, false, true, 0.25);

  const bool same_provider = from.provider == to.provider;
  const bool private_haul = same_provider && wan_serves(from.provider, from) &&
                            wan_serves(to.provider, to);
  if (private_haul) {
    path.mode = InterconnectMode::Direct;
    const double km = world_.backbone().physical_km(from.location, from.country,
                                                    to.location, to.country);
    if (km > kWanMidHopKm) {
      const geo::GeoPoint mid{(from.location.lat_deg + to.location.lat_deg) / 2.0,
                              (from.location.lon_deg + to.location.lon_deg) / 2.0};
      b.advance_fixed(km * kWanDetour / 2.0, mid, to.country, 0.02);
      b.push_router(src_asn,
                    "wan/" + std::string{from.region_name} + "-" +
                        std::string{to.region_name},
                    mid, true, 0.25);
      b.advance_fixed(km * kWanDetour / 2.0, to.location, to.country, 0.02);
    } else {
      b.advance_fixed(km * kWanDetour, to.location, to.country, 0.02);
    }
  } else {
    // Public haul between the DC metros, via the nearest carrier hubs --
    // small providers' "horizontal" traffic (§3.1) and all multi-cloud
    // traffic look like this.
    path.mode = InterconnectMode::Public;
    const TransitPlan haul = transit_plan(src, dst);
    const HubChoice& first = haul.first;
    b.advance_public(first.hub->location, first.hub->country, 0.06, 0.16);
    b.push_router(first.carrier->asn, "hub/" + std::string{first.hub->city},
                  first.hub->location, false, 0.3);
    if (const HubChoice& second = haul.second; second.hub != nullptr) {
      b.advance_managed(second.hub->location, second.hub->country, kCarrierDetour,
                        0.08);
      b.push_router(second.carrier->asn, "hub/" + std::string{second.hub->city},
                    second.hub->location, false, 0.3);
    } else if (haul.exit != first.hub) {
      b.advance_managed(haul.exit->location, haul.exit->country, kCarrierDetour,
                        0.08);
      b.push_router(first.carrier->asn, "hub/" + std::string{haul.exit->city},
                    haul.exit->location, false, 0.3);
    }
    b.advance_public(to.location, to.country, 0.06, 0.16);
  }

  b.push(dst.dc_router, dst_asn, to.location, false, true, 0.35);
  b.push(dst.vm_ip, dst_asn, to.location, false, true, 0.25);
  return path;
}

}  // namespace cloudrtt::routing
