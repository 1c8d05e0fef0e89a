#include "routing/path_builder.hpp"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
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

/// The centroid of the country at `row`: its own backbone node, spur 0.
[[nodiscard]] topology::Waypoint centroid(const topology::World& world,
                                          std::size_t row) {
  return topology::Waypoint{world.countries().all()[row].centroid, row, 0.0};
}

/// Mutable builder state threading location, RTT and jitter budget.
///
/// Each move passes `direct_km`, the great-circle km from the current point
/// to the next, which the backbone reads only inside one country. Every leg
/// but the probe's own runs between catalogue points, so the caller passes a
/// table entry: a hub pair's or a hub and region's row, or, when one end is
/// a centroid, the other end's spur (haversine_km is bitwise symmetric).
class Builder {
 public:
  Builder(const topology::Backbone& backbone, ForwardingPath& path)
      : backbone_(backbone), path_(path) {}

  void push(net::Ipv4Address ip, topology::Asn asn, const geo::GeoPoint& loc,
            bool is_private, bool cloud_owned, double processing_ms = 0.2,
            net::Ipv4Address alt_ip = net::Ipv4Address{}) {
    rtt_ += processing_ms;
    path_.hops.push_back(RouterHop{ip, asn, loc, is_private, cloud_owned, rtt_,
                                   std::sqrt(var_), alt_ip});
  }

  void push_router(topology::Asn asn, net::Ipv4Address ip,
                   const geo::GeoPoint& loc, bool cloud_owned,
                   double processing_ms) {
    push(ip, asn, loc, false, cloud_owned, processing_ms);
  }

  /// A router on a load-balanced segment exposes an ECMP sibling interface
  /// that classic per-TTL traceroute may hit instead (transit cores are
  /// ECMP-heavy; access and cloud segments are pinned).
  void push_router(topology::Asn asn, const topology::EcmpPair& pair,
                   const geo::GeoPoint& loc, double processing_ms) {
    push(pair.ip, asn, loc, false, false, processing_ms, pair.sibling);
  }

  /// Move over the public backbone to `to`.
  void advance_public(const topology::Waypoint& to, double direct_km,
                      double sigma_base, double jitter_mult) {
    const auto cost = backbone_.segment_cost(here_, to, direct_km);
    const double seg_rtt = geo::fibre_rtt_ms(cost.effective_km) + cost.penalty_ms;
    rtt_ += seg_rtt;
    const double sigma_abs =
        (sigma_base + jitter_mult * cost.jitter_scale) * seg_rtt;
    var_ += sigma_abs * sigma_abs;
    here_ = to;
  }

  /// Move over a private/managed backbone (cloud WAN or carrier core):
  /// low jitter, no transit-border penalties, but the glass still follows
  /// the physical cable systems, not the great circle.
  void advance_managed(const topology::Waypoint& to, double direct_km,
                       double detour, double sigma) {
    add_leg(backbone_.physical_km(here_, to, direct_km) * detour, sigma);
    here_ = to;
  }

  /// Inside a provider's WAN to `to`. The run is priced once over the
  /// physical cable systems; a long haul exposes `mid_router` halfway (the
  /// paper's pervasiveness counts these).
  void run_wan(const topology::Waypoint& to, double direct_km,
               topology::Asn asn, net::Ipv4Address mid_router) {
    const double km = backbone_.physical_km(here_, to, direct_km);
    if (km > kWanMidHopKm) {
      const geo::GeoPoint mid{(here_.at.lat_deg + to.at.lat_deg) / 2.0,
                              (here_.at.lon_deg + to.at.lon_deg) / 2.0};
      add_leg(km * kWanDetour / 2.0, 0.02);
      push(mid_router, asn, mid, false, true, 0.25);
      add_leg(km * kWanDetour / 2.0, 0.02);
    } else {
      add_leg(km * kWanDetour, 0.02);
    }
    here_ = to;
  }

  void set_origin(const topology::Waypoint& at) {
    here_ = at;
    var_ = 0.35 * 0.35;  // floor: NIC/serialisation noise
  }

  [[nodiscard]] const topology::Waypoint& here() const { return here_; }

 private:
  /// A leg of `km` cable at relative jitter `sigma`, in place.
  void add_leg(double km, double sigma) {
    const double seg_rtt = geo::fibre_rtt_ms(km);
    rtt_ += seg_rtt;
    const double sigma_abs = sigma * seg_rtt;
    var_ += sigma_abs * sigma_abs;
  }

  const topology::Backbone& backbone_;
  ForwardingPath& path_;
  topology::Waypoint here_;
  double rtt_ = 0.0;
  double var_ = 0.0;
};

}  // namespace

PathBuilder::PathBuilder(const topology::World& world) : world_(world) {
  HubTables& t = tables_;
  const auto countries = world_.countries().all();
  const auto waypoint = [&](const geo::GeoPoint& at, std::string_view code) {
    const std::size_t row = world_.countries().row(code);
    return topology::Waypoint{at, row,
                              geo::haversine_km(at, countries[row].centroid)};
  };
  std::vector<const topology::TransitHub*> hubs;  // flat hub order
  for (const topology::TransitCarrier& carrier : topology::tier1_carriers()) {
    t.carrier_first.push_back(hubs.size());
    for (const topology::TransitHub& hub : carrier.hubs) hubs.push_back(&hub);
  }
  t.hubs = hubs.size();
  // One row of distances from `from` to every hub, in flat hub order.
  const auto price_hubs = [&hubs](const geo::GeoPoint& from,
                                  std::vector<double>& rows) {
    for (const topology::TransitHub* hub : hubs) {
      rows.push_back(geo::haversine_km(from, hub->location));
    }
  };
  for (const topology::TransitHub* hub : hubs) {
    t.hub_points.push_back(waypoint(hub->location, hub->country));
    price_hubs(hub->location, t.hub_km);
  }
  for (const geo::CountryInfo& country : countries) {
    price_hubs(country.centroid, t.country_km);
    t.country_ixp.push_back(choose_ixp(country.code, country.centroid));
  }
  for (const topology::CloudEndpoint& endpoint : world_.endpoints()) {
    const cloud::RegionInfo& region = *endpoint.region;
    price_hubs(region.location, t.endpoint_km);
    t.endpoint_points.push_back(waypoint(region.location, region.country));
  }
  for (const topology::IxpInfo& ixp : topology::known_ixps()) {
    t.ixp_points.push_back(waypoint(ixp.location, ixp.country));
  }
}

// lint:hot
std::size_t PathBuilder::endpoint_index(
    const topology::CloudEndpoint& endpoint) const {
  const std::span<const topology::CloudEndpoint> endpoints{world_.endpoints()};
  const std::size_t index = position_in(endpoints, endpoint);
  CLOUDRTT_CHECK(index < endpoints.size(), "endpoint ",
                 endpoint.region->region_name,
                 " is not a row of world.endpoints()");
  return index;
}

// lint:hot
std::span<const double> PathBuilder::country_km(std::size_t row) const {
  CLOUDRTT_DCHECK(row < world_.countries().all().size(), "country row ", row);
  return std::span{tables_.country_km}.subspan(row * tables_.hubs,
                                               tables_.hubs);
}

// lint:hot
std::span<const double> PathBuilder::endpoint_km(std::size_t endpoint) const {
  return std::span{tables_.endpoint_km}.subspan(endpoint * tables_.hubs,
                                                tables_.hubs);
}

// lint:hot
std::size_t PathBuilder::hub_index(const topology::TransitCarrier& carrier,
                                   const topology::TransitHub& hub) const {
  // Both come from tier1_carriers(), so the differences stay in one array.
  const auto carrier_row =
      static_cast<std::size_t>(&carrier - topology::tier1_carriers().data());
  return tables_.carrier_first[carrier_row] +
         static_cast<std::size_t>(&hub - carrier.hubs.data());
}

// lint:hot
PathBuilder::CarrierPlan PathBuilder::carrier_plan(
    std::size_t from, const topology::CloudEndpoint& to) const {
  const HubKm from_km = country_km(from);
  const HubKm to_km = endpoint_km(endpoint_index(to));
  CarrierPlan best;
  double best_cost = std::numeric_limits<double>::infinity();
  std::size_t first = 0;
  for (const topology::TransitCarrier& carrier : topology::tier1_carriers()) {
    const std::size_t n = carrier.hubs.size();
    for (std::size_t entry = 0; entry < n; ++entry) {
      const double* pair_km = &tables_.hub_km[(first + entry) * tables_.hubs];
      for (std::size_t exit = 0; exit < n; ++exit) {
        const double cost = from_km[first + entry] + pair_km[first + exit] +
                            to_km[first + exit];
        if (cost < best_cost) {
          best_cost = cost;
          best = CarrierPlan{&carrier, &carrier.hubs[entry],
                             &carrier.hubs[exit]};
        }
      }
    }
    first += n;
  }
  return best;
}

// lint:hot
PathBuilder::TransitPlan PathBuilder::transit_plan(
    std::size_t from, const topology::CloudEndpoint& to) const {
  return transit_haul(country_km(from), endpoint_km(endpoint_index(to)));
}

PathBuilder::TransitPlan PathBuilder::transit_plan(
    const topology::CloudEndpoint& from,
    const topology::CloudEndpoint& to) const {
  return transit_haul(endpoint_km(endpoint_index(from)),
                      endpoint_km(endpoint_index(to)));
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
  const topology::AddressPlan& plan = world_.address_plan();
  const std::size_t hubs = tables_.hubs;
  Builder b{world_.backbone(), path};

  const topology::IspNetwork& isp = *probe.isp;
  const geo::CountryInfo& home = world_.countries().all()[isp.country_row];
  const std::size_t e = endpoint_index(endpoint);
  const cloud::RegionInfo& region = *endpoint.region;
  const topology::Waypoint& dc = tables_.endpoint_points[e];
  const HubKm dc_km = endpoint_km(e);
  const topology::Asn cloud_asn = cloud::provider_info(region.provider).asn;
  const bool wan = wan_serves(region.provider, region);

  // The probe's own leg to its home centroid is the one distance a build
  // prices; every later leg reads the tables.
  const double probe_km = geo::haversine_km(probe.location, home.centroid);
  b.set_origin(topology::Waypoint{probe.location, isp.country_row, probe_km});

  // Gateway hairpins only exist when the world models them (ablation knob).
  const std::span<const std::size_t> gateways =
      world_.config().enable_uplink_gateways
          ? world_.backbone().uplink_gateways(isp.country_row)
          : std::span<const std::size_t>{};

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
  const std::span<const geo::City> cities =
      geo::CityDirectory::instance().cities(isp.country_row);
  const std::size_t city = position_in(cities, *probe.city);
  CLOUDRTT_CHECK(city < cities.size(), "probe ", probe.id, "'s city ",
                 probe.city->name, " is not a city of ", isp.country);
  b.push_router(isp.asn, plan.isp_edge(isp.index, city), probe.city->location,
                false, 0.7);
  b.advance_public(centroid(world_, isp.country_row), probe_km, 0.05, 0.10);
  b.push_router(isp.asn, plan.isp_core(isp.index), home.centroid, false, 0.3);

  // --- interconnection-specific middle ---------------------------------------
  // Each choice is made at the centroid the path stands on: home, or the
  // last uplink gateway.
  switch (mode) {
    case InterconnectMode::DirectIxp: {
      if (const topology::IxpInfo* ixp = tables_.country_ixp[isp.country_row]) {
        const auto x =
            static_cast<std::size_t>(ixp - topology::known_ixps().data());
        const topology::Waypoint& lan = tables_.ixp_points[x];
        b.advance_public(lan, lan.spur_km, 0.04, 0.08);
        b.push_router(ixp->asn, plan.ixp_lan(x), lan.at, false, 0.25);
      }
      [[fallthrough]];
    }
    case InterconnectMode::Direct: {
      const std::size_t ingress =
          world_.has_pop(region.provider, isp.country_row) ? isp.country_row
                                                           : dc.row;
      const topology::Waypoint pop = centroid(world_, ingress);
      b.advance_public(pop, b.here().spur_km, 0.03, 0.06);
      b.push_router(cloud_asn, plan.pop(region.provider, ingress), pop.at, true,
                    0.35);
      b.run_wan(dc, dc.spur_km, cloud_asn, plan.wan(e, ingress));
      break;
    }
    case InterconnectMode::OneAs: {
      // The ISP hauls to its (possibly remote) uplink gateway itself.
      for (std::size_t g = 0; g < gateways.size(); ++g) {
        const topology::Waypoint via = centroid(world_, gateways[g]);
        b.advance_public(via, b.here().spur_km, 0.06, 0.18);
        b.push_router(isp.asn, plan.isp_gateway(isp.index, g), via.at, false,
                      0.3);
      }
      const CarrierPlan haul = carrier_plan(b.here().row, endpoint);
      const std::size_t entry = hub_index(*haul.carrier, *haul.entry);
      const std::size_t exit = hub_index(*haul.carrier, *haul.exit);
      const topology::Waypoint& in = tables_.hub_points[entry];
      b.advance_public(in, in.spur_km, 0.06, 0.16);
      b.push_router(haul.carrier->asn, plan.hub(entry).in, in.at, 0.3);
      const topology::Waypoint& out = tables_.hub_points[exit];
      if (exit != entry) {
        b.advance_managed(out, tables_.hub_km[entry * hubs + exit],
                          kCarrierDetour, 0.085);
        b.push_router(haul.carrier->asn, plan.hub(exit).in, out.at, 0.3);
      }
      if (wan) {
        // Cloud edge PoP hosted at the carrier facility (PNI).
        b.push_router(cloud_asn, plan.pop_at(region.provider, exit), out.at,
                      true, 0.35);
        b.run_wan(dc, dc_km[exit], cloud_asn, plan.wan(e, out.row));
      } else {
        b.advance_public(dc, dc_km[exit], 0.06, 0.18);
      }
      break;
    }
    case InterconnectMode::Public: {
      // Continental upstream first (the extra AS of "2+").
      const topology::Asn upstream = world_.continental_transit(home.continent);
      b.push_router(upstream,
                    plan.upstream(home.continent, isp.country_row).up,
                    home.centroid, 0.3);
      for (const std::size_t gw : gateways) {
        const topology::Waypoint via = centroid(world_, gw);
        b.advance_public(via, b.here().spur_km, 0.07, 0.22);
        b.push_router(upstream, plan.upstream(home.continent, gw).gw, via.at,
                      false, 0.3);
      }
      const TransitPlan haul = transit_plan(b.here().row, endpoint);
      const topology::TransitCarrier& carrier = *haul.first.carrier;
      std::size_t at = hub_index(carrier, *haul.first.hub);
      const topology::Waypoint& first = tables_.hub_points[at];
      b.advance_public(first, first.spur_km, 0.07, 0.20);
      b.push_router(carrier.asn, plan.hub(at).in, first.at, 0.3);
      // Carrier hubs expose separate ingress/egress interfaces in
      // traceroutes — public paths look longer at router level.
      b.push_router(carrier.asn, plan.hub(at).out, first.at, false, 0.15);
      if (const HubChoice& second = haul.second; second.hub != nullptr) {
        // Hand off to a second carrier closer to the destination.
        const std::size_t next = hub_index(*second.carrier, *second.hub);
        b.advance_managed(tables_.hub_points[next],
                          tables_.hub_km[at * hubs + next], kCarrierDetour,
                          0.09);
        b.push_router(second.carrier->asn, plan.hub(next).in,
                      tables_.hub_points[next].at, 0.3);
        at = next;
      } else if (haul.exit != haul.first.hub) {
        const std::size_t next = hub_index(carrier, *haul.exit);
        b.advance_managed(tables_.hub_points[next],
                          tables_.hub_km[at * hubs + next], kCarrierDetour,
                          0.085);
        b.push_router(carrier.asn, plan.hub(next).in,
                      tables_.hub_points[next].at, 0.3);
        at = next;
      }
      b.advance_public(dc, dc_km[at], 0.06, 0.18);
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
  const topology::AddressPlan& plan = world_.address_plan();
  const std::size_t s = endpoint_index(src);
  const std::size_t d = endpoint_index(dst);
  const cloud::RegionInfo& from = *src.region;
  const cloud::RegionInfo& to = *dst.region;
  const topology::Waypoint& to_dc = tables_.endpoint_points[d];
  const topology::Asn src_asn = cloud::provider_info(from.provider).asn;
  const topology::Asn dst_asn = cloud::provider_info(to.provider).asn;

  Builder b{world_.backbone(), path};
  b.set_origin(tables_.endpoint_points[s]);
  b.push(src.vm_ip, src_asn, from.location, false, true, 0.1);
  b.push(src.dc_router, src_asn, from.location, false, true, 0.25);

  const bool same_provider = from.provider == to.provider;
  const bool private_haul = same_provider && wan_serves(from.provider, from) &&
                            wan_serves(to.provider, to);
  if (private_haul) {
    path.mode = InterconnectMode::Direct;
    // Off the campaign's path: the region pair has no table row.
    b.run_wan(to_dc, geo::haversine_km(from.location, to.location), src_asn,
              plan.wan_from(d, s));
  } else {
    // Public haul between the DC metros, via the nearest carrier hubs --
    // small providers' "horizontal" traffic (§3.1) and all multi-cloud
    // traffic look like this.
    path.mode = InterconnectMode::Public;
    const HubKm from_km = endpoint_km(s);
    const TransitPlan haul = transit_haul(from_km, endpoint_km(d));
    const HubChoice& first = haul.first;
    std::size_t at = hub_index(*first.carrier, *first.hub);
    b.advance_public(tables_.hub_points[at], from_km[at], 0.06, 0.16);
    b.push_router(first.carrier->asn, plan.hub(at).in.ip, first.hub->location,
                  false, 0.3);
    const HubChoice& second = haul.second;
    const HubChoice next = second.hub != nullptr
                               ? second
                               : HubChoice{first.carrier, haul.exit};
    if (next.hub != first.hub) {
      const std::size_t hop = hub_index(*next.carrier, *next.hub);
      b.advance_managed(tables_.hub_points[hop],
                        tables_.hub_km[at * tables_.hubs + hop], kCarrierDetour,
                        0.08);
      b.push_router(next.carrier->asn, plan.hub(hop).in.ip, next.hub->location,
                    false, 0.3);
      at = hop;
    }
    b.advance_public(to_dc, endpoint_km(d)[at], 0.06, 0.16);
  }

  b.push(dst.dc_router, dst_asn, to.location, false, true, 0.35);
  b.push(dst.vm_ip, dst_asn, to.location, false, true, 0.25);
  return path;
}

}  // namespace cloudrtt::routing
