#pragma once
// PathBuilder: turns <probe, endpoint, interconnection mode> into a concrete
// router-level forwarding path with a calibrated latency budget.
//
// Path shapes per mode (§6.1 of the paper):
//  * Direct:    probe -> ISP -> cloud edge PoP (in the probe's country when
//               the provider deploys one) -> private WAN -> DC.
//  * DirectIxp: same, but the peering crosses a visible IXP fabric.
//  * OneAs:     probe -> ISP -> Tier-1 carrier hub(s) -> cloud PoP at the
//               carrier facility -> WAN -> DC (PNI). Without a WAN serving
//               the destination, the carrier hauls all the way to the DC.
//  * Public:    probe -> ISP -> continental upstream -> carrier hub(s) ->
//               DC metro; the cloud AS appears only at the datacenter.
//
// Latency is composed from backbone segment costs (geography + quality
// detours + border penalties), private-WAN great-circle runs, and per-hop
// processing, with an absolute jitter budget accumulated per segment type.
//
// Every carrier, hub and IXP choice is made between fixed catalogue points:
// country centroids, tier-1 hubs, region locations and IXPs, and every leg
// but the probe's own runs between two of them. The constructor prices
// those distances and each point's spur to its country's backbone node once
// into immutable tables, so a build reads them instead of re-running
// haversine, takes its router addresses from the world's typed address
// plan, and concurrent builds share one builder.

#include <cstddef>
#include <span>
#include <vector>

#include "probes/fleet.hpp"
#include "routing/path.hpp"
#include "topology/world.hpp"

namespace cloudrtt::routing {

/// The catalogue distances a PathBuilder prices once. Flat hub order is
/// tier1_carriers() order, each carrier's hubs in turn; every `_km` row is
/// geo::haversine_km from the row's point to each hub.
struct HubTables {
  std::size_t hubs = 0;
  std::vector<std::size_t> carrier_first;  ///< each carrier's first flat hub
  std::vector<double> hub_km;       ///< hubs x hubs
  std::vector<double> country_km;   ///< countries() x hubs, from centroids
  std::vector<double> endpoint_km;  ///< world.endpoints() x hubs, from regions
  std::vector<const topology::IxpInfo*> country_ixp;  ///< DirectIxp exchange
  /// The catalogue points as the backbone prices them: each with its
  /// country's row and its spur (a centroid is its row with spur 0).
  std::vector<topology::Waypoint> hub_points;       ///< per flat hub
  std::vector<topology::Waypoint> endpoint_points;  ///< per world endpoint
  std::vector<topology::Waypoint> ixp_points;       ///< per known_ixps() row
};

class PathBuilder {
 public:
  explicit PathBuilder(const topology::World& world);

  [[nodiscard]] ForwardingPath build(const probes::Probe& probe,
                                     const topology::CloudEndpoint& endpoint,
                                     topology::InterconnectMode mode) const;

  /// build() into caller-owned storage: `out` is cleared but keeps its hop
  /// capacity, so a reused scratch path allocates only on its deepest build.
  /// This is the allocation-free variant the per-visit hot loop calls.
  void build_into(const probes::Probe& probe,
                  const topology::CloudEndpoint& endpoint,
                  topology::InterconnectMode mode, ForwardingPath& out) const;

  /// "Horizontal" inter-datacenter path (§3.1): providers with a WAN serving
  /// both regions ride their private backbone; everyone else hauls between
  /// the DC metros over carriers and the public Internet — which is exactly
  /// how the paper describes small providers moving traffic between DCs.
  [[nodiscard]] ForwardingPath build_interdc(
      const topology::CloudEndpoint& src,
      const topology::CloudEndpoint& dst) const;

  /// Does the provider's WAN carry traffic to this destination region?
  [[nodiscard]] static bool wan_serves(cloud::ProviderId provider,
                                       const cloud::RegionInfo& region);

  // --- the choices a build makes, read from the tables -----------------
  // A country argument is a row of world.countries(): paths make their
  // choices at its centroid (the probe's home country, or the last uplink
  // gateway it hauls to). An endpoint argument is a row of
  // world.endpoints(), which is CHECKed.

  struct HubChoice {
    const topology::TransitCarrier* carrier = nullptr;
    const topology::TransitHub* hub = nullptr;
  };
  /// OneAs (PNI) haul: one carrier's entry and exit hubs.
  struct CarrierPlan {
    const topology::TransitCarrier* carrier = nullptr;
    const topology::TransitHub* entry = nullptr;
    const topology::TransitHub* exit = nullptr;
  };
  /// Public haul: the hub nearest the origin, its carrier's hub nearest the
  /// destination, and the other carrier's hub the path hands off to when
  /// that exit is over 2,500 km out (`second.hub` null otherwise).
  struct TransitPlan {
    HubChoice first;
    const topology::TransitHub* exit = nullptr;
    HubChoice second;
  };

  /// Cheapest centroid -> entry -> exit -> region haul on one carrier.
  [[nodiscard]] CarrierPlan carrier_plan(
      std::size_t from, const topology::CloudEndpoint& to) const;
  /// Public transit from a country's centroid to a region.
  [[nodiscard]] TransitPlan transit_plan(
      std::size_t from, const topology::CloudEndpoint& to) const;
  /// Public transit between two regions (build_interdc).
  [[nodiscard]] TransitPlan transit_plan(
      const topology::CloudEndpoint& from,
      const topology::CloudEndpoint& to) const;

  [[nodiscard]] const HubTables& tables() const { return tables_; }

 private:
  [[nodiscard]] std::size_t endpoint_index(
      const topology::CloudEndpoint& endpoint) const;
  [[nodiscard]] std::span<const double> country_km(std::size_t row) const;
  [[nodiscard]] std::span<const double> endpoint_km(std::size_t endpoint) const;
  /// A hub's position in flat hub order.
  [[nodiscard]] std::size_t hub_index(const topology::TransitCarrier& carrier,
                                      const topology::TransitHub& hub) const;

  const topology::World& world_;
  HubTables tables_;
};

}  // namespace cloudrtt::routing
