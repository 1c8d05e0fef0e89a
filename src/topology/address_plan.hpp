#pragma once
// Pre-materialized router address plan.
//
// World construction walks the AS/router space in canonical order and
// pre-assigns every router IP any campaign could touch (DESIGN.md §5b), so
// the plan is a pure function of the world config: resumes replay nothing,
// and concurrent readers share immutable tables. Each table is a dense
// array indexed by the catalogue rows a path build already holds (flat hub,
// country row, IXP, ISP, provider, endpoint): a lookup is an array read, and
// no site label is composed, hashed or searched.

#include <cstddef>
#include <vector>

#include "cloud/provider.hpp"
#include "geo/continent.hpp"
#include "net/ipv4.hpp"

namespace cloudrtt::topology {

class World;

/// An interface on a load-balanced segment, and its ECMP sibling.
struct EcmpPair {
  net::Ipv4Address ip;
  net::Ipv4Address sibling;
};

/// A tier-1 hub's ingress and the separate egress public paths expose.
struct HubSites {
  EcmpPair in;
  net::Ipv4Address out;
};

/// A continental transit AS's upstream and gateway egress in one country.
struct UpstreamSites {
  EcmpPair up;
  net::Ipv4Address gw;
};

/// Frozen router addresses, one typed table per kind of site. Flat hub
/// order is tier1_carriers() order, each carrier's hubs in turn; a country
/// row is a row of geo::CountryTable; an IXP is a row of known_ixps(); an
/// ISP is its IspNetwork::index; an endpoint is a row of World::endpoints().
/// Filled once by World's materialization pass, then read-only.
// lint:frozen
class AddressPlan {
 public:
  /// Every planned address (each hub city's PoP interface counted once).
  [[nodiscard]] std::size_t size() const {
    return 3 * hubs_.size() + 3 * upstream_.size() + ixp_lans_.size() +
           isps_.size() + isp_edges_.size() + isp_gateways_.size() +
           pops_.size() + pop_ats_.size() + wans_.size() + region_wans_.size();
  }

  // lint:hot
  [[nodiscard]] const HubSites& hub(std::size_t h) const { return hubs_[h]; }
  /// Sites of `continent`'s transit AS for the country at `row`.
  // lint:hot
  [[nodiscard]] const UpstreamSites& upstream(geo::Continent continent,
                                              std::size_t row) const {
    return upstream_[geo::index_of(continent) * countries_ + row];
  }
  // lint:hot
  [[nodiscard]] net::Ipv4Address ixp_lan(std::size_t x) const {
    return ixp_lans_[x];
  }
  /// An ISP's edge router in its country's `city` (a CityDirectory row).
  // lint:hot
  [[nodiscard]] net::Ipv4Address isp_edge(std::size_t isp,
                                          std::size_t city) const {
    return isp_edges_[isps_[isp].first_edge + city];
  }
  // lint:hot
  [[nodiscard]] net::Ipv4Address isp_core(std::size_t isp) const {
    return isps_[isp].core;
  }
  /// An ISP's egress towards its country's `g`-th uplink gateway.
  // lint:hot
  [[nodiscard]] net::Ipv4Address isp_gateway(std::size_t isp,
                                             std::size_t g) const {
    return isp_gateways_[isps_[isp].first_gateway + g];
  }
  // lint:hot
  [[nodiscard]] net::Ipv4Address pop(cloud::ProviderId p,
                                     std::size_t row) const {
    return pops_[cloud::provider_index(p) * countries_ + row];
  }
  /// A provider's PNI interface at the carrier facility in a hub's city.
  // lint:hot
  [[nodiscard]] net::Ipv4Address pop_at(cloud::ProviderId p,
                                        std::size_t h) const {
    return pop_ats_[cloud::provider_index(p) * hub_cities_ + hub_city_[h]];
  }
  /// The mid-backbone router of a long WAN run into `endpoint`'s region
  /// from the country at `row`, or (wan_from) from another region of the
  /// same provider.
  // lint:hot
  [[nodiscard]] net::Ipv4Address wan(std::size_t endpoint,
                                     std::size_t row) const {
    return wans_[endpoint * countries_ + row];
  }
  // lint:hot
  [[nodiscard]] net::Ipv4Address wan_from(std::size_t endpoint,
                                          std::size_t source) const {
    return region_wans_[first_region_wan_[endpoint] + provider_rank_[source]];
  }

 private:
  friend class World;

  struct IspSites {
    std::size_t first_edge = 0;
    std::size_t first_gateway = 0;
    net::Ipv4Address core;
  };

  std::size_t countries_ = 0;
  std::size_t hub_cities_ = 0;
  std::vector<HubSites> hubs_;               ///< per flat hub
  std::vector<UpstreamSites> upstream_;      ///< continent x country row
  std::vector<net::Ipv4Address> ixp_lans_;   ///< per IXP
  std::vector<IspSites> isps_;               ///< per ISP
  std::vector<net::Ipv4Address> isp_edges_;  ///< each ISP's cities in turn
  std::vector<net::Ipv4Address> isp_gateways_;  ///< each ISP's gateways
  std::vector<net::Ipv4Address> pops_;       ///< provider x country row
  std::vector<std::size_t> hub_city_;        ///< flat hub -> its city's slot
  std::vector<net::Ipv4Address> pop_ats_;    ///< provider x hub city
  std::vector<net::Ipv4Address> wans_;       ///< endpoint x country row
  std::vector<std::size_t> provider_rank_;   ///< endpoint -> row in provider
  std::vector<std::size_t> first_region_wan_;  ///< endpoint -> region_wans_
  std::vector<net::Ipv4Address> region_wans_;  ///< endpoint x its provider
};

}  // namespace cloudrtt::topology
