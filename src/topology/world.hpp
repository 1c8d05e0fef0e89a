#pragma once
// World: the fully-assembled synthetic Internet.
//
// Construction wires together, deterministically from one seed:
//  * the AS registry (tier-1 carriers, continental transit, IXPs, access
//    ISPs per country, one WAN AS per cloud provider),
//  * the country-level physical backbone,
//  * the IPv4 address plan (customer/infra/CGN prefixes per ISP, WAN and
//    per-region endpoint prefixes per provider),
//  * cloud edge PoP presence per <provider, country>,
//  * the interconnection policy per <ISP, provider, destination continent>.
//
// Construction ends with a materialization pass that walks the AS/router
// space in canonical order and pre-assigns every router address and pair
// policy a campaign could touch (topology/address_plan.hpp). After that the
// World is immutable on its read path: address_plan() and interconnect()
// are pure array lookups, safe for concurrent readers — the property the
// parallel campaign executor relies on. Only the probe-generation allocators
// (allocate_customer_ip / allocate_cgn_ip) mutate, and they are non-const.
//
// The analysis pipeline never touches this object's internals: it bootstraps
// from rib_dump() / whois_entries() / ixp_prefixes(), the same way the paper
// bootstraps from PyASN, Team Cymru and CAIDA data.

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cloud/provider.hpp"
#include "cloud/region.hpp"
#include "geo/country.hpp"
#include "net/allocator.hpp"
#include "net/ipv4.hpp"
#include "topology/address_plan.hpp"
#include "topology/as_registry.hpp"
#include "topology/backbone.hpp"
#include "topology/interconnect.hpp"
#include "topology/isp.hpp"
#include "util/rng.hpp"

namespace cloudrtt::topology {

struct WorldConfig {
  std::uint64_t seed = 42;
  /// Ablation: when false, no country funnels its public transit through a
  /// gateway (the Gulf/Africa hairpins disappear) — isolates how much of the
  /// paper's Fig. 6a/18 geography is routing policy rather than distance.
  bool enable_uplink_gateways = true;
  /// Ablation: when false, no provider deploys edge PoPs and the case-study
  /// peering overrides are ignored — every pair falls back to carrier or
  /// public transit, approximating a world without the paper's §2.3
  /// interconnection investments.
  bool enable_edge_pops = true;
};

/// A deployed compute region endpoint: the public VM the study pings
/// (hostname resolution via CloudHarmony in the paper; here the directory
/// itself is the resolver).
struct CloudEndpoint {
  const cloud::RegionInfo* region = nullptr;
  net::Ipv4Prefix prefix;       ///< the region's announced /24
  net::Ipv4Address vm_ip;       ///< target VM
  net::Ipv4Address dc_router;   ///< last router before the VM
};

struct RibEntry {
  net::Ipv4Prefix prefix;
  Asn asn;
};

// lint:frozen
class World {
 public:
  explicit World(const WorldConfig& config = {});

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] const WorldConfig& config() const { return config_; }
  [[nodiscard]] const geo::CountryTable& countries() const {
    return geo::CountryTable::instance();
  }
  [[nodiscard]] const AsRegistry& registry() const { return registry_; }
  [[nodiscard]] const Backbone& backbone() const { return backbone_; }

  // --- access ISPs ---------------------------------------------------------
  [[nodiscard]] const std::vector<IspNetwork>& isps() const { return isps_; }
  [[nodiscard]] std::vector<const IspNetwork*> isps_in(
      std::string_view country) const;
  [[nodiscard]] const IspNetwork& isp(Asn asn) const;

  /// Hand out subscriber addresses (called while generating probes).
  // lint:allow(frozen): probe generation advances a deterministic counter
  [[nodiscard]] net::Ipv4Address allocate_customer_ip(Asn isp_asn);
  // lint:allow(frozen): probe generation advances a deterministic counter
  [[nodiscard]] net::Ipv4Address allocate_cgn_ip(Asn isp_asn);

  // --- cloud side ------------------------------------------------------------
  [[nodiscard]] const std::vector<CloudEndpoint>& endpoints() const {
    return endpoints_;
  }
  /// Does the provider deploy an edge PoP in the country at `row`?
  // lint:hot
  [[nodiscard]] bool has_pop(cloud::ProviderId p, std::size_t row) const {
    return config_.enable_edge_pops &&
           pops_[cloud::provider_index(p) * countries().all().size() + row];
  }

  /// Interconnection decision for <ISP, provider, destination continent>;
  /// pre-materialized at construction, so this is a pure array read with a
  /// stable reference — safe for concurrent readers.
  // lint:hot
  [[nodiscard]] const PairPolicy& interconnect(const IspNetwork& isp,
                                               cloud::ProviderId provider,
                                               geo::Continent dst) const {
    return policies_[(isp.index * cloud::kProviderCount +
                      cloud::provider_index(provider)) *
                         geo::kContinentCount +
                     geo::index_of(dst)];
  }

  /// The continental transit AS fronting public paths out of `continent`.
  [[nodiscard]] Asn continental_transit(geo::Continent continent) const;

  // --- routers -------------------------------------------------------------
  /// Every router address a path can expose, pre-assigned by the
  /// materialization pass in typed tables; stable across calls and resumes.
  [[nodiscard]] const AddressPlan& address_plan() const {
    return address_plan_;
  }

  // --- analysis bootstrap data ---------------------------------------------
  /// Announced prefixes (the "RIB dump" PyASN would ingest).
  [[nodiscard]] const std::vector<RibEntry>& rib_dump() const { return rib_; }
  /// Registration data for prefixes missing from the RIB (the Team Cymru
  /// fallback of §3.3).
  [[nodiscard]] const std::vector<RibEntry>& whois_entries() const {
    return whois_;
  }
  /// IXP peering-LAN prefixes (the CAIDA IXP dataset stand-in).
  [[nodiscard]] const std::vector<RibEntry>& ixp_prefixes() const {
    return ixp_rib_;
  }

  [[nodiscard]] util::Rng fork_rng(std::string_view label) const {
    return root_rng_.fork(label);
  }

 private:
  void build_transit();
  void build_ixps();
  void build_isps();
  void build_clouds();
  void build_pops();
  /// Walk the AS/router space in canonical order and pre-assign every router
  /// interface address any path build could request.
  void materialize_address_plan();
  /// Pre-compute every <ISP, provider, continent> interconnect decision.
  void materialize_policies();

  [[nodiscard]] net::Ipv4Prefix allocate_infra(Asn asn, std::uint8_t length,
                                               bool announced);
  [[nodiscard]] PairPolicy compute_policy(const IspNetwork& isp,
                                          cloud::ProviderId provider,
                                          geo::Continent dst) const;

  WorldConfig config_;
  util::Rng root_rng_;
  AsRegistry registry_;
  Backbone backbone_;
  net::PrefixAllocator prefix_allocator_;
  std::uint32_t cgn_cursor_;

  std::vector<IspNetwork> isps_;
  std::unordered_map<Asn, std::size_t> isp_index_;
  std::unordered_map<Asn, net::HostAllocator> customer_alloc_;
  std::unordered_map<Asn, net::HostAllocator> cgn_alloc_;
  /// Build-phase only: drained by the materialization pass, untouched after.
  std::unordered_map<Asn, net::HostAllocator> infra_alloc_;

  std::vector<CloudEndpoint> endpoints_;
  std::unordered_map<const cloud::RegionInfo*, std::size_t> endpoint_index_;
  std::vector<bool> pops_;  ///< provider x country row

  std::array<Asn, geo::kContinentCount> continental_transit_{};

  AddressPlan address_plan_;
  std::vector<PairPolicy> policies_;  ///< ISP x provider x continent

  std::vector<RibEntry> rib_;
  std::vector<RibEntry> whois_;
  std::vector<RibEntry> ixp_rib_;
};

}  // namespace cloudrtt::topology
