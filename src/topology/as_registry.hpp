#pragma once
// Registry of every AS in the simulated Internet, plus the static catalogue
// of real-world ASes the paper names: the tier-1 carriers used for carrier
// peering (§6.1), the case-study access ISPs of Figs. 12/13/17/18, and the
// large European/Asian IXP fabrics.

#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "geo/coords.hpp"
#include "topology/asn.hpp"

namespace cloudrtt::topology {

/// A transit carrier's point of presence (hub) — public paths ride between
/// hubs, which is what creates real-world detours (e.g. Gulf traffic
/// surfacing in Marseille).
struct TransitHub {
  std::string_view city;
  std::string_view country;
  geo::GeoPoint location;
};

struct TransitCarrier {
  Asn asn;
  std::string_view name;
  std::vector<TransitHub> hubs;
};

/// Named access ISP used in the paper's case studies.
struct NamedIsp {
  Asn asn;
  std::string_view name;
  std::string_view country;
};

struct IxpInfo {
  Asn asn;
  std::string_view name;
  std::string_view country;
  geo::GeoPoint location;
};

/// Static real-world catalogue (data tables in as_registry.cpp).
[[nodiscard]] std::span<const TransitCarrier> tier1_carriers();
[[nodiscard]] std::vector<const NamedIsp*> named_isps_in(
    std::string_view country);
[[nodiscard]] std::span<const IxpInfo> known_ixps();

/// Mutable registry the World fills while building the topology.
class AsRegistry {
 public:
  /// Register an AS; asn must be unused. Returns the stored record.
  const AsInfo& add(AsInfo info);

  [[nodiscard]] const AsInfo* find(Asn asn) const;
  [[nodiscard]] const AsInfo& at(Asn asn) const;
  [[nodiscard]] bool contains(Asn asn) const { return find(asn) != nullptr; }
  [[nodiscard]] std::size_t size() const { return infos_.size(); }

  /// Allocate a fresh synthetic ASN (range disjoint from the catalogue).
  [[nodiscard]] Asn next_synthetic_asn() { return next_synthetic_++; }

  [[nodiscard]] const std::vector<AsInfo>& all() const { return infos_; }

 private:
  std::vector<AsInfo> infos_;
  std::unordered_map<Asn, std::size_t> index_;
  /// Fresh 32-bit range, clear of the real ASNs above.
  Asn next_synthetic_ = 210000;
};

}  // namespace cloudrtt::topology
