#pragma once
// Test helpers naming the catalogue rows the address plan is indexed by
// through their real-world labels: a carrier's hub by its city, an IXP by
// its ASN.

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>

#include "topology/as_registry.hpp"

namespace cloudrtt::test {

/// Position of `carrier`'s hub in `city` in flat hub order (tier1_carriers()
/// order, each carrier's hubs in turn).
[[nodiscard]] inline std::size_t hub_row(topology::Asn carrier,
                                         std::string_view city) {
  std::size_t flat = 0;
  for (const topology::TransitCarrier& c : topology::tier1_carriers()) {
    for (const topology::TransitHub& hub : c.hubs) {
      if (c.asn == carrier && hub.city == city) return flat;
      ++flat;
    }
  }
  throw std::out_of_range{"no hub of AS" + std::to_string(carrier) + " in " +
                          std::string{city}};
}

/// Row of the IXP whose ASN is `asn` in known_ixps().
[[nodiscard]] inline std::size_t ixp_row(topology::Asn asn) {
  const auto ixps = topology::known_ixps();
  for (std::size_t x = 0; x < ixps.size(); ++x) {
    if (ixps[x].asn == asn) return x;
  }
  throw std::out_of_range{"no IXP AS" + std::to_string(asn)};
}

}  // namespace cloudrtt::test
