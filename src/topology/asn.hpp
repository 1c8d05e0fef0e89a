#pragma once
// AS-level identity: AS numbers, network classes, and per-AS metadata.
// The analysis side consumes this through the PeeringDB-like enrichment
// registry (§3.3), never directly — mirroring the paper's pipeline.

#include <cstdint>
#include <string>
#include <string_view>

#include "cloud/provider.hpp"
#include "geo/continent.hpp"

namespace cloudrtt::topology {

using Asn = std::uint32_t;

/// Network class as recorded in our PeeringDB substitute.
enum class AsType : unsigned char {
  Tier1Transit,     ///< global carrier (Telia, GTT, NTT, TATA, ...)
  RegionalTransit,  ///< continental/sub-regional transit
  AccessIsp,        ///< eyeball network hosting probes
  CloudWan,         ///< a cloud provider's backbone AS
  Ixp,              ///< exchange fabric (route-servers/peering LAN)
};

struct AsInfo {
  Asn asn = 0;
  std::string name;
  AsType type = AsType::AccessIsp;
  std::string country;  ///< ISO code of registration ("" for global carriers)
  geo::Continent continent = geo::Continent::Europe;
  /// Set only for AsType::CloudWan.
  cloud::ProviderId provider = cloud::ProviderId::Amazon;

  [[nodiscard]] bool is_ixp() const { return type == AsType::Ixp; }
};

}  // namespace cloudrtt::topology
