#pragma once
// ISO-3166 country catalogue with the per-country properties that drive the
// synthetic study:
//
//  * centroid + spread: where probes and ISP PoPs are scattered,
//  * sc_weight / atlas_weight: relative probe densities of the two platforms
//    (calibrated to Fig. 1b and Fig. 2 of the paper; absolute values are in
//    "approximate real probes" so that continent sums match the figures),
//  * cell_fraction: share of Speedchecker probes on cellular vs home WiFi
//    (the paper's Africa analysis hinges on north-AF being cellular-heavy),
//  * backhaul_quality in [0,1]: how well-provisioned the public backbone is
//    (drives transit detour and jitter; EU/NA high, developing regions low).

#include <array>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "geo/continent.hpp"
#include "geo/coords.hpp"

namespace cloudrtt::geo {

struct CountryInfo {
  std::string_view code;  ///< ISO 3166-1 alpha-2
  std::string_view name;
  Continent continent;
  GeoPoint centroid;
  double spread_km;       ///< rough radius for scattering probes/PoPs
  double sc_weight;       ///< ~count of Speedchecker probes (Fig. 1b scale)
  double atlas_weight;    ///< ~count of RIPE Atlas probes (Fig. 2 scale)
  double cell_fraction;   ///< P[Speedchecker probe uses cellular]
  double backhaul_quality;
};

/// Immutable catalogue; instance() is the process-wide table built from the
/// static data.
class CountryTable {
 public:
  [[nodiscard]] static const CountryTable& instance();

  /// A table over `rows`, whose codes must be unique two-letter upper-case
  /// ISO codes (CHECKed: the lookup index has one slot per such code).
  explicit CountryTable(std::span<const CountryInfo> rows);
  CountryTable(const CountryTable&) = delete;
  CountryTable& operator=(const CountryTable&) = delete;

  [[nodiscard]] std::span<const CountryInfo> all() const { return countries_; }
  /// Constant-time lookup through the code index; nullptr for an unknown code.
  [[nodiscard]] const CountryInfo* find(std::string_view code) const;
  /// Throwing lookup for code paths where a miss is a programming error.
  [[nodiscard]] const CountryInfo& at(std::string_view code) const;
  /// The code's row in all(); throws like at() for an unknown code.
  [[nodiscard]] std::size_t row(std::string_view code) const {
    return static_cast<std::size_t>(&at(code) - countries_.data());
  }

  [[nodiscard]] double total_sc_weight() const { return total_sc_weight_; }
  [[nodiscard]] double total_atlas_weight() const {
    return total_atlas_weight_;
  }
  [[nodiscard]] double continent_sc_weight(Continent c) const;
  [[nodiscard]] double continent_atlas_weight(Continent c) const;

 private:
  std::vector<CountryInfo> countries_;
  /// One slot per two-letter code "AA".."ZZ", pointing into countries_.
  std::array<const CountryInfo*, 26 * 26> index_{};
  double total_sc_weight_ = 0.0;
  double total_atlas_weight_ = 0.0;
  std::array<double, kContinentCount> sc_by_continent_{};
  std::array<double, kContinentCount> atlas_by_continent_{};
};

}  // namespace cloudrtt::geo
