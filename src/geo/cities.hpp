#pragma once
// Synthetic city directory.
//
// Probes geolocate to cities (Speedchecker reports city-level geolocation,
// §3.3), and the Fig. 16 apples-to-apples comparison matches probes of both
// platforms by <city, first-hop ASN> — so both platforms must draw from the
// same per-country city set. Cities are deterministic functions of the
// country (independent of the study seed) with Zipf population weights.
// Lives in geo (not probes) because the topology's address plan enumerates
// per-city edge-router sites from the same directory.

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "geo/country.hpp"
#include "geo/coords.hpp"

namespace cloudrtt::geo {

struct City {
  std::string name;
  geo::GeoPoint location;
  double weight;  ///< probe-placement weight (Zipf by rank)
};

class CityDirectory {
 public:
  [[nodiscard]] static const CityDirectory& instance();

  /// A country's cities; empty for an unknown code.
  [[nodiscard]] std::span<const City> cities(std::string_view country) const;
  /// The cities of the country at `row` of CountryTable::instance().all().
  [[nodiscard]] std::span<const City> cities(std::size_t row) const {
    return per_country_[row];
  }

 private:
  CityDirectory();
  std::vector<std::vector<City>> per_country_;  ///< in country-table order
};

}  // namespace cloudrtt::geo
