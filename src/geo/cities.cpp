#include "geo/cities.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"

namespace cloudrtt::geo {

CityDirectory::CityDirectory() {
  const auto& table = geo::CountryTable::instance();
  for (const geo::CountryInfo& country : table.all()) {
    const double total_weight = country.sc_weight + country.atlas_weight;
    const auto city_count = static_cast<std::size_t>(
        std::clamp(2.0 + total_weight / 700.0, 2.0, 12.0));
    // Deterministic per-country stream independent of any study seed so the
    // two platforms (and different studies) share the same geography.
    util::Rng rng{util::fnv1a(country.code) ^ 0xc17eedULL};
    std::vector<City> cities;
    cities.reserve(city_count);
    for (std::size_t i = 0; i < city_count; ++i) {
      City city;
      city.name = std::string{country.code} + "-city-" + std::to_string(i + 1);
      // Scatter: golden-angle bearings, sqrt-radius so area coverage is
      // uniform; the first city sits near the centroid (the "capital").
      const double bearing = 137.5 * static_cast<double>(i) + rng.uniform(-25.0, 25.0);
      const double radius =
          i == 0 ? country.spread_km * 0.08
                 : country.spread_km * std::sqrt(rng.uniform(0.05, 1.0));
      city.location = geo::offset(country.centroid, bearing, radius);
      city.weight = 1.0 / static_cast<double>(i + 1);
      cities.push_back(std::move(city));
    }
    per_country_.push_back(std::move(cities));
  }
}

const CityDirectory& CityDirectory::instance() {
  static const CityDirectory directory;
  return directory;
}

std::span<const City> CityDirectory::cities(std::string_view country) const {
  const geo::CountryTable& table = geo::CountryTable::instance();
  const geo::CountryInfo* info = table.find(country);
  if (info == nullptr) return {};
  return per_country_[static_cast<std::size_t>(info - table.all().data())];
}

}  // namespace cloudrtt::geo
