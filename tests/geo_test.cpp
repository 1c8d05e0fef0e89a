// Unit tests for geodesy and the country catalogue calibration
// (continent-level probe weights must track Figs. 1b and 2 of the paper).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "geo/continent.hpp"
#include "geo/coords.hpp"
#include "geo/country.hpp"
#include "util/rng.hpp"

namespace cloudrtt::geo {
namespace {

TEST(Coords, HaversineKnownDistances) {
  const GeoPoint london{51.51, -0.13};
  const GeoPoint new_york{40.71, -74.01};
  const GeoPoint tokyo{35.68, 139.69};
  EXPECT_NEAR(haversine_km(london, new_york), 5570.0, 60.0);
  EXPECT_NEAR(haversine_km(london, tokyo), 9560.0, 100.0);
  EXPECT_NEAR(haversine_km(london, london), 0.0, 1e-9);
}

TEST(Coords, HaversineIsSymmetric) {
  const GeoPoint a{12.3, 45.6};
  const GeoPoint b{-33.9, 151.2};
  EXPECT_DOUBLE_EQ(haversine_km(a, b), haversine_km(b, a));
}

TEST(Coords, FibreRttRuleOfThumb) {
  // 100 km of fibre ~ 1 ms RTT.
  EXPECT_DOUBLE_EQ(fibre_rtt_ms(100.0), 1.0);
  EXPECT_DOUBLE_EQ(fibre_one_way_ms(200.0), 1.0);
}

TEST(Coords, OffsetRoundTripDistance) {
  const GeoPoint origin{48.0, 11.0};
  for (const double bearing : {0.0, 90.0, 180.0, 270.0, 45.0}) {
    const GeoPoint moved = offset(origin, bearing, 500.0);
    EXPECT_NEAR(haversine_km(origin, moved), 500.0, 1.0);
  }
}

TEST(Coords, OffsetNormalizesLongitude) {
  const GeoPoint near_dateline{0.0, 179.5};
  const GeoPoint moved = offset(near_dateline, 90.0, 300.0);
  EXPECT_LE(moved.lon_deg, 180.0);
  EXPECT_GT(moved.lon_deg, -180.0);
}

// The all-pairs loop Fig. 14's closeness ran before the latitude sweep:
// each point's minimum distance to every other element, in that order.
[[nodiscard]] std::vector<double> all_pairs_nearest_km(
    const std::vector<GeoPoint>& points) {
  std::vector<double> nearest;
  for (std::size_t i = 0; i < points.size(); ++i) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < points.size(); ++j) {
      if (i == j) continue;
      best = std::min(best, haversine_km(points[i], points[j]));
    }
    nearest.push_back(best);
  }
  return nearest;
}

/// A random point set of one of several shapes: clustered or spread,
/// with repeated points, shared latitudes, and points within a hair of a
/// pole or of the antimeridian.
[[nodiscard]] std::vector<GeoPoint> random_points(util::Rng& rng) {
  const std::size_t n = 2 + rng.below(300);
  const double lat_span = rng.chance(0.5) ? 0.5 : 90.0;
  const GeoPoint centre{rng.uniform(-60.0, 60.0), rng.uniform(-179.0, 180.0)};
  std::vector<GeoPoint> points;
  while (points.size() < n) {
    GeoPoint p;
    switch (rng.below(6)) {
      case 0:  // a repeat of an earlier point
        if (!points.empty()) {
          points.push_back(points[rng.below(points.size())]);
          continue;
        }
        [[fallthrough]];
      case 1:  // a cluster member
        p = {std::clamp(centre.lat_deg + rng.uniform(-lat_span, lat_span),
                        -90.0, 90.0),
             centre.lon_deg + rng.uniform(-0.5, 0.5)};
        break;
      case 2:  // on the latitude of an earlier point
        p = {points.empty() ? 10.0 : points[rng.below(points.size())].lat_deg,
             rng.uniform(-179.9, 180.0)};
        break;
      case 3:  // near a pole
        p = {(rng.chance(0.5) ? 1.0 : -1.0) * (90.0 - rng.uniform(0.0, 1e-3)),
             rng.uniform(-179.9, 180.0)};
        break;
      case 4:  // either side of the antimeridian
        p = {rng.uniform(-30.0, 30.0),
             rng.chance(0.5) ? 180.0 - rng.uniform(0.0, 0.01)
                             : -180.0 + rng.uniform(1e-9, 0.01)};
        break;
      default:
        p = {rng.uniform(-90.0, 90.0), rng.uniform(-179.9, 180.0)};
        break;
    }
    p.lon_deg = std::clamp(p.lon_deg, -179.999999, 180.0);
    points.push_back(p);
  }
  return points;
}

TEST(Coords, NearestNeighbourSweepEqualsAllPairsBitForBit) {
  util::Rng rng{2021};
  for (int round = 0; round < 300; ++round) {
    SCOPED_TRACE(round);
    const std::vector<GeoPoint> points = random_points(rng);
    const std::vector<double> want = all_pairs_nearest_km(points);
    const std::vector<double> got = nearest_neighbour_km(points);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                std::bit_cast<std::uint64_t>(want[i]))
          << i << ": " << got[i] << " vs " << want[i];
    }
  }
}

TEST(Coords, NearestNeighbourOfDuplicatesAndLonePoints) {
  EXPECT_TRUE(nearest_neighbour_km({}).empty());
  const std::vector<GeoPoint> lone{{10.0, 20.0}};
  EXPECT_EQ(nearest_neighbour_km(lone),
            std::vector<double>{std::numeric_limits<double>::infinity()});
  const std::vector<GeoPoint> twins{{10.0, 20.0}, {10.0, 20.0}, {50.0, 0.0}};
  const std::vector<double> nearest = nearest_neighbour_km(twins);
  EXPECT_EQ(nearest[0], 0.0);
  EXPECT_EQ(nearest[1], 0.0);
  EXPECT_EQ(nearest[2], haversine_km(twins[2], twins[0]));
}

TEST(Continent, CodesRoundTrip) {
  for (const Continent c : kAllContinents) {
    const auto parsed = continent_from_code(to_code(c));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, c);
  }
  EXPECT_FALSE(continent_from_code("XX").has_value());
}

TEST(CountryTable, LookupKnownCountries) {
  const auto& table = CountryTable::instance();
  EXPECT_NE(table.find("DE"), nullptr);
  EXPECT_NE(table.find("BH"), nullptr);
  EXPECT_EQ(table.find("XX"), nullptr);
  EXPECT_THROW((void)table.at("XX"), std::out_of_range);
  EXPECT_EQ(table.at("JP").continent, Continent::Asia);
}

TEST(CountryTable, CaseStudyCountriesPresent) {
  const auto& table = CountryTable::instance();
  for (const char* code : {"DE", "GB", "JP", "IN", "UA", "BH"}) {
    EXPECT_NE(table.find(code), nullptr) << code;
  }
}

TEST(CountryTable, SpeedcheckerWeightsTrackFig1b) {
  // Fig. 1b: EU 72K, AS 31K, NA 5.4K, AF 4K, SA 2.8K, OC 351. Our weights
  // follow the same ordering and rough magnitudes (+-30%).
  const auto& table = CountryTable::instance();
  const double eu = table.continent_sc_weight(Continent::Europe);
  const double as = table.continent_sc_weight(Continent::Asia);
  const double na = table.continent_sc_weight(Continent::NorthAmerica);
  const double af = table.continent_sc_weight(Continent::Africa);
  const double sa = table.continent_sc_weight(Continent::SouthAmerica);
  const double oc = table.continent_sc_weight(Continent::Oceania);
  EXPECT_GT(eu, as);
  EXPECT_GT(as, na);
  EXPECT_GT(na, af);
  EXPECT_GT(af, sa);
  EXPECT_GT(sa, oc);
  EXPECT_NEAR(eu, 72000.0, 72000.0 * 0.3);
  EXPECT_NEAR(as, 31000.0, 31000.0 * 0.3);
  EXPECT_NEAR(oc, 351.0, 351.0 * 0.3);
}

TEST(CountryTable, AtlasWeightsTrackFig2) {
  const auto& table = CountryTable::instance();
  const double eu = table.continent_atlas_weight(Continent::Europe);
  const double as = table.continent_atlas_weight(Continent::Asia);
  const double af = table.continent_atlas_weight(Continent::Africa);
  EXPECT_NEAR(eu, 5574.0, 5574.0 * 0.35);
  EXPECT_NEAR(as, 1083.0, 1083.0 * 0.35);
  EXPECT_NEAR(af, 261.0, 261.0 * 0.35);
}

TEST(CountryTable, BrazilDominatesSouthAmericaOnSpeedcheckerOnly) {
  // §4.2: >80% of SC probes in SA are Brazilian vs ~40% for Atlas — the
  // driver of the Fig. 5 South-America inversion.
  const auto& table = CountryTable::instance();
  const double br_sc = table.at("BR").sc_weight;
  const double br_atlas = table.at("BR").atlas_weight;
  const double sa_sc = table.continent_sc_weight(Continent::SouthAmerica);
  const double sa_atlas = table.continent_atlas_weight(Continent::SouthAmerica);
  EXPECT_GT(br_sc / sa_sc, 0.75);
  EXPECT_LT(br_atlas / sa_atlas, 0.5);
}

TEST(CountryTable, AtlasAfricaConcentratedInSouthAfrica) {
  const auto& table = CountryTable::instance();
  const double za = table.at("ZA").atlas_weight;
  const double af = table.continent_atlas_weight(Continent::Africa);
  EXPECT_GT(za / af, 0.4);
}

TEST(CountryTable, NorthAfricaIsCellularHeavy) {
  const auto& table = CountryTable::instance();
  for (const char* code : {"EG", "DZ", "MA"}) {
    EXPECT_GE(table.at(code).cell_fraction, 0.8) << code;
  }
  EXPECT_LE(table.at("ZA").cell_fraction, 0.4);
}

TEST(CountryTable, WeightsAndQualitiesAreSane) {
  for (const CountryInfo& c : CountryTable::instance().all()) {
    EXPECT_GE(c.sc_weight, 0.0) << c.code;
    EXPECT_GE(c.atlas_weight, 0.0) << c.code;
    EXPECT_GE(c.cell_fraction, 0.0) << c.code;
    EXPECT_LE(c.cell_fraction, 1.0) << c.code;
    EXPECT_GT(c.backhaul_quality, 0.0) << c.code;
    EXPECT_LE(c.backhaul_quality, 1.0) << c.code;
    EXPECT_GT(c.spread_km, 0.0) << c.code;
    EXPECT_GE(c.centroid.lat_deg, -90.0) << c.code;
    EXPECT_LE(c.centroid.lat_deg, 90.0) << c.code;
    EXPECT_GT(c.centroid.lon_deg, -180.0) << c.code;
    EXPECT_LE(c.centroid.lon_deg, 180.0) << c.code;
    EXPECT_EQ(std::string_view{c.code}.size(), 2u) << c.code;
  }
}

TEST(CountryTable, IndexedFindMatchesALinearScan) {
  const auto& table = CountryTable::instance();
  ASSERT_EQ(table.all().size(), 149u);
  for (const CountryInfo& c : table.all()) {
    const CountryInfo* scanned = nullptr;
    for (const CountryInfo& row : table.all()) {
      if (row.code == c.code) {
        scanned = &row;
        break;
      }
    }
    EXPECT_EQ(table.find(c.code), scanned) << c.code;
    EXPECT_EQ(&table.at(c.code), scanned) << c.code;
  }
}

TEST(CountryTable, FindRejectsAnythingButAKnownUpperCasePair) {
  using namespace std::string_view_literals;
  const auto& table = CountryTable::instance();
  // Lower case, wrong length, unassigned, and bytes either side of 'A'..'Z'.
  for (const std::string_view code :
       {""sv, "D"sv, "de"sv, "dE"sv, "De"sv, "ZZ"sv, "DEU"sv, "D\0"sv, "@A"sv,
        "A["sv, "\xC4" "E"sv}) {
    EXPECT_EQ(table.find(code), nullptr) << code;
  }
  EXPECT_THROW((void)table.at("ZZ"), std::out_of_range);
  EXPECT_THROW((void)table.at("de"), std::out_of_range);
}

TEST(CountryTableDeathTest, ConstructorRefusesCodesTheIndexCannotHold) {
  const CountryInfo germany = CountryTable::instance().at("DE");
  CountryInfo lower = germany;
  lower.code = "de";
  const CountryInfo duplicate[] = {germany, CountryTable::instance().at("FR"),
                                   germany};
  const CountryInfo lowercase[] = {lower};
  CountryInfo three = germany;
  three.code = "DEU";
  const CountryInfo long_code[] = {three};
  EXPECT_DEATH((void)CountryTable{duplicate}, "duplicate country code 'DE'");
  EXPECT_DEATH((void)CountryTable{lowercase}, "not two upper-case letters");
  EXPECT_DEATH((void)CountryTable{long_code}, "not two upper-case letters");
  const CountryInfo fine[] = {germany, CountryTable::instance().at("FR")};
  const CountryTable small{fine};
  EXPECT_EQ(small.find("FR")->name, "France");
  EXPECT_EQ(small.find("GB"), nullptr);
}

TEST(CountryTable, CodesAreUnique) {
  const auto all = CountryTable::instance().all();
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      EXPECT_NE(all[i].code, all[j].code);
    }
  }
}

}  // namespace
}  // namespace cloudrtt::geo
