#include "geo/coords.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numbers>
#include <numeric>

namespace cloudrtt::geo {

namespace {
constexpr double kDegToRad = std::numbers::pi / 180.0;
constexpr double kRadToDeg = 180.0 / std::numbers::pi;

/// Slack on the sweep's two lower bounds. Two points are at least
/// R * |lat_a - lat_b| apart, and at least R times the chord between their
/// unit vectors. haversine_km stays within ~1e-3 km of the exact distance
/// for any inputs (h is off by ~1e-15 at most, which moves 2R asin(sqrt(h))
/// by under 2R sqrt(1e-15) ~ 4e-4 km), and the computed chord bound within
/// ~1e-4 km of its exact value. A point whose bound exceeds the best
/// distance by this much therefore cannot compute below it, and only such
/// points are skipped.
constexpr double kSweepSlackKm = 0.01;

struct UnitVector {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;
};

[[nodiscard]] UnitVector unit_vector(const GeoPoint& p) {
  const double lat = p.lat_deg * kDegToRad;
  const double lon = p.lon_deg * kDegToRad;
  return {std::cos(lat) * std::cos(lon), std::cos(lat) * std::sin(lon),
          std::sin(lat)};
}
}  // namespace

std::vector<double> nearest_neighbour_km(std::span<const GeoPoint> points) {
  std::vector<std::uint32_t> order(points.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return points[a].lat_deg < points[b].lat_deg;
  });
  std::vector<GeoPoint> sorted(points.size());
  std::vector<UnitVector> units(points.size());
  for (std::size_t r = 0; r < order.size(); ++r) {
    sorted[r] = points[order[r]];
    units[r] = unit_vector(sorted[r]);
  }

  std::vector<double> nearest(points.size());
  for (std::size_t rank = 0; rank < sorted.size(); ++rank) {
    const GeoPoint& a = sorted[rank];
    const UnitVector& u = units[rank];
    double best = std::numeric_limits<double>::infinity();
    // Outwards from `a`, each way until the latitude gap rules out every
    // point further on; a point the chord rules out is passed over.
    const auto visit = [&](std::size_t r) {
      const double reach_km = best + kSweepSlackKm;
      const double gap_deg = std::abs(a.lat_deg - sorted[r].lat_deg);
      if (kEarthRadiusKm * gap_deg * kDegToRad > reach_km) return false;
      const double dx = u.x - units[r].x;
      const double dy = u.y - units[r].y;
      const double dz = u.z - units[r].z;
      const double chord_km2 =
          (dx * dx + dy * dy + dz * dz) * kEarthRadiusKm * kEarthRadiusKm;
      if (chord_km2 <= reach_km * reach_km) {
        best = std::min(best, haversine_km(a, sorted[r]));
      }
      return true;
    };
    for (std::size_t r = rank; r-- > 0 && visit(r);) {
    }
    for (std::size_t r = rank + 1; r < sorted.size() && visit(r); ++r) {
    }
    nearest[order[rank]] = best;
  }
  return nearest;
}

double haversine_km(const GeoPoint& a, const GeoPoint& b) {
  const double lat1 = a.lat_deg * kDegToRad;
  const double lat2 = b.lat_deg * kDegToRad;
  const double dlat = (b.lat_deg - a.lat_deg) * kDegToRad;
  const double dlon = (b.lon_deg - a.lon_deg) * kDegToRad;
  const double sin_dlat = std::sin(dlat / 2.0);
  const double sin_dlon = std::sin(dlon / 2.0);
  const double h =
      sin_dlat * sin_dlat + std::cos(lat1) * std::cos(lat2) * sin_dlon * sin_dlon;
  return 2.0 * kEarthRadiusKm * std::asin(std::min(1.0, std::sqrt(h)));
}

GeoPoint offset(const GeoPoint& origin, double bearing_deg, double distance_km) {
  const double angular = distance_km / kEarthRadiusKm;
  const double bearing = bearing_deg * kDegToRad;
  const double lat1 = origin.lat_deg * kDegToRad;
  const double lon1 = origin.lon_deg * kDegToRad;
  const double lat2 = std::asin(std::sin(lat1) * std::cos(angular) +
                                std::cos(lat1) * std::sin(angular) * std::cos(bearing));
  const double lon2 =
      lon1 + std::atan2(std::sin(bearing) * std::sin(angular) * std::cos(lat1),
                        std::cos(angular) - std::sin(lat1) * std::sin(lat2));
  GeoPoint out{lat2 * kRadToDeg, lon2 * kRadToDeg};
  while (out.lon_deg > 180.0) out.lon_deg -= 360.0;
  while (out.lon_deg <= -180.0) out.lon_deg += 360.0;
  return out;
}

}  // namespace cloudrtt::geo
