#pragma once
// Geodesy primitives: WGS-84 points, great-circle distance, and the
// distance->latency conversion used by every latency model in the simulator.

#include <cmath>
#include <span>
#include <vector>

namespace cloudrtt::geo {

/// A point on the globe, degrees. Latitude in [-90, 90], longitude in
/// (-180, 180].
struct GeoPoint {
  double lat_deg = 0.0;
  double lon_deg = 0.0;

  friend bool operator==(const GeoPoint&, const GeoPoint&) = default;
};

inline constexpr double kEarthRadiusKm = 6371.0;

/// Speed of light in fibre is roughly 2/3 c; the conventional measurement
/// rule of thumb (used in the paper's community, e.g. c-latency checks) is
/// ~200 km per millisecond one-way, i.e. RTT of 1 ms per 100 km.
inline constexpr double kFibreKmPerMsOneWay = 200.0;

/// Great-circle distance (haversine).
[[nodiscard]] double haversine_km(const GeoPoint& a, const GeoPoint& b);

/// For each point, the distance to its nearest *other* point (another
/// element, so a duplicate location gives 0; +infinity when there is none):
/// the minimum of haversine_km(points[i], points[j]) over j != i, the same
/// bits as that all-pairs loop. A sweep over the points sorted by latitude
/// computes it without visiting every pair.
[[nodiscard]] std::vector<double> nearest_neighbour_km(
    std::span<const GeoPoint> points);

/// Minimum physically possible round-trip time over `km` of fibre.
[[nodiscard]] inline double fibre_rtt_ms(double km) {
  return 2.0 * km / kFibreKmPerMsOneWay;
}

/// One-way fibre propagation delay over `km`.
[[nodiscard]] inline double fibre_one_way_ms(double km) {
  return km / kFibreKmPerMsOneWay;
}

/// Destination point at `distance_km` from `origin` along initial bearing
/// `bearing_deg` (used to scatter probes/PoPs around country centroids).
[[nodiscard]] GeoPoint offset(const GeoPoint& origin, double bearing_deg,
                              double distance_km);

}  // namespace cloudrtt::geo
