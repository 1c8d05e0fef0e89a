#pragma once
// Country-level physical backbone graph.
//
// Nodes are countries; edges are terrestrial fibre corridors and submarine
// cables with approximate route lengths and a quality factor in [0,1].
// Public-Internet segments between two places are priced by routing over
// this graph: effective distance picks up per-edge detour factors (worse
// quality => more circuitous routing) and each border/IP-transit crossing
// adds a congestion penalty. This is what makes the paper's geography
// findings emerge: north Africa reaching Europe quickly but South Africa
// slowly (Fig. 6a), Bolivia/Peru riding Pacific cables to North America as
// fast as their terrestrial path to Brazil (Fig. 6b), Gulf traffic detouring
// through Egypt/Marseille (Fig. 18).

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "geo/country.hpp"
#include "geo/coords.hpp"

namespace cloudrtt::topology {

enum class LinkKind : unsigned char { Terrestrial, Submarine };

struct BackboneLink {
  std::string_view a;
  std::string_view b;
  double length_km;  ///< 0 = derive from centroid distance * 1.2
  LinkKind kind;
  double quality;    ///< 0 = derive from endpoint countries
};

/// One explicit catalogue link (for inventories and fault-episode pools).
struct BackboneLinkRef {
  std::string_view a;
  std::string_view b;
  LinkKind kind;
};

/// Result of routing between two countries over the backbone.
struct BackboneRoute {
  std::vector<std::string_view> countries;  ///< node sequence incl. endpoints
  double km = 0.0;              ///< raw cable length along the route
  double effective_km = 0.0;    ///< with per-edge detour factors applied
  double penalty_ms = 0.0;      ///< border/IP-transit crossing overhead (RTT)
  double jitter_scale = 0.0;    ///< mean (1 - quality) along the route
  bool reachable = false;
};

/// A concrete point a segment starts or ends at: its location, its country's
/// row (the backbone node it hangs off), and its spur, the great-circle km
/// to that country's centroid (0 for the centroid itself).
struct Waypoint {
  geo::GeoPoint at;
  std::size_t row = 0;
  double spur_km = 0.0;
};

class Backbone {
 public:
  explicit Backbone(const geo::CountryTable& countries);

  /// Cheapest route between two countries. Same-country routes are
  /// zero-length and always reachable. Nominal (outage-free) routes are
  /// precomputed for every pair at construction, so this is a lock-free
  /// table lookup safe for concurrent readers; only the outage overlay
  /// consults a mutex-guarded cache.
  [[nodiscard]] const BackboneRoute& route(std::string_view from,
                                           std::string_view to) const;

  /// Effective RTT-relevant distance between two concrete points: the
  /// route between their nodes plus each spur at its country's detour.
  /// `direct_km`, their great-circle km, is read only inside one country,
  /// so a caller passing a priced table entry runs no trigonometry.
  struct SegmentCost {
    double effective_km = 0.0;
    double penalty_ms = 0.0;
    double jitter_scale = 0.0;
  };
  [[nodiscard]] SegmentCost segment_cost(const Waypoint& a, const Waypoint& b,
                                         double direct_km) const;

  /// Physical cable length between two concrete points (route km + raw
  /// spurs, no quality detours; `direct_km` as for segment_cost). Private
  /// WANs and carrier backbones ride the same glass as everyone else, so
  /// their latency is priced off this rather than the great circle.
  [[nodiscard]] double physical_km(const Waypoint& a, const Waypoint& b,
                                   double direct_km) const;

  /// Forced egress waypoints for public-transit paths leaving the country at
  /// `row`: the rows of the countries its international connectivity
  /// funnels through (e.g. the Gulf states via Egypt); empty for most.
  // lint:hot
  [[nodiscard]] std::span<const std::size_t> uplink_gateways(
      std::size_t row) const {
    return uplinks_[row];
  }

  [[nodiscard]] std::size_t node_count() const {
    return countries_.all().size();
  }
  [[nodiscard]] std::size_t edge_count() const { return edges_ / 2; }

  /// The explicit long-haul catalogue (no auto-mesh edges) — the episode
  /// pool the fault subsystem draws submarine-cable cuts from.
  [[nodiscard]] const std::vector<BackboneLinkRef>& links() const {
    return catalog_;
  }

  // --- link outages (fault injection) ------------------------------------
  // Severing a country pair removes every parallel edge between the two
  // nodes (explicit cables and auto-mesh alike): the world reroutes affected
  // paths for the episode's duration, exactly like a submarine-cable cut.
  // Outage routes are cached separately so clearing the outage leaves the
  // precomputed nominal table untouched. Const-qualified because campaigns
  // hold the world by const reference. Threading contract: set_outages /
  // clear_outages may only be called from the sequential schedule phase;
  // concurrent route() readers then share the outage cache under a mutex,
  // while nominal lookups stay lock-free.
  void set_outages(
      const std::vector<std::pair<std::string_view, std::string_view>>& cuts) const;
  void clear_outages() const { set_outages({}); }
  // lint:allow(guarded-by): racy-read probe by design; an empty set is stable during execution
  [[nodiscard]] bool outages_active() const { return !outage_keys_.empty(); }

  /// Detour multiplier applied to an edge of the given quality.
  [[nodiscard]] static double detour_factor(double quality) {
    return 1.10 + 0.55 * (1.0 - quality);
  }
  /// Per-crossing congestion penalty (RTT ms) for an edge of given quality.
  [[nodiscard]] static double crossing_penalty_ms(double quality) {
    return 18.0 * (1.0 - quality);
  }

 private:
  struct Edge {
    std::size_t to;
    double km;
    double quality;
  };

  /// Shortest-path tree out of `from` (dist/prev arrays). With `stop_at`
  /// set the search exits early once that node settles; without it the full
  /// tree is computed (the all-pairs precompute path).
  struct SearchState {
    std::vector<double> dist;
    std::vector<std::size_t> prev;
    std::vector<std::size_t> prev_edge;
  };
  [[nodiscard]] SearchState shortest_paths(std::size_t from,
                                           std::optional<std::size_t> stop_at) const;
  [[nodiscard]] BackboneRoute extract_route(std::size_t from, std::size_t to,
                                            const SearchState& state) const;

  /// A country's node is its row in the country table.
  [[nodiscard]] std::optional<std::size_t> node_index(std::string_view code) const;
  [[nodiscard]] const BackboneRoute& route(std::size_t from,
                                           std::size_t to) const;
  [[nodiscard]] const geo::CountryInfo& node(std::size_t index) const {
    return countries_.all()[index];
  }
  void add_edge(std::string_view a, std::string_view b, double km, double quality);
  /// Route every pair once, up front, so route() never writes shared state
  /// on the nominal path.
  void precompute_nominal_routes();
  [[nodiscard]] BackboneRoute compute_route(std::size_t from, std::size_t to) const;
  [[nodiscard]] static std::uint64_t pair_key(std::size_t a, std::size_t b) {
    return (static_cast<std::uint64_t>(std::min(a, b)) << 32) |
           static_cast<std::uint64_t>(std::max(a, b));
  }

  const geo::CountryTable& countries_;
  std::vector<std::vector<Edge>> adjacency_;
  std::vector<BackboneLinkRef> catalog_;
  std::vector<std::vector<std::size_t>> uplinks_;  ///< gateway rows per row
  std::size_t edges_ = 0;
  /// Immutable after construction: route for (from, to) at [from * n + to].
  std::vector<BackboneRoute> nominal_;
  // Outage overlay: rebuilt by set_outages (sequential phase only) and read
  // under outage_mutex_ by concurrent route() callers during execution.
  mutable std::mutex outage_mutex_;
  // lint:guarded_by(outage_mutex_)
  mutable std::unordered_set<std::uint64_t> outage_keys_;     // lint:allow(mutable-member): guarded by outage_mutex_; written only in the sequential schedule phase
  // lint:guarded_by(outage_mutex_)
  mutable std::unordered_map<std::uint64_t, BackboneRoute> outage_cache_;  // lint:allow(mutable-member): guarded by outage_mutex_
};

}  // namespace cloudrtt::topology
