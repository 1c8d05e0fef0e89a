#pragma once
// AS-level BGP route propagation with Gao-Rexford policies.
//
// The paper's background (§2.1/§2.3) rests on inter-domain routing facts:
// the Internet "flattening", hypergiants bypassing Tier-1 transit via direct
// peering, small clouds living behind their providers. This module computes
// policy-compliant best routes over the derived AS graph and lets the
// repository check those facts from first principles — independently of the
// waypoint-based forwarding simulator the measurements run on.
//
// Model: edges are customer->provider or peer<->peer. Exports follow the
// classic rules — routes learned from customers are exported to everyone;
// routes learned from peers or providers only to customers. Selection
// prefers customer routes over peer routes over provider routes, then the
// shortest AS path, then the lowest next-hop ASN (deterministic tiebreak).
// All best routes under these preferences are valley-free by construction.

#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "topology/asn.hpp"

namespace cloudrtt::topology {

class World;

enum class RouteType : unsigned char { Origin, Customer, Peer, Provider };

[[nodiscard]] constexpr std::string_view to_string(RouteType type) {
  switch (type) {
    case RouteType::Origin: return "origin";
    case RouteType::Customer: return "customer";
    case RouteType::Peer: return "peer";
    case RouteType::Provider: return "provider";
  }
  return "?";
}

struct BgpRoute {
  std::vector<Asn> as_path;  ///< from the route holder towards the origin
  RouteType type = RouteType::Origin;

  [[nodiscard]] std::size_t length() const { return as_path.size(); }
};

class BgpGraph {
 public:
  BgpGraph() = default;

  /// Derive the AS-level business graph from an assembled world:
  ///  * tier-1 carriers form a full peer mesh;
  ///  * continental transit ASes buy from nearby tier-1s;
  ///  * access ISPs buy from their continental transit (and, in developed
  ///    markets, directly from tier-1s);
  ///  * clouds peer directly with ISPs per the interconnect policy, peer
  ///    with carriers hosting their PNI PoPs, and buy transit where their
  ///    backbone is public.
  [[nodiscard]] static BgpGraph from_world(const World& world);

  void add_customer_provider(Asn customer, Asn provider);
  void add_peering(Asn a, Asn b);

  [[nodiscard]] bool has_edge(Asn a, Asn b) const;
  [[nodiscard]] std::size_t as_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edge_count_; }

  /// Best routes from every AS towards `origin`. Each call runs the whole
  /// decision process; the graph holds no cache (and therefore no mutex), so
  /// a caller asking about many ASes keeps the map.
  [[nodiscard]] std::unordered_map<Asn, BgpRoute> routes_to(Asn origin) const;

  /// Best route from one AS towards an origin; nullopt when policy hides it.
  /// Runs routes_to(origin) and keeps one entry.
  [[nodiscard]] std::optional<BgpRoute> route(Asn from, Asn origin) const;

  /// Valley-free check for an AS path (each edge classified against the
  /// graph; a path may step "down" at most once and never up after down).
  [[nodiscard]] bool is_valley_free(const std::vector<Asn>& as_path) const;

 private:
  struct Node {
    std::vector<Asn> providers;
    std::vector<Asn> customers;
    std::vector<Asn> peers;
  };

  Node& node(Asn asn);
  [[nodiscard]] const Node* find(Asn asn) const;

  std::unordered_map<Asn, Node> nodes_;
  std::size_t edge_count_ = 0;
};

}  // namespace cloudrtt::topology
