#include "topology/bgp.hpp"

#include <algorithm>
#include <deque>
#include <limits>

#include "topology/world.hpp"
#include "util/check.hpp"

namespace cloudrtt::topology {

namespace {

/// Preference rank: lower is better (Gao-Rexford economics).
[[nodiscard]] int rank(RouteType type) {
  switch (type) {
    case RouteType::Origin: return 0;
    case RouteType::Customer: return 1;
    case RouteType::Peer: return 2;
    case RouteType::Provider: return 3;
  }
  return 4;
}

/// Is `candidate` strictly better than `incumbent`?
[[nodiscard]] bool better(const BgpRoute& candidate,
                          const BgpRoute& incumbent) {
  if (rank(candidate.type) != rank(incumbent.type)) {
    return rank(candidate.type) < rank(incumbent.type);
  }
  if (candidate.length() != incumbent.length()) {
    return candidate.length() < incumbent.length();
  }
  // Deterministic tiebreak on the next hop towards the origin.
  if (candidate.as_path.size() > 1 && incumbent.as_path.size() > 1) {
    return candidate.as_path[1] < incumbent.as_path[1];
  }
  return false;
}

/// Distance from a country to the nearest hub of a carrier.
[[nodiscard]] double hub_distance(const TransitCarrier& carrier,
                                  const geo::GeoPoint& from) {
  double best = std::numeric_limits<double>::infinity();
  for (const TransitHub& hub : carrier.hubs) {
    best = std::min(best, geo::haversine_km(from, hub.location));
  }
  return best;
}

/// The `count` carriers with the nearest hubs to `from`.
[[nodiscard]] std::vector<Asn> nearest_carriers(const geo::GeoPoint& from,
                                                std::size_t count) {
  std::vector<std::pair<double, Asn>> scored;
  for (const TransitCarrier& carrier : tier1_carriers()) {
    scored.emplace_back(hub_distance(carrier, from), carrier.asn);
  }
  std::sort(scored.begin(), scored.end());
  std::vector<Asn> out;
  for (std::size_t i = 0; i < std::min(count, scored.size()); ++i) {
    out.push_back(scored[i].second);
  }
  return out;
}

}  // namespace

BgpGraph::Node& BgpGraph::node(Asn asn) { return nodes_[asn]; }

const BgpGraph::Node* BgpGraph::find(Asn asn) const {
  const auto it = nodes_.find(asn);
  return it == nodes_.end() ? nullptr : &it->second;
}

void BgpGraph::add_customer_provider(Asn customer, Asn provider) {
  if (customer == provider || has_edge(customer, provider)) return;
  node(customer).providers.push_back(provider);
  node(provider).customers.push_back(customer);
  ++edge_count_;
}

void BgpGraph::add_peering(Asn a, Asn b) {
  if (a == b || has_edge(a, b)) return;
  node(a).peers.push_back(b);
  node(b).peers.push_back(a);
  ++edge_count_;
}

bool BgpGraph::has_edge(Asn a, Asn b) const {
  const Node* na = find(a);
  if (na == nullptr) return false;
  const auto in = [b](const std::vector<Asn>& list) {
    return std::find(list.begin(), list.end(), b) != list.end();
  };
  return in(na->providers) || in(na->customers) || in(na->peers);
}

BgpGraph BgpGraph::from_world(const World& world) {
  BgpGraph graph;

  // Tier-1 / wholesale carriers: full peer mesh (the standard simplification
  // for the clique at the top of the hierarchy).
  const auto carriers = tier1_carriers();
  for (std::size_t i = 0; i < carriers.size(); ++i) {
    for (std::size_t j = i + 1; j < carriers.size(); ++j) {
      graph.add_peering(carriers[i].asn, carriers[j].asn);
    }
  }

  // Continental transit ASes buy from the three carriers nearest their
  // continent's demographic centre.
  for (const geo::Continent continent : geo::kAllContinents) {
    geo::GeoPoint centre{0.0, 0.0};
    std::size_t n = 0;
    for (const geo::CountryInfo& country : world.countries().all()) {
      if (country.continent != continent) continue;
      centre.lat_deg += country.centroid.lat_deg;
      centre.lon_deg += country.centroid.lon_deg;
      ++n;
    }
    if (n > 0) {
      centre.lat_deg /= static_cast<double>(n);
      centre.lon_deg /= static_cast<double>(n);
    }
    const Asn transit = world.continental_transit(continent);
    for (const Asn carrier : nearest_carriers(centre, 3)) {
      graph.add_customer_provider(transit, carrier);
    }
  }

  // Access ISPs: everyone buys from their continental transit; ISPs in
  // developed markets (and all of the paper's named case-study ISPs)
  // additionally buy direct tier-1 transit.
  for (const IspNetwork& isp : world.isps()) {
    graph.add_customer_provider(isp.asn,
                                world.continental_transit(isp.continent));
    const bool developed = isp.continent == geo::Continent::Europe ||
                           isp.continent == geo::Continent::NorthAmerica ||
                           isp.continent == geo::Continent::Oceania;
    if (isp.named || developed) {
      const geo::CountryInfo& country = world.countries().at(isp.country);
      const std::size_t uplinks = isp.named ? 2 : 1;
      for (const Asn carrier : nearest_carriers(country.centroid, uplinks)) {
        graph.add_customer_provider(isp.asn, carrier);
      }
    }
  }

  // Clouds: direct peering with serving ISPs per the interconnect policy
  // (evaluated for the ISP's home continent), PNI peering with carriers for
  // WAN-owning providers, plain transit for public-backbone providers.
  for (const cloud::ProviderId provider : cloud::kAllProviders) {
    const cloud::ProviderInfo& info = cloud::provider_info(provider);
    switch (info.backbone) {
      case cloud::BackboneClass::Private:
      case cloud::BackboneClass::Semi:
        for (const TransitCarrier& carrier : carriers) {
          graph.add_peering(info.asn, carrier.asn);
        }
        break;
      case cloud::BackboneClass::Public:
        // Two transit contracts, nearest to the (US-centric) headquarters.
        for (const Asn carrier :
             nearest_carriers(geo::GeoPoint{40.0, -75.0}, 2)) {
          graph.add_customer_provider(info.asn, carrier);
        }
        break;
    }
    for (const IspNetwork& isp : world.isps()) {
      const PairPolicy& policy =
          world.interconnect(isp, provider, isp.continent);
      if (policy.base == InterconnectMode::Direct ||
          policy.base == InterconnectMode::DirectIxp) {
        graph.add_peering(info.asn, isp.asn);
      }
    }
  }
  return graph;
}

std::optional<BgpRoute> BgpGraph::route(Asn from, Asn origin) const {
  const auto routes = routes_to(origin);
  const auto it = routes.find(from);
  if (it == routes.end()) return std::nullopt;
  return it->second;
}

std::unordered_map<Asn, BgpRoute> BgpGraph::routes_to(Asn origin) const {
  std::unordered_map<Asn, BgpRoute> best;
  if (find(origin) == nullptr) return best;
  best.emplace(origin, BgpRoute{{origin}, RouteType::Origin});

  // Phase 1 — customer routes: the origin's announcement climbs provider
  // links; every AS on the way holds a route learned from a customer.
  std::deque<Asn> queue{origin};
  while (!queue.empty()) {
    const Asn u = queue.front();
    queue.pop_front();
    const BgpRoute route_u = best.at(u);  // copy: best may rehash below
    if (route_u.type != RouteType::Origin &&
        route_u.type != RouteType::Customer) {
      continue;
    }
    const Node* node_u = find(u);
    CLOUDRTT_CHECK(node_u != nullptr, "AS", u, " in best{} but not in graph");
    for (const Asn p : node_u->providers) {
      BgpRoute candidate;
      candidate.type = RouteType::Customer;
      candidate.as_path.reserve(route_u.as_path.size() + 1);
      candidate.as_path.push_back(p);
      candidate.as_path.insert(candidate.as_path.end(), route_u.as_path.begin(),
                               route_u.as_path.end());
      const auto existing = best.find(p);
      if (existing == best.end() || better(candidate, existing->second)) {
        best[p] = std::move(candidate);
        queue.push_back(p);
      }
    }
  }

  // Phase 2 — peer routes: ASes holding customer/origin routes export them
  // across a single peering hop.
  std::vector<std::pair<Asn, BgpRoute>> peer_candidates;
  // Candidates for the same AS always differ in as_path[1], so better()'s
  // next-hop tie-break picks the same winner whatever order they arrive in.
  // lint:allow(unordered-iter): better() is a strict total order
  for (const auto& [u, route_u] : best) {
    if (route_u.type != RouteType::Origin &&
        route_u.type != RouteType::Customer) {
      continue;
    }
    const Node* node_u = find(u);
    CLOUDRTT_CHECK(node_u != nullptr, "AS", u, " in best{} but not in graph");
    for (const Asn p : node_u->peers) {
      BgpRoute candidate;
      candidate.type = RouteType::Peer;
      candidate.as_path.push_back(p);
      candidate.as_path.insert(candidate.as_path.end(), route_u.as_path.begin(),
                               route_u.as_path.end());
      peer_candidates.emplace_back(p, std::move(candidate));
    }
  }
  for (auto& [p, candidate] : peer_candidates) {
    const auto existing = best.find(p);
    if (existing == best.end() || better(candidate, existing->second)) {
      best[p] = std::move(candidate);
    }
  }

  // Phase 3 — provider routes: anything routable is exported down customer
  // links; iterate to a fixed point (paths are short, this converges fast).
  std::deque<Asn> down;
  // Seeding order only affects how fast the fixed point is reached, never
  // which routes it contains (better() improvements are monotone).
  // lint:allow(unordered-iter): fixed-point iteration is confluent
  for (const auto& [asn, route] : best) {
    (void)route;
    down.push_back(asn);
  }
  while (!down.empty()) {
    const Asn u = down.front();
    down.pop_front();
    const BgpRoute route_u = best.at(u);
    const Node* node_u = find(u);
    CLOUDRTT_CHECK(node_u != nullptr, "AS", u, " in best{} but not in graph");
    for (const Asn c : node_u->customers) {
      BgpRoute candidate;
      candidate.type = RouteType::Provider;
      candidate.as_path.push_back(c);
      candidate.as_path.insert(candidate.as_path.end(), route_u.as_path.begin(),
                               route_u.as_path.end());
      const auto existing = best.find(c);
      if (existing == best.end() || better(candidate, existing->second)) {
        best[c] = std::move(candidate);
        down.push_back(c);
      }
    }
  }
  return best;
}

bool BgpGraph::is_valley_free(const std::vector<Asn>& as_path) const {
  // Classify each step and check the up*-peer?-down* shape.
  enum class Step { Up, Peer, Down };
  bool seen_peer_or_down = false;
  for (std::size_t i = 0; i + 1 < as_path.size(); ++i) {
    const Node* from = find(as_path[i]);
    if (from == nullptr) return false;
    const auto in = [&](const std::vector<Asn>& list) {
      return std::find(list.begin(), list.end(), as_path[i + 1]) != list.end();
    };
    Step step;
    if (in(from->providers)) {
      step = Step::Up;
    } else if (in(from->peers)) {
      step = Step::Peer;
    } else if (in(from->customers)) {
      step = Step::Down;
    } else {
      return false;  // not an edge at all
    }
    if (step == Step::Up && seen_peer_or_down) return false;
    if (step == Step::Peer) {
      if (seen_peer_or_down) return false;
      seen_peer_or_down = true;
    }
    if (step == Step::Down) seen_peer_or_down = true;
  }
  return true;
}

}  // namespace cloudrtt::topology
