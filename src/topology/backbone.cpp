#include "topology/backbone.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <stdexcept>

#include "util/check.hpp"

namespace cloudrtt::topology {

namespace {

using K = LinkKind;

// Explicit long-haul corridors and submarine cables. length 0 => centroid
// distance * 1.2; quality 0 => mean of the endpoint countries' backhaul
// quality. The list is intentionally opinionated where the paper's findings
// depend on it (Mediterranean and Red Sea cables, the African east/west
// coast systems, trans-Atlantic/Pacific trunks, Andean links).
constexpr BackboneLink kLinks[] = {
    // --- Trans-Atlantic ---------------------------------------------------
    {"US", "GB", 7000, K::Submarine, 0.92},
    {"US", "FR", 7300, K::Submarine, 0.92},
    {"US", "IE", 6600, K::Submarine, 0.90},
    {"US", "PT", 6500, K::Submarine, 0.85},
    {"US", "ES", 7000, K::Submarine, 0.85},
    {"CA", "GB", 5400, K::Submarine, 0.88},
    {"US", "IS", 5600, K::Submarine, 0.80},
    // --- Trans-Pacific ----------------------------------------------------
    {"US", "JP", 9600, K::Submarine, 0.90},
    {"US", "AU", 12500, K::Submarine, 0.85},
    {"US", "NZ", 11500, K::Submarine, 0.82},
    {"US", "TW", 11300, K::Submarine, 0.80},
    {"US", "PH", 12000, K::Submarine, 0.72},
    {"US", "HK", 12300, K::Submarine, 0.78},
    {"US", "SG", 14500, K::Submarine, 0.80},
    // --- Europe <-> Asia (Med / Red Sea / terrestrial bridges) ------------
    {"IT", "EG", 2200, K::Submarine, 0.78},
    {"FR", "EG", 3100, K::Submarine, 0.80},
    {"GR", "EG", 1200, K::Submarine, 0.72},
    {"GR", "CY", 950, K::Submarine, 0.75},
    {"CY", "IL", 420, K::Submarine, 0.75},
    {"CY", "LB", 260, K::Submarine, 0.60},
    {"IL", "EG", 450, K::Terrestrial, 0.60},
    {"EG", "SA", 1400, K::Submarine, 0.62},
    {"EG", "JO", 600, K::Terrestrial, 0.55},
    {"EG", "AE", 3900, K::Submarine, 0.68},
    {"EG", "IN", 6200, K::Submarine, 0.70},
    {"AE", "IN", 1950, K::Submarine, 0.75},
    {"TR", "BG", 900, K::Terrestrial, 0.75},
    {"TR", "GR", 850, K::Terrestrial, 0.72},
    {"TR", "RO", 900, K::Submarine, 0.70},
    {"RU", "FI", 1100, K::Terrestrial, 0.80},
    {"RU", "EE", 900, K::Terrestrial, 0.75},
    {"RU", "LV", 900, K::Terrestrial, 0.75},
    {"RU", "BY", 700, K::Terrestrial, 0.72},
    {"RU", "UA", 800, K::Terrestrial, 0.65},
    {"RU", "KZ", 2600, K::Terrestrial, 0.60},
    {"KZ", "CN", 3300, K::Terrestrial, 0.60},
    {"KZ", "UZ", 1300, K::Terrestrial, 0.55},
    {"TR", "GE", 1100, K::Terrestrial, 0.62},
    {"GE", "AM", 200, K::Terrestrial, 0.58},
    {"GE", "AZ", 480, K::Terrestrial, 0.58},
    {"AZ", "IR", 600, K::Terrestrial, 0.50},
    {"TR", "IR", 1950, K::Terrestrial, 0.50},
    {"TR", "IQ", 1200, K::Terrestrial, 0.45},
    {"IQ", "JO", 850, K::Terrestrial, 0.45},
    {"IR", "AE", 1300, K::Submarine, 0.55},
    {"IR", "PK", 1600, K::Terrestrial, 0.40},
    {"PK", "AE", 1950, K::Submarine, 0.58},
    {"PK", "IN", 1100, K::Terrestrial, 0.25},
    {"IN", "LK", 450, K::Submarine, 0.62},
    {"IN", "BD", 350, K::Terrestrial, 0.50},
    {"IN", "NP", 750, K::Terrestrial, 0.40},
    {"IN", "SG", 3900, K::Submarine, 0.78},
    {"LK", "SG", 3100, K::Submarine, 0.65},
    {"IN", "MM", 1700, K::Terrestrial, 0.40},
    {"MM", "TH", 750, K::Terrestrial, 0.48},
    {"TH", "SG", 1450, K::Submarine, 0.70},
    {"TH", "KH", 600, K::Terrestrial, 0.50},
    {"KH", "VN", 280, K::Terrestrial, 0.52},
    {"VN", "HK", 950, K::Submarine, 0.66},
    {"VN", "SG", 2200, K::Submarine, 0.64},
    {"MY", "SG", 320, K::Terrestrial, 0.80},
    {"ID", "SG", 950, K::Submarine, 0.68},
    {"PH", "HK", 1150, K::Submarine, 0.62},
    {"PH", "SG", 2400, K::Submarine, 0.60},
    {"HK", "SG", 2600, K::Submarine, 0.82},
    {"HK", "TW", 820, K::Submarine, 0.80},
    {"TW", "JP", 2150, K::Submarine, 0.82},
    {"HK", "JP", 2900, K::Submarine, 0.84},
    {"SG", "JP", 5300, K::Submarine, 0.85},
    {"KR", "JP", 950, K::Submarine, 0.88},
    {"CN", "HK", 700, K::Terrestrial, 0.70},
    {"CN", "KR", 1000, K::Submarine, 0.72},
    {"CN", "JP", 2100, K::Submarine, 0.72},
    {"SG", "AU", 6300, K::Submarine, 0.82},
    {"ID", "AU", 4400, K::Submarine, 0.66},
    {"JP", "AU", 7900, K::Submarine, 0.78},
    {"AU", "NZ", 2300, K::Submarine, 0.85},
    {"AU", "FJ", 3200, K::Submarine, 0.62},
    {"FJ", "US", 9000, K::Submarine, 0.60},
    // --- Gulf ---------------------------------------------------------------
    {"BH", "SA", 500, K::Terrestrial, 0.60},
    {"QA", "BH", 180, K::Terrestrial, 0.62},
    {"QA", "SA", 550, K::Terrestrial, 0.60},
    {"KW", "SA", 700, K::Terrestrial, 0.58},
    {"SA", "AE", 1000, K::Terrestrial, 0.62},
    {"OM", "AE", 450, K::Terrestrial, 0.60},
    {"SA", "JO", 1300, K::Terrestrial, 0.52},
    // --- Africa -------------------------------------------------------------
    {"ES", "MA", 800, K::Submarine, 0.70},
    {"PT", "MA", 900, K::Submarine, 0.70},
    {"FR", "DZ", 1000, K::Submarine, 0.62},
    {"IT", "TN", 650, K::Submarine, 0.62},
    {"IT", "LY", 1100, K::Submarine, 0.45},
    {"EG", "LY", 1400, K::Terrestrial, 0.40},
    {"EG", "SD", 1700, K::Terrestrial, 0.35},
    {"SD", "ET", 1300, K::Terrestrial, 0.28},
    {"ET", "KE", 1300, K::Terrestrial, 0.30},
    {"EG", "KE", 6000, K::Submarine, 0.55},  // SEACOM / Red Sea system
    {"KE", "UG", 550, K::Terrestrial, 0.42},
    {"UG", "RW", 420, K::Terrestrial, 0.42},
    {"RW", "TZ", 750, K::Terrestrial, 0.40},
    {"KE", "TZ", 950, K::Terrestrial, 0.40},
    {"TZ", "MZ", 1900, K::Terrestrial, 0.35},
    {"MZ", "ZA", 1500, K::Submarine, 0.48},
    {"KE", "ZA", 4700, K::Submarine, 0.42},  // EASSy east-coast trunk
    {"ZA", "ZW", 1150, K::Terrestrial, 0.42},
    {"ZW", "MZ", 600, K::Terrestrial, 0.35},
    {"MA", "SN", 2700, K::Submarine, 0.55},
    {"SN", "CI", 1950, K::Submarine, 0.52},
    {"CI", "GH", 420, K::Terrestrial, 0.48},
    {"GH", "NG", 850, K::Submarine, 0.50},
    {"NG", "CM", 950, K::Terrestrial, 0.40},
    {"CM", "AO", 1750, K::Submarine, 0.45},
    {"AO", "ZA", 2800, K::Submarine, 0.52},
    {"PT", "SN", 3400, K::Submarine, 0.60},   // Atlantic west-coast trunk
    {"GB", "ZA", 11500, K::Submarine, 0.65},  // WACS-like express
    {"MU", "ZA", 3200, K::Submarine, 0.58},
    {"MU", "IN", 4700, K::Submarine, 0.55},
    {"DZ", "TN", 650, K::Terrestrial, 0.48},
    {"DZ", "MA", 900, K::Terrestrial, 0.48},
    {"EG", "TN", 2200, K::Submarine, 0.50},
    // --- Americas -------------------------------------------------------------
    {"MX", "US", 1700, K::Terrestrial, 0.70},
    {"MX", "GT", 1100, K::Terrestrial, 0.50},
    {"GT", "SV", 250, K::Terrestrial, 0.48},
    {"SV", "HN", 250, K::Terrestrial, 0.45},
    {"HN", "NI", 400, K::Terrestrial, 0.42},
    {"NI", "CR", 350, K::Terrestrial, 0.48},
    {"CR", "PA", 520, K::Terrestrial, 0.52},
    {"PA", "CO", 850, K::Submarine, 0.55},
    {"PA", "US", 3400, K::Submarine, 0.62},
    {"CU", "US", 600, K::Submarine, 0.30},
    {"BS", "US", 350, K::Submarine, 0.55},
    {"JM", "US", 1400, K::Submarine, 0.52},
    {"DO", "US", 1700, K::Submarine, 0.52},
    {"PR", "US", 2100, K::Submarine, 0.68},
    {"TT", "US", 3400, K::Submarine, 0.55},
    {"TT", "VE", 650, K::Submarine, 0.45},
    {"CO", "US", 3900, K::Submarine, 0.62},
    {"VE", "US", 3600, K::Submarine, 0.45},
    {"CO", "VE", 1050, K::Terrestrial, 0.42},
    {"CO", "EC", 750, K::Terrestrial, 0.50},
    {"EC", "PE", 1450, K::Terrestrial, 0.48},
    {"PE", "US", 6200, K::Submarine, 0.68},  // Pacific trunk (Fig. 6b's BO/PE)
    {"EC", "US", 4900, K::Submarine, 0.58},
    {"PE", "CL", 2600, K::Terrestrial, 0.58},
    {"CL", "US", 8600, K::Submarine, 0.66},
    {"PE", "BO", 1100, K::Terrestrial, 0.42},
    {"BO", "BR", 2700, K::Terrestrial, 0.32},
    {"BO", "AR", 2300, K::Terrestrial, 0.40},
    {"CL", "AR", 1150, K::Terrestrial, 0.62},
    {"AR", "BR", 2400, K::Terrestrial, 0.52},
    {"UY", "AR", 500, K::Terrestrial, 0.60},
    {"UY", "BR", 1800, K::Terrestrial, 0.58},
    {"PY", "AR", 1050, K::Terrestrial, 0.45},
    {"PY", "BR", 1350, K::Terrestrial, 0.45},
    {"BR", "US", 7600, K::Submarine, 0.75},  // Fortaleza <-> Florida trunk
    {"BR", "PT", 6200, K::Submarine, 0.68},  // EllaLink-like
    {"AR", "US", 8900, K::Submarine, 0.62},
};

// Countries whose public-transit egress funnels through a gateway country
// before reaching any global carrier hub (reproduces the Gulf detour of
// Fig. 18 and similar regional backhaul effects).
struct UplinkRule {
  std::string_view country;
  std::string_view gateway;
};
constexpr UplinkRule kUplinks[] = {
    // Gulf / Middle East: transit lands in Egypt (Red Sea systems) or Turkey.
    {"BH", "EG"}, {"KW", "EG"}, {"QA", "EG"}, {"OM", "EG"}, {"SA", "EG"},
    {"JO", "EG"}, {"LB", "CY"}, {"IQ", "TR"}, {"IR", "TR"},
    // Africa: north/west African ISPs overwhelmingly peer in Europe, so even
    // intra-African traffic hairpins through the Mediterranean (the cause of
    // the paper's dismal EG/DZ/MA -> ZA latencies in Fig. 6a); east Africa
    // funnels through Nairobi instead, keeping KE->ZA on the coastal systems.
    {"EG", "IT"}, {"DZ", "FR"}, {"MA", "ES"}, {"TN", "IT"}, {"LY", "IT"},
    {"NG", "GB"}, {"GH", "PT"}, {"CM", "NG"},
    {"ET", "EG"}, {"SD", "EG"}, {"UG", "KE"}, {"RW", "KE"},
    // Andes / southern cone.
    {"BO", "PE"}, {"PY", "AR"},
};

}  // namespace

Backbone::Backbone(const geo::CountryTable& countries) : countries_(countries) {
  const std::size_t n = node_count();
  adjacency_.resize(n);

  for (const BackboneLink& link : kLinks) {
    const auto ia = node_index(link.a);
    const auto ib = node_index(link.b);
    CLOUDRTT_CHECK(ia && ib, "backbone link table references unknown country ",
                   link.a, "-", link.b);
    catalog_.push_back(BackboneLinkRef{link.a, link.b, link.kind});
    double km = link.length_km;
    if (km <= 0.0) {
      km = geo::haversine_km(node(*ia).centroid, node(*ib).centroid) * 1.2;
    }
    double quality = link.quality;
    if (quality <= 0.0) {
      quality = 0.5 * (node(*ia).backhaul_quality + node(*ib).backhaul_quality);
    }
    add_edge(link.a, link.b, km, quality);
  }

  // Auto-mesh: connect each country to its 3 nearest same-continent
  // neighbours so the intra-continent fabric is dense without listing every
  // border by hand. Duplicates with explicit links are harmless (Dijkstra
  // picks the cheaper edge).
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::pair<double, std::size_t>> near;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j || node(i).continent != node(j).continent) continue;
      near.emplace_back(
          geo::haversine_km(node(i).centroid, node(j).centroid), j);
    }
    std::sort(near.begin(), near.end());
    const std::size_t take = std::min<std::size_t>(3, near.size());
    for (std::size_t k = 0; k < take; ++k) {
      const std::size_t j = near[k].second;
      const double km = near[k].first * 1.25;
      const double quality =
          0.5 * (node(i).backhaul_quality + node(j).backhaul_quality);
      add_edge(node(i).code, node(j).code, km, quality);
    }
  }

  uplinks_.resize(n);
  for (const UplinkRule& rule : kUplinks) {
    const auto from = node_index(rule.country);
    const auto via = node_index(rule.gateway);
    CLOUDRTT_CHECK(from && via, "uplink rule references unknown country ",
                   rule.country, "-", rule.gateway);
    uplinks_[*from].push_back(*via);
  }

  precompute_nominal_routes();
}

void Backbone::precompute_nominal_routes() {
  const std::size_t n = node_count();
  nominal_.resize(n * n);
  for (std::size_t from = 0; from < n; ++from) {
    const SearchState state = shortest_paths(from, std::nullopt);
    for (std::size_t to = 0; to < n; ++to) {
      nominal_[from * n + to] = extract_route(from, to, state);
    }
  }
}

std::optional<std::size_t> Backbone::node_index(std::string_view code) const {
  const geo::CountryInfo* info = countries_.find(code);
  if (info == nullptr) return std::nullopt;
  return static_cast<std::size_t>(info - countries_.all().data());
}

void Backbone::add_edge(std::string_view a, std::string_view b, double km,
                        double quality) {
  const auto ia = node_index(a);
  const auto ib = node_index(b);
  adjacency_[*ia].push_back(Edge{*ib, km, quality});
  adjacency_[*ib].push_back(Edge{*ia, km, quality});
  edges_ += 2;
}

void Backbone::set_outages(
    const std::vector<std::pair<std::string_view, std::string_view>>& cuts) const {
  const std::scoped_lock lock{outage_mutex_};
  outage_keys_.clear();
  outage_cache_.clear();
  for (const auto& [a, b] : cuts) {
    const auto ia = node_index(a);
    const auto ib = node_index(b);
    if (!ia || !ib) continue;  // unknown pairs are ignored, not fatal
    outage_keys_.insert(pair_key(*ia, *ib));
  }
}

const BackboneRoute& Backbone::route(std::string_view from, std::string_view to) const {
  const auto ia = node_index(from);
  const auto ib = node_index(to);
  if (!ia || !ib) {
    throw std::out_of_range{"Backbone::route: unknown country code"};
  }
  return route(*ia, *ib);
}

// lint:hot
const BackboneRoute& Backbone::route(std::size_t from, std::size_t to) const {
  // lint:allow(guarded-by): emptiness check only; set_outages never runs concurrently with readers
  if (outage_keys_.empty()) {
    return nominal_[from * node_count() + to];
  }
  // References into the node-based map stay valid across later inserts, and
  // set_outages (the only eraser) never runs concurrently with readers.
  const std::uint64_t key = (static_cast<std::uint64_t>(from) << 32) | to;
  const std::scoped_lock lock{outage_mutex_};
  const auto it = outage_cache_.find(key);
  if (it != outage_cache_.end()) return it->second;
  return outage_cache_.emplace(key, compute_route(from, to)).first->second;
}

BackboneRoute Backbone::compute_route(std::size_t from, std::size_t to) const {
  return extract_route(from, to, shortest_paths(from, to));
}

Backbone::SearchState Backbone::shortest_paths(
    std::size_t from, std::optional<std::size_t> stop_at) const {
  // Dijkstra over cost = km * detour(quality) + penalty expressed in km
  // (1 ms RTT == 100 km of fibre, so penalties are comparable).
  constexpr double kKmPerPenaltyMs = 100.0;
  const std::size_t n = node_count();
  SearchState state;
  state.dist.assign(n, std::numeric_limits<double>::infinity());
  state.prev.assign(n, n);
  state.prev_edge.assign(n, static_cast<std::size_t>(-1));
  using Item = std::pair<double, std::size_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
  state.dist[from] = 0.0;
  queue.emplace(0.0, from);
  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    if (d > state.dist[u]) continue;
    if (stop_at && u == *stop_at) break;
    for (std::size_t e = 0; e < adjacency_[u].size(); ++e) {
      const Edge& edge = adjacency_[u][e];
      // lint:allow(guarded-by): Dijkstra rebuild runs only in the sequential schedule phase
      if (!outage_keys_.empty() && outage_keys_.contains(pair_key(u, edge.to))) {
        continue;  // severed link: every parallel edge of the pair is down
      }
      const double cost = edge.km * detour_factor(edge.quality) +
                          crossing_penalty_ms(edge.quality) * kKmPerPenaltyMs;
      if (state.dist[u] + cost < state.dist[edge.to]) {
        state.dist[edge.to] = state.dist[u] + cost;
        state.prev[edge.to] = u;
        state.prev_edge[edge.to] = e;
        queue.emplace(state.dist[edge.to], edge.to);
      }
    }
  }
  return state;
}

BackboneRoute Backbone::extract_route(std::size_t from, std::size_t to,
                                      const SearchState& state) const {
  BackboneRoute result;
  if (from == to) {
    result.countries = {node(from).code};
    result.reachable = true;
    return result;
  }
  if (!std::isfinite(state.dist[to])) return result;  // unreachable

  // Walk back to accumulate the route and its physical properties.
  std::vector<std::size_t> path;
  for (std::size_t v = to; v != from; v = state.prev[v]) path.push_back(v);
  path.push_back(from);
  std::reverse(path.begin(), path.end());

  double quality_accum = 0.0;
  std::size_t edge_count = 0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const std::size_t u = path[i];
    const std::size_t v = path[i + 1];
    // prev_edge was recorded at v for the edge (u -> v).
    const Edge& edge = adjacency_[u][state.prev_edge[v]];
    result.km += edge.km;
    result.effective_km += edge.km * detour_factor(edge.quality);
    result.penalty_ms += crossing_penalty_ms(edge.quality);
    quality_accum += 1.0 - edge.quality;
    ++edge_count;
  }
  for (const std::size_t v : path) result.countries.push_back(node(v).code);
  result.jitter_scale =
      edge_count == 0 ? 0.0 : quality_accum / static_cast<double>(edge_count);
  result.reachable = true;
  return result;
}

// lint:hot
Backbone::SegmentCost Backbone::segment_cost(const Waypoint& a,
                                             const Waypoint& b,
                                             double direct_km) const {
  SegmentCost cost;
  if (a.row == b.row) {
    const double quality = node(a.row).backhaul_quality;
    cost.effective_km = direct_km * detour_factor(quality);
    cost.jitter_scale = (1.0 - quality) * 0.5;
    return cost;
  }
  const BackboneRoute& r = route(a.row, b.row);
  if (!r.reachable) {
    // Fall back to great-circle with a stiff detour: should not happen for
    // catalogue countries, but keeps the model total.
    cost.effective_km = geo::haversine_km(a.at, b.at) * 1.8;
    cost.penalty_ms = 20.0;
    cost.jitter_scale = 0.4;
    return cost;
  }
  // Local spurs from the concrete endpoints to their country backbone node.
  cost.effective_km =
      r.effective_km + a.spur_km * detour_factor(node(a.row).backhaul_quality) +
      b.spur_km * detour_factor(node(b.row).backhaul_quality);
  cost.penalty_ms = r.penalty_ms;
  cost.jitter_scale = r.jitter_scale;
  return cost;
}

// lint:hot
double Backbone::physical_km(const Waypoint& a, const Waypoint& b,
                             double direct_km) const {
  if (a.row == b.row) return direct_km * 1.15;
  const BackboneRoute& r = route(a.row, b.row);
  if (!r.reachable) return geo::haversine_km(a.at, b.at) * 1.5;
  return r.km + a.spur_km + b.spur_km;
}

}  // namespace cloudrtt::topology
