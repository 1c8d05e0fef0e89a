// Extension — inter-domain routing view: the "flat Internet" (§2.1).
//
// Computes Gao-Rexford-compliant BGP routes over the derived AS graph and
// reproduces the background facts the paper builds on (Arnold et al. [9]):
// hypergiant clouds are reachable from serving ISPs in ~2 AS hops and mostly
// without any Tier-1 in the path, while small clouds sit behind transit
// chains. Also cross-validates the forwarding simulator: BGP path lengths
// must agree with the AS paths observed in the study's traceroutes.

#include <iostream>
#include <set>

#include "analysis/trace_analysis.hpp"
#include "common.hpp"
#include "topology/bgp.hpp"

int main() {
  using namespace cloudrtt;
  bench::print_header(
      "Extension — BGP view: Internet flattening & path-length validation",
      "big-3 reachable in ~2 AS hops, largely Tier-1-free (the flat "
      "Internet); small providers behind 3-4 hop transit chains; BGP and "
      "traceroute AS-path lengths must agree",
      bench::bench_config());

  const core::Study& study = bench::shared_study();
  const topology::BgpGraph graph =
      topology::BgpGraph::from_world(study.world());
  std::cout << "\nAS graph: " << graph.as_count() << " ASes, "
            << graph.edge_count() << " relationships\n\n";

  // True global tier-1s only: the regional wholesale carriers (Liquid,
  // Telxius, Telstra) don't count for the flattening metric.
  std::set<topology::Asn> tier1;
  for (const topology::TransitCarrier& carrier : topology::tier1_carriers()) {
    if (carrier.asn == 30844 || carrier.asn == 12956 || carrier.asn == 4637) {
      continue;
    }
    tier1.insert(carrier.asn);
  }

  util::TextTable table;
  table.set_header({"provider", "mean AS-path len", "direct (2 ASes)",
                    "tier-1-free", "reachable ISPs"});
  for (const cloud::ProviderId provider : cloud::kPeeringFigureProviders) {
    const cloud::ProviderInfo& info = cloud::provider_info(provider);
    const auto routes = graph.routes_to(info.asn);
    double length_sum = 0.0;
    std::size_t reachable = 0;
    std::size_t direct = 0;
    std::size_t tier1_free = 0;
    for (const topology::IspNetwork& isp : study.world().isps()) {
      const auto it = routes.find(isp.asn);
      if (it == routes.end()) continue;
      const topology::BgpRoute& route = it->second;
      ++reachable;
      length_sum += static_cast<double>(route.length());
      if (route.length() == 2) ++direct;
      bool crosses_tier1 = false;
      for (std::size_t i = 1; i + 1 < route.as_path.size(); ++i) {
        if (tier1.contains(route.as_path[i])) crosses_tier1 = true;
      }
      if (!crosses_tier1) ++tier1_free;
    }
    const double n = static_cast<double>(reachable);
    table.add_row({std::string{info.ticker},
                   util::format_double(length_sum / n, 2),
                   bench::pct(100.0 * static_cast<double>(direct) / n),
                   bench::pct(100.0 * static_cast<double>(tier1_free) / n),
                   std::to_string(reachable)});
  }
  std::cout << table.render();

  // Cross-validation: AS-path lengths from the study's traceroutes (the
  // waypoint simulator) vs the BGP model, per provider class.
  std::vector<double> trace_big3;
  std::vector<double> trace_small;
  for (const measure::TraceRef& trace : study.sc_dataset().traces) {
    const auto obs = analysis::classify_interconnect(trace, study.resolver());
    if (!obs.valid) continue;
    const double length = 2.0 + obs.intermediate_as_count;
    const auto& info = cloud::provider_info(trace.region->provider);
    (info.hypergiant ? trace_big3 : trace_small).push_back(length);
  }
  std::cout << "\ncross-check (mean AS-path length, traceroute-observed):\n";
  std::cout << "  big-3:          "
            << util::format_double(util::mean(trace_big3), 2)
            << " (BGP view above should be within ~0.5)\n";
  std::cout << "  other providers: "
            << util::format_double(util::mean(trace_small), 2) << "\n";
  std::cout << "\nexpected shape: big-3 mean ~2.1-2.6 with majority direct and "
               "mostly tier-1-free; VLTR/LIN/ORCL ~3.5-4.5 and almost always "
               "behind a tier-1.\n";
  return 0;
}
