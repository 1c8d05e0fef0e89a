// Extension — why the paper refrained from geographic routing analysis.
//
// §3.3: "since such geolocation databases are known to be quite inaccurate,
// we refrain from making any geographical ISP-to-cloud traffic routing
// assessments in this study." Quantify that call: geolocate every traceroute
// hop with the GeoIP stand-in and compute each path's apparent geographic
// stretch (hop-to-hop distance sum over the probe->DC great circle). Against
// ground-truth router locations the stretch is a sane detour factor; against
// the database it explodes, because global backbones geolocate to corporate
// registrations half a planet away.

#include <iostream>

#include "analysis/geolocate.hpp"
#include "common.hpp"
#include "measure/engine.hpp"
#include "routing/path_builder.hpp"

int main() {
  using namespace cloudrtt;
  bench::print_header(
      "Extension — apparent path stretch under GeoIP geolocation",
      "with honest router locations, paths stretch ~1.2-2.5x over the great "
      "circle; with a realistic GeoIP database the tail blows past 5-10x — "
      "the paper's §3.3 refusal, quantified",
      bench::bench_config());

  const core::Study& study = bench::shared_study();
  const analysis::GeoDatabase geodb =
      analysis::GeoDatabase::from_world(study.world());
  const routing::PathBuilder builder{study.world()};
  const measure::Engine engine{study.world()};
  util::Rng rng = study.world().fork_rng("geolocation");

  std::cout << "\nGeoIP database: " << geodb.size() << " prefixes\n";

  std::vector<double> truth_stretch;
  std::vector<double> geoip_stretch;
  std::size_t country_hits = 0;
  std::size_t country_total = 0;

  const auto& probes = study.sc_fleet().probes();
  const auto& endpoints = study.world().endpoints();
  for (int sample = 0; sample < 1200; ++sample) {
    const probes::Probe& probe = probes[rng.below(probes.size())];
    const topology::CloudEndpoint& endpoint =
        endpoints[rng.below(endpoints.size())];
    const double gc =
        geo::haversine_km(probe.location, endpoint.region->location);
    if (gc < 300.0) continue;  // stretch is meaningless at metro distances

    // Ground truth: the forwarding path the simulator actually uses.
    const measure::Engine::TraceMethod method = measure::Engine::TraceMethod::Paris;
    const measure::TraceRecord trace =
        engine.traceroute(probe, endpoint, 0, rng, method);
    const routing::ForwardingPath path =
        builder.build(probe, endpoint, trace.true_mode);
    double truth_km = 0.0;
    for (std::size_t i = 1; i < path.hops.size(); ++i) {
      truth_km +=
          geo::haversine_km(path.hops[i - 1].location, path.hops[i].location);
    }
    truth_stretch.push_back(truth_km / gc);

    // GeoIP view: geolocate the responding public hops of the traceroute.
    std::vector<geo::GeoPoint> located{probe.location};
    for (const measure::HopRecord& hop : trace.hops) {
      if (!hop.responded || net::is_private(hop.ip)) continue;
      const auto entry = geodb.lookup(hop.ip);
      if (!entry) continue;
      located.push_back(entry->location);
      // Country-accuracy tally against the ground-truth hop (match by ttl).
      for (const routing::RouterHop& truth_hop : path.hops) {
        if (truth_hop.ip == hop.ip || truth_hop.alt_ip == hop.ip) {
          ++country_total;
          if (geo::haversine_km(truth_hop.location, entry->location) < 1500.0) {
            ++country_hits;
          }
          break;
        }
      }
    }
    double geoip_km = 0.0;
    for (std::size_t i = 1; i < located.size(); ++i) {
      geoip_km += geo::haversine_km(located[i - 1], located[i]);
    }
    if (located.size() >= 3) geoip_stretch.push_back(geoip_km / gc);
  }

  util::TextTable table;
  table.set_header({"hop locations", "n", "median stretch", "p90", "p99",
                    "share > 5x"});
  for (const auto& [label, values] :
       {std::pair{"ground truth", &truth_stretch},
        std::pair{"GeoIP database", &geoip_stretch}}) {
    const util::Summary s = util::summarize(*values);
    std::size_t blown = 0;
    for (const double v : *values) {
      if (v > 5.0) ++blown;
    }
    table.add_row({label, std::to_string(s.count),
                   util::format_double(s.median, 2) + "x",
                   util::format_double(s.p90, 2) + "x",
                   util::format_double(util::quantile(*values, 0.99), 2) + "x",
                   bench::pct(100.0 * static_cast<double>(blown) /
                              static_cast<double>(values->size()))});
  }
  std::cout << "\n" << table.render();
  std::cout << "\nhop geolocated within 1500 km of its true site: "
            << bench::pct(100.0 * static_cast<double>(country_hits) /
                          static_cast<double>(country_total))
            << " of " << country_total << " resolved hops\n";
  std::cout << "expected shape: ground-truth stretch stays in the low "
               "single digits; the GeoIP view's tail explodes (backbone "
               "prefixes registered at corporate HQs) — exactly why the "
               "paper refused to do this analysis with real databases.\n";
  return 0;
}
