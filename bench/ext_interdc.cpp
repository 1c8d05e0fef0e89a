// Extension — horizontal (inter-datacenter) connectivity.
//
// §3.1 of the paper notes that small providers "rely heavily on the public
// Internet for transporting their traffic horizontally (between
// datacenters)" while hypergiants ride their private WANs; the paper's
// future-work list includes cloud-side measurements in the style of Arnold
// et al. This harness measures the inter-region RTT matrix per provider and
// compares private-WAN and public-backbone providers at matched distances.

#include <iostream>
#include <map>

#include "common.hpp"
#include "measure/engine.hpp"

int main() {
  using namespace cloudrtt;
  bench::print_header(
      "Extension — inter-datacenter latency (private WAN vs public haul)",
      "hypergiants move horizontal traffic on their backbones; small "
      "providers cross the public Internet — visible as a per-km latency "
      "premium and fatter tails",
      bench::bench_config());

  const core::Study& study = bench::shared_study();
  const measure::Engine engine{study.world()};
  util::Rng rng = study.world().fork_rng("interdc");

  // Distance buckets (km) for a fair comparison across footprints.
  const std::vector<std::pair<double, double>> buckets{
      {0, 2000}, {2000, 6000}, {6000, 20000}};

  util::TextTable table;
  table.set_header({"provider", "backbone", "<2000km", "2000-6000km", ">6000km",
                    "normalised", "pair Cv"});
  for (const cloud::ProviderId provider : cloud::kAllProviders) {
    std::vector<const topology::CloudEndpoint*> regions;
    for (const topology::CloudEndpoint& endpoint : study.world().endpoints()) {
      if (endpoint.region->provider == provider) regions.push_back(&endpoint);
    }
    if (regions.size() < 4) continue;

    std::map<std::size_t, std::vector<double>> per_bucket;
    std::vector<double> ms_per_megameter;  // distance-normalised latency
    std::vector<double> pair_cv;           // per-pair consistency
    for (std::size_t i = 0; i < regions.size(); ++i) {
      for (std::size_t j = 0; j < regions.size(); ++j) {
        if (i == j) continue;
        const double km = geo::haversine_km(regions[i]->region->location,
                                            regions[j]->region->location);
        std::vector<double> pair_rtts;
        for (int sample = 0; sample < 6; ++sample) {
          const double rtt = engine.interdc_rtt(*regions[i], *regions[j], rng);
          pair_rtts.push_back(rtt);
          for (std::size_t bucket = 0; bucket < buckets.size(); ++bucket) {
            if (km >= buckets[bucket].first && km < buckets[bucket].second) {
              per_bucket[bucket].push_back(rtt);
            }
          }
          if (km >= 1000.0) ms_per_megameter.push_back(rtt / (km / 1000.0));
        }
        if (const auto cv = util::coefficient_of_variation(pair_rtts)) {
          pair_cv.push_back(*cv);
        }
      }
    }

    const cloud::ProviderInfo& info = cloud::provider_info(provider);
    std::vector<std::string> row{std::string{info.ticker}};
    switch (info.backbone) {
      case cloud::BackboneClass::Private: row.emplace_back("Private"); break;
      case cloud::BackboneClass::Semi: row.emplace_back("Semi"); break;
      case cloud::BackboneClass::Public: row.emplace_back("Public"); break;
    }
    for (std::size_t bucket = 0; bucket < buckets.size(); ++bucket) {
      const auto it = per_bucket.find(bucket);
      if (it == per_bucket.end() || it->second.size() < 4) {
        row.emplace_back("-");
      } else {
        row.push_back(bench::ms(util::median(it->second)) + " ms");
      }
    }
    row.push_back(util::format_double(util::median(ms_per_megameter), 1) +
                  " ms/Mm");
    row.push_back(util::format_double(util::median(pair_cv), 2));
    table.add_row(std::move(row));
  }
  std::cout << "\n" << table.render();
  std::cout << "\nexpected shape: at matched distances, Private-backbone "
               "providers post lower medians and tighter tails than "
               "Public-backbone ones (whose 'WAN' is the public Internet).\n";
  return 0;
}
