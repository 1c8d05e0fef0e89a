// What-if: a 5G-class radio leg (§7 discussion).
//
// The paper argues MTP-class applications stay infeasible "barring dramatic
// improvements in wireless technology" because the radio leg alone is
// ~20+ ms. 5G promises milliseconds. Scale the air-segment medians down to
// ~15% (a ~3 ms radio leg) and see which thresholds open up — and which
// remain closed because the wired tail and the transit path still stand.

#include <iostream>

#include "common.hpp"

namespace {

struct Snapshot {
  std::array<double, cloudrtt::geo::kContinentCount> mtp_share{};
  std::array<double, cloudrtt::geo::kContinentCount> hpl_share{};
  double lastmile_median = 0.0;
};

Snapshot snapshot(cloudrtt::core::StudyConfig config, double air_scale) {
  using namespace cloudrtt;
  config.sc_air_scale = air_scale;
  core::Study study{config};
  study.run();
  const analysis::StudyView view = study.view();

  Snapshot snap;
  for (const auto& series : analysis::fig4_continent_rtt(view)) {
    const util::EmpiricalCdf cdf{series.values};
    const auto continent = geo::continent_from_code(series.label);
    if (!continent || series.values.empty()) continue;
    snap.mtp_share[geo::index_of(*continent)] = cdf.evaluate(analysis::kMtpMs) * 100;
    snap.hpl_share[geo::index_of(*continent)] = cdf.evaluate(analysis::kHplMs) * 100;
  }
  const auto stats = analysis::lastmile_stats(view, false);
  std::vector<double> pooled;
  for (const analysis::LastMileCategory c :
       {analysis::LastMileCategory::HomeUsrIsp, analysis::LastMileCategory::Cell}) {
    const auto& v = stats.absolute(c, analysis::kGlobalIndex);
    pooled.insert(pooled.end(), v.begin(), v.end());
  }
  snap.lastmile_median = util::median(std::move(pooled));
  return snap;
}

}  // namespace

int main() {
  using namespace cloudrtt;
  const core::StudyConfig config = bench::ablation_config();
  bench::print_header(
      "What-if — 5G-class radio legs (air medians x0.15)",
      "§7: MTP stays hard even with dramatically better wireless, because "
      "the wired tail and the transit path remain; HPL headroom grows",
      config);

  const Snapshot today = snapshot(config, 1.0);
  const Snapshot fiveg = snapshot(config, 0.15);

  util::TextTable table;
  table.set_header({"continent", "<=MTP today", "<=MTP 5G", "<=HPL today",
                    "<=HPL 5G"});
  for (const geo::Continent c : geo::kAllContinents) {
    const std::size_t i = geo::index_of(c);
    table.add_row({std::string{geo::to_code(c)}, bench::pct(today.mtp_share[i]),
                   bench::pct(fiveg.mtp_share[i]), bench::pct(today.hpl_share[i]),
                   bench::pct(fiveg.hpl_share[i])});
  }
  std::cout << "\n" << table.render();
  std::cout << "\nglobal wireless last-mile median: "
            << bench::ms(today.lastmile_median) << " ms today vs "
            << bench::ms(fiveg.lastmile_median) << " ms with 5G radio legs\n";
  std::cout << "expected shape: MTP share rises but stays a minority in most "
               "continents; HPL approaches saturation where DCs are dense.\n";
  return 0;
}
