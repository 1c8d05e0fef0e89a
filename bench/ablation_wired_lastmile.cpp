// Ablation: wire the Speedchecker fleet.
//
// §4.2 attributes the platform gap of Fig. 5 to Atlas's wired last-mile. If
// that attribution is right, forcing every Speedchecker probe onto wired
// access must collapse the gap in EU/NA/AS (the residual is deployment
// geography, which this knob does not touch).

#include <iostream>

#include "common.hpp"

namespace {

struct Snapshot {
  double eu_diff = 0.0;  // median quantile-matched SC - Atlas difference
  double as_diff = 0.0;
  double na_diff = 0.0;
  double global_lastmile_ms = 0.0;
};

/// The study both arms run: 4,000 Speedchecker probes for 6 days of 9,000
/// tasks and 1,200 Atlas probes for 5 days of 2,500, seed 42.
cloudrtt::core::StudyConfig base_config() {
  cloudrtt::core::StudyConfig config;
  config.sc_probes = 4000;
  config.atlas_probes = 1200;
  config.sc_campaign.days = 6;
  config.sc_campaign.daily_budget = 9000;
  config.atlas_campaign.days = 5;
  config.atlas_campaign.daily_budget = 2500;
  return config;
}

Snapshot snapshot(cloudrtt::core::StudyConfig config, bool wired) {
  using namespace cloudrtt;
  if (wired) config.sc_access_override = lastmile::AccessTech::Wired;
  core::Study study{config};
  study.run();
  const analysis::StudyView view = study.view();

  Snapshot snap;
  for (const auto& series : analysis::fig5_platform_diff(view)) {
    const double median = util::median(series.values);
    if (series.label == "EU") snap.eu_diff = median;
    if (series.label == "AS") snap.as_diff = median;
    if (series.label == "NA") snap.na_diff = median;
  }
  const auto stats = analysis::lastmile_stats(view, false);
  // With the override active every SC probe classifies as wired/home-less,
  // so pool whichever categories have data.
  std::vector<double> pooled;
  for (const analysis::LastMileCategory c :
       {analysis::LastMileCategory::HomeUsrIsp, analysis::LastMileCategory::Cell}) {
    const auto& v = stats.absolute(c, analysis::kGlobalIndex);
    pooled.insert(pooled.end(), v.begin(), v.end());
  }
  snap.global_lastmile_ms = util::median(std::move(pooled));
  return snap;
}

}  // namespace

int main() {
  using namespace cloudrtt;
  const core::StudyConfig config = base_config();
  bench::print_header(
      "Ablation — wire the Speedchecker fleet",
      "validates §4.2: the Fig. 5 platform gap is the wireless last-mile; "
      "with SC wired, the EU/NA/AS differences collapse towards zero",
      config);

  const Snapshot wireless = snapshot(config, /*wired=*/false);
  const Snapshot wired = snapshot(config, /*wired=*/true);

  util::TextTable table;
  table.set_header({"metric", "SC wireless", "SC wired", "delta"});
  const auto row = [&](const std::string& name, double a, double b) {
    table.add_row({name, util::format_double(a, 1) + " ms",
                   util::format_double(b, 1) + " ms",
                   util::format_double(b - a, 1) + " ms"});
  };
  row("EU median SC-Atlas diff (Fig. 5)", wireless.eu_diff, wired.eu_diff);
  row("AS median SC-Atlas diff", wireless.as_diff, wired.as_diff);
  row("NA median SC-Atlas diff", wireless.na_diff, wired.na_diff);
  row("global SC last-mile median", wireless.global_lastmile_ms,
      wired.global_lastmile_ms);
  std::cout << "\n" << table.render();

  std::cout << "\nexpected shape: the ~10-20 ms platform differences drop to "
               "a few ms once the fleets share a wired last-mile.\n";
  return 0;
}
