// Ablation: a world without cloud edge PoPs and direct-peering agreements.
//
// The paper attributes the big-3's latency consistency (and the BH->IN win)
// to §2.3's interconnection investments. Knock the investments out
// (StudyConfig::enable_edge_pops = false) and compare: the Fig. 10 direct
// share must collapse, pervasiveness must drop towards tenant levels, Asia's
// latency tails must fatten — while well-provisioned Europe barely moves
// (the paper's takeaway that peering buys little where the public backbone
// is already good).

#include <iostream>

#include "common.hpp"

namespace {

struct Snapshot {
  double big3_direct_pct = 0.0;
  double msft_pervasiveness_eu = 0.0;
  double eu_median = 0.0;
  double asia_median = 0.0;
  double asia_p90 = 0.0;
  double bh_in_median = 0.0;
};

Snapshot snapshot(cloudrtt::core::StudyConfig config, bool edge_pops) {
  using namespace cloudrtt;
  config.enable_edge_pops = edge_pops;
  core::Study study{config};
  study.run();
  const analysis::StudyView view = study.view();

  Snapshot snap;
  double direct_sum = 0.0;
  int big3 = 0;
  for (const auto& row : analysis::fig10_interconnect_share(view)) {
    if (row.ticker == "AMZN" || row.ticker == "GCP" || row.ticker == "MSFT") {
      direct_sum += row.direct_pct;
      ++big3;
    }
  }
  snap.big3_direct_pct = big3 ? direct_sum / big3 : 0.0;

  for (const auto& row : analysis::fig11_pervasiveness(view)) {
    if (row.ticker == "MSFT") {
      const auto& v = row.median_by_continent[geo::index_of(geo::Continent::Europe)];
      snap.msft_pervasiveness_eu = v ? *v : 0.0;
    }
  }

  for (const auto& series : analysis::fig4_continent_rtt(view)) {
    const util::Summary s = util::summarize(series.values);
    if (series.label == "EU") snap.eu_median = s.median;
    if (series.label == "AS") {
      snap.asia_median = s.median;
      snap.asia_p90 = s.p90;
    }
  }

  std::vector<double> bh_in;
  for (const measure::TraceRef& trace : study.sc_dataset().traces) {
    if (trace.completed && trace.probe->country->code == std::string_view{"BH"} &&
        trace.region->country == std::string_view{"IN"}) {
      bh_in.push_back(trace.end_to_end_ms);
    }
  }
  snap.bh_in_median = util::median(std::move(bh_in));
  return snap;
}

}  // namespace

int main() {
  using namespace cloudrtt;
  const core::StudyConfig config = bench::ablation_config();
  bench::print_header(
      "Ablation — remove every edge PoP and direct-peering agreement",
      "tests the paper's §6 attribution: peering drives the big-3's direct "
      "share, path ownership and Asia's consistency, but buys little in EU",
      config);

  const Snapshot base = snapshot(config, /*edge_pops=*/true);
  const Snapshot ablated = snapshot(config, /*edge_pops=*/false);

  util::TextTable table;
  table.set_header({"metric", "baseline", "no peering", "delta"});
  const auto row = [&](const std::string& name, double a, double b,
                       const std::string& unit) {
    table.add_row({name, util::format_double(a, 1) + unit,
                   util::format_double(b, 1) + unit,
                   util::format_double(b - a, 1) + unit});
  };
  row("big-3 direct share (Fig. 10)", base.big3_direct_pct,
      ablated.big3_direct_pct, "%");
  row("MSFT pervasiveness, EU (Fig. 11)", base.msft_pervasiveness_eu * 100.0,
      ablated.msft_pervasiveness_eu * 100.0, "%");
  row("EU median to nearest DC", base.eu_median, ablated.eu_median, " ms");
  row("Asia median to nearest DC", base.asia_median, ablated.asia_median, " ms");
  row("Asia p90 to nearest DC", base.asia_p90, ablated.asia_p90, " ms");
  row("BH -> IN end-to-end median", base.bh_in_median, ablated.bh_in_median,
      " ms");
  std::cout << "\n" << table.render();

  std::cout << "\nexpected shape: direct share -> ~0, pervasiveness drops "
               "sharply, BH->IN and Asia tails worsen, EU barely moves.\n";
  return 0;
}
