// Ablation: remove the regional gateway hairpins (Gulf via Egypt, north
// Africa via the Mediterranean, Andes via Peru).
//
// Decomposes the paper's Fig. 6a/18 latencies into raw geography vs routing
// policy: with the hairpins off, public paths follow the cheapest cables, so
// the north-Africa -> in-continent penalty and the Bahrain transit penalty
// should shrink substantially while geographically-honest pairs (KE->ZA,
// ZA->ZA, DE->GB) stay put.

#include <iostream>

#include "common.hpp"

namespace {

struct Snapshot {
  double eg_to_af = 0.0;   // Egypt -> nearest African DC (median)
  double eg_to_eu = 0.0;
  double ke_to_af = 0.0;
  double za_to_af = 0.0;
  double bh_in_transit = 0.0;  // BH -> IN over non-direct paths (median)
};

Snapshot snapshot(cloudrtt::core::StudyConfig config, bool uplinks) {
  using namespace cloudrtt;
  config.enable_uplink_gateways = uplinks;
  core::Study study{config};
  study.run();
  const analysis::StudyView view = study.view();

  Snapshot snap;
  const auto cells =
      analysis::fig6_intercontinental(view, geo::Continent::Africa);
  for (const auto& cell : cells) {
    if (cell.summary.count == 0) continue;
    if (cell.src_country == "EG" && cell.dst_continent == geo::Continent::Africa)
      snap.eg_to_af = cell.summary.median;
    if (cell.src_country == "EG" && cell.dst_continent == geo::Continent::Europe)
      snap.eg_to_eu = cell.summary.median;
    if (cell.src_country == "KE" && cell.dst_continent == geo::Continent::Africa)
      snap.ke_to_af = cell.summary.median;
    if (cell.src_country == "ZA" && cell.dst_continent == geo::Continent::Africa)
      snap.za_to_af = cell.summary.median;
  }

  std::vector<double> bh_transit;
  for (const measure::TraceRef& trace : study.sc_dataset().traces) {
    if (!trace.completed) continue;
    if (trace.probe->country->code != std::string_view{"BH"}) continue;
    if (trace.region->country != std::string_view{"IN"}) continue;
    const auto obs = analysis::classify_interconnect(trace, *view.resolver);
    if (obs.valid && obs.mode != topology::InterconnectMode::Direct &&
        obs.mode != topology::InterconnectMode::DirectIxp) {
      bh_transit.push_back(trace.end_to_end_ms);
    }
  }
  snap.bh_in_transit = util::median(std::move(bh_transit));
  return snap;
}

}  // namespace

int main() {
  using namespace cloudrtt;
  const core::StudyConfig config = bench::ablation_config();
  bench::print_header(
      "Ablation — remove the regional uplink/gateway hairpins",
      "separates routing policy from geography in Fig. 6a / Fig. 18: the "
      "hairpins, not the cables, cause most of the north-Africa and Gulf "
      "penalties",
      config);

  const Snapshot base = snapshot(config, /*uplinks=*/true);
  const Snapshot flat = snapshot(config, /*uplinks=*/false);

  util::TextTable table;
  table.set_header({"median RTT", "with hairpins", "without", "delta"});
  const auto row = [&](const std::string& name, double a, double b) {
    table.add_row({name, util::format_double(a, 1) + " ms",
                   util::format_double(b, 1) + " ms",
                   util::format_double(b - a, 1) + " ms"});
  };
  row("EG -> nearest AF DC", base.eg_to_af, flat.eg_to_af);
  row("EG -> nearest EU DC", base.eg_to_eu, flat.eg_to_eu);
  row("KE -> nearest AF DC (control)", base.ke_to_af, flat.ke_to_af);
  row("ZA -> nearest AF DC (control)", base.za_to_af, flat.za_to_af);
  row("BH -> IN, transit paths", base.bh_in_transit, flat.bh_in_transit);
  std::cout << "\n" << table.render();

  std::cout << "\nexpected shape: EG->AF and BH->IN transit drop sharply "
               "without hairpins; the KE/ZA controls barely move.\n";
  return 0;
}
