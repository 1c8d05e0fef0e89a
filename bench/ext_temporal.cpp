// Extension — temporal behaviour over the campaign.
//
// The paper measures for six months and reports *distributions*; this
// harness looks at the time axis the §3.3 methodology creates (daily cycles,
// 4-hour scheduling slots): evening congestion at the local peak hour, and
// day-over-day stability of the per-continent medians (the predictability
// that §7 argues matters more than absolute latency).

#include <iostream>
#include <map>

#include "common.hpp"

int main() {
  using namespace cloudrtt;
  bench::print_header(
      "Extension — diurnal congestion and day-over-day stability",
      "latencies swell around the local evening peak (strongest on weak "
      "backhauls) while per-continent daily medians stay stable — the "
      "network is predictable even where it is slow",
      bench::bench_config());

  const core::Study& study = bench::shared_study();

  // --- diurnal: median RTT by local time-of-day bin -------------------------
  // Local hour from the slot (UTC anchor) and the probe's longitude, exactly
  // as the engine's congestion model sees it.
  std::map<std::string_view, std::array<std::vector<double>, 6>> by_bin;
  for (const measure::PingRecord& ping : study.sc_dataset().pings) {
    const double utc_hour = 4.0 * static_cast<double>(ping.slot % 6) + 2.0;
    double local = utc_hour + ping.probe->location.lon_deg / 15.0;
    while (local < 0.0) local += 24.0;
    while (local >= 24.0) local -= 24.0;
    const auto bin = static_cast<std::size_t>(local / 4.0);
    by_bin[geo::to_code(ping.probe->country->continent)][bin].push_back(
        ping.rtt_ms);
  }
  util::TextTable diurnal;
  diurnal.set_header({"continent", "00-04", "04-08", "08-12", "12-16", "16-20",
                      "20-24 (peak)"});
  for (auto& [label, bins] : by_bin) {
    std::vector<std::string> row{std::string{label}};
    for (auto& values : bins) {
      row.push_back(values.size() < 30 ? "-"
                                       : bench::ms(util::median(values)) + " ms");
    }
    diurnal.add_row(std::move(row));
  }
  std::cout << "\n-- median RTT by local time of day --\n" << diurnal.render();

  // --- stability: day-over-day medians --------------------------------------
  std::map<std::string_view, std::map<std::uint32_t, std::vector<double>>> by_day;
  for (const measure::PingRecord& ping : study.sc_dataset().pings) {
    by_day[geo::to_code(ping.probe->country->continent)][ping.day].push_back(
        ping.rtt_ms);
  }
  util::TextTable stability;
  stability.set_header({"continent", "days", "median of daily medians",
                        "day-to-day Cv"});
  for (auto& [label, days] : by_day) {
    std::vector<double> daily_medians;
    for (auto& [day, values] : days) {
      (void)day;
      if (values.size() >= 30) daily_medians.push_back(util::median(values));
    }
    if (daily_medians.size() < 3) continue;
    const auto cv = util::coefficient_of_variation(daily_medians);
    stability.add_row({std::string{label}, std::to_string(daily_medians.size()),
                       bench::ms(util::median(daily_medians)) + " ms",
                       cv ? util::format_double(*cv, 3) : "-"});
  }
  std::cout << "\n-- day-over-day stability of the continental medians --\n"
            << stability.render();
  std::cout << "\nexpected shape: the evening bins run hot, most visibly on "
               "weak backhauls (AF); day-to-day Cv of the medians stays near "
               "or below ~0.1 in the well-sampled continents (residual "
               "variation is per-day country-mix churn from the §3.3 "
               "scheduling, which the paper's six-month window averages "
               "out).\n";
  return 0;
}
