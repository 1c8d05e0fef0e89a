// Extension — classic vs Paris traceroute (§2.1 [10], §3.3 caveats).
//
// The paper's traceroute analysis inherits the classic tool's ECMP
// anomalies: per-TTL flow variation makes load-balanced transit segments
// answer from different interfaces and inflates hop RTTs. This harness
// quantifies the artefact on the simulated Internet and shows what the study
// would have gained from Paris traceroute: fewer distinct interfaces per
// path, lower hop-RTT inflation, same AS-level classification.

#include <iostream>
#include <map>
#include <set>

#include "common.hpp"
#include "measure/engine.hpp"

int main() {
  using namespace cloudrtt;
  bench::print_header(
      "Extension — classic vs Paris traceroute on ECMP transit",
      "classic traceroute sees extra interfaces and inflated hop RTTs on "
      "load-balanced segments; Paris pins the flow. AS-level conclusions "
      "survive either way (the paper's saving grace)",
      bench::bench_config());

  const core::Study& study = bench::shared_study();
  const measure::Engine engine{study.world()};
  const auto& resolver = study.resolver();
  util::Rng rng = study.world().fork_rng("paris");

  // Measure a panel of probe->endpoint pairs repeatedly with both methods.
  constexpr int kPairs = 150;
  constexpr int kRepeats = 12;
  struct Tally {
    double interfaces_sum = 0.0;
    std::size_t pairs = 0;
    std::vector<double> hop_rtts;  // all responded transit-ish hop RTTs
    std::size_t classified = 0;
    std::size_t agree_truth = 0;
  };
  std::map<measure::Engine::TraceMethod, Tally> tallies;

  const auto& probes = study.sc_fleet().probes();
  const auto& endpoints = study.world().endpoints();
  for (int pair = 0; pair < kPairs; ++pair) {
    const probes::Probe& probe = probes[rng.below(probes.size())];
    const topology::CloudEndpoint& endpoint =
        endpoints[rng.below(endpoints.size())];
    for (const auto method : {measure::Engine::TraceMethod::Classic,
                              measure::Engine::TraceMethod::Paris}) {
      // Pin the measurement randomness per pair so the two methods see the
      // same network weather.
      util::Rng pair_rng = rng.fork(static_cast<std::uint64_t>(pair));
      std::set<std::uint32_t> interfaces;
      std::map<std::uint8_t, std::vector<double>> per_ttl;
      Tally& tally = tallies[method];
      for (int repeat = 0; repeat < kRepeats; ++repeat) {
        const measure::TraceRecord trace =
            engine.traceroute(probe, endpoint, 0, pair_rng, method);
        for (const measure::HopRecord& hop : trace.hops) {
          if (!hop.responded) continue;
          interfaces.insert(hop.ip.value());
          per_ttl[hop.ttl].push_back(hop.rtt_ms);
        }
        const auto obs = analysis::classify_interconnect(trace, *study.view().resolver);
        if (obs.valid) {
          ++tally.classified;
          const bool match =
              obs.mode == trace.true_mode ||
              (obs.mode == topology::InterconnectMode::Direct &&
               trace.true_mode == topology::InterconnectMode::DirectIxp);
          if (match) ++tally.agree_truth;
        }
      }
      tally.interfaces_sum += static_cast<double>(interfaces.size());
      ++tally.pairs;
      // Keep the middle TTLs' RTTs (where the ECMP segments live).
      if (per_ttl.size() >= 3) {
        auto it = per_ttl.begin();
        std::advance(it, per_ttl.size() / 2);
        tally.hop_rtts.insert(tally.hop_rtts.end(), it->second.begin(),
                              it->second.end());
      }
    }
  }
  (void)resolver;

  util::TextTable table;
  table.set_header({"method", "interfaces/path", "median mid-hop RTT",
                    "classification accuracy"});
  for (const auto& [method, tally] : tallies) {
    table.add_row(
        {method == measure::Engine::TraceMethod::Classic ? "classic" : "Paris",
         util::format_double(tally.interfaces_sum /
                                 static_cast<double>(tally.pairs),
                             2),
         util::format_double(util::median(tally.hop_rtts), 1) + " ms",
         bench::pct(100.0 * static_cast<double>(tally.agree_truth) /
                    static_cast<double>(tally.classified))});
  }
  std::cout << "\n" << table.render();
  std::cout << "\nexpected shape: classic sees ~1 extra interface per path "
               "and slightly inflated mid-hop RTTs; AS-level classification "
               "accuracy is method-independent.\n";
  return 0;
}
