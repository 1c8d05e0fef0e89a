#include <algorithm>
#include <map>
#include <unordered_map>

#include "analysis/experiments.hpp"

namespace cloudrtt::analysis {

std::string_view latency_bucket(double median_ms) {
  if (median_ms < 30.0) return "<30";
  if (median_ms < 60.0) return "30-60";
  if (median_ms < 100.0) return "60-100";
  if (median_ms < 250.0) return "100-250";
  return ">250";
}

std::vector<CountryLatencyRow> fig3_country_latency(
    const PreparedStudy& study) {
  const NearestIndex& index = study.sc().nearest();
  std::map<std::string_view, std::vector<double>> per_country;
  std::unordered_map<std::string_view, const geo::CountryInfo*> infos;
  for (const probes::Probe* probe : index.probes()) {
    const auto samples =
        index.samples_to_nearest(probe, probe->country->continent);
    if (samples.empty()) continue;
    auto& bucket = per_country[probe->country->code];
    bucket.insert(bucket.end(), samples.begin(), samples.end());
    infos.emplace(probe->country->code, probe->country);
  }
  std::vector<CountryLatencyRow> rows;
  rows.reserve(per_country.size());
  for (auto& [code, samples] : per_country) {
    CountryLatencyRow row;
    row.country = code;
    row.name = infos.at(code)->name;
    row.continent = infos.at(code)->continent;
    row.samples = samples.size();
    row.median_ms = util::median(std::move(samples));
    row.bucket = latency_bucket(row.median_ms);
    rows.push_back(row);
  }
  return rows;
}

std::vector<util::Series> fig4_continent_rtt(const PreparedStudy& study) {
  const NearestIndex& index = study.sc().nearest();
  std::vector<util::Series> series;
  for (const geo::Continent c : geo::kAllContinents) {
    series.push_back(util::Series{std::string{geo::to_code(c)}, {}});
  }
  for (const probes::Probe* probe : index.probes()) {
    const auto samples =
        index.samples_to_nearest(probe, probe->country->continent);
    auto& values = series[geo::index_of(probe->country->continent)].values;
    values.insert(values.end(), samples.begin(), samples.end());
  }
  return series;
}

std::vector<double> quantile_differences(std::vector<double> a, std::vector<double> b,
                                         std::size_t points) {
  std::vector<double> diffs;
  if (a.empty() || b.empty() || points == 0) return diffs;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  diffs.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double q = (static_cast<double>(i) + 0.5) / static_cast<double>(points);
    diffs.push_back(util::quantile_sorted(a, q) - util::quantile_sorted(b, q));
  }
  return diffs;
}

std::vector<util::Series> fig5_platform_diff(const PreparedStudy& study) {
  std::vector<util::Series> series;
  if (!study.has_atlas()) return series;
  const NearestIndex& sc = study.sc().nearest();
  const NearestIndex& atlas = study.atlas()->nearest();

  std::array<std::vector<double>, geo::kContinentCount> sc_samples;
  std::array<std::vector<double>, geo::kContinentCount> atlas_samples;
  const auto collect = [](const NearestIndex& index, auto& out) {
    for (const probes::Probe* probe : index.probes()) {
      const auto samples =
          index.samples_to_nearest(probe, probe->country->continent);
      auto& bucket = out[geo::index_of(probe->country->continent)];
      bucket.insert(bucket.end(), samples.begin(), samples.end());
    }
  };
  collect(sc, sc_samples);
  collect(atlas, atlas_samples);

  for (const geo::Continent c : geo::kAllContinents) {
    const std::size_t i = geo::index_of(c);
    series.push_back(util::Series{
        std::string{geo::to_code(c)},
        quantile_differences(sc_samples[i], atlas_samples[i])});
  }
  return series;
}

std::vector<InterContinentalCell> fig6_intercontinental(
    const PreparedStudy& study, geo::Continent src) {
  static constexpr std::array<std::string_view, 8> kAfrica{
      "DZ", "EG", "ET", "KE", "MA", "SN", "TN", "ZA"};
  static constexpr std::array<std::string_view, 8> kSouthAmerica{
      "AR", "BO", "BR", "CL", "CO", "EC", "PE", "VE"};
  const auto countries =
      src == geo::Continent::Africa ? kAfrica : kSouthAmerica;
  std::vector<geo::Continent> targets;
  if (src == geo::Continent::Africa) {
    targets = {geo::Continent::Europe, geo::Continent::NorthAmerica,
               geo::Continent::Africa};
  } else {
    targets = {geo::Continent::NorthAmerica, geo::Continent::SouthAmerica};
  }

  const NearestIndex& index = study.sc().nearest();
  std::vector<InterContinentalCell> cells;
  for (const std::string_view country : countries) {
    for (const geo::Continent dst : targets) {
      std::vector<double> samples;
      for (const probes::Probe* probe : index.probes()) {
        if (probe->country->code != country) continue;
        const auto s = index.samples_to_nearest(probe, dst);
        samples.insert(samples.end(), s.begin(), s.end());
      }
      InterContinentalCell cell;
      cell.src_country = country;
      cell.dst_continent = dst;
      cell.summary = util::summarize(std::move(samples));
      cells.push_back(cell);
    }
  }
  return cells;
}

std::vector<ProtocolCompareRow> fig15_protocols(const PreparedStudy& study) {
  const measure::Dataset& data = study.sc().data();
  std::array<std::vector<double>, geo::kContinentCount> tcp;
  std::array<std::vector<double>, geo::kContinentCount> icmp;
  for (const measure::PingRecord& ping : data.pings) {
    if (ping.protocol == measure::Protocol::Tcp) {
      tcp[geo::index_of(ping.probe->country->continent)].push_back(ping.rtt_ms);
    }
  }
  for (const measure::TraceRef& trace : data.traces) {
    if (trace.completed) {
      icmp[geo::index_of(trace.probe->country->continent)].push_back(
          trace.end_to_end_ms);
    }
  }
  std::vector<ProtocolCompareRow> rows;
  for (const geo::Continent c : geo::kAllContinents) {
    ProtocolCompareRow row;
    row.continent = c;
    row.tcp = util::summarize(std::move(tcp[geo::index_of(c)]));
    row.icmp = util::summarize(std::move(icmp[geo::index_of(c)]));
    rows.push_back(row);
  }
  return rows;
}

std::vector<util::Series> fig16_city_asn_diff(const PreparedStudy& study) {
  std::vector<util::Series> series;
  if (!study.has_atlas()) return series;

  // Bucket samples by <city, first-hop ASN> per platform: the paper's key,
  // with the ASN inferred from each probe's traceroutes (the serving ISP is
  // stable, so the first trace that resolves one suffices).
  using Key = std::pair<std::string_view, topology::Asn>;
  std::map<Key, std::vector<double>> sc_buckets;
  std::map<Key, std::vector<double>> atlas_buckets;
  const auto fill = [](const PreparedDataset& dataset, auto& buckets) {
    const NearestIndex& index = dataset.nearest();
    for (const probes::Probe* probe : index.probes()) {
      const ProbeTraceFacts* facts = dataset.probe_facts(probe);
      if (facts == nullptr || !facts->first_hop_asn) continue;
      const auto samples =
          index.samples_to_nearest(probe, probe->country->continent);
      if (samples.empty()) continue;
      auto& bucket = buckets[Key{probe->city->name, *facts->first_hop_asn}];
      bucket.insert(bucket.end(), samples.begin(), samples.end());
    }
  };
  fill(study.sc(), sc_buckets);
  fill(*study.atlas(), atlas_buckets);

  // Matched pairs, grouped by continent; the paper only reports AS/EU/NA.
  std::array<std::vector<double>, geo::kContinentCount> diffs;
  for (const auto& [key, sc_samples] : sc_buckets) {
    const auto atlas_it = atlas_buckets.find(key);
    if (atlas_it == atlas_buckets.end()) continue;
    if (sc_samples.size() < 5 || atlas_it->second.size() < 5) continue;
    const geo::CountryInfo& country =
        geo::CountryTable::instance().at(key.first.substr(0, 2));
    const auto d = quantile_differences(sc_samples, atlas_it->second, 50);
    auto& bucket = diffs[geo::index_of(country.continent)];
    bucket.insert(bucket.end(), d.begin(), d.end());
  }
  for (const geo::Continent c : {geo::Continent::Asia, geo::Continent::Europe,
                                 geo::Continent::NorthAmerica}) {
    series.push_back(util::Series{std::string{geo::to_code(c)},
                                  std::move(diffs[geo::index_of(c)])});
  }
  return series;
}

MethodologyStats sec33_stats(const PreparedStudy& study) {
  const measure::Dataset& data = study.sc().data();
  MethodologyStats stats;
  stats.ping_count = data.pings.size();
  stats.trace_count = data.traces.size();
  stats.required_samples_per_country =
      util::required_sample_size(util::z_score_for_confidence(0.95), 0.5, 0.02);

  std::array<std::size_t, geo::kContinentCount> counts{};
  std::vector<double> tcp;
  std::vector<double> icmp;
  for (const measure::PingRecord& ping : data.pings) {
    ++counts[geo::index_of(ping.probe->country->continent)];
    if (ping.protocol == measure::Protocol::Tcp) tcp.push_back(ping.rtt_ms);
  }
  for (const measure::TraceRef& trace : data.traces) {
    if (trace.completed) icmp.push_back(trace.end_to_end_ms);
  }
  std::size_t whois_hops = 0;
  std::size_t resolved_hops = 0;
  for (const TraceFacts& facts : study.sc().trace_facts()) {
    resolved_hops += facts.resolved_hops;
    whois_hops += facts.whois_hops;
  }
  const double total = static_cast<double>(stats.ping_count);
  for (std::size_t i = 0; i < geo::kContinentCount; ++i) {
    stats.continent_sample_share[i] =
        total > 0 ? static_cast<double>(counts[i]) / total * 100.0 : 0.0;
  }
  stats.tcp_median_ms = util::median(std::move(tcp));
  stats.icmp_median_ms = util::median(std::move(icmp));
  if (stats.icmp_median_ms > 0.0) {
    stats.tcp_vs_icmp_gap_pct = (stats.icmp_median_ms - stats.tcp_median_ms) /
                                stats.icmp_median_ms * 100.0;
  }
  if (resolved_hops > 0) {
    stats.whois_fallback_share_pct = static_cast<double>(whois_hops) /
                                     static_cast<double>(resolved_hops) * 100.0;
  }
  return stats;
}

}  // namespace cloudrtt::analysis
