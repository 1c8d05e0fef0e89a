#include "core/report.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <ostream>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/experiments.hpp"
#include "cloud/region.hpp"
#include "geo/coords.hpp"
#include "util/json.hpp"
#include "util/text.hpp"

namespace cloudrtt::core {

namespace {

using analysis::PreparedStudy;
using util::JsonWriter;

/// Medians of the last-mile buckets (Figs. 7 and 19), per category and
/// continent (index kGlobalIndex = Global); empty under 5 values.
struct LastMileMedians {
  using Row = std::array<std::optional<double>, geo::kContinentCount + 1>;
  std::array<Row, 4> share_pct;
  std::array<Row, 4> absolute_ms;
};

/// The stats come by value: each median selects in its bucket in place and
/// frees it, instead of a copy.
[[nodiscard]] LastMileMedians lastmile_medians(analysis::LastMileStats stats) {
  LastMileMedians medians;
  const auto fill = [](auto& buckets, LastMileMedians::Row& row) {
    for (std::size_t i = 0; i <= geo::kContinentCount; ++i) {
      if (buckets[i].size() >= 5) row[i] = util::median(std::move(buckets[i]));
    }
  };
  for (std::size_t c = 0; c < analysis::kLastMileCategories.size(); ++c) {
    fill(stats.share_pct[c], medians.share_pct[c]);
    fill(stats.absolute_ms[c], medians.absolute_ms[c]);
  }
  return medians;
}

// ---------------------------------------------------------------------------
// report.json

void write_summary(JsonWriter& json, const util::Summary& summary) {
  json.begin_object();
  json.field("count", summary.count);
  json.field("min", summary.min);
  json.field("p25", summary.p25);
  json.field("median", summary.median);
  json.field("p75", summary.p75);
  json.field("p90", summary.p90);
  json.field("max", summary.max);
  json.field("mean", summary.mean);
  json.field("stddev", summary.stddev);
  json.end_object();
}

void write_series_summaries(JsonWriter& json, const std::vector<util::Series>& all) {
  json.begin_array();
  for (const util::Series& series : all) {
    json.begin_object();
    json.field("label", series.label);
    json.key("summary");
    write_summary(json, util::summarize(series.values));
    json.end_object();
  }
  json.end_array();
}

void write_table1(JsonWriter& json) {
  json.begin_array();
  for (const cloud::ProviderId id : cloud::kAllProviders) {
    const cloud::ProviderInfo& info = cloud::provider_info(id);
    json.begin_object();
    json.field("ticker", info.ticker);
    json.field("name", info.name);
    switch (info.backbone) {
      case cloud::BackboneClass::Private: json.field("backbone", "private"); break;
      case cloud::BackboneClass::Semi: json.field("backbone", "semi"); break;
      case cloud::BackboneClass::Public: json.field("backbone", "public"); break;
    }
    json.key("regions_per_continent");
    json.begin_object();
    for (const geo::Continent c : geo::kAllContinents) {
      json.field(geo::to_code(c),
                 cloud::RegionCatalog::instance().count(id, c));
    }
    json.end_object();
    json.end_object();
  }
  json.end_array();
}

void write_fig3(JsonWriter& json,
                const std::vector<analysis::CountryLatencyRow>& rows) {
  json.begin_array();
  for (const auto& row : rows) {
    json.begin_object();
    json.field("country", row.country);
    json.field("continent", geo::to_code(row.continent));
    json.field("median_ms", row.median_ms);
    json.field("samples", row.samples);
    json.field("bucket", row.bucket);
    json.end_object();
  }
  json.end_array();
}

void write_fig6(JsonWriter& json,
                const std::vector<analysis::InterContinentalCell>& cells) {
  json.begin_array();
  for (const auto& cell : cells) {
    if (cell.summary.count == 0) continue;
    json.begin_object();
    json.field("src_country", cell.src_country);
    json.field("dst_continent", geo::to_code(cell.dst_continent));
    json.key("summary");
    write_summary(json, cell.summary);
    json.end_object();
  }
  json.end_array();
}

void write_lastmile(JsonWriter& json, const LastMileMedians& medians) {
  const auto write_row = [&json](std::string_view key,
                                 const LastMileMedians::Row& row) {
    json.key(key);
    json.begin_object();
    for (std::size_t i = 0; i <= geo::kContinentCount; ++i) {
      if (!row[i]) continue;
      const std::string_view label =
          i == analysis::kGlobalIndex ? "Global"
                                      : geo::to_code(geo::kAllContinents[i]);
      json.field(label, *row[i]);
    }
    json.end_object();
  };
  json.begin_array();
  for (const analysis::LastMileCategory category : analysis::kLastMileCategories) {
    const auto c = static_cast<std::size_t>(category);
    json.begin_object();
    json.field("category", to_string(category));
    write_row("share_pct_median", medians.share_pct[c]);
    write_row("absolute_ms_median", medians.absolute_ms[c]);
    json.end_object();
  }
  json.end_array();
}

void write_cv_groups(JsonWriter& json, const std::vector<analysis::CvGroup>& groups) {
  json.begin_array();
  for (const auto& group : groups) {
    json.begin_object();
    json.field("label", group.label);
    json.field("home_probes", group.home.size());
    if (!group.home.empty()) json.field("home_median_cv", util::median(group.home));
    json.field("cell_probes", group.cell.size());
    if (!group.cell.empty()) json.field("cell_median_cv", util::median(group.cell));
    json.field("home_sufficient", group.home_sufficient);
    json.end_object();
  }
  json.end_array();
}

void write_fig10(JsonWriter& json,
                 const std::vector<analysis::InterconnectShareRow>& rows) {
  json.begin_array();
  for (const auto& row : rows) {
    json.begin_object();
    json.field("provider", row.ticker);
    json.field("direct_pct", row.direct_pct);
    json.field("one_as_pct", row.one_as_pct);
    json.field("multi_as_pct", row.multi_as_pct);
    json.field("paths", row.paths);
    json.end_object();
  }
  json.end_array();
}

void write_fig11(JsonWriter& json,
                 const std::vector<analysis::PervasivenessRow>& rows) {
  json.begin_array();
  for (const auto& row : rows) {
    json.begin_object();
    json.field("provider", row.ticker);
    json.key("median_by_continent");
    json.begin_object();
    for (const geo::Continent c : geo::kAllContinents) {
      const auto& value = row.median_by_continent[geo::index_of(c)];
      if (value) json.field(geo::to_code(c), *value);
    }
    json.end_object();
    json.end_object();
  }
  json.end_array();
}

void write_case_study(JsonWriter& json, const analysis::PeeringCaseStudy& study) {
  json.begin_object();
  json.field("src_country", study.src_country);
  json.field("dst_country", study.dst_country);
  json.key("matrix");
  json.begin_array();
  for (const auto& row : study.matrix) {
    json.begin_object();
    json.field("isp", row.isp_label);
    json.field("asn", static_cast<std::uint64_t>(row.asn));
    json.key("cells");
    json.begin_array();
    for (std::size_t i = 0; i < row.cells.size(); ++i) {
      const auto& cell = row.cells[i];
      json.begin_object();
      json.field("provider",
                 cloud::provider_info(cloud::kPeeringFigureProviders[i]).ticker);
      json.field("paths", cell.paths);
      if (cell.has_data) {
        json.field("majority", topology::to_string(cell.majority));
        json.field("majority_pct", cell.majority_pct);
      }
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.key("latency_by_mode");
  json.begin_array();
  for (const auto& row : study.latency) {
    if (row.direct.count == 0 && row.intermediate.count == 0) continue;
    json.begin_object();
    json.field("provider", row.ticker);
    json.field("valid", row.valid);
    json.key("direct");
    write_summary(json, row.direct);
    json.key("intermediate");
    write_summary(json, row.intermediate);
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

void write_fig15(JsonWriter& json,
                 const std::vector<analysis::ProtocolCompareRow>& rows) {
  json.begin_array();
  for (const auto& row : rows) {
    json.begin_object();
    json.field("continent", geo::to_code(row.continent));
    json.key("tcp");
    write_summary(json, row.tcp);
    json.key("icmp");
    write_summary(json, row.icmp);
    json.end_object();
  }
  json.end_array();
}

void write_sec33(JsonWriter& json, const analysis::MethodologyStats& stats) {
  json.begin_object();
  json.field("ping_count", stats.ping_count);
  json.field("trace_count", stats.trace_count);
  json.key("continent_sample_share_pct");
  json.begin_object();
  for (const geo::Continent c : geo::kAllContinents) {
    json.field(geo::to_code(c), stats.continent_sample_share[geo::index_of(c)]);
  }
  json.end_object();
  json.field("tcp_median_ms", stats.tcp_median_ms);
  json.field("icmp_median_ms", stats.icmp_median_ms);
  json.field("tcp_vs_icmp_gap_pct", stats.tcp_vs_icmp_gap_pct);
  json.field("required_samples_per_country", stats.required_samples_per_country);
  json.field("whois_fallback_share_pct", stats.whois_fallback_share_pct);
  json.end_object();
}

// ---------------------------------------------------------------------------
// report.txt

[[nodiscard]] std::string pct(double value) {
  return util::format_double(value, 1) + "%";
}
[[nodiscard]] std::string ms(double value) {
  return util::format_double(value, 1);
}

/// `part` as a percentage of `whole`, or "-" when there is no whole.
[[nodiscard]] std::string share(std::size_t part, std::size_t whole) {
  if (whole == 0) return "-";
  return pct(100.0 * static_cast<double>(part) / static_cast<double>(whole));
}

[[nodiscard]] std::vector<std::string> continent_header(std::string first) {
  std::vector<std::string> header{std::move(first)};
  for (const geo::Continent c : geo::kAllContinents) {
    header.emplace_back(geo::to_code(c));
  }
  return header;
}

// Table 1 — an input of the study: the region catalogue in the paper's
// layout, with its total checked.
void text_table1(std::ostream& out) {
  const auto& catalog = cloud::RegionCatalog::instance();
  constexpr std::array<geo::Continent, 6> kColumns{
      geo::Continent::Europe,       geo::Continent::NorthAmerica,
      geo::Continent::SouthAmerica, geo::Continent::Asia,
      geo::Continent::Africa,       geo::Continent::Oceania};

  util::TextTable table;
  table.set_header({"Provider", "EU", "NA", "SA", "AS", "AF", "OC", "Total",
                    "Backbone"});
  std::array<std::size_t, 6> totals{};
  for (const cloud::ProviderId id : cloud::kAllProviders) {
    const cloud::ProviderInfo& info = cloud::provider_info(id);
    std::vector<std::string> row{std::string{info.name} + " (" +
                                 std::string{info.ticker} + ")"};
    std::size_t provider_total = 0;
    for (std::size_t i = 0; i < kColumns.size(); ++i) {
      const std::size_t n = catalog.count(id, kColumns[i]);
      totals[i] += n;
      provider_total += n;
      row.push_back(n == 0 ? "-" : std::to_string(n));
    }
    row.push_back(std::to_string(provider_total));
    switch (info.backbone) {
      case cloud::BackboneClass::Private: row.emplace_back("Private"); break;
      case cloud::BackboneClass::Semi: row.emplace_back("Semi"); break;
      case cloud::BackboneClass::Public: row.emplace_back("Public"); break;
    }
    table.add_row(std::move(row));
  }
  table.add_rule();
  std::vector<std::string> total_row{"Total"};
  std::size_t grand_total = 0;
  for (const std::size_t n : totals) {
    total_row.push_back(std::to_string(n));
    grand_total += n;
  }
  total_row.push_back(std::to_string(grand_total));
  total_row.emplace_back("");
  table.add_row(std::move(total_row));
  out << table.render();

  out << "\ncheck: total regions = " << grand_total
      << (grand_total == 195 ? " (matches the paper)" : " (MISMATCH!)") << "\n";
}

// Figs. 1b / 2 / 14 — per-continent probe counts and the densest countries
// of each platform, how tightly each fleet clusters, and §3.2's geoDensity
// contrast.
void text_fig1(std::ostream& out, const analysis::StudyView& view) {
  // Speedchecker, then RIPE Atlas (null when the study ran without it).
  const std::array<const probes::ProbeFleet*, 2> fleets{view.sc_fleet,
                                                        view.atlas_fleet};
  std::array<std::array<std::size_t, geo::kContinentCount>, 2> counts{};
  for (std::size_t f = 0; f < fleets.size(); ++f) {
    const probes::ProbeFleet* fleet = fleets[f];
    if (fleet == nullptr) continue;
    out << "\n-- " << to_string(fleet->platform()) << " (" << fleet->size()
        << " probes) --\n";
    std::array<std::size_t, geo::kContinentCount>& by_continent = counts[f];
    std::array<std::size_t, geo::kContinentCount> cellular{};
    for (const probes::Probe& probe : fleet->probes()) {
      const std::size_t idx = geo::index_of(probe.country->continent);
      ++by_continent[idx];
      if (probe.access == lastmile::AccessTech::Cellular) ++cellular[idx];
    }
    util::TextTable table;
    table.set_header({"continent", "probes", "share", "cellular"});
    for (const geo::Continent c : geo::kAllContinents) {
      const std::size_t idx = geo::index_of(c);
      table.add_row({std::string{geo::to_code(c)},
                     std::to_string(by_continent[idx]),
                     share(by_continent[idx], fleet->size()),
                     share(cellular[idx], by_continent[idx])});
    }
    out << table.render();

    std::vector<std::pair<std::size_t, std::string_view>> dense;
    for (const geo::CountryInfo& country : view.world->countries().all()) {
      const std::size_t n = fleet->count_in_country(country.code);
      if (n > 0) dense.emplace_back(n, country.name);
    }
    std::sort(dense.rbegin(), dense.rend());
    out << "densest countries:";
    for (std::size_t i = 0; i < std::min<std::size_t>(6, dense.size()); ++i) {
      out << " " << dense[i].second << "(" << dense[i].first << ")";
    }
    out << "\n";
  }

  // Appendix A.1 (Fig. 14): geographic "closeness" — how tightly clustered
  // each platform's probes are, as the median distance to the nearest other
  // probe of the same platform.
  out << "\n-- probe closeness (median nearest-neighbour distance, km) --\n";
  util::TextTable closeness;
  closeness.set_header({"continent", "Speedchecker", "RIPE Atlas"});
  std::vector<geo::GeoPoint> members;
  for (const geo::Continent c : geo::kAllContinents) {
    std::vector<std::string> row{std::string{geo::to_code(c)}};
    for (const probes::ProbeFleet* fleet : fleets) {
      members.clear();
      if (fleet != nullptr) {
        for (const probes::Probe& probe : fleet->probes()) {
          if (probe.country->continent == c) members.push_back(probe.location);
        }
      }
      if (members.size() < 10) {
        row.emplace_back("-");
        continue;
      }
      row.push_back(util::format_double(
          util::median(geo::nearest_neighbour_km(members)), 1));
    }
    closeness.add_row(std::move(row));
  }
  out << closeness.render();
  out << "(smaller = denser deployment; the SC fleet is close-packed "
         "wherever the Atlas fleet is sparse — Fig. 14's point)\n";

  // §3.2's geoDensity claim: probes per geographic area, SC relative to
  // Atlas — ~12x in EU, ~6x in NA, far higher in developing regions.
  out << "\n-- geoDensity ratio (Speedchecker / Atlas probes per area) --\n";
  util::TextTable density;
  density.set_header({"continent", "SC probes", "Atlas probes", "ratio"});
  for (const geo::Continent c : geo::kAllContinents) {
    const std::size_t sc_count = counts[0][geo::index_of(c)];
    const std::size_t atlas_count = counts[1][geo::index_of(c)];
    density.add_row({std::string{geo::to_code(c)}, std::to_string(sc_count),
                     std::to_string(atlas_count),
                     atlas_count == 0
                         ? "-"
                         : util::format_double(
                               static_cast<double>(sc_count) /
                                   static_cast<double>(atlas_count),
                               1) + "x"});
  }
  out << density.render();
  out << "(paper: ~12x in EU, ~6x in NA, 30-40x in developing regions; "
         "both fleets are scaled by the same factor here, so the ratio "
         "is scale-invariant)\n";

  out << "\nnote: the paper's platform contrast — Atlas concentrated in "
         "southern Africa and spread across South America, Speedchecker "
         "cellular-heavy in north Africa and >80% Brazilian in SA — is "
         "encoded in the country table and verified by tests/geo_test.\n";
}

// §3.3 — dataset size and composition, the sample-size rule, the
// TCP-vs-ICMP agreement and the whois fallback rate.
void text_sec33(std::ostream& out, const analysis::MethodologyStats& stats) {
  out << "\ncollected (this scale): " << stats.ping_count << " pings, "
      << stats.trace_count << " traceroutes\n";

  util::TextTable table;
  table.set_header({"continent", "sample share"});
  for (const geo::Continent c : geo::kAllContinents) {
    table.add_row({std::string{geo::to_code(c)},
                   pct(stats.continent_sample_share[geo::index_of(c)])});
  }
  out << table.render();

  out << "\nconfidence: z=1.96, p=0.5, eps=2% => n = "
      << stats.required_samples_per_country
      << " measurements per country (paper: >2400)\n";
  out << "TCP median " << ms(stats.tcp_median_ms) << " ms vs ICMP median "
      << ms(stats.icmp_median_ms) << " ms — gap "
      << pct(stats.tcp_vs_icmp_gap_pct) << " (paper: within 2%)\n";
  out << "hops resolved via whois fallback (Team Cymru stand-in): "
      << pct(stats.whois_fallback_share_pct) << "\n";
}

// Fig. 3 — each country's median RTT to the closest in-continent DC,
// bucketed into the paper's latency classes, and §4.1's threshold counts.
void text_fig3(std::ostream& out,
               const std::vector<analysis::CountryLatencyRow>& rows) {
  std::map<std::string_view, std::vector<const analysis::CountryLatencyRow*>>
      by_bucket;
  std::size_t below_mtp = 0;
  std::size_t below_hpl = 0;
  std::size_t below_hrt = 0;
  for (const auto& row : rows) {
    by_bucket[row.bucket].push_back(&row);
    if (row.median_ms < analysis::kMtpMs) ++below_mtp;
    if (row.median_ms < analysis::kHplMs) ++below_hpl;
    if (row.median_ms < analysis::kHrtMs) ++below_hrt;
  }

  for (const std::string_view bucket :
       {"<30", "30-60", "60-100", "100-250", ">250"}) {
    const auto it = by_bucket.find(bucket);
    out << "\n[" << bucket << " ms] "
        << (it == by_bucket.end() ? 0 : it->second.size()) << " countries\n  ";
    if (it == by_bucket.end()) continue;
    for (const auto* row : it->second) {
      out << row->country << "(" << ms(row->median_ms) << ") ";
    }
    out << "\n";
  }

  out << "\ncountries measured: " << rows.size() << "\n";
  out << "  median < MTP (20 ms):  " << below_mtp << "\n";
  out << "  median < HPL (100 ms): " << below_hpl << " ("
      << share(below_hpl, rows.size()) << ")\n";
  out << "  median < HRT (250 ms): " << below_hrt << " (failing: "
      << rows.size() - below_hrt << ")\n";
  out << "paper: 96/120 < HPL; all but 2 African countries < HRT\n";
}

// Fig. 4 — every RTT sample to the nearest in-continent DC, per continent,
// against the MTP/HPL/HRT thresholds.
void text_fig4(std::ostream& out, const std::vector<util::Series>& series) {
  out << "\n-- CDF (quantiles per continent) --\n";
  out << util::render_cdf_table(series,
                                {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99});
  out << "\n-- fraction under the application thresholds (§2.1) --\n";
  out << util::render_threshold_table(
      series, {analysis::kMtpMs, analysis::kHplMs, analysis::kHrtMs});
  out << "(MTP 20 ms | HPL 100 ms | HRT 250 ms)\n";
}

/// The Fig. 5 / Fig. 16 table of quantile-matched differences.
void text_differences(std::ostream& out,
                      const std::vector<util::Series>& series,
                      std::vector<std::string> header) {
  util::TextTable table;
  table.set_header(std::move(header));
  for (const auto& s : series) {
    const auto negative = static_cast<std::size_t>(
        std::count_if(s.values.begin(), s.values.end(),
                      [](double d) { return d < 0.0; }));
    const util::Summary summary = util::summarize(s.values);
    table.add_row({s.label, share(negative, s.values.size()),
                   ms(summary.median), ms(summary.p25), ms(summary.p75),
                   std::to_string(s.values.size())});
  }
  out << "\n" << table.render();
}

// Fig. 5 — quantile-matched Speedchecker-minus-Atlas differences towards
// the nearest DC (negative = SC faster); empty without Atlas data.
void text_fig5(std::ostream& out, const std::vector<util::Series>& series) {
  text_differences(out, series,
                   {"continent", "SC faster", "median diff [ms]", "p25 diff",
                    "p75 diff", "points"});
  out << "\n(negative differences = Speedchecker faster at that "
         "quantile; positive = Atlas faster)\n";
}

void text_intercontinental(
    std::ostream& out, const std::vector<analysis::InterContinentalCell>& cells,
    std::string_view title) {
  out << "\n-- " << title << " --\n";
  util::TextTable table;
  table.set_header({"src", "dst", "n", "p25", "median", "p75", "p90"});
  for (const auto& cell : cells) {
    if (cell.summary.count == 0) continue;
    table.add_row({std::string{cell.src_country},
                   std::string{geo::to_code(cell.dst_continent)},
                   std::to_string(cell.summary.count), ms(cell.summary.p25),
                   ms(cell.summary.median), ms(cell.summary.p75),
                   ms(cell.summary.p90)});
  }
  out << table.render();
}

/// One row per category of a last-mile median table, "-" under 5 values.
void text_lastmile(std::ostream& out,
                   const std::array<LastMileMedians::Row, 4>& medians,
                   std::span<const analysis::LastMileCategory> categories,
                   std::string_view unit) {
  util::TextTable table;
  std::vector<std::string> header = continent_header("category");
  header.emplace_back("Global");
  table.set_header(std::move(header));
  for (const analysis::LastMileCategory category : categories) {
    std::vector<std::string> row{std::string{to_string(category)}};
    for (const std::optional<double>& median :
         medians[static_cast<std::size_t>(category)]) {
      row.push_back(median ? ms(*median) + std::string{unit} : "-");
    }
    table.add_row(std::move(row));
  }
  out << table.render();
}

// Fig. 7 — the wireless last-mile: (a) its share of the end-to-end latency,
// (b) its absolute latency, per continent and access category.
void text_fig7(std::ostream& out, const LastMileMedians& medians) {
  out << "\n-- Fig. 7a: median last-mile share of end-to-end latency --\n";
  text_lastmile(out, medians.share_pct, analysis::kLastMileCategories, "%");
  out << "\n-- Fig. 7b: median absolute last-mile latency [ms] --\n";
  text_lastmile(out, medians.absolute_ms, analysis::kLastMileCategories, "");
  out << "\n(access classes inferred from traceroutes: private first hop "
         "=> home, direct ISP hop => cellular — §5)\n";
}

// Fig. 19 (A.5) — the last-mile share towards each probe's nearest DC.
void text_fig19(std::ostream& out, const LastMileMedians& medians) {
  constexpr std::array<analysis::LastMileCategory, 2> kWireless{
      analysis::LastMileCategory::HomeUsrIsp, analysis::LastMileCategory::Cell};
  out << "\n";
  text_lastmile(out, medians.share_pct, kWireless, "%");
  out << "\n(median share of USR->ISP latency in the end-to-end RTT, "
         "nearest-DC traces only)\n";
}

// Fig. 8 — per-probe Cv of the last-mile latency, by continent and access
// class.
void text_fig8(std::ostream& out,
               const std::vector<analysis::CvGroup>& groups) {
  util::TextTable table;
  table.set_header({"continent", "home n", "home p25/med/p75", "cell n",
                    "cell p25/med/p75"});
  const auto fmt = [](const util::Summary& s) {
    if (s.count == 0) return std::string{"-"};
    return util::format_double(s.p25, 2) + "/" +
           util::format_double(s.median, 2) + "/" +
           util::format_double(s.p75, 2);
  };
  for (const auto& group : groups) {
    const util::Summary home = util::summarize(group.home);
    const util::Summary cell = util::summarize(group.cell);
    table.add_row({group.label, std::to_string(home.count), fmt(home),
                   std::to_string(cell.count), fmt(cell)});
  }
  out << "\n" << table.render();
  out << "\n(Cv = sigma/mu over a probe's last-mile samples; probes with "
         "fewer than 10 samples excluded, as in the paper)\n";
}

// Fig. 9 — last-mile Cv for two representative countries per continent,
// home boxes dropped where the platform hosts too few home probes.
void text_fig9(std::ostream& out,
               const std::vector<analysis::CvGroup>& groups) {
  util::TextTable table;
  table.set_header({"country", "home n", "home med Cv", "cell n", "cell med Cv",
                    "note"});
  for (const auto& group : groups) {
    const util::Summary home = util::summarize(group.home);
    const util::Summary cell = util::summarize(group.cell);
    table.add_row({group.label, std::to_string(home.count),
                   home.count ? util::format_double(home.median, 2) : "-",
                   std::to_string(cell.count),
                   cell.count ? util::format_double(cell.median, 2) : "-",
                   group.home_sufficient ? ""
                                         : "home excluded (insufficient)"});
  }
  out << "\n" << table.render();
}

// Fig. 10 — AS-level interconnection types per provider, classified from
// traceroutes with IXPs removed (§6.1).
void text_fig10(std::ostream& out,
                const std::vector<analysis::InterconnectShareRow>& rows) {
  util::TextTable table;
  table.set_header(
      {"provider", "direct", "1 AS", "2+ AS", "paths", "direct bar"});
  for (const auto& row : rows) {
    table.add_row({std::string{row.ticker}, pct(row.direct_pct),
                   pct(row.one_as_pct), pct(row.multi_as_pct),
                   std::to_string(row.paths),
                   util::bar(row.direct_pct, 100.0, 20)});
  }
  out << "\n" << table.render();
  out << "\n(direct includes peering across IXP fabrics — IXP hops are "
         "tagged via the CAIDA-style dataset and removed)\n";
}

// Fig. 11 — the share of routers on the user->DC path owned by the target
// provider, per provider and probe continent.
void text_fig11(std::ostream& out,
                const std::vector<analysis::PervasivenessRow>& rows) {
  util::TextTable table;
  table.set_header(continent_header("provider"));
  for (const auto& row : rows) {
    std::vector<std::string> cells{std::string{row.ticker}};
    for (const auto& median : row.median_by_continent) {
      cells.push_back(median ? util::format_double(*median, 2) : "-");
    }
    table.add_row(std::move(cells));
  }
  out << "\n" << table.render();
  out << "\n(median over traceroutes; '-' where fewer than 5 usable "
         "traces)\n";
}

// Figs. 12, 13, 17 and 18 — a peering case study: the ISP x provider
// matrix, then the latency by interconnection type.
void text_case_study(std::ostream& out,
                     const analysis::PeeringCaseStudy& study) {
  out << "\n-- interconnection matrix (" << study.src_country << " ISPs x "
      << "providers, DCs in " << study.dst_country << ") --\n";
  util::TextTable matrix;
  std::vector<std::string> header{"ISP"};
  for (const cloud::ProviderId id : cloud::kPeeringFigureProviders) {
    header.emplace_back(cloud::provider_info(id).ticker);
  }
  matrix.set_header(std::move(header));
  for (const analysis::PeeringMatrixRow& row : study.matrix) {
    std::vector<std::string> cells{row.isp_label};
    for (const analysis::PeeringMatrixCell& cell : row.cells) {
      if (!cell.has_data) {
        cells.emplace_back("-");
      } else {
        cells.push_back(std::string{topology::to_string(cell.majority)} + " " +
                        util::format_double(cell.majority_pct, 0) + "%");
      }
    }
    matrix.add_row(std::move(cells));
  }
  out << matrix.render();

  out << "\n-- latency by interconnection type (completed ICMP e2e) --\n";
  util::TextTable latency;
  latency.set_header({"provider", "direct n", "direct p25/med/p75",
                      "interm. n", "interm. p25/med/p75"});
  const auto fmt = [](const util::Summary& s) {
    return util::format_double(s.p25, 0) + "/" +
           util::format_double(s.median, 0) + "/" +
           util::format_double(s.p75, 0);
  };
  for (const analysis::PeeringLatencyRow& row : study.latency) {
    if (row.direct.count == 0 && row.intermediate.count == 0) continue;
    latency.add_row({std::string{row.ticker} + (row.valid ? "" : " (thin)"),
                     std::to_string(row.direct.count), fmt(row.direct),
                     std::to_string(row.intermediate.count),
                     fmt(row.intermediate)});
  }
  out << latency.render();
}

// Fig. 15 (A.2) — end-to-end latency over ICMP (traceroute) vs TCP (ping)
// per continent.
void text_fig15(std::ostream& out,
                const std::vector<analysis::ProtocolCompareRow>& rows) {
  util::TextTable table;
  table.set_header({"continent", "TCP n", "TCP med", "TCP IQR", "ICMP n",
                    "ICMP med", "ICMP IQR", "gap"});
  for (const auto& row : rows) {
    const double gap =
        row.icmp.median > 0.0
            ? (row.icmp.median - row.tcp.median) / row.icmp.median * 100.0
            : 0.0;
    table.add_row({std::string{geo::to_code(row.continent)},
                   std::to_string(row.tcp.count), ms(row.tcp.median),
                   ms(row.tcp.iqr()), std::to_string(row.icmp.count),
                   ms(row.icmp.median), ms(row.icmp.iqr()), pct(gap)});
  }
  out << "\n" << table.render();
}

// Fig. 16 (A.3) — the platform differences restricted to probes matched by
// <city, first-hop ASN>; AS/EU/NA only, empty without Atlas data.
void text_fig16(std::ostream& out, const std::vector<util::Series>& series) {
  text_differences(out, series,
                   {"continent", "SC faster", "median diff [ms]", "p25", "p75",
                    "points"});
  out << "\n(differences at matched quantiles within each matched "
         "<city, ASN> pair; negative = Speedchecker faster)\n";
}

/// report.txt's sections, in paper order.
enum Section : std::size_t {
  kTable1, kFig1, kSec33, kFig3, kFig4, kFig5, kFig6, kFig7, kFig8, kFig9,
  kFig10, kFig11, kFig12, kFig13, kFig15, kFig16, kFig17, kFig18, kFig19,
  kSectionCount
};

struct Header {
  std::string_view title;
  std::string_view claim;  ///< what the paper shows
};

constexpr std::array<Header, kSectionCount> kHeaders{{
    {"Table 1 — datacenters per continent and backbone network",
     "195 regions: EU 52, NA 62, SA 4, AS 62, AF 3, OC 12; big-3 private WANs"},
    {"Fig. 1b / Fig. 2 — probe distributions (Speedchecker vs RIPE Atlas)",
     "SC: EU 72K, AS 31K, NA 5.4K, AF 4K, SA 2.8K, OC 351; Atlas: EU 5574, "
     "AS 1083, NA 866, AF 261, SA 216, OC 289; DE/GB/IR/JP densest on SC"},
    {"§3.3 — methodology statistics",
     "3.8M pings / 7M+ traceroutes at paper scale; ~50% of samples from EU, "
     "~20% AS, ~10% NA; n=2401 samples/country for 95% confidence at 2% "
     "error; TCP within 2% of ICMP"},
    {"Fig. 3 — median latency to the closest in-continent datacenter",
     "in-land DCs => lowest medians; ~96/120 countries < HPL (100 ms); all "
     "but two (African) countries < HRT (250 ms); Africa most uneven"},
    {"Fig. 4 — RTT distribution to nearest DC per continent",
     "EU/NA/OC ~90% under HPL; AS/SA ~80% under HPL with long tails; AF <10% "
     "under HPL and ~65% under HRT; MTP out of reach everywhere"},
    {"Fig. 5 — Speedchecker vs RIPE Atlas latency differences",
     "Atlas faster in all continents (wired last-mile), gap largest in "
     "Africa; South America inverted (~70% of SC samples faster, Brazilian "
     "probe skew)"},
    {"Fig. 6 — intra- vs inter-continental cloud access (AF and SA probes)",
     "north Africa reaches EU (and even NA) faster than in-continent ZA DCs; "
     "KE gets its lowest median in-continent but more stably to EU; BO/PE "
     "roughly tie SA vs NA thanks to Pacific cables; CO/EC/VE reach NA "
     "faster than BR"},
    {"Fig. 7 — wireless last-mile share and absolute latency",
     "(a) last-mile ~40-50% of total latency, higher in EU/NA; (b) wireless "
     "medians 20-25 ms regardless of WiFi vs cellular; RTR-ISP and Atlas "
     "~10 ms (wired)"},
    {"Fig. 8 — last-mile latency Cv per probe, by continent",
     "home and cellular probes show the same variability, median Cv ~0.5 "
     "everywhere: wireless is uniformly the unstable segment"},
    {"Fig. 9 — last-mile Cv for representative countries",
     "stability is comparable (and significant) across the globe; home "
     "boxes for ZA and MA excluded for insufficient home-probe samples"},
    {"Fig. 10 — ISP-cloud interconnection types per provider",
     "big-3 majority direct (>50%); DO/IBM lean on single-carrier private "
     "peering; BABA/LIN/VLTR/ORCL mostly public (2+ AS)"},
    {"Fig. 11 — provider pervasiveness (cloud-owned share of the path)",
     "Google/Microsoft/Amazon own >60% of the routers on most paths; "
     "providers reached over 2+ ASes own only ~20%"},
    {"Fig. 12 — ISP-cloud peering case study in Europe (DE ISPs -> UK DCs)",
     "big-3 peer directly with all German ISPs; Telefonica->BABA and "
     "Vodafone->DO ride the public Internet; IBM crosses IXPs most; direct "
     "vs transit latency nearly identical (well-provisioned EU)"},
    {"Fig. 13 — ISP-cloud peering case study in Asia (JP ISPs -> IN DCs)",
     "big-3 direct except NTT->Amazon; DigitalOcean strictly public in Asia; "
     "medians comparable but direct peering cuts the latency variation "
     "sharply"},
    {"Fig. 15 — ICMP vs TCP end-to-end latency per continent",
     "medians comparable everywhere (TCP within ~2%); TCP lower-variance; "
     "the gap is largest in Africa (middleboxes deprioritising ICMP)"},
    {"Fig. 16 — SC vs Atlas within the same <city, ASN>",
     "controlling for location and serving ISP, Atlas remains significantly "
     "faster for the large majority of samples; in Asia, always — the "
     "residual gap is the wireless last-mile itself"},
    {"Fig. 17 (A.4) — ISP-cloud peering case study (UA ISPs -> UK DCs)",
     "hypergiants peer directly with most Ukrainian ISPs; direct and transit "
     "paths achieve comparable medians (strong EU backhaul)"},
    {"Fig. 18 (A.4) — ISP-cloud peering case study (BH ISPs -> IN DCs)",
     "direct interconnections rare (only MSFT/GCP with a few ISPs); where "
     "direct peering exists it is consistently and substantially faster"},
    {"Fig. 19 — last-mile share towards the nearest cloud DC",
     "against the nearest DC the last-mile dominates: ~50% of the total "
     "latency globally, WiFi and cellular alike"},
}};

}  // namespace

void write_full_report(std::ostream& out, const analysis::PreparedStudy& study,
                       std::ostream* text_out) {
  // Each exhibit is computed once and written to report.json in its order;
  // its report.txt section is rendered from the same result and the
  // sections are written in paper order at the end.
  std::array<std::string, kSectionCount> sections;
  const auto section = [&](Section s, const auto& render) {
    if (text_out == nullptr) return;
    std::ostringstream body;
    render(body);
    sections[s] = std::move(body).str();
  };

  JsonWriter json{out};
  json.begin_object();

  json.key("table1_endpoints");
  write_table1(json);
  section(kTable1, [](std::ostream& o) { text_table1(o); });
  section(kFig1, [&](std::ostream& o) { text_fig1(o, study.view()); });

  {
    const auto rows = analysis::fig3_country_latency(study);
    json.key("fig3_country_latency");
    write_fig3(json, rows);
    section(kFig3, [&](std::ostream& o) { text_fig3(o, rows); });
  }
  {
    const auto series = analysis::fig4_continent_rtt(study);
    json.key("fig4_continent_rtt");
    write_series_summaries(json, series);
    section(kFig4, [&](std::ostream& o) { text_fig4(o, series); });
  }
  {
    // Empty without Atlas data; report.json then has neither key.
    const auto fig5 = analysis::fig5_platform_diff(study);
    const auto fig16 = analysis::fig16_city_asn_diff(study);
    if (study.has_atlas()) {
      json.key("fig5_platform_diff");
      write_series_summaries(json, fig5);
      json.key("fig16_city_asn_diff");
      write_series_summaries(json, fig16);
    }
    section(kFig5, [&](std::ostream& o) { text_fig5(o, fig5); });
    section(kFig16, [&](std::ostream& o) { text_fig16(o, fig16); });
  }
  {
    const auto africa =
        analysis::fig6_intercontinental(study, geo::Continent::Africa);
    const auto south_america =
        analysis::fig6_intercontinental(study, geo::Continent::SouthAmerica);
    json.key("fig6a_africa");
    write_fig6(json, africa);
    json.key("fig6b_south_america");
    write_fig6(json, south_america);
    section(kFig6, [&](std::ostream& o) {
      text_intercontinental(o, africa, "Fig. 6a: African probes");
      text_intercontinental(o, south_america, "Fig. 6b: South American probes");
    });
  }
  {
    const LastMileMedians all = lastmile_medians(
        analysis::lastmile_stats(study, /*nearest_only=*/false));
    json.key("fig7_lastmile");
    write_lastmile(json, all);
    section(kFig7, [&](std::ostream& o) { text_fig7(o, all); });
  }
  {
    const LastMileMedians nearest = lastmile_medians(
        analysis::lastmile_stats(study, /*nearest_only=*/true));
    json.key("fig19_lastmile_nearest");
    write_lastmile(json, nearest);
    section(kFig19, [&](std::ostream& o) { text_fig19(o, nearest); });
  }
  {
    const auto groups = analysis::fig8_cv_by_continent(study);
    json.key("fig8_cv_by_continent");
    write_cv_groups(json, groups);
    section(kFig8, [&](std::ostream& o) { text_fig8(o, groups); });
  }
  {
    const auto groups = analysis::fig9_cv_by_country(study);
    json.key("fig9_cv_by_country");
    write_cv_groups(json, groups);
    section(kFig9, [&](std::ostream& o) { text_fig9(o, groups); });
  }
  {
    const auto rows = analysis::fig10_interconnect_share(study);
    json.key("fig10_interconnect_share");
    write_fig10(json, rows);
    section(kFig10, [&](std::ostream& o) { text_fig10(o, rows); });
  }
  {
    const auto rows = analysis::fig11_pervasiveness(study);
    json.key("fig11_pervasiveness");
    write_fig11(json, rows);
    section(kFig11, [&](std::ostream& o) { text_fig11(o, rows); });
  }

  struct CaseStudy {
    std::string_view key;
    std::string_view src;
    std::string_view dst;
    Section section;
  };
  for (const CaseStudy& c : {CaseStudy{"fig12_de_gb", "DE", "GB", kFig12},
                             CaseStudy{"fig13_jp_in", "JP", "IN", kFig13},
                             CaseStudy{"fig17_ua_gb", "UA", "GB", kFig17},
                             CaseStudy{"fig18_bh_in", "BH", "IN", kFig18}}) {
    const auto result = analysis::peering_case_study(study, c.src, c.dst);
    json.key(c.key);
    write_case_study(json, result);
    section(c.section, [&](std::ostream& o) { text_case_study(o, result); });
  }

  {
    const auto rows = analysis::fig15_protocols(study);
    json.key("fig15_protocols");
    write_fig15(json, rows);
    section(kFig15, [&](std::ostream& o) { text_fig15(o, rows); });
  }
  {
    const analysis::MethodologyStats stats = analysis::sec33_stats(study);
    json.key("sec33_methodology");
    write_sec33(json, stats);
    section(kSec33, [&](std::ostream& o) { text_sec33(o, stats); });
  }

  json.end_object();
  out << '\n';

  if (text_out == nullptr) return;
  constexpr std::string_view kRule =
      "==============================================================\n";
  for (std::size_t s = 0; s < kSectionCount; ++s) {
    *text_out << kRule << kHeaders[s].title << "\npaper: " << kHeaders[s].claim
              << "\n" << kRule << sections[s];
  }
}

}  // namespace cloudrtt::core
