#include "core/report.hpp"

#include <ostream>
#include <utility>

#include "analysis/experiments.hpp"
#include "cloud/region.hpp"
#include "util/json.hpp"

namespace cloudrtt::core {

namespace {

using util::JsonWriter;

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

void write_fig3(JsonWriter& json, const analysis::PreparedStudy& study) {
  json.begin_array();
  for (const auto& row : analysis::fig3_country_latency(study)) {
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

void write_fig6(JsonWriter& json, const analysis::PreparedStudy& study,
                geo::Continent src) {
  json.begin_array();
  for (const auto& cell : analysis::fig6_intercontinental(study, src)) {
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

/// Medians of every bucket of at least 5 values. The stats come by value:
/// each median sorts its bucket in place and frees it, instead of a copy.
void write_lastmile(JsonWriter& json, analysis::LastMileStats stats) {
  const auto medians = [&json](std::string_view key, auto& buckets) {
    json.key(key);
    json.begin_object();
    for (std::size_t i = 0; i <= geo::kContinentCount; ++i) {
      if (buckets[i].size() < 5) continue;
      const std::string_view label =
          i == analysis::kGlobalIndex ? "Global"
                                      : geo::to_code(geo::kAllContinents[i]);
      json.field(label, util::median(std::move(buckets[i])));
    }
    json.end_object();
  };
  json.begin_array();
  for (const analysis::LastMileCategory category : analysis::kLastMileCategories) {
    const auto c = static_cast<std::size_t>(category);
    json.begin_object();
    json.field("category", to_string(category));
    medians("share_pct_median", stats.share_pct[c]);
    medians("absolute_ms_median", stats.absolute_ms[c]);
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

void write_fig10(JsonWriter& json, const analysis::PreparedStudy& study) {
  json.begin_array();
  for (const auto& row : analysis::fig10_interconnect_share(study)) {
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

void write_fig11(JsonWriter& json, const analysis::PreparedStudy& study) {
  json.begin_array();
  for (const auto& row : analysis::fig11_pervasiveness(study)) {
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

}  // namespace

void write_full_report(std::ostream& out, const analysis::StudyView& view) {
  // Every exhibit reads the same prepared state: each hop address resolved
  // once, one nearest index per dataset, one pass over each dataset's traces.
  const analysis::PreparedStudy study{view};
  JsonWriter json{out};
  json.begin_object();

  json.key("table1_endpoints");
  write_table1(json);

  json.key("fig3_country_latency");
  write_fig3(json, study);

  json.key("fig4_continent_rtt");
  write_series_summaries(json, analysis::fig4_continent_rtt(study));

  if (study.has_atlas()) {
    json.key("fig5_platform_diff");
    write_series_summaries(json, analysis::fig5_platform_diff(study));
    json.key("fig16_city_asn_diff");
    write_series_summaries(json, analysis::fig16_city_asn_diff(study));
  }

  json.key("fig6a_africa");
  write_fig6(json, study, geo::Continent::Africa);
  json.key("fig6b_south_america");
  write_fig6(json, study, geo::Continent::SouthAmerica);

  json.key("fig7_lastmile");
  write_lastmile(json, analysis::lastmile_stats(study, false));
  json.key("fig19_lastmile_nearest");
  write_lastmile(json, analysis::lastmile_stats(study, true));

  json.key("fig8_cv_by_continent");
  write_cv_groups(json, analysis::fig8_cv_by_continent(study));
  json.key("fig9_cv_by_country");
  write_cv_groups(json, analysis::fig9_cv_by_country(study));

  json.key("fig10_interconnect_share");
  write_fig10(json, study);
  json.key("fig11_pervasiveness");
  write_fig11(json, study);

  json.key("fig12_de_gb");
  write_case_study(json, analysis::peering_case_study(study, "DE", "GB"));
  json.key("fig13_jp_in");
  write_case_study(json, analysis::peering_case_study(study, "JP", "IN"));
  json.key("fig17_ua_gb");
  write_case_study(json, analysis::peering_case_study(study, "UA", "GB"));
  json.key("fig18_bh_in");
  write_case_study(json, analysis::peering_case_study(study, "BH", "IN"));

  json.key("fig15_protocols");
  json.begin_array();
  for (const auto& row : analysis::fig15_protocols(study)) {
    json.begin_object();
    json.field("continent", geo::to_code(row.continent));
    json.key("tcp");
    write_summary(json, row.tcp);
    json.key("icmp");
    write_summary(json, row.icmp);
    json.end_object();
  }
  json.end_array();

  const analysis::MethodologyStats stats = analysis::sec33_stats(study);
  json.key("sec33_methodology");
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

  json.end_object();
  out << '\n';
}

}  // namespace cloudrtt::core
