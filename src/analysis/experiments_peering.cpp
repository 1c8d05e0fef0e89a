#include <algorithm>
#include <span>
#include <unordered_map>

#include "analysis/experiments.hpp"

namespace cloudrtt::analysis {

namespace {

/// The peering figures fold Lightsail into Amazon (one interconnection
/// fabric, one WAN).
[[nodiscard]] cloud::ProviderId merge_lightsail(cloud::ProviderId id) {
  return id == cloud::ProviderId::Lightsail ? cloud::ProviderId::Amazon : id;
}

/// Column index in the figures' provider order; 9 = not shown.
[[nodiscard]] std::size_t figure_column(cloud::ProviderId id) {
  const cloud::ProviderId merged = merge_lightsail(id);
  for (std::size_t i = 0; i < cloud::kPeeringFigureProviders.size(); ++i) {
    if (cloud::kPeeringFigureProviders[i] == merged) return i;
  }
  return cloud::kPeeringFigureProviders.size();
}

struct ModeCounts {
  std::array<std::size_t, 4> counts{};  // Direct, DirectIxp, OneAs, Public
  std::size_t total = 0;

  void add(topology::InterconnectMode mode) {
    ++counts[static_cast<std::size_t>(mode)];
    ++total;
  }
  [[nodiscard]] topology::InterconnectMode majority() const {
    std::size_t best = 0;
    for (std::size_t i = 1; i < counts.size(); ++i) {
      if (counts[i] > counts[best]) best = i;
    }
    return static_cast<topology::InterconnectMode>(best);
  }
  [[nodiscard]] double majority_pct() const {
    if (total == 0) return 0.0;
    return static_cast<double>(counts[static_cast<std::size_t>(majority())]) /
           static_cast<double>(total) * 100.0;
  }
};

}  // namespace

std::vector<InterconnectShareRow> fig10_interconnect_share(
    const PreparedStudy& study) {
  const measure::TraceColumn& traces = study.sc().data().traces;
  const std::span<const TraceFacts> facts = study.sc().trace_facts();
  std::array<ModeCounts, cloud::kPeeringFigureProviders.size()> counts;
  for (std::size_t row = 0; row < traces.size(); ++row) {
    if (!facts[row].interconnect_valid) continue;
    const std::size_t column = figure_column(traces[row].region->provider);
    if (column >= counts.size()) continue;
    counts[column].add(facts[row].mode);
  }
  std::vector<InterconnectShareRow> rows;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const ModeCounts& c = counts[i];
    InterconnectShareRow row;
    row.ticker = cloud::provider_info(cloud::kPeeringFigureProviders[i]).ticker;
    row.paths = c.total;
    if (c.total > 0) {
      const double total = static_cast<double>(c.total);
      // Fig. 10 folds IXP-crossing direct peering into "direct": IXPs were
      // removed from the AS-level topology.
      row.direct_pct =
          static_cast<double>(
              c.counts[static_cast<std::size_t>(topology::InterconnectMode::Direct)] +
              c.counts[static_cast<std::size_t>(
                  topology::InterconnectMode::DirectIxp)]) /
          total * 100.0;
      row.one_as_pct =
          static_cast<double>(
              c.counts[static_cast<std::size_t>(topology::InterconnectMode::OneAs)]) /
          total * 100.0;
      row.multi_as_pct =
          static_cast<double>(
              c.counts[static_cast<std::size_t>(topology::InterconnectMode::Public)]) /
          total * 100.0;
    }
    rows.push_back(row);
  }
  return rows;
}

std::vector<PervasivenessRow> fig11_pervasiveness(const PreparedStudy& study) {
  const measure::TraceColumn& traces = study.sc().data().traces;
  const std::span<const TraceFacts> facts = study.sc().trace_facts();
  std::array<std::array<std::vector<double>, geo::kContinentCount>,
             cloud::kPeeringFigureProviders.size()>
      values;
  for (std::size_t row = 0; row < traces.size(); ++row) {
    const auto ratio = facts[row].pervasiveness();
    if (!ratio) continue;
    const measure::TraceRef trace = traces[row];
    const std::size_t column = figure_column(trace.region->provider);
    if (column >= values.size()) continue;
    values[column][geo::index_of(trace.probe->country->continent)].push_back(
        *ratio);
  }
  std::vector<PervasivenessRow> rows;
  for (std::size_t i = 0; i < values.size(); ++i) {
    PervasivenessRow row;
    row.ticker = cloud::provider_info(cloud::kPeeringFigureProviders[i]).ticker;
    for (std::size_t c = 0; c < geo::kContinentCount; ++c) {
      if (values[i][c].size() >= 5) {
        row.median_by_continent[c] = util::median(std::move(values[i][c]));
      }
    }
    rows.push_back(row);
  }
  return rows;
}

PeeringCaseStudy peering_case_study(const PreparedStudy& prepared,
                                    std::string_view src_country,
                                    std::string_view dst_country,
                                    std::size_t min_cell_paths) {
  PeeringCaseStudy study;
  study.src_country = src_country;
  study.dst_country = dst_country;

  const auto named = topology::named_isps_in(src_country);
  std::unordered_map<topology::Asn, std::size_t> isp_row;
  for (const topology::NamedIsp* isp : named) {
    PeeringMatrixRow row;
    row.isp_label =
        std::string{isp->name} + " (AS " + std::to_string(isp->asn) + ")";
    row.asn = isp->asn;
    isp_row.emplace(isp->asn, study.matrix.size());
    study.matrix.push_back(std::move(row));
  }

  // Tally modes and latencies per <ISP, provider>.
  std::vector<std::array<ModeCounts, 9>> cell_counts(study.matrix.size());
  std::array<std::vector<double>, 9> direct_latency;
  std::array<std::vector<double>, 9> intermediate_latency;

  const measure::TraceColumn& traces = prepared.sc().data().traces;
  const std::span<const TraceFacts> facts = prepared.sc().trace_facts();
  for (std::size_t row = 0; row < traces.size(); ++row) {
    const measure::TraceRef trace = traces[row];
    if (trace.probe->country->code != src_country) continue;
    if (trace.region->country != dst_country) continue;
    if (!facts[row].interconnect_valid) continue;
    const topology::InterconnectMode mode = facts[row].mode;
    const std::size_t column = figure_column(trace.region->provider);
    if (column >= 9) continue;
    const auto row_it = isp_row.find(trace.probe->isp->asn);
    if (row_it != isp_row.end()) {
      cell_counts[row_it->second][column].add(mode);
    }
    if (trace.completed) {
      const bool direct = mode == topology::InterconnectMode::Direct ||
                          mode == topology::InterconnectMode::DirectIxp;
      (direct ? direct_latency : intermediate_latency)[column].push_back(
          trace.end_to_end_ms);
    }
  }

  for (std::size_t r = 0; r < study.matrix.size(); ++r) {
    for (std::size_t c = 0; c < 9; ++c) {
      const ModeCounts& counts = cell_counts[r][c];
      PeeringMatrixCell& cell = study.matrix[r].cells[c];
      cell.paths = counts.total;
      if (counts.total >= min_cell_paths) {
        cell.has_data = true;
        cell.majority = counts.majority();
        cell.majority_pct = counts.majority_pct();
      }
    }
  }
  for (std::size_t c = 0; c < 9; ++c) {
    PeeringLatencyRow row;
    row.ticker = cloud::provider_info(cloud::kPeeringFigureProviders[c]).ticker;
    row.valid = direct_latency[c].size() >= min_cell_paths &&
                intermediate_latency[c].size() >= min_cell_paths;
    row.direct = util::summarize(std::move(direct_latency[c]));
    row.intermediate = util::summarize(std::move(intermediate_latency[c]));
    study.latency.push_back(std::move(row));
  }
  return study;
}

}  // namespace cloudrtt::analysis
