#include <algorithm>
#include <span>
#include <unordered_map>
#include <vector>

#include "analysis/experiments.hpp"

namespace cloudrtt::analysis {

std::string_view to_string(LastMileCategory category) {
  switch (category) {
    case LastMileCategory::HomeUsrIsp: return "SC home (USR-ISP)";
    case LastMileCategory::Cell: return "SC cell";
    case LastMileCategory::HomeRtrIsp: return "SC home (RTR-ISP)";
    case LastMileCategory::Atlas: return "Atlas";
  }
  return "?";
}

namespace {

/// Each probe's nearest DC within its own continent (Fig. 19's filter).
using NearestOf =
    std::unordered_map<const probes::Probe*, const cloud::RegionInfo*>;

[[nodiscard]] NearestOf nearest_of(const NearestIndex& index) {
  NearestOf out;
  for (const probes::Probe* probe : index.probes()) {
    out.emplace(probe, index.nearest(probe, probe->country->continent));
  }
  return out;
}

/// Every last-mile value `dataset` contributes to Fig. 7 (or, given each
/// probe's nearest DC, to Fig. 19): `emit(category, continent, share_pct,
/// absolute_ms)` once per value pair, in trace order.
template <typename Emit>
void visit_lastmile(const PreparedDataset& dataset, bool is_atlas,
                    const NearestOf* nearest, Emit&& emit) {
  const measure::TraceColumn& traces = dataset.data().traces;
  const std::span<const TraceFacts> facts = dataset.trace_facts();
  for (std::size_t row = 0; row < traces.size(); ++row) {
    const measure::TraceRef trace = traces[row];
    if (!trace.completed || trace.end_to_end_ms <= 0.0) continue;
    const geo::Continent continent = trace.probe->country->continent;
    if (nearest != nullptr) {
      // Fig. 19: only traces towards the probe's nearest in-continent DC.
      const auto it = nearest->find(trace.probe);
      if (it == nearest->end() || it->second != trace.region) continue;
    }
    const LastMileObservation obs = facts[row].last_mile(trace);
    if (!obs.valid) continue;
    const double share =
        std::clamp(obs.usr_isp_ms / trace.end_to_end_ms * 100.0, 0.0, 100.0);

    if (is_atlas) {
      emit(LastMileCategory::Atlas, continent, share, obs.usr_isp_ms);
      continue;
    }
    if (obs.access == AccessClass::Home) {
      emit(LastMileCategory::HomeUsrIsp, continent, share, obs.usr_isp_ms);
      if (obs.rtr_isp_ms) {
        const double rtr_share = std::clamp(
            *obs.rtr_isp_ms / trace.end_to_end_ms * 100.0, 0.0, 100.0);
        emit(LastMileCategory::HomeRtrIsp, continent, rtr_share,
             *obs.rtr_isp_ms);
      }
    } else if (obs.access == AccessClass::Cell) {
      emit(LastMileCategory::Cell, continent, share, obs.usr_isp_ms);
    }
  }
}

constexpr std::size_t kMinCvSamples = 10;  ///< the paper's >=10-sample rule

}  // namespace

LastMileStats lastmile_stats(const PreparedStudy& study, bool nearest_only) {
  NearestOf sc_nearest;
  NearestOf atlas_nearest;
  if (nearest_only) {
    sc_nearest = nearest_of(study.sc().nearest());
    if (study.has_atlas()) atlas_nearest = nearest_of(study.atlas()->nearest());
  }
  const auto visit = [&](auto&& emit) {
    visit_lastmile(study.sc(), /*is_atlas=*/false,
                   nearest_only ? &sc_nearest : nullptr, emit);
    if (study.has_atlas()) {
      visit_lastmile(*study.atlas(), /*is_atlas=*/true,
                     nearest_only ? &atlas_nearest : nullptr, emit);
    }
  };
  // Two walks: count every bucket (each value also lands in Global), then
  // fill it, so each bucket is allocated once at its final size. These
  // buckets are the largest thing a report holds.
  std::array<std::array<std::size_t, geo::kContinentCount + 1>, 4> counts{};
  visit([&](LastMileCategory category, geo::Continent continent, double,
            double) {
    ++counts[static_cast<std::size_t>(category)][geo::index_of(continent)];
    ++counts[static_cast<std::size_t>(category)][kGlobalIndex];
  });
  LastMileStats stats;
  for (std::size_t c = 0; c < counts.size(); ++c) {
    for (std::size_t i = 0; i < counts[c].size(); ++i) {
      stats.share_pct[c][i].reserve(counts[c][i]);
      stats.absolute_ms[c][i].reserve(counts[c][i]);
    }
  }
  visit([&](LastMileCategory category, geo::Continent continent, double share,
            double absolute) {
    for (const std::size_t i : {geo::index_of(continent), kGlobalIndex}) {
      stats.share_pct[static_cast<std::size_t>(category)][i].push_back(share);
      stats.absolute_ms[static_cast<std::size_t>(category)][i].push_back(
          absolute);
    }
  });
  return stats;
}

// Figs. 8/9 read each probe's Cv over its valid last-mile samples, walking
// the probes in ascending id so the box-plot series come out in the same
// order on every run.
std::vector<CvGroup> fig8_cv_by_continent(const PreparedStudy& study) {
  std::vector<CvGroup> groups;
  for (const geo::Continent c : geo::kAllContinents) {
    groups.push_back(CvGroup{std::string{geo::to_code(c)}, {}, {}, true});
  }
  for (const ProbeTraceFacts& entry : study.sc().probes()) {
    if (entry.last_mile_samples < kMinCvSamples) continue;
    if (!entry.last_mile_cv) continue;
    CvGroup& group = groups[geo::index_of(entry.probe->country->continent)];
    (entry.home ? group.home : group.cell).push_back(*entry.last_mile_cv);
  }
  return groups;
}

std::vector<CvGroup> fig9_cv_by_country(const PreparedStudy& study) {
  static constexpr std::array<std::string_view, 10> kCountries{
      "ZA", "MA", "JP", "IR", "GB", "UA", "US", "MX", "BR", "AR"};
  constexpr std::size_t kMinProbesPerBox = 8;

  std::vector<CvGroup> groups;
  for (const std::string_view code : kCountries) {
    groups.push_back(CvGroup{std::string{code}, {}, {}, true});
  }
  for (const ProbeTraceFacts& entry : study.sc().probes()) {
    if (entry.last_mile_samples < kMinCvSamples) continue;
    const auto it = std::find(kCountries.begin(), kCountries.end(),
                              std::string_view{entry.probe->country->code});
    if (it == kCountries.end()) continue;
    if (!entry.last_mile_cv) continue;
    CvGroup& group = groups[static_cast<std::size_t>(it - kCountries.begin())];
    (entry.home ? group.home : group.cell).push_back(*entry.last_mile_cv);
  }
  // The paper excludes home boxes with insufficient samples (ZA & MA there).
  for (CvGroup& group : groups) {
    if (group.home.size() < kMinProbesPerBox) {
      group.home_sufficient = false;
      group.home.clear();
    }
  }
  return groups;
}

}  // namespace cloudrtt::analysis
