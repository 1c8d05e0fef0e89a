#include "fault/plan.hpp"

#include <algorithm>
#include <cmath>

namespace cloudrtt::fault {

std::optional<FaultProfile> profile_from_string(std::string_view text) {
  if (text == "none") return FaultProfile::None;
  if (text == "mild") return FaultProfile::Mild;
  if (text == "harsh") return FaultProfile::Harsh;
  return std::nullopt;
}

FaultIntensity FaultIntensity::for_profile(FaultProfile profile) {
  FaultIntensity intensity;
  switch (profile) {
    case FaultProfile::None:
      break;
    case FaultProfile::Mild:
      // The documented default chaos level: the fig4/fig10 shapes and >=80%
      // of the nominal budget must survive it (tests/fault_test.cpp).
      intensity.churn_factor = 0.90;
      intensity.mid_visit_drop = 0.02;
      intensity.api_outages_per_day = 0.30;
      intensity.task_failure_rate = 0.02;
      intensity.region_brownouts_per_day = 0.20;
      intensity.backbone_cuts_per_day = 0.15;
      intensity.trace_truncate_prob = 0.01;
      break;
    case FaultProfile::Harsh:
      intensity.churn_factor = 0.60;
      intensity.mid_visit_drop = 0.08;
      intensity.api_outages_per_day = 1.50;
      intensity.task_failure_rate = 0.10;
      intensity.region_brownouts_per_day = 1.00;
      intensity.backbone_cuts_per_day = 0.50;
      intensity.trace_truncate_prob = 0.05;
      break;
  }
  return intensity;
}

IoFaults IoFaults::for_profile(FaultProfile profile) {
  IoFaults faults;
  switch (profile) {
    case FaultProfile::None:
      break;
    case FaultProfile::Mild:
      // Occasional write hiccups: the store should ride through them with a
      // handful of retried blocks and no degraded episodes longer than a day.
      faults.append_error_rate = 0.02;
      faults.short_write_rate = 0.01;
      faults.fsync_failure_rate = 0.01;
      break;
    case FaultProfile::Harsh:
      // Roughly one in five block appends fails some way; the crash-loop CI
      // gate runs kill -9 on top of this and still demands bit-identity.
      faults.append_error_rate = 0.10;
      faults.short_write_rate = 0.05;
      faults.fsync_failure_rate = 0.05;
      break;
  }
  return faults;
}

double RetryPolicy::backoff_ms(std::size_t attempt, util::Rng& rng) const {
  const double exponent = attempt == 0 ? 0.0 : static_cast<double>(attempt - 1);
  const double nominal = base_backoff_ms * std::pow(2.0, exponent);
  return std::min(backoff_cap_ms, nominal) * rng.uniform(0.75, 1.25);
}

bool DayFaults::any() const {
  if (churn_factor != 1.0 || mid_visit_drop > 0.0 || task_failure_rate > 0.0 ||
      trace_faults.truncate_prob > 0.0 || trace_faults.loss_boost > 0.0) {
    return true;
  }
  if (!regions_down.empty() || !backbone_cuts.empty()) return true;
  return std::any_of(api_down.begin(), api_down.end(),
                     [](bool b) { return b; });
}

namespace {

/// Expected-count sampler: floor(x) events plus one more with P[frac(x)].
[[nodiscard]] std::size_t draw_count(double expected, util::Rng& rng) {
  const double clamped = std::max(0.0, expected);
  auto count = static_cast<std::size_t>(clamped);
  if (rng.chance(clamped - std::floor(clamped))) ++count;
  return count;
}

}  // namespace

FaultPlan::FaultPlan(const topology::World& world, std::uint32_t days,
                     const FaultIntensity& intensity, std::uint64_t seed)
    : intensity_(intensity) {
  // Submarine cables are the episode pool for backbone cuts: terrestrial
  // corridors have protection routes, cable cuts are the week-long events
  // the paper's kind of campaign actually loses paths to.
  std::vector<const topology::BackboneLinkRef*> cables;
  for (const topology::BackboneLinkRef& link : world.backbone().links()) {
    if (link.kind == topology::LinkKind::Submarine) cables.push_back(&link);
  }
  const std::size_t endpoint_count = world.endpoints().size();

  const util::Rng root{seed};
  days_.reserve(days);
  for (std::uint32_t d = 0; d < days; ++d) {
    util::Rng rng = root.fork(d);
    DayFaults day;
    day.churn_factor = intensity.churn_factor;
    day.mid_visit_drop = intensity.mid_visit_drop;
    day.task_failure_rate = intensity.task_failure_rate;

    const double slot_down_prob =
        std::min(1.0, intensity.api_outages_per_day / 6.0);
    for (std::size_t slot = 0; slot < day.api_down.size(); ++slot) {
      day.api_down[slot] = rng.chance(slot_down_prob);
    }

    if (endpoint_count > 0) {
      const std::size_t brownouts =
          draw_count(intensity.region_brownouts_per_day, rng);
      for (std::size_t i = 0; i < brownouts; ++i) {
        day.regions_down.push_back(
            static_cast<std::size_t>(rng.below(endpoint_count)));
      }
    }

    if (!cables.empty()) {
      const std::size_t cuts = draw_count(intensity.backbone_cuts_per_day, rng);
      for (std::size_t i = 0; i < cuts; ++i) {
        const topology::BackboneLinkRef& cable = *rng.pick(cables);
        day.backbone_cuts.emplace_back(cable.a, cable.b);
      }
    }

    day.trace_faults.truncate_prob =
        intensity.trace_truncate_prob * (day.backbone_cuts.empty() ? 1.0 : 2.0);
    day.trace_faults.loss_boost = day.backbone_cuts.empty() ? 0.0 : 0.03;
    days_.push_back(std::move(day));
  }
}

std::optional<FaultPlan> FaultPlan::make(const topology::World& world,
                                         std::uint32_t days,
                                         FaultProfile profile,
                                         std::uint64_t seed) {
  if (profile == FaultProfile::None) return std::nullopt;
  return FaultPlan{world, days, FaultIntensity::for_profile(profile), seed};
}

}  // namespace cloudrtt::fault
