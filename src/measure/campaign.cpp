#include "measure/campaign.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "measure/executor.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/process.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "obs/trace_events.hpp"
#include "util/check.hpp"

namespace cloudrtt::measure {

namespace {

/// Nearest region of `provider` to `from` within `continent`; nullptr when
/// the provider has no region there (e.g. most providers in Africa).
[[nodiscard]] const topology::CloudEndpoint* nearest_endpoint(
    const topology::World& world, cloud::ProviderId provider,
    geo::Continent continent, const geo::GeoPoint& from) {
  const topology::CloudEndpoint* best = nullptr;
  double best_km = std::numeric_limits<double>::infinity();
  for (const topology::CloudEndpoint& endpoint : world.endpoints()) {
    if (endpoint.region->provider != provider) continue;
    if (endpoint.region->continent != continent) continue;
    const double km = geo::haversine_km(from, endpoint.region->location);
    if (km < best_km) {
      best_km = km;
      best = &endpoint;
    }
  }
  return best;
}

}  // namespace

Campaign::Campaign(const topology::World& world, const probes::ProbeFleet& fleet,
                   CampaignConfig config)
    : world_(world), fleet_(fleet), engine_(world), config_(config) {
  // Bucket probes by country once.
  std::unordered_map<std::string_view, std::vector<const probes::Probe*>> buckets;
  for (const probes::Probe& probe : fleet.probes()) {
    buckets[probe.country->code].push_back(&probe);
  }
  // The >=100-probes-per-country rule (§3.3) is about the real platform
  // fleet, so it is evaluated against the paper-scale deployment weight, not
  // against this run's (possibly scaled-down) realized probe count.
  for (const geo::CountryInfo& country : world.countries().all()) {
    auto it = buckets.find(country.code);
    if (it == buckets.end()) continue;
    const double paper_scale_weight =
        fleet.platform() == probes::Platform::Speedchecker ? country.sc_weight
                                                           : country.atlas_weight;
    if (paper_scale_weight < config_.paper_country_threshold) continue;
    plan_country(country, std::move(it->second));
  }
  // Interleave continents in the cycle so that even a tight daily budget
  // touches every region each day (the paper cycled per continent, §3.3).
  {
    std::array<std::vector<CountryPlan>, geo::kContinentCount> grouped;
    for (CountryPlan& plan : plans_) {
      const geo::Continent c =
          geo::CountryTable::instance().at(plan.code).continent;
      grouped[geo::index_of(c)].push_back(std::move(plan));
    }
    plans_.clear();
    countries_.clear();
    bool any = true;
    for (std::size_t round = 0; any; ++round) {
      any = false;
      for (auto& group : grouped) {
        if (round < group.size()) {
          countries_.push_back(group[round].code);
          plans_.push_back(std::move(group[round]));
          any = true;
        }
      }
    }
  }
  CLOUDRTT_CHECK(plans_.size() == countries_.size(),
                 "continent interleave lost a plan: ", plans_.size(),
                 " plans vs ", countries_.size(), " countries");
  if (config_.run_case_studies) {
    plan_case_study("DE", "GB");
    plan_case_study("UA", "GB");
    plan_case_study("JP", "IN");
    plan_case_study("BH", "IN");
  }
}

void Campaign::plan_country(const geo::CountryInfo& country,
                            std::vector<const probes::Probe*> country_probes) {
  CountryPlan plan;
  plan.code = country.code;
  plan.probes = std::move(country_probes);

  std::unordered_set<const topology::CloudEndpoint*> fixed;
  const auto add_nearest_per_provider = [&](geo::Continent continent) {
    for (const cloud::ProviderId provider : cloud::kAllProviders) {
      if (const topology::CloudEndpoint* e =
              nearest_endpoint(world_, provider, continent, country.centroid)) {
        if (fixed.insert(e).second) plan.fixed_targets.push_back(e);
      }
    }
  };
  add_nearest_per_provider(country.continent);
  // §4.3: probes in under-provisioned continents also target DCs in the
  // neighbouring, better-provisioned continents.
  if (country.continent == geo::Continent::Africa) {
    add_nearest_per_provider(geo::Continent::Europe);
    add_nearest_per_provider(geo::Continent::NorthAmerica);
  } else if (country.continent == geo::Continent::SouthAmerica) {
    add_nearest_per_provider(geo::Continent::NorthAmerica);
  }

  for (const topology::CloudEndpoint& endpoint : world_.endpoints()) {
    if (endpoint.region->continent == country.continent &&
        !fixed.contains(&endpoint)) {
      plan.extra_pool.push_back(&endpoint);
    }
  }
  countries_.push_back(plan.code);
  plans_.push_back(std::move(plan));
}

void Campaign::plan_case_study(std::string_view src, std::string_view dst) {
  CaseStudy study;
  study.src_country = src;
  for (const probes::Probe& probe : fleet_.probes()) {
    if (probe.country->code == src) study.probes.push_back(&probe);
  }
  for (const topology::CloudEndpoint& endpoint : world_.endpoints()) {
    if (endpoint.region->country == dst) study.targets.push_back(&endpoint);
  }
  if (!study.probes.empty() && !study.targets.empty()) {
    case_studies_.push_back(std::move(study));
  }
}

Dataset Campaign::run(util::Rng rng) const {
  return run(rng, CampaignState{}, RunHooks{});
}

Dataset Campaign::run(util::Rng rng, const CampaignState& start,
                      const RunHooks& hooks, Dataset dataset) const {
  CLOUDRTT_CHECK(start.next_day <= config_.days, "campaign resume day ",
                 start.next_day, " is past the configured ", config_.days,
                 " days (checkpoint from another configuration?)");
  obs::Span campaign_span = obs::span("measure.campaign.run");
  obs::Registry& registry = obs::Registry::global();
  obs::Counter& tasks_total = registry.counter("campaign.tasks_total");
  obs::Counter& budget_used_total = registry.counter("campaign.budget_used_total");
  obs::Counter& days_total = registry.counter("campaign.days_total");
  obs::Counter& countries_visited_total =
      registry.counter("campaign.countries_visited_total");
  obs::Counter& probes_connected_total =
      registry.counter("campaign.probes_connected_total");
  obs::Counter& case_study_tasks_total =
      registry.counter("campaign.case_study_tasks_total");
  obs::Counter& tasks_delivered_total =
      registry.counter("campaign.tasks_delivered_total");
  obs::Counter& empty_days_total = registry.counter("campaign.empty_days_total");
  // Fault-path telemetry (all zero on clean runs).
  obs::Counter& fault_degraded_days =
      registry.counter("campaign.fault.degraded_days_total");
  obs::Counter& fault_failures =
      registry.counter("campaign.fault.submission_failures_total");
  obs::Counter& fault_retries = registry.counter("campaign.fault.retries_total");
  obs::Counter& fault_exhausted =
      registry.counter("campaign.fault.retry_exhausted_total");
  obs::Counter& fault_country_aborts =
      registry.counter("campaign.fault.country_aborts_total");
  obs::Counter& fault_dropped_tasks =
      registry.counter("campaign.fault.dropped_tasks_total");
  obs::Counter& fault_brownout_skips =
      registry.counter("campaign.fault.brownout_skips_total");
  obs::Counter& fault_mid_visit_drops =
      registry.counter("campaign.fault.mid_visit_drops_total");
  obs::Counter& fault_outage_budget_lost =
      registry.counter("campaign.fault.outage_budget_lost_total");
  obs::Histogram& fault_backoff_ms =
      registry.histogram("campaign.fault.backoff_ms");
  // VmHWM in bytes; 0 where procfs is absent.
  obs::Gauge& peak_rss_gauge = registry.gauge("process.peak_rss_bytes");
  obs::Gauge& busy_fraction_gauge =
      registry.gauge("measure.worker_busy_fraction");
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  obs::Progress& progress = obs::Progress::global();
  progress.begin_campaign(to_string(fleet_.platform()),
                          config_.days - start.next_day);
  CLOUDRTT_LOG_DEBUG("campaign.start", {"days", config_.days},
                     {"daily_budget", config_.daily_budget},
                     {"countries", plans_.size()},
                     {"case_studies", case_studies_.size()},
                     {"start_day", start.next_day},
                     {"faults", hooks.faults != nullptr});

  // Codes in the columnar dataset resolve through this campaign's fleet
  // (resumed datasets re-bind; extras rows, if any, are untouched).
  dataset.bind(&fleet_, nullptr);

  // Reservation hints come from the schedule, not from AoS guesses: the
  // daily budget bounds a day's rows, and a run that drops its rows keeps
  // one executor batch resident at most. The executor adds each batch's
  // exact hop count at merge time; kHopsPerTaskHint pre-sizes the pool so
  // steady-state batches reallocate nothing.
  constexpr std::size_t kHopsPerTaskHint = 12;
  const std::size_t row_hint =
      hooks.drop_day_rows
          ? std::min(ParallelExecutor::kBatchTasks, config_.daily_budget)
          : (config_.days - start.next_day) * config_.daily_budget;
  dataset.reserve(dataset.pings.size() + row_hint,
                  dataset.traces.size() + row_hint);
  dataset.reserve_hops(row_hint * kHopsPerTaskHint);

  ParallelExecutor executor{config_.threads};
  std::vector<MeasurementTask> day_tasks;
  day_tasks.reserve(config_.daily_budget);

  // Restores the backbone when a cut day ends (exceptions included).
  struct OutageGuard {
    const topology::Backbone* backbone = nullptr;
    ~OutageGuard() {
      if (backbone != nullptr) backbone->clear_outages();
    }
  };

  std::size_t cursor = start.cursor;  // persists across days: a full cycle may
                                      // take several days when the budget is
                                      // tight (§3.3)
  for (std::uint32_t day = start.next_day; day < config_.days; ++day) {
    obs::Span day_span = obs::span("day");
    std::size_t day_connected = 0;
    std::size_t day_countries = 0;
    std::size_t day_case_tasks = 0;
    std::size_t day_delivered = 0;
    std::size_t budget = config_.daily_budget;
    // The cursor value the day *started* with: persisted with every spilled
    // block so a mid-day salvage can replay the day's schedule phase.
    const std::size_t day_start_cursor = cursor;
    util::Rng day_rng = rng.fork(day);

    // Today's fault episode, if any. Fault decisions draw from a forked
    // stream so the measurement stream stays aligned with a clean run for
    // every fault class that doesn't intentionally perturb scheduling.
    const fault::DayFaults* faults = nullptr;
    if (hooks.faults != nullptr && day < hooks.faults->days() &&
        hooks.faults->day(day).any()) {
      faults = &hooks.faults->day(day);
      fault_degraded_days.inc();
    }
    util::Rng fault_rng = day_rng.fork("faults");
    const double churn = faults != nullptr ? faults->churn_factor : 1.0;
    const fault::TraceFaults* trace_faults =
        faults != nullptr && (faults->trace_faults.truncate_prob > 0.0 ||
                              faults->trace_faults.loss_boost > 0.0)
            ? &faults->trace_faults
            : nullptr;
    OutageGuard outage_guard;
    if (faults != nullptr && !faults->backbone_cuts.empty()) {
      world_.backbone().set_outages(faults->backbone_cuts);
      outage_guard.backbone = &world_.backbone();
    }

    const auto slot_now = [&] {
      // The daily budget drains across the six 4-hour scheduling slots of
      // §3.3; the slot index doubles as the measurement's time of day.
      const std::size_t spent = config_.daily_budget - budget;
      return static_cast<std::uint8_t>(
          std::min<std::size_t>(5, spent * 6 / std::max<std::size_t>(
                                                  1, config_.daily_budget)));
    };

    // Outcome of one task submission. Ok = measured; Dropped = this task is
    // lost but the visit continues; CountryAbort = give up on the country and
    // reallocate its remaining share to the next one (graceful degradation).
    enum class TaskOutcome : unsigned char { Ok, Dropped, CountryAbort };

    // Schedule one task: every shared-state decision (budget, fault retries,
    // slot assignment) happens here, sequentially; the measurement itself is
    // deferred to the execute phase below.
    const auto run_task = [&](const probes::Probe& probe,
                              const topology::CloudEndpoint& endpoint)
        -> TaskOutcome {
      std::uint8_t slot = slot_now();
      if (faults != nullptr) {
        const auto endpoint_index = static_cast<std::size_t>(
            &endpoint - world_.endpoints().data());
        if (faults->region_is_down(endpoint_index)) {
          // Brownout: the target VM is unreachable; nothing is submitted.
          fault_brownout_skips.inc();
          return TaskOutcome::Dropped;
        }
        // Submission loop: the quota meters API calls, so every attempt —
        // accepted or rejected — burns one budget unit.
        const fault::RetryPolicy& retry = hooks.faults->retry();
        for (std::size_t attempt = 1;; ++attempt) {
          if (budget == 0) return TaskOutcome::Dropped;  // day quota gone
          slot = slot_now();
          --budget;
          const bool outage = faults->api_down_in_slot(slot);
          if (!outage && !fault_rng.chance(faults->task_failure_rate)) break;
          fault_failures.inc();
          if (attempt >= retry.max_attempts) {
            fault_exhausted.inc();
            if (outage) {
              // The API is down for the whole 4-hour slot: waiting out the
              // outage forfeits the slot's share of the daily quota.
              const std::uint8_t down_slot = slot;
              std::size_t lost = 0;
              while (budget > 0 && slot_now() == down_slot) {
                --budget;
                ++lost;
              }
              fault_outage_budget_lost.inc(lost);
              fault_dropped_tasks.inc();
              return TaskOutcome::Dropped;
            }
            return TaskOutcome::CountryAbort;
          }
          fault_retries.inc();
          fault_backoff_ms.record(retry.backoff_ms(attempt, fault_rng));
        }
      } else {
        --budget;
      }
      day_tasks.push_back(
          MeasurementTask{&probe, &endpoint, day, slot, trace_faults});
      ++day_delivered;
      return TaskOutcome::Ok;
    };

    // Schedule phase: sequential, owns all shared state. Focused case-study
    // measurements first (they are small and §6.2's statistics need them
    // every day).
    obs::Span schedule_span = obs::span("schedule");
    for (const CaseStudy& study : case_studies_) {
      std::vector<const probes::Probe*> connected;
      for (const probes::Probe* probe : study.probes) {
        if (probes::ProbeFleet::connected_now(*probe, day_rng, churn)) {
          connected.push_back(probe);
        }
      }
      day_connected += connected.size();
      std::shuffle(connected.begin(), connected.end(), day_rng);
      const std::size_t take =
          std::min(config_.case_study_probes, connected.size());
      bool aborted = false;
      for (std::size_t i = 0; i < take && budget > 0 && !aborted; ++i) {
        for (const topology::CloudEndpoint* endpoint : study.targets) {
          if (budget == 0) break;
          const TaskOutcome outcome = run_task(*connected[i], *endpoint);
          if (outcome == TaskOutcome::CountryAbort) {
            fault_country_aborts.inc();
            aborted = true;
            break;
          }
          if (outcome == TaskOutcome::Ok) ++day_case_tasks;
        }
      }
    }

    // Country cycle.
    for (std::size_t visited = 0; visited < plans_.size() && budget > 0;
         ++visited) {
      const CountryPlan& plan = plans_[(cursor + visited) % plans_.size()];
      std::vector<const probes::Probe*> connected;
      for (const probes::Probe* probe : plan.probes) {
        if (probes::ProbeFleet::connected_now(*probe, day_rng, churn)) {
          connected.push_back(probe);
        }
      }
      if (connected.empty()) continue;
      day_connected += connected.size();
      ++day_countries;
      std::shuffle(connected.begin(), connected.end(), day_rng);
      const geo::Continent continent =
          connected.front()->country->continent;
      const std::size_t want =
          config_.visit_probes_by_continent[geo::index_of(continent)] +
          connected.size() / 2;
      const std::size_t take =
          std::min({want, config_.visit_probes_cap, connected.size()});
      bool aborted = false;
      for (std::size_t i = 0; i < take && budget > 0 && !aborted; ++i) {
        const probes::Probe& probe = *connected[i];
        // Churn episodes knock selected probes offline mid-visit: the probe
        // completes a random prefix of its target list, then vanishes.
        std::size_t allowed = std::numeric_limits<std::size_t>::max();
        if (faults != nullptr && faults->mid_visit_drop > 0.0 &&
            fault_rng.chance(faults->mid_visit_drop)) {
          const std::size_t total_targets =
              plan.fixed_targets.size() + config_.extra_targets;
          allowed = total_targets > 0 ? fault_rng.below(total_targets) : 0;
          fault_mid_visit_drops.inc();
        }
        std::size_t done = 0;
        for (const topology::CloudEndpoint* endpoint : plan.fixed_targets) {
          if (budget == 0 || done >= allowed) break;
          const TaskOutcome outcome = run_task(probe, *endpoint);
          if (outcome == TaskOutcome::CountryAbort) {
            fault_country_aborts.inc();
            aborted = true;
            break;
          }
          ++done;
        }
        for (std::size_t extra = 0;
             !aborted && extra < config_.extra_targets &&
             !plan.extra_pool.empty() && budget > 0 && done < allowed;
             ++extra) {
          const TaskOutcome outcome =
              run_task(probe, *day_rng.pick(plan.extra_pool));
          if (outcome == TaskOutcome::CountryAbort) {
            fault_country_aborts.inc();
            aborted = true;
            break;
          }
          ++done;
        }
      }
      if (budget == 0) {
        cursor = (cursor + visited + 1) % plans_.size();
        break;
      }
    }

    schedule_span.end();

    // Execute phase: runs inside the day scope so backbone outages are still
    // in force for today's measurements. The "exec" fork happens after the
    // schedule pass, when day_rng's state is a deterministic function of
    // (base rng, day) alone — never of thread timing.
    {
      obs::Span exec_span = obs::span("execute");
      // On a mid-day resume the schedule phase above replayed the whole day
      // (its draws are what keep cursor/budget evolution identical); the
      // already-persisted prefix is skipped here, at execution time.
      const std::size_t skip =
          day == start.next_day ? start.day_tasks_done : 0;
      CLOUDRTT_CHECK(skip <= day_tasks.size(), "resume says ", skip,
                     " tasks of day ", day, " are done but the schedule ",
                     "produced only ", day_tasks.size(),
                     " (checkpoint from another configuration?)");
      // Each merged batch goes to the hook as soon as it lands and, when
      // the run drops its rows, leaves RAM right after.
      const auto hand_on = [&](std::size_t first_task, std::size_t ping_begin,
                               std::size_t trace_begin) {
        if (hooks.day_rows) {
          hooks.day_rows(day, day_start_cursor,
                         static_cast<std::uint32_t>(first_task), dataset,
                         ping_begin, trace_begin);
        }
        if (hooks.drop_day_rows) dataset.clear_rows();
      };
      const util::Rng exec_rng = day_rng.fork("exec");
      executor.execute(engine_, day_tasks, exec_rng, dataset, skip, hand_on);
      // A day with nothing left to run still reaches the hook once, with
      // no rows, so a store closes every day it is told about.
      if (skip == day_tasks.size()) {
        hand_on(skip, dataset.pings.size(), dataset.traces.size());
      }
      day_tasks.clear();
    }

    const std::size_t used = config_.daily_budget - budget;
    tasks_total.inc(used);
    budget_used_total.inc(used);
    days_total.inc();
    countries_visited_total.inc(day_countries);
    probes_connected_total.inc(day_connected);
    case_study_tasks_total.inc(day_case_tasks);
    tasks_delivered_total.inc(day_delivered);
    if (day_delivered == 0) {
      empty_days_total.inc();
      CLOUDRTT_LOG_WARN("campaign.empty_day", {"day", day},
                        {"daily_budget", config_.daily_budget},
                        {"connected_probes", day_connected});
    }
    CLOUDRTT_LOG_INFO("campaign.day", {"day", day}, {"tasks", used},
                      {"delivered", day_delivered},
                      {"budget_left", budget},
                      {"connected_probes", day_connected},
                      {"countries_visited", day_countries},
                      {"degraded", faults != nullptr});
    peak_rss_gauge.set(static_cast<double>(obs::peak_rss_bytes()));
    if (recorder.enabled()) {
      recorder.record_counter(
          "rss_mb", static_cast<double>(obs::current_rss_bytes()) / 1e6);
      recorder.record_counter("tasks_delivered",
                              static_cast<double>(day_delivered));
    }
    progress.day_completed(day + 1 - start.next_day,
                           config_.days - start.next_day, day_delivered,
                           busy_fraction_gauge.value());

    if (hooks.after_day &&
        !hooks.after_day(CampaignState{day + 1, cursor}, dataset)) {
      break;
    }
  }
  return dataset;
}

}  // namespace cloudrtt::measure
