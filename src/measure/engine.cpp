#include "measure/engine.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace cloudrtt::measure {

namespace {

/// Metric references resolved once per process, for EngineTally::fold.
struct EngineMetrics {
  obs::Counter& pings;
  obs::Counter& traceroutes;
  obs::Counter& traceroutes_completed;
  obs::Counter& unresponsive_hops;
  obs::Counter& firewall_drops;
  obs::Counter& rate_limited_hops;
  obs::Counter& ecmp_detours;
  obs::Counter& icmp_penalties;
  obs::Counter& spikes;
  obs::Histogram& ping_rtt_ms;
  obs::Counter& fault_truncations;
  obs::Counter& fault_lost_hops;

  static EngineMetrics& instance() {
    obs::Registry& r = obs::Registry::global();
    // lint:allow(local-static): atomic-counter references; thread-safe init
    static EngineMetrics metrics{
        r.counter("engine.pings_total"),
        r.counter("engine.traceroutes_total"),
        r.counter("engine.traceroutes_completed_total"),
        r.counter("engine.traceroute.unresponsive_hops"),
        r.counter("engine.traceroute.firewall_drops"),
        r.counter("engine.traceroute.rate_limited_hops"),
        r.counter("engine.traceroute.ecmp_detours"),
        r.counter("engine.icmp_penalties_total"),
        r.counter("engine.congestion_spikes_total"),
        r.histogram("engine.ping.rtt_ms"),
        r.counter("engine.fault.truncated_traces_total"),
        r.counter("engine.fault.lost_hops_total"),
    };
    return metrics;
  }
};

[[nodiscard]] topology::InterconnectMode roll(
    const topology::PairPolicy& policy, util::Rng& rng) {
  return rng.chance(policy.adherence) ? policy.base : policy.fallback;
}

/// Probability that a router answers TTL-expired probes, by role.
[[nodiscard]] double respond_probability(const routing::RouterHop& hop,
                                         bool is_final) {
  if (is_final) return 1.0;  // final-echo handling is separate
  if (hop.is_private) return 0.95;
  if (hop.cloud_owned) return 0.88;  // clouds filter some WAN internals
  return 0.90;
}

/// Add `count` to `counter` unless it is zero.
void add(obs::Counter& counter, std::uint64_t count) {
  if (count != 0) counter.inc(count);
}

}  // namespace

void EngineTally::fold() const {
  EngineMetrics& metrics = EngineMetrics::instance();
  add(metrics.pings, pings);
  add(metrics.traceroutes, traceroutes);
  add(metrics.traceroutes_completed, traceroutes_completed);
  add(metrics.unresponsive_hops, unresponsive_hops);
  add(metrics.firewall_drops, firewall_drops);
  add(metrics.rate_limited_hops, rate_limited_hops);
  add(metrics.ecmp_detours, ecmp_detours);
  add(metrics.icmp_penalties, icmp_penalties);
  add(metrics.spikes, spikes);
  add(metrics.fault_truncations, fault_truncations);
  add(metrics.fault_lost_hops, fault_lost_hops);
  metrics.ping_rtt_ms.merge(ping_rtt_ms);
}

topology::InterconnectMode Engine::roll_mode(const probes::Probe& probe,
                                             const cloud::RegionInfo& region,
                                             util::Rng& rng) const {
  return roll(
      world_.interconnect(*probe.isp, region.provider, region.continent),
      rng);
}

double Engine::diurnal_factor(const probes::Probe& probe, std::uint8_t slot) {
  // Slot s covers local hours [4s, 4s+4) at UTC; shift by the probe's
  // longitude to get local time, and peak around 20:00 local (evening
  // residential load). Weak backhauls congest the hardest.
  const double utc_hour = 4.0 * static_cast<double>(slot % 6) + 2.0;
  double local_hour = utc_hour + probe.location.lon_deg / 15.0;
  while (local_hour < 0.0) local_hour += 24.0;
  while (local_hour >= 24.0) local_hour -= 24.0;
  double distance = std::abs(local_hour - 20.0);
  distance = std::min(distance, 24.0 - distance);  // circular
  const double peak = std::exp(-(distance * distance) / (2.0 * 2.5 * 2.5));
  const double amplitude =
      0.04 + 0.18 * (1.0 - probe.country->backhaul_quality);
  return 1.0 + amplitude * peak;
}

// lint:hot
Engine::PathDraw Engine::draw_path(const probes::Probe& probe,
                                   const routing::ForwardingPath& path,
                                   util::Rng& rng, std::uint8_t slot,
                                   EngineTally& tally) const {
  PathDraw draw{path, lastmile::draw(probe.lastmile, rng)};
  const double base = path.base_rtt_ms();
  const double sigma_rel =
      base > 0.5 ? std::min(0.6, path.noise_abs_ms() / base) : 0.05;
  draw.congestion =
      std::exp(rng.normal(0.0, sigma_rel)) * diurnal_factor(probe, slot);
  // Transient congestion events hit noisier paths more often and harder.
  const double spike_prob = 0.02 + 0.10 * sigma_rel;
  if (rng.chance(spike_prob)) {
    draw.spike_ms = rng.exponential(5.0 + 3.0 * path.noise_abs_ms());
    ++tally.spikes;
  }
  return draw;
}

double Engine::icmp_penalty_ms(const probes::Probe& probe, util::Rng& rng,
                               EngineTally& tally) const {
  // Middleboxes/load balancers deprioritise or reroute ICMP (§A.2); the
  // effect is strongest where the backhaul is poor, which is what makes the
  // Fig. 15 TCP/ICMP gap largest in Africa.
  const double quality = probe.country->backhaul_quality;
  const double prob = 0.08 + 0.30 * (1.0 - quality);
  if (!rng.chance(prob)) return 0.0;
  ++tally.icmp_penalties;
  return rng.exponential(3.0 + 16.0 * (1.0 - quality));
}

// lint:hot
PingRecord Engine::ping(const probes::Probe& probe,
                        const topology::CloudEndpoint& endpoint,
                        Protocol protocol, std::uint32_t day,
                        util::Rng& rng, std::uint8_t slot,
                        MeasurementScratch* scratch) const {
  routing::ForwardingPath local;
  routing::ForwardingPath& path = scratch != nullptr ? scratch->path : local;
  builder_.build_into(probe, endpoint, roll_mode(probe, *endpoint.region, rng),
                      path);
  EngineTally tally;
  const PingRecord record =
      ping_over(path, probe, endpoint, protocol, day, rng, slot, tally);
  tally.fold();
  return record;
}

// lint:hot
PingRecord Engine::ping_over(const routing::ForwardingPath& path,
                             const probes::Probe& probe,
                             const topology::CloudEndpoint& endpoint,
                             Protocol protocol, std::uint32_t day,
                             util::Rng& rng, std::uint8_t slot,
                             EngineTally& tally) const {
  const PathDraw draw = draw_path(probe, path, rng, slot, tally);
  PingRecord record;
  record.probe = &probe;
  record.region = endpoint.region;
  record.protocol = protocol;
  record.day = day;
  record.slot = slot;
  record.rtt_ms = draw.last_mile.total_ms() +
                  draw.path.base_rtt_ms() * draw.congestion + draw.spike_ms +
                  0.3;
  if (protocol == Protocol::Icmp) {
    record.rtt_ms += icmp_penalty_ms(probe, rng, tally);
  }
  ++tally.pings;
  tally.ping_rtt_ms.record(record.rtt_ms);
  return record;
}

// lint:hot
TaskRecords Engine::run_task(const MeasurementTask& task, util::Rng& rng,
                             MeasurementScratch& scratch,
                             EngineTally& tally) const {
  const probes::Probe& probe = *task.probe;
  const topology::CloudEndpoint& endpoint = *task.endpoint;
  const cloud::RegionInfo& region = *endpoint.region;
  const topology::PairPolicy& policy =
      world_.interconnect(*probe.isp, region.provider, region.continent);
  const topology::InterconnectMode ping_mode = roll(policy, rng);
  builder_.build_into(probe, endpoint, ping_mode, scratch.path);
  TaskRecords records;
  records.ping = ping_over(scratch.path, probe, endpoint, Protocol::Tcp,
                           task.day, rng, task.slot, tally);
  // A build reads only (probe, endpoint, mode) and the backbone outages,
  // which only the sequential schedule phase changes: a traceroute that
  // rolls the ping's mode would rebuild the very same path.
  if (const topology::InterconnectMode trace_mode = roll(policy, rng);
      trace_mode != ping_mode) {
    builder_.build_into(probe, endpoint, trace_mode, scratch.path);
  }
  records.trace = trace_over(scratch.path, probe, endpoint, task.day, rng,
                             scratch.hops, TraceMethod::Classic, task.slot,
                             task.trace_faults, tally);
  return records;
}

double Engine::interdc_rtt(const topology::CloudEndpoint& src,
                           const topology::CloudEndpoint& dst,
                           util::Rng& rng) const {
  const routing::ForwardingPath path = builder_.build_interdc(src, dst);
  const double base = path.base_rtt_ms();
  const double sigma_rel =
      base > 0.5 ? std::min(0.6, path.noise_abs_ms() / base) : 0.05;
  double rtt = base * std::exp(rng.normal(0.0, sigma_rel)) + 0.2;
  if (rng.chance(0.02 + 0.10 * sigma_rel)) {
    rtt += rng.exponential(5.0 + 3.0 * path.noise_abs_ms());
  }
  return rtt;
}

TraceRecord Engine::traceroute(const probes::Probe& probe,
                               const topology::CloudEndpoint& endpoint,
                               std::uint32_t day, util::Rng& rng,
                               TraceMethod method, std::uint8_t slot,
                               const fault::TraceFaults* faults,
                               MeasurementScratch* scratch) const {
  TraceRecord record;
  const TraceCore core = traceroute_into(probe, endpoint, day, rng,
                                         record.hops, method, slot, faults,
                                         scratch);
  record.probe = core.probe;
  record.region = core.region;
  record.target_ip = core.target_ip;
  record.completed = core.completed;
  record.end_to_end_ms = core.end_to_end_ms;
  record.day = core.day;
  record.slot = core.slot;
  record.true_mode = core.true_mode;
  return record;
}

// lint:hot
TraceCore Engine::traceroute_into(const probes::Probe& probe,
                                  const topology::CloudEndpoint& endpoint,
                                  std::uint32_t day, util::Rng& rng,
                                  std::vector<HopRecord>& hops_out,
                                  TraceMethod method, std::uint8_t slot,
                                  const fault::TraceFaults* faults,
                                  MeasurementScratch* scratch) const {
  routing::ForwardingPath local;
  routing::ForwardingPath& path = scratch != nullptr ? scratch->path : local;
  builder_.build_into(probe, endpoint, roll_mode(probe, *endpoint.region, rng),
                      path);
  EngineTally tally;
  const TraceCore record = trace_over(path, probe, endpoint, day, rng,
                                      hops_out, method, slot, faults, tally);
  tally.fold();
  return record;
}

// lint:hot
TraceCore Engine::trace_over(const routing::ForwardingPath& path,
                             const probes::Probe& probe,
                             const topology::CloudEndpoint& endpoint,
                             std::uint32_t day, util::Rng& rng,
                             std::vector<HopRecord>& hops_out,
                             TraceMethod method, std::uint8_t slot,
                             const fault::TraceFaults* faults,
                             EngineTally& tally) const {
  ++tally.traceroutes;
  const PathDraw draw = draw_path(probe, path, rng, slot, tally);
  TraceCore record;
  record.probe = &probe;
  record.region = endpoint.region;
  record.target_ip = endpoint.vm_ip;
  record.day = day;
  record.slot = slot;
  record.true_mode = draw.path.mode;
  // hops_out is a batch-long arena: grow it geometrically or not at all. An
  // exact `size + hops` reserve here would reallocate (and copy the whole
  // arena) every few tasks once size reaches capacity — O(batch²) in
  // disguise.
  if (const std::size_t want = hops_out.size() + draw.path.hops.size();
      want > hops_out.capacity()) {
    hops_out.reserve(
        std::max(want, hops_out.capacity() + hops_out.capacity() / 2));
  }

  const bool home = probe.access == lastmile::AccessTech::HomeWifi;
  const std::size_t hop_count = draw.path.hops.size();
  // Fault episodes can sever the path mid-trace (the probe loses its route
  // before the DC) and boost per-hop loss; the null-faults path stays free
  // of extra RNG draws so fault-free campaigns replay bit-identically.
  std::size_t hop_limit = hop_count;
  double loss_boost = 0.0;
  if (faults != nullptr) {
    loss_boost = faults->loss_boost;
    if (faults->truncate_prob > 0.0 && hop_count > 1 &&
        rng.chance(faults->truncate_prob)) {
      hop_limit = 1 + static_cast<std::size_t>(rng.below(hop_count - 1));
      ++tally.fault_truncations;
    }
  }
  CLOUDRTT_DCHECK(hop_limit > 0 && hop_limit <= hop_count,
                  "traceroute hop_limit ", hop_limit, " outside path of ",
                  hop_count, " hops");
  // Counted in locals, which stay in registers across the hop pushes.
  std::uint64_t lost_hops = 0;
  std::uint64_t unresponsive_hops = 0;
  std::uint64_t rate_limited_hops = 0;
  std::uint64_t ecmp_detours = 0;
  for (std::size_t i = 0; i < hop_limit; ++i) {
    const routing::RouterHop& hop = draw.path.hops[i];
    const bool is_final = i + 1 == hop_count;
    HopRecord out;
    out.ttl = static_cast<std::uint8_t>(i + 1);
    out.responded = rng.chance(respond_probability(hop, is_final));
    if (!is_final && out.responded && loss_boost > 0.0 &&
        rng.chance(loss_boost)) {
      out.responded = false;
      ++lost_hops;
    }
    if (is_final) {
      // Cloud perimeter firewalls occasionally drop the final ICMP echo.
      out.responded = !rng.chance(0.07);
      if (!out.responded) ++tally.firewall_drops;
    } else if (!out.responded) {
      ++unresponsive_hops;
    }
    if (out.responded) {
      // The first hop of a home path sits before the wired tail: only the
      // WiFi air segment applies. Every later hop carries the full
      // last-mile.
      const double lm =
          (home && i == 0) ? draw.last_mile.air_ms : draw.last_mile.total_ms();
      double rtt = lm + hop.base_rtt_ms * draw.congestion + draw.spike_ms;
      // Per-TTL probes see independent small noise plus reply-path
      // processing on the router's slow path.
      rtt *= std::exp(rng.normal(0.0, 0.03));
      rtt += rng.exponential(0.4);
      if (!is_final && rng.chance(0.05)) {
        rtt += rng.exponential(14.0);  // control-plane rate limiting (§3.3)
        ++rate_limited_hops;
      }
      out.ip = hop.ip;
      // Classic traceroute varies the flow identifier per TTL, so ECMP
      // segments answer from either sibling interface — and the sibling's
      // path detours slightly (the latency-inflation artefact Paris
      // traceroute eliminates).
      if (method == TraceMethod::Classic && hop.has_alt() && rng.chance(0.35)) {
        out.ip = hop.alt_ip;
        rtt += rng.exponential(2.5);
        if (rng.chance(0.08)) rtt += rng.exponential(9.0);
        ++ecmp_detours;
      }
      out.rtt_ms = std::max(0.1, rtt);
    }
    hops_out.push_back(out);
    if (is_final && out.responded) {
      record.completed = true;
      record.end_to_end_ms = out.rtt_ms + icmp_penalty_ms(probe, rng, tally);
    }
  }
  tally.fault_lost_hops += lost_hops;
  tally.unresponsive_hops += unresponsive_hops;
  tally.rate_limited_hops += rate_limited_hops;
  tally.ecmp_detours += ecmp_detours;
  if (record.completed) ++tally.traceroutes_completed;
  return record;
}

}  // namespace cloudrtt::measure
