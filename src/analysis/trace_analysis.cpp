#include "analysis/trace_analysis.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace cloudrtt::analysis {

namespace {

/// Every responded hop of `trace`, resolved through `resolver`.
[[nodiscard]] std::vector<std::optional<Resolution>> resolve_hops(
    const measure::TraceRef& trace, const IpToAsn& resolver) {
  std::vector<std::optional<Resolution>> hops;
  hops.reserve(trace.hops.size());
  for (const measure::HopRecord& hop : trace.hops) {
    hops.push_back(hop.responded ? resolver.resolve(hop.ip) : std::nullopt);
  }
  return hops;
}

/// True when `asn` resolves at some hop strictly between `begin` and `end`.
[[nodiscard]] bool appears_between(HopResolutions hops, std::size_t begin,
                                   std::size_t end, topology::Asn asn) {
  for (std::size_t i = begin + 1; i < end; ++i) {
    if (hops[i] && hops[i]->asn == asn) return true;
  }
  return false;
}

[[nodiscard]] InterconnectObservation classify(
    const std::optional<Resolution>& target, HopResolutions hops,
    const IpToAsn& resolver) {
  InterconnectObservation out;
  if (!target) return out;
  out.cloud_asn = target->asn;

  // Walk the AS path with consecutive duplicates collapsed, each run tagged
  // by its first hop. The serving ISP is the first non-IXP AS; the distinct
  // ASes between it and the first appearance of the cloud WAN are the
  // intermediates, with IXPs removed (they are points of traffic exchange,
  // not transit — §6.1).
  std::optional<std::size_t> isp;  ///< hop where the ISP's run starts
  const Resolution* previous = nullptr;
  bool reached_cloud = false;
  bool crossed_ixp = false;
  int intermediates = 0;
  for (std::size_t i = 0; i < hops.size(); ++i) {
    if (!hops[i]) continue;
    const Resolution& res = *hops[i];
    if (previous != nullptr && previous->asn == res.asn) continue;
    previous = &res;
    if (!isp) {
      if (!res.is_ixp) {
        isp = i;
        out.isp_asn = res.asn;
      }
      continue;
    }
    if (res.asn == out.cloud_asn) {
      reached_cloud = true;
      break;
    }
    if (res.is_ixp || resolver.is_ixp_asn(res.asn)) {
      crossed_ixp = true;
      continue;
    }
    if (res.asn == out.isp_asn) continue;  // ISP reappearing (own backhaul)
    if (!appears_between(hops, *isp, i, res.asn)) ++intermediates;
  }
  if (!reached_cloud) return out;

  out.valid = true;
  out.crossed_ixp = crossed_ixp;
  out.intermediate_as_count = intermediates;
  if (intermediates == 0) {
    out.mode = crossed_ixp ? topology::InterconnectMode::DirectIxp
                           : topology::InterconnectMode::Direct;
  } else if (intermediates == 1) {
    out.mode = topology::InterconnectMode::OneAs;
  } else {
    out.mode = topology::InterconnectMode::Public;
  }
  return out;
}

[[nodiscard]] TraceFacts facts_of(const measure::TraceRef& trace,
                                  const IpToAsn& resolver) {
  const std::vector<std::optional<Resolution>> hops =
      resolve_hops(trace, resolver);
  return derive_facts(trace, hops, resolver.resolve(trace.target_ip),
                      resolver);
}

}  // namespace

AsPath as_level_path(const measure::TraceRef& trace, const IpToAsn& resolver) {
  AsPath path;
  for (const measure::HopRecord& hop : trace.hops) {
    if (!hop.responded) continue;
    const auto res = resolver.resolve(hop.ip);
    if (!res) continue;  // private or unknown space
    if (res->is_ixp) path.crossed_ixp = true;
    if (res->source == ResolutionSource::Whois) path.used_whois = true;
    if (path.asns.empty() || path.asns.back() != res->asn) {
      path.asns.push_back(res->asn);
    }
  }
  return path;
}

InterconnectObservation classify_interconnect(const measure::TraceRef& trace,
                                              const IpToAsn& resolver) {
  const std::vector<std::optional<Resolution>> hops =
      resolve_hops(trace, resolver);
  return classify(resolver.resolve(trace.target_ip), hops, resolver);
}

LastMileObservation infer_last_mile(const measure::TraceRef& trace,
                                    const IpToAsn& resolver) {
  return facts_of(trace, resolver).last_mile(trace);
}

std::optional<double> pervasiveness(const measure::TraceRef& trace,
                                    const IpToAsn& resolver) {
  return facts_of(trace, resolver).pervasiveness();
}

TraceFacts derive_facts(const measure::TraceRef& trace, HopResolutions hops,
                        const std::optional<Resolution>& target,
                        const IpToAsn& resolver) {
  CLOUDRTT_CHECK(hops.size() == trace.hops.size() &&
                     trace.hops.size() <= TraceFacts::kNoHop,
                 "derive_facts: ", hops.size(), " resolutions for ",
                 trace.hops.size(), " hops (at most 255)");
  TraceFacts facts;
  const InterconnectObservation interconnect = classify(target, hops, resolver);
  facts.interconnect_valid = interconnect.valid;
  facts.mode = interconnect.mode;
  facts.target_resolved = target.has_value();
  for (std::size_t i = 0; i < hops.size(); ++i) {
    const measure::HopRecord& hop = trace.hops[i];
    if (!hop.responded) continue;
    const auto index = static_cast<std::uint8_t>(i);
    // The last mile (§5): a private hop before the first public hop that
    // resolves marks a home router; that public hop anchors the ISP ingress.
    if (net::is_private(hop.ip)) {
      if (facts.private_hop == TraceFacts::kNoHop &&
          facts.isp_hop == TraceFacts::kNoHop) {
        facts.private_hop = index;
      }
      continue;
    }
    if (facts.first_public_hop == TraceFacts::kNoHop) {
      facts.first_public_hop = index;
    }
    if (!hops[i]) continue;
    if (facts.isp_hop == TraceFacts::kNoHop) facts.isp_hop = index;
    ++facts.resolved_hops;
    if (hops[i]->source == ResolutionSource::Whois) ++facts.whois_hops;
    if (target && hops[i]->asn == target->asn) ++facts.cloud_hops;
  }
  return facts;
}

LastMileObservation TraceFacts::last_mile(
    const measure::TraceRef& trace) const {
  LastMileObservation out;
  if (isp_hop == kNoHop) return out;  // nothing usable responded
  out.valid = true;
  out.usr_isp_ms = trace.hops[isp_hop].rtt_ms;
  if (private_hop == kNoHop) {
    out.access = AccessClass::Cell;
  } else {
    out.access = AccessClass::Home;
    out.rtr_isp_ms =
        std::max(0.0, out.usr_isp_ms - trace.hops[private_hop].rtt_ms);
  }
  return out;
}

std::optional<double> TraceFacts::pervasiveness() const {
  if (!target_resolved || resolved_hops < 3) return std::nullopt;
  return static_cast<double>(cloud_hops) / static_cast<double>(resolved_hops);
}

}  // namespace cloudrtt::analysis
