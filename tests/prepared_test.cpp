// Equivalence tests for the prepared pass (analysis/prepared.hpp): a report
// resolves each address once through a ResolutionTable and derives every
// trace's facts in one walk. Both must answer exactly as the per-call
// classifiers do, and as the straightforward per-hop loops below, which
// restate each classifier the way the paper describes it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "analysis/prepared.hpp"
#include "analysis/trace_analysis.hpp"
#include "catalogue_rows.hpp"
#include "core/study.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace cloudrtt::analysis {
namespace {

// -- reference classifiers: one resolve() per hop, paths as vectors ---------

[[nodiscard]] InterconnectObservation reference_interconnect(
    const measure::TraceRef& trace, const IpToAsn& resolver) {
  InterconnectObservation out;
  const auto target = resolver.resolve(trace.target_ip);
  if (!target) return out;
  out.cloud_asn = target->asn;
  struct Entry {
    topology::Asn asn;
    bool ixp;
  };
  std::vector<Entry> path;
  for (const measure::HopRecord& hop : trace.hops) {
    if (!hop.responded) continue;
    const auto res = resolver.resolve(hop.ip);
    if (!res) continue;
    if (path.empty() || path.back().asn != res->asn) {
      path.push_back(Entry{res->asn, res->is_ixp});
    }
  }
  std::size_t isp_pos = path.size();
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (!path[i].ixp) {
      isp_pos = i;
      out.isp_asn = path[i].asn;
      break;
    }
  }
  if (isp_pos == path.size()) return out;
  std::size_t cloud_pos = path.size();
  for (std::size_t i = isp_pos + 1; i < path.size(); ++i) {
    if (path[i].asn == out.cloud_asn) {
      cloud_pos = i;
      break;
    }
  }
  if (cloud_pos == path.size()) return out;
  std::vector<topology::Asn> intermediates;
  for (std::size_t i = isp_pos + 1; i < cloud_pos; ++i) {
    if (path[i].ixp || resolver.is_ixp_asn(path[i].asn)) {
      out.crossed_ixp = true;
      continue;
    }
    if (path[i].asn == out.isp_asn) continue;
    if (std::find(intermediates.begin(), intermediates.end(), path[i].asn) ==
        intermediates.end()) {
      intermediates.push_back(path[i].asn);
    }
  }
  out.valid = true;
  out.intermediate_as_count = static_cast<int>(intermediates.size());
  if (intermediates.empty()) {
    out.mode = out.crossed_ixp ? topology::InterconnectMode::DirectIxp
                               : topology::InterconnectMode::Direct;
  } else if (intermediates.size() == 1) {
    out.mode = topology::InterconnectMode::OneAs;
  } else {
    out.mode = topology::InterconnectMode::Public;
  }
  return out;
}

[[nodiscard]] LastMileObservation reference_last_mile(
    const measure::TraceRef& trace, const IpToAsn& resolver) {
  LastMileObservation out;
  std::optional<double> first_private_rtt;
  for (const measure::HopRecord& hop : trace.hops) {
    if (!hop.responded) continue;
    if (net::is_private(hop.ip)) {
      if (!first_private_rtt) first_private_rtt = hop.rtt_ms;
      continue;
    }
    if (!resolver.resolve(hop.ip)) continue;
    out.valid = true;
    out.usr_isp_ms = hop.rtt_ms;
    out.access = first_private_rtt ? AccessClass::Home : AccessClass::Cell;
    if (first_private_rtt) {
      out.rtr_isp_ms = std::max(0.0, out.usr_isp_ms - *first_private_rtt);
    }
    return out;
  }
  return out;
}

[[nodiscard]] std::optional<double> reference_pervasiveness(
    const measure::TraceRef& trace, const IpToAsn& resolver) {
  const auto target = resolver.resolve(trace.target_ip);
  if (!target) return std::nullopt;
  std::size_t resolved = 0;
  std::size_t cloud_owned = 0;
  for (const measure::HopRecord& hop : trace.hops) {
    if (!hop.responded) continue;
    const auto res = resolver.resolve(hop.ip);
    if (!res) continue;
    ++resolved;
    if (res->asn == target->asn) ++cloud_owned;
  }
  if (resolved < 3) return std::nullopt;
  return static_cast<double>(cloud_owned) / static_cast<double>(resolved);
}

/// Index of the first responding public hop (Fig. 16's key), or kNoHop.
[[nodiscard]] std::uint8_t reference_first_public_hop(
    const measure::TraceRef& trace) {
  for (std::size_t i = 0; i < trace.hops.size(); ++i) {
    const measure::HopRecord& hop = trace.hops[i];
    if (hop.responded && !net::is_private(hop.ip)) {
      return static_cast<std::uint8_t>(i);
    }
  }
  return TraceFacts::kNoHop;
}

void expect_same(const LastMileObservation& got,
                 const LastMileObservation& want) {
  EXPECT_EQ(got.valid, want.valid);
  EXPECT_EQ(got.access, want.access);
  EXPECT_EQ(got.usr_isp_ms, want.usr_isp_ms);
  EXPECT_EQ(got.rtr_isp_ms, want.rtr_isp_ms);
}

/// Every fact of `facts` against the reference classifiers and the
/// per-call API, for one trace.
void expect_facts_match(const measure::TraceRef& trace,
                        const TraceFacts& facts, const IpToAsn& resolver) {
  const InterconnectObservation want = reference_interconnect(trace, resolver);
  const InterconnectObservation call = classify_interconnect(trace, resolver);
  EXPECT_EQ(call.valid, want.valid);
  EXPECT_EQ(call.mode, want.mode);
  EXPECT_EQ(call.intermediate_as_count, want.intermediate_as_count);
  EXPECT_EQ(call.crossed_ixp, want.crossed_ixp);
  EXPECT_EQ(call.isp_asn, want.isp_asn);
  EXPECT_EQ(call.cloud_asn, want.cloud_asn);
  EXPECT_EQ(facts.interconnect_valid, want.valid);
  EXPECT_EQ(facts.mode, want.mode);

  const LastMileObservation last_mile = reference_last_mile(trace, resolver);
  expect_same(infer_last_mile(trace, resolver), last_mile);
  expect_same(facts.last_mile(trace), last_mile);

  const std::optional<double> ratio = reference_pervasiveness(trace, resolver);
  EXPECT_EQ(pervasiveness(trace, resolver), ratio);
  EXPECT_EQ(facts.pervasiveness(), ratio);

  EXPECT_EQ(facts.first_public_hop, reference_first_public_hop(trace));
}

// -- on a study --------------------------------------------------------------

[[nodiscard]] const core::Study& study() {
  static const core::Study value = [] {
    core::StudyConfig config = core::StudyConfig::quick();
    config.sc_probes = 600;
    config.atlas_probes = 200;
    config.sc_campaign.days = 2;
    config.atlas_campaign.days = 2;
    core::Study s{config};
    s.run();
    return s;
  }();
  return value;
}

/// Every target and responded-hop address of a dataset.
void collect_addresses(const measure::Dataset& data,
                       std::set<std::uint32_t>& out) {
  for (const measure::TraceRef& trace : data.traces) {
    out.insert(trace.target_ip.value());
    for (const measure::HopRecord& hop : trace.hops) {
      if (hop.responded) out.insert(hop.ip.value());
    }
  }
}

[[nodiscard]] std::uint64_t lookups() {
  return obs::Registry::global().counter("resolve.lookups_total").value();
}

TEST(PreparedPass, TableAnswersAsTheResolver) {
  const IpToAsn& resolver = study().resolver();
  const topology::World& world = study().world();
  std::set<std::uint32_t> addresses;
  collect_addresses(study().sc_dataset(), addresses);
  collect_addresses(study().atlas_dataset(), addresses);
  // Hand-picked: private space, an IXP peering LAN (DE-CIX), a router only
  // whois knows (GTT keeps its infrastructure out of the RIB), unknown space.
  const topology::AddressPlan& plan = world.address_plan();
  const std::vector<net::Ipv4Address> picked{
      net::Ipv4Address{192, 168, 1, 1},
      net::Ipv4Address{10, 0, 0, 1},
      net::Ipv4Address{100, 64, 0, 1},
      plan.ixp_lan(test::ixp_row(6695)),
      plan.hub(test::hub_row(3257, "Frankfurt")).in.ip,
      net::Ipv4Address{203, 0, 113, 7},
      net::Ipv4Address{240, 0, 0, 1}};
  ASSERT_TRUE(resolver.resolve(picked[3]).has_value());
  EXPECT_TRUE(resolver.resolve(picked[3])->is_ixp);
  ASSERT_TRUE(resolver.resolve(picked[4]).has_value());
  EXPECT_EQ(resolver.resolve(picked[4])->source, ResolutionSource::Whois);
  EXPECT_FALSE(resolver.resolve(picked[5]).has_value());
  for (const net::Ipv4Address addr : picked) addresses.insert(addr.value());

  ResolutionTable table{resolver};
  const std::uint64_t before = lookups();
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::uint32_t value : addresses) {
      const net::Ipv4Address addr{value};
      ASSERT_EQ(table.resolve(addr), resolver.resolve(addr))
          << addr.to_string();
    }
  }
  // Two table passes plus two resolver calls per address: the table asked
  // the resolver once per distinct address.
  EXPECT_EQ(table.size(), addresses.size());
  EXPECT_EQ(lookups() - before, 3 * addresses.size());
}

TEST(PreparedPass, ReportResolvesEachDistinctAddressOnce) {
  std::set<std::uint32_t> addresses;
  collect_addresses(study().sc_dataset(), addresses);
  collect_addresses(study().atlas_dataset(), addresses);
  const std::uint64_t before = lookups();
  const PreparedStudy prepared{study().view()};
  EXPECT_EQ(lookups() - before, addresses.size());
  EXPECT_TRUE(prepared.has_atlas());
}

TEST(PreparedPass, TraceFactsMatchThePerCallClassifiers) {
  const PreparedStudy prepared{study().view()};
  const IpToAsn& resolver = study().resolver();
  for (const PreparedDataset* dataset : {&prepared.sc(), prepared.atlas()}) {
    const measure::TraceColumn& traces = dataset->data().traces;
    const std::span<const TraceFacts> facts = dataset->trace_facts();
    ASSERT_EQ(facts.size(), traces.size());
    std::size_t valid_interconnects = 0;
    for (std::size_t row = 0; row < traces.size(); ++row) {
      SCOPED_TRACE("trace row " + std::to_string(row));
      expect_facts_match(traces[row], facts[row], resolver);
      if (::testing::Test::HasFailure()) return;
      if (facts[row].interconnect_valid) ++valid_interconnects;
    }
    EXPECT_GT(valid_interconnects, traces.size() / 2);

    // Fig. 16's per-probe key: the AS of the first public hop of the
    // probe's first trace whose first public hop resolves.
    std::unordered_map<const probes::Probe*, topology::Asn> first_hop_asn;
    for (const measure::TraceRef& trace : traces) {
      if (first_hop_asn.contains(trace.probe)) continue;
      const std::uint8_t hop = reference_first_public_hop(trace);
      if (hop == TraceFacts::kNoHop) continue;
      if (const auto res = resolver.resolve(trace.hops[hop].ip)) {
        first_hop_asn.emplace(trace.probe, res->asn);
      }
    }
    ASSERT_FALSE(dataset->probes().empty());
    for (const ProbeTraceFacts& entry : dataset->probes()) {
      EXPECT_EQ(dataset->probe_facts(entry.probe), &entry);
      const auto it = first_hop_asn.find(entry.probe);
      EXPECT_EQ(entry.first_hop_asn,
                it == first_hop_asn.end()
                    ? std::nullopt
                    : std::optional<topology::Asn>{it->second});
    }
    EXPECT_TRUE(std::is_sorted(
        dataset->probes().begin(), dataset->probes().end(),
        [](const ProbeTraceFacts& a, const ProbeTraceFacts& b) {
          return a.probe->id < b.probe->id;
        }));
  }
}

// -- on synthetic traces -----------------------------------------------------

// Random hop sequences over a handful of ASes, so the classifiers meet the
// shapes a simulated study rarely produces: IXP LANs before the ISP, an
// IXP's AS announcing a non-LAN prefix, transit ASes recurring, the ISP
// reappearing, whois-only and unknown hops, clouds never reached.
TEST(PreparedPass, SyntheticTracesMatchTheReferenceClassifiers) {
  constexpr topology::Asn kIsp = 100;
  constexpr topology::Asn kCloud = 400;
  constexpr topology::Asn kIxp = 500;
  IpToAsn resolver;
  resolver.add_rib(*net::Ipv4Prefix::parse("20.0.0.0/16"), kIsp);
  resolver.add_rib(*net::Ipv4Prefix::parse("21.0.0.0/16"), 200);
  resolver.add_rib(*net::Ipv4Prefix::parse("22.0.0.0/16"), 300);
  resolver.add_rib(*net::Ipv4Prefix::parse("30.0.0.0/16"), kCloud);
  resolver.add_ixp(*net::Ipv4Prefix::parse("40.0.0.0/24"), kIxp);
  resolver.add_rib(*net::Ipv4Prefix::parse("41.0.0.0/16"), kIxp);
  resolver.add_whois(*net::Ipv4Prefix::parse("50.0.0.0/16"), 600);
  std::vector<net::Ipv4Address> pool;
  for (const char* addr :
       {"20.0.0.1", "20.0.1.1", "21.0.0.1", "22.0.0.1", "30.0.0.1", "40.0.0.1",
        "41.0.0.1", "50.0.0.1", "192.168.1.1", "100.64.0.9", "203.0.113.7"}) {
    pool.push_back(*net::Ipv4Address::parse(addr));
  }
  const std::vector<net::Ipv4Address> targets{
      *net::Ipv4Address::parse("30.0.0.10"),
      *net::Ipv4Address::parse("203.0.113.8")};

  util::Rng rng{7};
  ResolutionTable table{resolver};
  std::vector<std::optional<Resolution>> hops;
  for (int i = 0; i < 5000; ++i) {
    measure::TraceRecord record;
    record.target_ip = rng.below(8) == 0 ? targets[1] : targets[0];
    const auto length = static_cast<std::size_t>(rng.below(14));
    for (std::size_t h = 0; h < length; ++h) {
      measure::HopRecord hop;
      hop.ttl = static_cast<std::uint8_t>(h + 1);
      hop.responded = rng.below(6) != 0;
      hop.ip = pool[static_cast<std::size_t>(rng.below(pool.size()))];
      hop.rtt_ms = rng.uniform(0.5, 80.0);
      record.hops.push_back(hop);
    }
    const measure::TraceRef trace{record};
    hops.clear();
    for (const measure::HopRecord& hop : trace.hops) {
      hops.push_back(hop.responded ? table.resolve(hop.ip) : std::nullopt);
    }
    const TraceFacts facts =
        derive_facts(trace, hops, table.resolve(trace.target_ip), resolver);
    SCOPED_TRACE("synthetic trace " + std::to_string(i));
    expect_facts_match(trace, facts, resolver);
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace cloudrtt::analysis
