// Unit tests for the core layer: JSON writer, the CSV row encoder against a
// reference writer, and the full JSON report.

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/export.hpp"
#include "core/report.hpp"
#include "core/study.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/text.hpp"

namespace cloudrtt {
namespace {

TEST(JsonWriter, ScalarsAndNesting) {
  std::ostringstream out;
  util::JsonWriter json{out, /*pretty=*/false};
  json.begin_object();
  json.field("name", "cloudrtt");
  json.field("count", std::size_t{42});
  json.field("ratio", 0.5);
  json.field("flag", true);
  json.key("list");
  json.begin_array();
  json.value(1);
  json.value(2);
  json.end_array();
  json.key("nothing");
  json.null();
  json.end_object();
  EXPECT_TRUE(json.complete());
  EXPECT_EQ(out.str(),
            R"({"name": "cloudrtt","count": 42,"ratio": 0.5,"flag": true,)"
            R"("list": [1,2],"nothing": null})");
}

TEST(JsonWriter, EscapesSpecialCharacters) {
  std::ostringstream out;
  util::JsonWriter json{out, false};
  json.value(std::string_view{"a\"b\\c\nd\te"});
  EXPECT_EQ(out.str(), "\"a\\\"b\\\\c\\nd\\te\"");
}

TEST(JsonWriter, EmptyContainers) {
  std::ostringstream out;
  util::JsonWriter json{out, false};
  json.begin_object();
  json.key("empty_list");
  json.begin_array();
  json.end_array();
  json.key("empty_obj");
  json.begin_object();
  json.end_object();
  json.end_object();
  EXPECT_EQ(out.str(), R"({"empty_list": [],"empty_obj": {}})");
}

class CoreRoundTrip : public ::testing::Test {
 protected:
  static const core::Study& study() {
    static core::Study s = [] {
      core::StudyConfig config = core::StudyConfig::quick();
      core::Study st{config};
      st.run();
      return st;
    }();
    return s;
  }
};

// -- CSV row encoder vs a reference writer ----------------------------------
// The reference is the CSV writer the allocation-free encoder replaced: one
// std::vector<std::string> of cells per row through util::write_csv_row,
// integers through std::to_string, IPs through snprintf, doubles through
// std::to_chars (round trip) or util::format_double ("%.3f"). Slow and
// obviously right; the encoder must reproduce its bytes in both flavours.

[[nodiscard]] std::string reference_double(core::CsvFlavour flavour,
                                           double value) {
  if (flavour == core::CsvFlavour::Published) {
    return util::format_double(value, 3);
  }
  char buffer[32];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  return ec == std::errc{} ? std::string(buffer, ptr)
                           : util::format_double(value, 3);
}

[[nodiscard]] std::string reference_ip(net::Ipv4Address ip) {
  const std::uint32_t v = ip.value();
  char buffer[16];
  std::snprintf(buffer, sizeof buffer, "%u.%u.%u.%u", (v >> 24) & 0xffu,
                (v >> 16) & 0xffu, (v >> 8) & 0xffu, v & 0xffu);
  return buffer;
}

using Parts = std::vector<const measure::Dataset*>;

[[nodiscard]] std::string reference_pings_csv(const Parts& parts,
                                              core::CsvFlavour flavour) {
  std::ostringstream csv;
  util::write_csv_row(csv, {"probe_id", "platform", "country", "continent",
                            "isp_asn", "provider", "region", "protocol",
                            "rtt_ms", "day", "slot"});
  for (const measure::Dataset* part : parts) {
    for (const measure::PingRecord& ping : part->pings) {
      const probes::Probe& probe = *ping.probe;
      util::write_csv_row(
          csv,
          {std::to_string(probe.id), std::string{to_string(probe.platform)},
           std::string{probe.country->code},
           std::string{geo::to_code(probe.country->continent)},
           std::to_string(probe.isp->asn),
           std::string{cloud::provider_info(ping.region->provider).ticker},
           std::string{ping.region->region_name},
           std::string{to_string(ping.protocol)},
           reference_double(flavour, ping.rtt_ms), std::to_string(ping.day),
           std::to_string(ping.slot)});
    }
  }
  return csv.str();
}

[[nodiscard]] std::string reference_traces_csv(const Parts& parts,
                                               core::CsvFlavour flavour) {
  const bool canonical = flavour == core::CsvFlavour::Canonical;
  std::vector<std::string> header{"trace_id", "probe_id", "provider", "region",
                                  "target_ip", "day", "slot", "completed",
                                  "end_to_end_ms", "ttl", "responded", "hop_ip",
                                  "hop_rtt_ms"};
  if (canonical) header.emplace_back("true_mode");
  std::ostringstream csv;
  util::write_csv_row(csv, header);
  std::uint64_t trace_id = 0;
  for (const measure::Dataset* part : parts) {
    for (const measure::TraceRef& trace : part->traces) {
      for (const measure::HopRecord& hop : trace.hops) {
        std::vector<std::string> cells{
            std::to_string(trace_id), std::to_string(trace.probe->id),
            std::string{cloud::provider_info(trace.region->provider).ticker},
            std::string{trace.region->region_name},
            reference_ip(trace.target_ip), std::to_string(trace.day),
            std::to_string(trace.slot), trace.completed ? "1" : "0",
            reference_double(flavour, trace.end_to_end_ms),
            std::to_string(hop.ttl), hop.responded ? "1" : "0",
            hop.responded ? reference_ip(hop.ip) : std::string{},
            hop.responded ? reference_double(flavour, hop.rtt_ms)
                          : std::string{}};
        if (canonical) cells.emplace_back(topology::to_string(trace.true_mode));
        util::write_csv_row(csv, cells);
      }
      ++trace_id;
    }
  }
  return csv.str();
}

/// Byte equality of two CSV texts. A mismatch names the first differing
/// line instead of letting gtest diff megabytes of text.
[[nodiscard]] testing::AssertionResult same_bytes(const std::string& actual,
                                                  const std::string& expected) {
  if (actual == expected) return testing::AssertionSuccess();
  const std::size_t at = static_cast<std::size_t>(
      std::mismatch(actual.begin(),
                    actual.begin() + static_cast<std::ptrdiff_t>(std::min(
                                         actual.size(), expected.size())),
                    expected.begin())
          .first -
      actual.begin());
  const auto line_at = [at](const std::string& text) {
    const std::size_t newline = text.rfind('\n', at == 0 ? 0 : at - 1);
    const std::size_t begin =
        newline == std::string::npos || at == 0 ? 0 : newline + 1;
    return text.substr(begin, std::min<std::size_t>(
                                  200, text.find('\n', begin) - begin));
  };
  return testing::AssertionFailure()
         << "first difference at byte " << at << " of " << actual.size()
         << " vs " << expected.size() << "\n  got:      " << line_at(actual)
         << "\n  expected: " << line_at(expected);
}

/// The encoder's output for `parts` fed as one write() call each.
template <typename Writer>
[[nodiscard]] std::string encode(const Parts& parts, core::CsvFlavour flavour) {
  std::ostringstream out;
  Writer writer(out, flavour);
  for (const measure::Dataset* part : parts) writer.write(*part);
  writer.finish();
  return out.str();
}

/// The same through the hashing writer: the FNV-1a of what encode() writes.
template <typename Writer>
[[nodiscard]] std::uint64_t digest_of(const Parts& parts,
                                      core::CsvFlavour flavour) {
  std::uint64_t digest = util::kFnv1aBasis;
  Writer writer(digest, flavour);
  for (const measure::Dataset* part : parts) writer.write(*part);
  writer.finish();
  return digest;
}

/// The two flavours the writers are used in: the published CSVs, and the
/// dataset hash.
[[nodiscard]] std::vector<core::CsvFlavour> every_flavour() {
  return {core::CsvFlavour::Published, core::CsvFlavour::Canonical};
}

/// Byte identity with the reference in every flavour, for the stream and
/// the hashing writers, and for dataset_hash itself.
void expect_matches_reference(const Parts& parts) {
  for (const core::CsvFlavour flavour : every_flavour()) {
    SCOPED_TRACE(flavour == core::CsvFlavour::Canonical ? "canonical"
                                                         : "published");
    const std::string pings = encode<core::PingCsvWriter>(parts, flavour);
    const std::string traces = encode<core::TraceCsvWriter>(parts, flavour);
    EXPECT_TRUE(same_bytes(pings, reference_pings_csv(parts, flavour)));
    EXPECT_TRUE(same_bytes(traces, reference_traces_csv(parts, flavour)));
    EXPECT_EQ(digest_of<core::PingCsvWriter>(parts, flavour),
              util::fnv1a(pings));
    EXPECT_EQ(digest_of<core::TraceCsvWriter>(parts, flavour),
              util::fnv1a(traces));
  }
  if (parts.size() == 1) {
    constexpr core::CsvFlavour kHash = core::CsvFlavour::Canonical;
    EXPECT_EQ(core::format_dataset_hash(core::dataset_hash(*parts.front())),
              core::format_dataset_hash(
                  util::fnv1a(reference_pings_csv(parts, kHash) +
                              reference_traces_csv(parts, kHash))));
  }
}

/// Rows at the encoder's edges, on a probe of the quick study; the dataset
/// is unbound, so probes and regions go through the extras tables.
class EdgeRows {
 public:
  explicit EdgeRows(const probes::Probe& probe) {
    const cloud::RegionInfo& template_region =
        cloud::RegionCatalog::instance().all().front();
    quoted_ = template_region;
    quoted_.region_name = "eu-\"west\",1";
    // Longer than the encoder's 32 KiB chunk, commas and quotes throughout;
    // and one whose trace prefix is long enough that copying it for the
    // next hop sometimes needs a flush first.
    for (int i = 0; i < 3500; ++i) long_name_ += "a,\"b\"c-d,e";
    long_ = template_region;
    long_.region_name = long_name_;
    medium_ = template_region;
    medium_.region_name = std::string_view{long_name_}.substr(0, 1000);

    const double doubles[] = {-0.0,
                              0.0625,
                              0.1875,
                              1e-7,
                              1e21,
                              std::numeric_limits<double>::quiet_NaN(),
                              -std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity(),
                              12.3456};
    std::uint8_t slot = 0;
    for (const double value : doubles) {
      measure::PingRecord ping;
      ping.probe = &probe;
      ping.region = &quoted_;
      ping.protocol = slot % 2 == 0 ? measure::Protocol::Icmp
                                    : measure::Protocol::Tcp;
      ping.rtt_ms = value;
      ping.day = std::numeric_limits<std::uint32_t>::max();
      ping.slot = slot++;
      data.pings.push_back(ping);

      measure::TraceRecord trace;
      trace.probe = &probe;
      trace.region = &quoted_;
      trace.target_ip = net::Ipv4Address{0u};
      trace.completed = slot % 2 == 0;
      trace.end_to_end_ms = value;
      trace.day = slot;
      trace.slot = 255;
      trace.true_mode = static_cast<topology::InterconnectMode>(slot % 4);
      trace.hops = {{1, true, net::Ipv4Address{0xffffffffu}, value},
                    {2, false, net::Ipv4Address{}, 0.0},
                    {3, true, net::Ipv4Address{0u}, -value}};
      data.traces.push_back(trace);
    }

    measure::TraceRecord empty;  // no hop rows, but it takes a trace id
    empty.probe = &probe;
    empty.region = &quoted_;
    data.traces.push_back(empty);

    measure::TraceRecord longest;
    longest.probe = &probe;
    longest.region = &quoted_;
    longest.target_ip = net::Ipv4Address{255, 255, 255, 255};
    longest.end_to_end_ms = 321.5;
    for (int ttl = 1; ttl <= 255; ++ttl) {
      const bool silent = ttl % 3 == 0;
      longest.hops.push_back(
          {static_cast<std::uint8_t>(ttl), !silent,
           net::Ipv4Address{static_cast<std::uint32_t>(ttl) * 16843009u},
           ttl / 7.0});
    }
    data.traces.push_back(longest);

    longest.region = &medium_;
    data.traces.push_back(longest);

    measure::PingRecord long_ping = data.pings.front();
    long_ping.region = &long_;
    data.pings.push_back(long_ping);
    longest.region = &long_;
    longest.hops.resize(5);
    data.traces.push_back(longest);
  }

  EdgeRows(const EdgeRows&) = delete;
  EdgeRows& operator=(const EdgeRows&) = delete;

  measure::Dataset data;

 private:
  cloud::RegionInfo quoted_{};
  cloud::RegionInfo medium_{};
  cloud::RegionInfo long_{};
  std::string long_name_;
};

TEST_F(CoreRoundTrip, EncoderMatchesReferenceWriterOnAStudy) {
  expect_matches_reference({&study().sc_dataset()});
  expect_matches_reference({&study().atlas_dataset()});
}

TEST_F(CoreRoundTrip, EncoderMatchesReferenceWriterOnEdgeRows) {
  const EdgeRows edges{study().sc_fleet().probes().front()};
  expect_matches_reference({&edges.data});
}

TEST_F(CoreRoundTrip, EncoderGivesTheSameBytesForSeveralWritesAsForOne) {
  const measure::Dataset& whole = study().sc_dataset();
  const std::size_t pings = whole.pings.size();
  const std::size_t traces = whole.traces.size();
  ASSERT_GT(traces, 7u);
  // Uneven cuts, one of them empty, so parts straddle chunk boundaries.
  const std::size_t cuts[] = {0, 1, 1, traces / 3, traces / 2, traces - 1,
                              traces};
  std::vector<measure::Dataset> parts(std::size(cuts) - 1);
  Parts feed;
  for (std::size_t i = 0; i + 1 < std::size(cuts); ++i) {
    const std::size_t begin = cuts[i] * pings / traces;
    const std::size_t end = cuts[i + 1] * pings / traces;
    parts[i].append_slice(whole, begin, end, cuts[i], cuts[i + 1]);
    feed.push_back(&parts[i]);
  }
  for (const core::CsvFlavour flavour : every_flavour()) {
    EXPECT_TRUE(same_bytes(encode<core::PingCsvWriter>(feed, flavour),
                           encode<core::PingCsvWriter>({&whole}, flavour)));
    EXPECT_TRUE(same_bytes(encode<core::TraceCsvWriter>(feed, flavour),
                           encode<core::TraceCsvWriter>({&whole}, flavour)));
  }
  expect_matches_reference(feed);

  const EdgeRows edges{study().sc_fleet().probes().front()};
  expect_matches_reference({&edges.data, &parts[2], &edges.data});
}

TEST_F(CoreRoundTrip, EncoderWritesDblMaxWithoutOverrun) {
  // Round trip: byte-identical to the reference like any other value.
  measure::Dataset data;
  measure::PingRecord ping = study().sc_dataset().pings.front();
  ping.rtt_ms = DBL_MAX;
  data.pings.push_back(ping);
  measure::TraceRecord trace = study().sc_dataset().traces.front().to_record();
  ASSERT_FALSE(trace.hops.empty());
  trace.end_to_end_ms = -DBL_MAX;
  trace.hops.front().responded = true;
  trace.hops.front().rtt_ms = DBL_MAX;
  data.traces.push_back(trace);
  constexpr core::CsvFlavour kHash = core::CsvFlavour::Canonical;
  EXPECT_TRUE(same_bytes(encode<core::PingCsvWriter>({&data}, kHash),
                         reference_pings_csv({&data}, kHash)));
  EXPECT_TRUE(same_bytes(encode<core::TraceCsvWriter>({&data}, kHash),
                         reference_traces_csv({&data}, kHash)));

  // 3 decimals: the old "%.3f" buffer cut DBL_MAX at 63 characters; all
  // that is asked of the encoder is every digit, in place, and no overrun.
  // No cell of these rows is quoted, so a plain split on ',' reads them; it
  // keeps the empty cell after a trailing comma (a silent hop's rtt).
  const auto data_rows = [](const std::string& csv) {
    std::vector<std::vector<std::string>> rows;
    std::istringstream in{csv};
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line)) {
      std::vector<std::string>& cells = rows.emplace_back();
      std::string_view rest{line};
      for (std::size_t comma = rest.find(','); comma != std::string_view::npos;
           comma = rest.find(',')) {
        cells.emplace_back(rest.substr(0, comma));
        rest.remove_prefix(comma + 1);
      }
      cells.emplace_back(rest);
    }
    return rows;
  };
  const auto ping_rows = data_rows(
      encode<core::PingCsvWriter>({&data}, core::CsvFlavour::Published));
  ASSERT_EQ(ping_rows.size(), 1u);
  ASSERT_EQ(ping_rows[0].size(), 11u);
  EXPECT_EQ(ping_rows[0][8].size(), 309u + 4u);
  EXPECT_EQ(std::strtod(ping_rows[0][8].c_str(), nullptr), DBL_MAX);
  EXPECT_EQ(ping_rows[0][9], std::to_string(ping.day));

  const auto trace_rows = data_rows(
      encode<core::TraceCsvWriter>({&data}, core::CsvFlavour::Published));
  ASSERT_EQ(trace_rows.size(), trace.hops.size());
  for (const std::vector<std::string>& row : trace_rows) {
    ASSERT_EQ(row.size(), 13u);
    EXPECT_EQ(row[8].size(), 1u + 309u + 4u);
    EXPECT_EQ(std::strtod(row[8].c_str(), nullptr), -DBL_MAX);
  }
  EXPECT_EQ(std::strtod(trace_rows[0][12].c_str(), nullptr), DBL_MAX);
}

TEST_F(CoreRoundTrip, FullReportIsWellFormedJson) {
  std::ostringstream out;
  core::write_full_report(out, study().view());
  const std::string text = out.str();
  // Structural sanity: balanced braces/brackets, key exhibits present.
  long depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char ch : text) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (ch == '\\') {
      escaped = true;
      continue;
    }
    if (ch == '"') in_string = !in_string;
    if (in_string) continue;
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  for (const char* needle :
       {"table1_endpoints", "fig3_country_latency", "fig10_interconnect_share",
        "fig18_bh_in", "sec33_methodology"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

TEST(StudyApi, ViewBeforeRunAbortsWithContractMessage) {
  core::StudyConfig config = core::StudyConfig::quick();
  config.sc_probes = 100;
  config.atlas_probes = 50;
  const core::Study study{config};
  EXPECT_DEATH((void)study.view(), "call run\\(\\) first");
}

TEST(StudyApi, AblationKnobsPropagate) {
  core::StudyConfig config = core::StudyConfig::quick();
  config.sc_probes = 200;
  config.include_atlas = false;
  config.enable_edge_pops = false;
  config.sc_access_override = lastmile::AccessTech::Wired;
  core::Study study{config};
  EXPECT_FALSE(study.world().has_pop(cloud::ProviderId::Microsoft, "DE"));
  for (const probes::Probe& probe : study.sc_fleet().probes()) {
    EXPECT_EQ(probe.access, lastmile::AccessTech::Wired);
  }
}

}  // namespace
}  // namespace cloudrtt
