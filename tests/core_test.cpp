// Unit tests for the core layer: JSON writer, the ordered CSV encoder against
// a reference writer (across batch boundaries, over repeated calls, and with
// a failing sink), the export metrics, and the full JSON report.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cfloat>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/export.hpp"
#include "core/report.hpp"
#include "core/scale.hpp"
#include "core/study.hpp"
#include "obs/metrics.hpp"
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

/// `parts` joined into one dataset, in order: rows re-bound where the parts'
/// bindings differ, so the joined rows are the parts' rows.
[[nodiscard]] measure::Dataset joined(const Parts& parts) {
  measure::Dataset data;
  for (const measure::Dataset* part : parts) data.append(*part);
  return data;
}

/// What export_pings_csv writes for `data`.
[[nodiscard]] std::string pings_csv(const measure::Dataset& data,
                                    core::CsvFlavour flavour) {
  std::ostringstream out;
  core::export_pings_csv(out, data, flavour);
  return out.str();
}

/// What export_traces_csv writes for `data`.
[[nodiscard]] std::string traces_csv(const measure::Dataset& data,
                                     core::CsvFlavour flavour) {
  std::ostringstream out;
  core::export_traces_csv(out, data, flavour);
  return out.str();
}

/// The two flavours the encoder is used in: the published CSVs, and the
/// dataset hash.
[[nodiscard]] std::vector<core::CsvFlavour> every_flavour() {
  return {core::CsvFlavour::Published, core::CsvFlavour::Canonical};
}

/// Byte identity with the reference in every flavour for both exports of
/// the joined parts, and dataset_hash equal to the FNV-1a of the
/// reference's canonical bytes.
void expect_matches_reference(const Parts& parts) {
  const measure::Dataset data = joined(parts);
  for (const core::CsvFlavour flavour : every_flavour()) {
    SCOPED_TRACE(flavour == core::CsvFlavour::Canonical ? "canonical"
                                                         : "published");
    EXPECT_TRUE(same_bytes(pings_csv(data, flavour),
                           reference_pings_csv(parts, flavour)));
    EXPECT_TRUE(same_bytes(traces_csv(data, flavour),
                           reference_traces_csv(parts, flavour)));
  }
  constexpr core::CsvFlavour kHash = core::CsvFlavour::Canonical;
  EXPECT_EQ(core::format_dataset_hash(core::dataset_hash(data)),
            core::format_dataset_hash(
                util::fnv1a(reference_pings_csv(parts, kHash) +
                            reference_traces_csv(parts, kHash))));
}

/// Rows at the encoder's edges, on a probe of the quick study; the dataset
/// is unbound, so probes and regions go through the extras tables. Some
/// rows are bound to a region and a country outside the catalogues, whose
/// names hold commas and quotes: the encoder has no table cell for them.
class EdgeRows {
 public:
  explicit EdgeRows(const probes::Probe& probe) {
    const cloud::RegionInfo& template_region =
        cloud::RegionCatalog::instance().all().front();
    quoted_ = template_region;
    quoted_.region_name = "eu-\"west\",1";
    quoted_country_ = *probe.country;
    quoted_country_.code = "Z\"Z,";
    quoted_probe_ = probe;
    quoted_probe_.country = &quoted_country_;
    // A 35 KB name, commas and quotes throughout: one cell worth half a
    // batch of ordinary rows, so a batch buffer grows mid-row; and one whose
    // trace prefix is long enough that copying it for the next hop can need
    // the buffer to grow too.
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

    // Catalogue regions on the probe of the extras country, and the extras
    // region on it too.
    measure::PingRecord quoted_ping = data.pings.front();
    quoted_ping.probe = &quoted_probe_;
    for (const cloud::RegionInfo* region :
         {&template_region, &cloud::RegionCatalog::instance().all().back(),
          static_cast<const cloud::RegionInfo*>(&quoted_)}) {
      quoted_ping.region = region;
      data.pings.push_back(quoted_ping);
      longest.probe = &quoted_probe_;
      longest.region = region;
      data.traces.push_back(longest);
    }
  }

  EdgeRows(const EdgeRows&) = delete;
  EdgeRows& operator=(const EdgeRows&) = delete;

  measure::Dataset data;

 private:
  cloud::RegionInfo quoted_{};
  geo::CountryInfo quoted_country_{};
  probes::Probe quoted_probe_;
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

// The encoder copies catalogue cells out of a table it builds once per
// process; each must be what the reference writer escapes per row: every
// country of the CountryTable on a probe of either platform, every region
// of the RegionCatalog, both protocols, and every mode, plus a mode value
// past them.
TEST_F(CoreRoundTrip, EncoderMatchesReferenceOnEveryCatalogueCell) {
  std::deque<probes::Probe> probes;  // stable addresses for the rows
  measure::Dataset data;
  measure::PingRecord ping = study().sc_dataset().pings.front();
  measure::TraceRecord trace = study().sc_dataset().traces.front().to_record();
  ASSERT_FALSE(trace.hops.empty());
  trace.hops.resize(1);
  std::size_t row = 0;
  for (const geo::CountryInfo& country : geo::CountryTable::instance().all()) {
    for (const probes::Platform platform :
         {probes::Platform::Speedchecker, probes::Platform::RipeAtlas}) {
      probes::Probe& probe = probes.emplace_back(*ping.probe);
      probe.country = &country;
      probe.platform = platform;
      measure::PingRecord row_ping = ping;
      row_ping.probe = &probe;
      row_ping.protocol = row++ % 2 == 0 ? measure::Protocol::Tcp
                                         : measure::Protocol::Icmp;
      data.pings.push_back(row_ping);
    }
  }
  for (const cloud::RegionInfo& region :
       cloud::RegionCatalog::instance().all()) {
    ping.region = &region;
    ping.protocol =
        row % 2 == 0 ? measure::Protocol::Tcp : measure::Protocol::Icmp;
    data.pings.push_back(ping);
    trace.region = &region;
    trace.true_mode = static_cast<topology::InterconnectMode>(row % 5);
    data.traces.push_back(trace);
    ++row;
  }
  expect_matches_reference({&data});
}

TEST_F(CoreRoundTrip, EncoderGivesTheSameBytesForSeveralWritesAsForOne) {
  const measure::Dataset& whole = study().sc_dataset();
  const std::size_t pings = whole.pings.size();
  const std::size_t traces = whole.traces.size();
  ASSERT_GT(traces, 7u);
  // Uneven cuts, one of them empty, so parts straddle batch boundaries.
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
  const measure::Dataset rejoined = joined(feed);
  for (const core::CsvFlavour flavour : every_flavour()) {
    EXPECT_TRUE(
        same_bytes(pings_csv(rejoined, flavour), pings_csv(whole, flavour)));
    EXPECT_TRUE(
        same_bytes(traces_csv(rejoined, flavour), traces_csv(whole, flavour)));
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
  EXPECT_TRUE(same_bytes(pings_csv(data, kHash),
                         reference_pings_csv({&data}, kHash)));
  EXPECT_TRUE(same_bytes(traces_csv(data, kHash),
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
  const auto ping_rows =
      data_rows(pings_csv(data, core::CsvFlavour::Published));
  ASSERT_EQ(ping_rows.size(), 1u);
  ASSERT_EQ(ping_rows[0].size(), 11u);
  EXPECT_EQ(ping_rows[0][8].size(), 309u + 4u);
  EXPECT_EQ(std::strtod(ping_rows[0][8].c_str(), nullptr), DBL_MAX);
  EXPECT_EQ(ping_rows[0][9], std::to_string(ping.day));

  const auto trace_rows =
      data_rows(traces_csv(data, core::CsvFlavour::Published));
  ASSERT_EQ(trace_rows.size(), trace.hops.size());
  for (const std::vector<std::string>& row : trace_rows) {
    ASSERT_EQ(row.size(), 13u);
    EXPECT_EQ(row[8].size(), 1u + 309u + 4u);
    EXPECT_EQ(std::strtod(row[8].c_str(), nullptr), -DBL_MAX);
  }
  EXPECT_EQ(std::strtod(trace_rows[0][12].c_str(), nullptr), DBL_MAX);
}

/// `pings` copies of the first ping of `source`, then one trace per entry
/// of `hops` with that many hops, cut from its first trace. Cells vary with
/// the row, so a batch swapped, dropped or repeated changes the bytes.
[[nodiscard]] measure::Dataset batch_rows(
    const measure::Dataset& source, std::size_t pings,
    const std::vector<std::size_t>& hops) {
  measure::Dataset data;
  measure::PingRecord ping = source.pings.front();
  for (std::size_t row = 0; row < pings; ++row) {
    ping.rtt_ms = 0.25 * static_cast<double>(row);
    ping.slot = static_cast<std::uint8_t>(row % 6);
    data.pings.push_back(ping);
  }
  measure::TraceRecord trace = source.traces.front().to_record();
  for (std::size_t row = 0; row < hops.size(); ++row) {
    trace.end_to_end_ms = 1.5 * static_cast<double>(row);
    trace.hops.clear();
    for (std::size_t hop = 0; hop < hops[row]; ++hop) {
      trace.hops.push_back(
          {static_cast<std::uint8_t>(hop % 255 + 1), hop % 3 != 2,
           net::Ipv4Address{static_cast<std::uint32_t>(0x0a000000u + hop)},
           0.5 * static_cast<double>(hop + row)});
    }
    data.traces.push_back(trace);
  }
  return data;
}

TEST_F(CoreRoundTrip, EncoderMatchesReferenceOnBatchBoundaries) {
  constexpr std::size_t kBatch = core::kCsvBatchRows;
  const std::vector<std::size_t> one_batch(kBatch / 16, 16);
  std::vector<std::size_t> one_batch_and_a_row = one_batch;
  one_batch_and_a_row.push_back(1);
  struct Case {
    const char* name;
    std::size_t pings;
    std::vector<std::size_t> hops;
  };
  const Case cases[] = {
      {"no rows", 0, {}},
      {"one row", 1, {1}},
      {"exactly one batch", kBatch, one_batch},
      {"one batch plus one row", kBatch + 1, one_batch_and_a_row},
      // 200 + 57 + 255 hop rows fill the first batch exactly; 100 + 255
      // leave too little room for the next 255-hop trace, so it starts the
      // third batch; a trace with no hops still takes a trace id.
      {"255-hop traces on batch boundaries",
       2 * kBatch - 1,
       {200, 57, 255, 100, 255, 255, 0, 3}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const measure::Dataset data =
        batch_rows(study().sc_dataset(), c.pings, c.hops);
    expect_matches_reference({&data});
  }
}

// The encoder reuses a window slot as soon as its batch is retired. Had a
// slot been retired before an encoder claimed its batch, the slot would be
// refilled under that encoder and encoded twice — which shows only now and
// then, as a wrong hash or as a call that never returns. So: many calls
// over one dataset of more batches than the window, and a single value. A
// hung pipeline cannot be joined, so a watchdog ends the process with a
// failure instead. Most traces have no hops: each still takes a trace id
// and a row of its batch's room but writes nothing, which keeps the calls
// cheap enough for the TSan job.
TEST_F(CoreRoundTrip, DatasetHashIsOneValueOverRepeatedCalls) {
  std::vector<std::size_t> hops((core::kCsvWindowBatches + 2) *
                                core::kCsvBatchRows);
  for (std::size_t trace = 0; trace < hops.size(); trace += 64) {
    hops[trace] = 2;
  }
  const measure::Dataset data =
      batch_rows(study().sc_dataset(), 4 * core::kCsvBatchRows, hops);
  constexpr core::CsvFlavour kHash = core::CsvFlavour::Canonical;
  const std::uint64_t expected =
      util::fnv1a(reference_pings_csv({&data}, kHash) +
                  reference_traces_csv({&data}, kHash));
  std::promise<int> finished;
  std::future<int> wrong = finished.get_future();
  std::thread calls{[&] {
    int count = 0;
    for (int call = 0; call < 200; ++call) {
      if (core::dataset_hash(data) != expected) ++count;
    }
    finished.set_value(count);
  }};
  if (wrong.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    std::fprintf(stderr, "FAILED: dataset_hash did not return within 60 s\n");
    std::_Exit(1);
  }
  calls.join();
  EXPECT_EQ(wrong.get(), 0) << "calls of 200 that hashed to another value";
}

// The hash writes no file, so it is no export: it leaves the export row
// counters alone, and an export moves them by exactly the rows it wrote.
TEST_F(CoreRoundTrip, OnlyExportsCountExportRows) {
  const measure::Dataset& data = study().sc_dataset();
  const obs::Counter& ping_rows =
      obs::Registry::global().counter("export.ping_rows_total");
  const obs::Counter& trace_rows =
      obs::Registry::global().counter("export.trace_rows_total");
  const std::uint64_t pings_before = ping_rows.value();
  const std::uint64_t traces_before = trace_rows.value();
  (void)core::dataset_hash(data);
  EXPECT_EQ(ping_rows.value(), pings_before);
  EXPECT_EQ(trace_rows.value(), traces_before);

  const auto data_rows = [](const std::string& csv) {
    return static_cast<std::uint64_t>(
               std::count(csv.begin(), csv.end(), '\n')) -
           1;
  };
  const std::string pings = pings_csv(data, core::CsvFlavour::Published);
  EXPECT_EQ(ping_rows.value() - pings_before, data_rows(pings));
  EXPECT_EQ(trace_rows.value(), traces_before);
  const std::string traces = traces_csv(data, core::CsvFlavour::Published);
  EXPECT_EQ(trace_rows.value() - traces_before, data_rows(traces));
  EXPECT_GT(data_rows(traces), data.traces.size());
}

/// A stream buffer that throws once more than `room` bytes reach it.
class FailingStreamBuffer : public std::streambuf {
 public:
  explicit FailingStreamBuffer(std::size_t room) : room_(room) {}

 protected:
  std::streamsize xsputn(const char* /*bytes*/,
                         std::streamsize count) override {
    const auto size = static_cast<std::size_t>(count);
    if (size > room_) throw std::runtime_error("device full");
    room_ -= size;
    return count;
  }
  int_type overflow(int_type ch) override {
    if (room_ == 0) throw std::runtime_error("device full");
    --room_;
    return traits_type::not_eof(ch);
  }

 private:
  std::size_t room_;
};

// A sink that fails mid-export ends the pipeline: the call rethrows on the
// caller (after its threads have joined) instead of hanging or aborting.
TEST_F(CoreRoundTrip, ExportRethrowsAFailingStreamOnTheCaller) {
  const measure::Dataset& data = study().sc_dataset();
  ASSERT_GT(traces_csv(data, core::CsvFlavour::Published).size(), 1'000'000u);
  FailingStreamBuffer buffer{300'000};
  std::ostream out{&buffer};
  out.exceptions(std::ios::badbit);
  EXPECT_THROW(core::export_traces_csv(out, data), std::runtime_error);
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

/// write_full_report over the quick study (Speedchecker and Atlas) as a
/// literal. e2ebench pins the report's FNV-1a at the default scale; this
/// pins it in ctest, so a byte drift in any exhibit fails the suite. It
/// only moves in a deliberate change to an exhibit, recorded in CHANGES.md.
constexpr std::string_view kPinnedReportHash = "5190462bde40ec35";

class ReportGate : public CoreRoundTrip {};

TEST_F(ReportGate, FullReportMatchesPinnedLiteral) {
  std::ostringstream out;
  core::write_full_report(out, study().view());
  EXPECT_EQ(core::format_dataset_hash(util::fnv1a(out.str())),
            kPinnedReportHash);
}

/// The text write_full_report renders next to the JSON (report.txt).
[[nodiscard]] std::string text_report(const core::Study& study) {
  std::ostringstream json;
  std::ostringstream text;
  core::write_full_report(json, study.view(), &text);
  return text.str();
}

/// report.txt over the same quick study, pinned the same way; a run at 4
/// threads must render the same bytes.
constexpr std::string_view kPinnedTextReportHash = "cf539b888202c892";

TEST_F(ReportGate, TextReportMatchesPinnedLiteral) {
  core::StudyConfig config = core::StudyConfig::quick();
  config.threads = 4;
  core::Study threaded{config};
  threaded.run();
  for (const core::Study* run : {&study(), &std::as_const(threaded)}) {
    SCOPED_TRACE(run->config().threads);
    EXPECT_EQ(core::format_dataset_hash(util::fnv1a(text_report(*run))),
              kPinnedTextReportHash);
  }
}

/// The 19 exhibit headers of report.txt, in paper order.
constexpr std::array<std::string_view, 19> kExhibitTitles{
    "Table 1 — ",  "Fig. 1b / Fig. 2 — ", "§3.3 — ",
    "Fig. 3 — ",   "Fig. 4 — ",           "Fig. 5 — ",
    "Fig. 6 — ",   "Fig. 7 — ",           "Fig. 8 — ",
    "Fig. 9 — ",   "Fig. 10 — ",          "Fig. 11 — ",
    "Fig. 12 — ",  "Fig. 13 — ",          "Fig. 15 — ",
    "Fig. 16 — ",  "Fig. 17 (A.4) — ",    "Fig. 18 (A.4) — ",
    "Fig. 19 — "};

/// Every exhibit, in order, each title right below a rule and above its
/// "paper:" line; no share printed as "nan".
void expect_complete_text_report(const std::string& text) {
  const std::string rule(62, '=');
  std::size_t at = 0;
  for (const std::string_view title : kExhibitTitles) {
    const std::string header = rule + "\n" + std::string{title};
    at = text.find(header, at);
    ASSERT_NE(at, std::string::npos) << title;
    const std::size_t line_end = text.find('\n', at + header.size());
    EXPECT_EQ(text.compare(line_end + 1, 7, "paper: "), 0) << title;
  }
  EXPECT_EQ(text.find("nan"), std::string::npos);
}

[[nodiscard]] std::string run_text_report(const core::StudyConfig& config) {
  core::Study study{config};
  study.run();
  return text_report(study);
}

TEST(TextReport, RendersEveryExhibitWithoutAtlas) {
  core::StudyConfig config = core::StudyConfig::quick();
  config.sc_probes = 600;
  config.include_atlas = false;
  const std::string text = run_text_report(config);
  expect_complete_text_report(text);
  EXPECT_EQ(text.find("RIPE Atlas ("), std::string::npos);
  // Fig. 14's Atlas column and every geoDensity ratio have no Atlas probes.
  const auto rows_after = [&text](std::string_view heading) {
    std::istringstream lines{text.substr(text.find(heading))};
    std::vector<std::vector<std::string>> rows;
    std::string line;
    for (int i = 0; std::getline(lines, line) && i < 3 + 6; ++i) {
      if (i < 3) continue;  // the heading, the column names, the rule
      std::istringstream cells{line};
      rows.emplace_back(std::istream_iterator<std::string>{cells},
                        std::istream_iterator<std::string>{});
    }
    return rows;
  };
  for (const auto& row : rows_after("-- probe closeness")) {
    ASSERT_EQ(row.size(), 3u);
    EXPECT_EQ(row[2], "-") << row[0];
  }
  for (const auto& row : rows_after("-- geoDensity ratio")) {
    ASSERT_EQ(row.size(), 4u);
    EXPECT_EQ(row[2], "0") << row[0];
    EXPECT_EQ(row[3], "-") << row[0];
  }
}

TEST(TextReport, RendersTheSmokeStudy) {
  core::StudyConfig config;
  config.sc_probes = 200;
  config.atlas_probes = 50;
  config.sc_campaign.days = 1;
  expect_complete_text_report(run_text_report(config));
}

// With no Speedchecker day there is no country median: the HPL share of
// Fig. 3 has no denominator and reads "-".
TEST(TextReport, ZeroDenominatorsReadDash) {
  core::StudyConfig config = core::StudyConfig::quick();
  config.sc_probes = 200;
  config.include_atlas = false;
  config.sc_campaign.days = 0;
  const std::string text = run_text_report(config);
  expect_complete_text_report(text);
  EXPECT_NE(text.find("countries measured: 0\n  median < MTP (20 ms):  0\n"
                      "  median < HPL (100 ms): 0 (-)\n"),
            std::string::npos);
}

// --scale and CLOUDRTT_SCALE take exactly three spellings: default, paper and
// NxM probe counts. 600x150 is a tenth of the default fleet, with the budgets
// scaled to match.
TEST(Scale, AcceptsDefaultPaperAndProbeCounts) {
  const core::ScaleSpec fallback = core::parse_scale("default");
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(fallback.sc_probes, 6000u);
  EXPECT_EQ(fallback.atlas_probes, 1500u);
  const core::ScaleSpec paper = core::parse_scale("paper");
  ASSERT_TRUE(paper.ok());
  EXPECT_EQ(paper.sc_probes, 115000u);
  EXPECT_EQ(paper.atlas_probes, 8500u);
  const core::ScaleSpec tenth = core::parse_scale("600x150");
  ASSERT_TRUE(tenth.ok());
  EXPECT_EQ(tenth.name, "600x150");
  core::StudyConfig config;
  core::apply_scale(config, tenth);
  EXPECT_EQ(config.sc_probes, 600u);
  EXPECT_EQ(config.atlas_probes, 150u);
  EXPECT_EQ(config.sc_campaign.daily_budget, 1500u);
  EXPECT_EQ(config.atlas_campaign.daily_budget, 350u);
}

// A bare multiplier is not a scale; the refusal names the value and the
// spellings that are accepted.
TEST(Scale, RefusesBareMultipliersAndMalformedCounts) {
  for (const std::string_view text :
       {"0.1", "20", "1e3", "600x", "x150", "600x0", "600x150x2"}) {
    const core::ScaleSpec spec = core::parse_scale(text);
    EXPECT_FALSE(spec.ok()) << text;
    EXPECT_NE(spec.error.find("'" + std::string{text} + "'"),
              std::string::npos)
        << spec.error;
    for (const std::string_view spelling : {"default", "paper", "NxM"}) {
      EXPECT_NE(spec.error.find(spelling), std::string::npos) << spec.error;
    }
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
  EXPECT_FALSE(study.world().has_pop(cloud::ProviderId::Microsoft,
                                     study.world().countries().row("DE")));
  for (const probes::Probe& probe : study.sc_fleet().probes()) {
    EXPECT_EQ(probe.access, lastmile::AccessTech::Wired);
  }
}

}  // namespace
}  // namespace cloudrtt
