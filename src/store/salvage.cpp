#include "store/salvage.hpp"

#include <algorithm>
#include <charconv>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
#include "store/codec.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cloudrtt::store {

namespace {

namespace fs = std::filesystem;

template <typename T>
[[nodiscard]] bool parse_number(std::string_view text, T& out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && ptr == text.data() + text.size() &&
         !text.empty();
}

/// The format=3 manifest, fully parsed.
struct Manifest {
  std::string platform;
  std::string fault_profile = "none";
  std::uint64_t seed = 0;
  std::uint32_t next_day = 0;
  std::uint64_t cursor = 0;
  std::uint32_t day_tasks_done = 0;
  std::uint64_t pings = 0;
  std::uint64_t traces = 0;
  std::vector<LaneState> lanes;
};

[[nodiscard]] std::string parse_manifest(const std::string& text,
                                         std::string_view platform,
                                         Manifest& out) {
  std::unordered_map<std::string, std::string> kv;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    const std::string_view line{text.data() + begin, end - begin};
    begin = end + 1;
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return "damaged manifest line: '" + std::string{line} + "'";
    }
    kv.emplace(line.substr(0, eq), line.substr(eq + 1));
  }
  const auto number = [&](const char* key, auto& value) {
    const auto it = kv.find(key);
    return it != kv.end() && parse_number(it->second, value);
  };
  std::uint64_t lane_count = 0;
  if (kv["format"] != "3" || !number("seed", out.seed) ||
      !number("lanes", lane_count) || lane_count == 0 ||
      !number("next_day", out.next_day) || !number("cursor", out.cursor) ||
      !number("day_tasks_done", out.day_tasks_done) ||
      !number("pings", out.pings) || !number("traces", out.traces)) {
    return "manifest missing or damaged fields";
  }
  if (kv["platform"] != platform) {
    return "manifest platform '" + kv["platform"] +
           "' does not match requested '" + std::string{platform} + "'";
  }
  if (out.pings != out.traces) {
    return "manifest ping/trace totals disagree (" +
           std::to_string(out.pings) + " vs " + std::to_string(out.traces) +
           ")";
  }
  out.platform = kv["platform"];
  if (kv.contains("fault_profile")) out.fault_profile = kv["fault_profile"];
  out.lanes.resize(lane_count);
  for (std::uint64_t lane = 0; lane < lane_count; ++lane) {
    const auto it = kv.find("lane" + std::to_string(lane));
    if (it == kv.end()) {
      return "manifest missing lane" + std::to_string(lane) + " entry";
    }
    const std::string& entry = it->second;
    const std::size_t colon = entry.find(':');
    LaneState& state = out.lanes[lane];
    if (colon == std::string::npos ||
        !parse_number(std::string_view{entry}.substr(0, colon),
                      state.durable_bytes) ||
        !parse_number(std::string_view{entry}.substr(colon + 1),
                      state.next_seq)) {
      return "damaged manifest lane entry '" + entry + "'";
    }
  }
  return {};
}

/// One parsed block, with its rows when a binder was supplied.
struct ScannedBlock {
  BlockHeader header;
  measure::Dataset rows;
  std::uint64_t bytes = 0;  ///< framed size: header line + payload
  std::size_t lane = 0;
};

/// What one lane's file yielded.
struct LaneScan {
  std::vector<ScannedBlock> committed;
  std::vector<ScannedBlock> tail;
  std::uint64_t dropped_blocks = 0;  ///< valid frame, wrong sequence
  std::uint64_t torn_bytes = 0;      ///< unusable bytes past the last keeper
  std::string error;                 ///< committed-region violation
};

/// Parse the block starting at `offset`. True on success (offset advanced
/// past the block); false leaves `why` describing the damage.
[[nodiscard]] bool next_block(std::string_view text, std::size_t& offset,
                              const RowBinder* binder, ScannedBlock& out,
                              std::string& why) {
  const std::size_t header_end = text.find('\n', offset);
  if (header_end == std::string_view::npos) {
    why = "incomplete block header";
    return false;
  }
  if (!parse_block_header(text.substr(offset, header_end - offset),
                          out.header)) {
    why = "malformed block header";
    return false;
  }
  const std::size_t payload_begin = header_end + 1;
  if (out.header.bytes > text.size() - payload_begin) {
    why = "payload truncated (header claims " +
          std::to_string(out.header.bytes) + " bytes, " +
          std::to_string(text.size() - payload_begin) + " remain)";
    return false;
  }
  const std::string_view payload =
      text.substr(payload_begin, out.header.bytes);
  if (util::fnv1a_words(payload) != out.header.fnv1a) {
    why = "payload checksum mismatch (fnv1a)";
    return false;
  }
  if (binder != nullptr) {
    out.rows.clear_rows();
    out.rows.bind(binder->sc_fleet(), binder->atlas_fleet());
    if (std::string parse_error =
            binder->parse_block(payload, out.header, out.rows);
        !parse_error.empty()) {
      why = "unparseable payload: " + parse_error;
      return false;
    }
  }
  out.bytes = (payload_begin - offset) + out.header.bytes;
  offset = payload_begin + out.header.bytes;
  return true;
}

/// Scan one lane file: strict inside the committed region, salvage beyond.
[[nodiscard]] LaneScan scan_lane(const std::optional<std::string>& content,
                                 const LaneState& durable, std::size_t lane,
                                 const RowBinder* binder) {
  LaneScan scan;
  const std::string text = content.value_or(std::string{});
  const auto lane_label = [&] { return "lane " + std::to_string(lane); };
  if (!content.has_value() && durable.durable_bytes > 0) {
    scan.error = lane_label() + ": shard file missing but manifest commits " +
                 std::to_string(durable.durable_bytes) + " bytes";
    return scan;
  }
  if (text.size() < durable.durable_bytes) {
    scan.error = lane_label() + ": shard holds " +
                 std::to_string(text.size()) + " bytes, manifest commits " +
                 std::to_string(durable.durable_bytes);
    return scan;
  }

  std::size_t offset = 0;
  std::uint64_t expected_seq = 0;
  while (offset < durable.durable_bytes) {
    ScannedBlock block;
    block.lane = lane;
    std::string why;
    if (!next_block(text, offset, binder, block, why)) {
      scan.error = lane_label() + ": committed block " +
                   std::to_string(expected_seq) + ": " + why;
      return scan;
    }
    if (offset > durable.durable_bytes) {
      scan.error = lane_label() + ": committed block " +
                   std::to_string(expected_seq) +
                   " straddles the manifest's byte mark";
      return scan;
    }
    if (block.header.seq != expected_seq) {
      scan.error = lane_label() + ": committed block has seq " +
                   std::to_string(block.header.seq) + ", expected " +
                   std::to_string(expected_seq);
      return scan;
    }
    ++expected_seq;
    scan.committed.push_back(std::move(block));
  }
  if (expected_seq != durable.next_seq) {
    scan.error = lane_label() + ": committed region holds " +
                 std::to_string(expected_seq) +
                 " blocks, manifest expects " +
                 std::to_string(durable.next_seq);
    return scan;
  }

  // Beyond the commit point: keep the longest valid run, count the rest.
  while (offset < text.size()) {
    const std::size_t block_start = offset;
    ScannedBlock block;
    block.lane = lane;
    std::string why;
    if (!next_block(text, offset, binder, block, why)) {
      scan.torn_bytes = text.size() - block_start;
      break;
    }
    if (block.header.seq != expected_seq) {
      // A duplicated or replayed frame: structurally fine, but it does not
      // continue this lane — everything from here on is unusable.
      ++scan.dropped_blocks;
      scan.torn_bytes = text.size() - block_start;
      break;
    }
    ++expected_seq;
    scan.tail.push_back(std::move(block));
  }
  return scan;
}

/// Sort key for cross-lane assembly: global append order is (day, start).
[[nodiscard]] bool block_order(const ScannedBlock* a, const ScannedBlock* b) {
  return a->header.day != b->header.day ? a->header.day < b->header.day
                                        : a->header.start < b->header.start;
}

void append_rows(measure::Dataset& out, const ScannedBlock& block) {
  // Both datasets are bound to the same fleets and block rows never mint
  // extras codes, so this is a raw column splice.
  out.append(block.rows);
}

/// Shared core of open_store and fsck. `binder` null = structural only.
[[nodiscard]] OpenResult open_impl(const fs::path& dir,
                                   std::string_view platform, IoEnv& io,
                                   const RowBinder* binder, bool repair) {
  OpenResult result;
  const std::optional<std::string> manifest_text =
      io.read_file(store_manifest_path(dir, platform));
  if (!manifest_text.has_value()) {
    result.error =
        "missing manifest " + store_manifest_path(dir, platform).string();
    return result;
  }
  Manifest manifest;
  if (std::string err = parse_manifest(*manifest_text, platform, manifest);
      !err.empty()) {
    result.error = std::move(err);
    return result;
  }
  result.meta.platform = manifest.platform;
  result.meta.seed = manifest.seed;
  result.meta.fault_profile = manifest.fault_profile;
  if (binder != nullptr) {
    result.data.bind(binder->sc_fleet(), binder->atlas_fleet());
  }

  // Lanes are independent on disk, so the scan — the expensive part of a
  // resume — runs one thread per lane; this is what keeps reopening a
  // campaign flat-cost as --threads (== lanes) grows.
  const std::size_t lane_count = manifest.lanes.size();
  std::vector<LaneScan> scans(lane_count);
  {
    std::vector<std::thread> workers;
    workers.reserve(lane_count);
    for (std::size_t lane = 0; lane < lane_count; ++lane) {
      workers.emplace_back([&, lane] {
        scans[lane] = scan_lane(io.read_file(store_lane_path(dir, platform, lane)),
                                manifest.lanes[lane], lane, binder);
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  for (const LaneScan& scan : scans) {
    if (!scan.error.empty()) {
      result.error = "store refused: " + scan.error;
      return result;
    }
  }

  // Committed region, cross-lane: global order must reassemble into
  // contiguous per-day task runs whose total matches the manifest.
  std::vector<ScannedBlock*> committed;
  for (LaneScan& scan : scans) {
    for (ScannedBlock& block : scan.committed) committed.push_back(&block);
  }
  std::stable_sort(committed.begin(), committed.end(), block_order);
  std::uint64_t committed_tasks = 0;
  {
    std::uint32_t current_day = 0;
    std::uint64_t expected_start = 0;
    bool have_day = false;
    for (const ScannedBlock* block : committed) {
      const BlockHeader& header = block->header;
      if (block->lane != header.day % lane_count) {
        result.error = "store refused: committed block for day " +
                       std::to_string(header.day) + " sits in lane " +
                       std::to_string(block->lane) + ", expected lane " +
                       std::to_string(header.day % lane_count);
        return result;
      }
      if (!have_day || header.day != current_day) {
        if (have_day && header.day < current_day) {
          result.error = "store refused: committed days out of order";
          return result;
        }
        current_day = header.day;
        expected_start = 0;
        have_day = true;
      }
      if (header.start != expected_start) {
        result.error = "store refused: day " + std::to_string(header.day) +
                       " tasks are not contiguous (block starts at " +
                       std::to_string(header.start) + ", expected " +
                       std::to_string(expected_start) + ")";
        return result;
      }
      expected_start += header.tasks;
      committed_tasks += header.tasks;
    }
  }
  if (committed_tasks != manifest.pings) {
    result.error = "store refused: shards hold " +
                   std::to_string(committed_tasks) +
                   " committed task rows, manifest expects " +
                   std::to_string(manifest.pings);
    return result;
  }
  result.salvage.committed_blocks = committed.size();
  for (ScannedBlock* block : committed) append_rows(result.data, *block);

  // The uncommitted tail: adopt the longest chain that continues exactly
  // where the manifest stopped. Same-day blocks must extend the task run;
  // a later day may start only at task 0 (appends are globally FIFO, so a
  // day-N block on disk proves every earlier day finished; empty days
  // legitimately write nothing). Anything else ends the chain.
  std::vector<ScannedBlock*> tail;
  for (LaneScan& scan : scans) {
    for (ScannedBlock& block : scan.tail) tail.push_back(&block);
    result.salvage.dropped_blocks += scan.dropped_blocks;
    result.salvage.truncated_bytes += scan.torn_bytes;
  }
  std::stable_sort(tail.begin(), tail.end(), block_order);
  std::vector<std::uint64_t> adopted_bytes(lane_count, 0);
  std::vector<std::uint64_t> adopted_blocks(lane_count, 0);
  std::uint32_t chain_day = manifest.next_day;
  std::uint64_t chain_start = manifest.day_tasks_done;
  std::uint64_t chain_cursor = manifest.cursor;
  bool adopted_any = false;
  std::size_t kept = 0;
  for (ScannedBlock* block : tail) {
    const BlockHeader& header = block->header;
    const bool extends_day =
        header.day == chain_day && header.start == chain_start;
    const bool opens_day = header.day > chain_day && header.start == 0;
    if ((!extends_day && !opens_day) ||
        block->lane != header.day % lane_count) {
      break;
    }
    if (opens_day) chain_day = header.day;
    chain_start = opens_day ? header.tasks
                            : chain_start + header.tasks;
    chain_cursor = header.cursor;
    adopted_any = true;
    adopted_bytes[block->lane] += block->bytes;
    adopted_blocks[block->lane] += 1;
    ++result.salvage.salvaged_blocks;
    result.salvage.salvaged_rows += header.tasks;
    append_rows(result.data, *block);
    ++kept;
  }
  for (std::size_t i = kept; i < tail.size(); ++i) {
    ++result.salvage.dropped_blocks;
    result.salvage.truncated_bytes += tail[i]->bytes;
  }

  result.durable_rows = committed_tasks + result.salvage.salvaged_rows;
  result.lane_states.resize(lane_count);
  for (std::size_t lane = 0; lane < lane_count; ++lane) {
    result.lane_states[lane].durable_bytes =
        manifest.lanes[lane].durable_bytes + adopted_bytes[lane];
    result.lane_states[lane].next_seq =
        manifest.lanes[lane].next_seq + adopted_blocks[lane];
  }
  if (adopted_any) {
    CLOUDRTT_CHECK(chain_start <= 0xffffffffULL,
                   "salvaged day task count overflows");
    result.state.next_day = chain_day;
    result.state.cursor = static_cast<std::size_t>(chain_cursor);
    result.state.day_tasks_done = static_cast<std::uint32_t>(chain_start);
  } else {
    result.state.next_day = manifest.next_day;
    result.state.cursor = static_cast<std::size_t>(manifest.cursor);
    result.state.day_tasks_done = manifest.day_tasks_done;
  }

  if (repair && result.salvage.truncated_bytes > 0) {
    for (std::size_t lane = 0; lane < lane_count; ++lane) {
      const fs::path path = store_lane_path(dir, platform, lane);
      const std::optional<std::uint64_t> size = io.file_size(path);
      if (size.has_value() &&
          *size > result.lane_states[lane].durable_bytes) {
        if (const IoStatus cut =
                io.truncate(path, result.lane_states[lane].durable_bytes);
            !cut.ok()) {
          result.error = "store repair failed: " + cut.error;
          return result;
        }
      }
    }
    result.salvage.repaired = true;
  }
  return result;
}

}  // namespace

int manifest_format(const fs::path& dir, std::string_view platform,
                    IoEnv& io) {
  const std::optional<std::string> text =
      io.read_file(store_manifest_path(dir, platform));
  if (!text.has_value()) return 0;
  const std::string_view view{*text};
  constexpr std::string_view kKey = "format=";
  if (!view.starts_with(kKey)) return 0;
  const std::size_t end = view.find('\n', kKey.size());
  int format = 0;
  if (!parse_number(view.substr(kKey.size(),
                                end == std::string_view::npos
                                    ? std::string_view::npos
                                    : end - kKey.size()),
                    format)) {
    return 0;
  }
  return format;
}

OpenResult open_store_structural(const fs::path& dir,
                                 std::string_view platform, IoEnv& io,
                                 bool repair) {
  return open_impl(dir, platform, io, /*binder=*/nullptr, repair);
}

OpenResult open_store(const fs::path& dir, std::string_view platform,
                      IoEnv& io, const probes::ProbeFleet* sc_fleet,
                      const probes::ProbeFleet* atlas_fleet, bool repair) {
  const RowBinder binder{sc_fleet, atlas_fleet};
  OpenResult result = open_impl(dir, platform, io, &binder, repair);
  if (result.ok() && !result.salvage.clean()) {
    obs::Registry& registry = obs::Registry::global();
    registry
        .counter("store.salvage_blocks_total",
                 "uncommitted blocks adopted on resume")
        .inc(result.salvage.salvaged_blocks);
    registry
        .counter("store.salvage_rows_total",
                 "task rows recovered from uncommitted tails")
        .inc(result.salvage.salvaged_rows);
    registry
        .counter("store.salvage_dropped_blocks_total",
                 "tail blocks rejected during salvage")
        .inc(result.salvage.dropped_blocks);
    registry
        .counter("store.salvage_truncated_bytes_total",
                 "torn tail bytes cut away during salvage")
        .inc(result.salvage.truncated_bytes);
  }
  return result;
}

FsckReport fsck(const fs::path& dir, std::string_view platform, IoEnv& io) {
  FsckReport report;
  report.format = manifest_format(dir, platform, io);
  if (report.format == 0) {
    report.error = "no store or checkpoint manifest found";
    return report;
  }
  if (report.format == 1 || report.format == 2) {
    report.error = "legacy format=" + std::to_string(report.format) +
                   " CSV checkpoint; only format=3 stores are read — re-run "
                   "the campaign from scratch";
    return report;
  }
  const OpenResult opened =
      open_impl(dir, platform, io, /*binder=*/nullptr, /*repair=*/false);
  if (!opened.ok()) {
    report.error = opened.error;
    return report;
  }
  report.committed_blocks = opened.salvage.committed_blocks;
  report.committed_rows = 0;
  report.tail_blocks = opened.salvage.salvaged_blocks;
  report.tail_rows = opened.salvage.salvaged_rows;
  report.dropped_blocks = opened.salvage.dropped_blocks;
  report.torn_bytes = opened.salvage.truncated_bytes;
  // Structural scan skips row binding, so count rows from the manifest.
  const std::optional<std::string> manifest_text =
      io.read_file(store_manifest_path(dir, platform));
  if (manifest_text.has_value()) {
    Manifest manifest;
    if (parse_manifest(*manifest_text, platform, manifest).empty()) {
      report.committed_rows = manifest.pings;
    }
  }
  return report;
}

std::string FsckReport::render(std::string_view platform) const {
  std::string line{platform};
  line += ": ";
  if (!healthy()) {
    line += "DAMAGED: " + error;
    return line;
  }
  line += "format=3, " + std::to_string(committed_blocks) +
          " committed blocks (" + std::to_string(committed_rows) +
          " task rows)";
  if (tail_blocks > 0 || dropped_blocks > 0 || torn_bytes > 0) {
    line += ", uncommitted tail: " + std::to_string(tail_blocks) +
            " salvageable blocks (" + std::to_string(tail_rows) +
            " task rows), " + std::to_string(dropped_blocks) + " dropped, " +
            std::to_string(torn_bytes) + " torn bytes";
  } else {
    line += ", no uncommitted tail";
  }
  line += " — HEALTHY";
  return line;
}

}  // namespace cloudrtt::store
