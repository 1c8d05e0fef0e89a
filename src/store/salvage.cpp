#include "store/salvage.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <limits>
#include <optional>
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

/// Longest block header line the reader accepts; a real one is under 170
/// bytes (seven fields of at most 20 digits).
constexpr std::size_t kMaxHeaderBytes = 256;

/// Reads one lane file's framed blocks in order, holding one block at a
/// time: the header line, read with a bound so a damaged lane cannot make
/// it buffer the rest of the file, then the payload, into a buffer reused
/// across blocks and checked against the header's fnv1a. Never reads past
/// `limit` bytes. After a failed next() the reader is spent.
class BlockReader {
 public:
  BlockReader(const fs::path& path, std::uint64_t limit)
      : in_(path, std::ios::binary), limit_(limit) {}

  /// Offset of the next block: the framed end of the last one read.
  [[nodiscard]] std::uint64_t offset() const { return offset_; }
  [[nodiscard]] bool done() const { return offset_ >= limit_; }
  [[nodiscard]] const BlockHeader& header() const { return header_; }
  [[nodiscard]] std::string_view payload() const { return payload_; }

  /// Read the block at offset(). Empty on success; else what is wrong.
  [[nodiscard]] std::string next() {
    if (!in_.is_open()) return "shard file unreadable";
    char line[kMaxHeaderBytes + 1];
    in_.getline(line, sizeof line);
    if (in_.eof()) return "incomplete block header";
    // getline counts the newline it consumed but does not store it.
    const auto line_bytes = static_cast<std::uint64_t>(in_.gcount());
    if (in_.fail() || !parse_block_header({line, line_bytes - 1}, header_)) {
      return "malformed block header";
    }
    const std::uint64_t payload_begin = offset_ + line_bytes;
    const std::uint64_t remain =
        limit_ > payload_begin ? limit_ - payload_begin : 0;
    if (header_.bytes > remain) {
      return "payload truncated (header claims " +
             std::to_string(header_.bytes) + " bytes, " +
             std::to_string(remain) + " remain)";
    }
    payload_.resize(header_.bytes);
    in_.read(payload_.data(), static_cast<std::streamsize>(header_.bytes));
    if (static_cast<std::uint64_t>(in_.gcount()) != header_.bytes) {
      return "payload truncated (the file ends inside it)";
    }
    if (util::fnv1a_words(payload_) != header_.fnv1a) {
      return "payload checksum mismatch (fnv1a)";
    }
    offset_ = payload_begin + header_.bytes;
    return {};
  }

 private:
  std::ifstream in_;
  std::uint64_t limit_;
  std::uint64_t offset_ = 0;
  BlockHeader header_;
  std::string payload_;
};

/// A validated block: its header and framed size, never its payload.
struct BlockInfo {
  BlockHeader header;
  std::uint64_t bytes = 0;  ///< framed size: header line + payload
  std::size_t lane = 0;
};

/// What one lane's file yielded.
struct LaneScan {
  std::vector<BlockInfo> committed;
  std::vector<BlockInfo> tail;
  std::optional<BlockHeader> last;   ///< the lane's last valid block
  std::uint64_t dropped_blocks = 0;  ///< valid frame that does not follow
  std::uint64_t torn_bytes = 0;      ///< unusable bytes past the last keeper
  std::string error;                 ///< committed-region violation
};

/// Validate one lane file of `size` bytes (nullopt: missing): strict inside
/// the committed region, salvage beyond.
[[nodiscard]] LaneScan scan_lane(const fs::path& path,
                                 std::optional<std::uint64_t> size,
                                 const LaneState& durable, std::size_t lane) {
  LaneScan scan;
  const auto lane_label = [&] { return "lane " + std::to_string(lane); };
  if (!size.has_value() && durable.durable_bytes > 0) {
    scan.error = lane_label() + ": shard file missing but manifest commits " +
                 std::to_string(durable.durable_bytes) + " bytes";
    return scan;
  }
  const std::uint64_t file_bytes = size.value_or(0);
  if (file_bytes < durable.durable_bytes) {
    scan.error = lane_label() + ": shard holds " +
                 std::to_string(file_bytes) + " bytes, manifest commits " +
                 std::to_string(durable.durable_bytes);
    return scan;
  }

  BlockReader reader{path, file_bytes};
  std::uint64_t expected_seq = 0;
  while (reader.offset() < durable.durable_bytes) {
    const std::uint64_t block_start = reader.offset();
    if (std::string why = reader.next(); !why.empty()) {
      scan.error = lane_label() + ": committed block " +
                   std::to_string(expected_seq) + ": " + why;
      return scan;
    }
    if (reader.offset() > durable.durable_bytes) {
      scan.error = lane_label() + ": committed block " +
                   std::to_string(expected_seq) +
                   " straddles the manifest's byte mark";
      return scan;
    }
    if (reader.header().seq != expected_seq) {
      scan.error = lane_label() + ": committed block has seq " +
                   std::to_string(reader.header().seq) + ", expected " +
                   std::to_string(expected_seq);
      return scan;
    }
    ++expected_seq;
    scan.committed.push_back(
        {reader.header(), reader.offset() - block_start, lane});
    scan.last = reader.header();
  }
  if (expected_seq != durable.next_seq) {
    scan.error = lane_label() + ": committed region holds " +
                 std::to_string(expected_seq) +
                 " blocks, manifest expects " +
                 std::to_string(durable.next_seq);
    return scan;
  }

  // Beyond the commit point: keep the longest valid run, count the rest.
  // A lane's blocks follow one another: each continues the previous
  // block's task run or opens a later day at task 0.
  const auto follows = [&](const BlockHeader& block) {
    if (!scan.last.has_value()) return block.start == 0;
    const BlockHeader& prev = *scan.last;
    return block.day == prev.day
               ? block.start == std::uint64_t{prev.start} + prev.tasks
               : block.day > prev.day && block.start == 0;
  };
  while (!reader.done()) {
    const std::uint64_t block_start = reader.offset();
    if (!reader.next().empty()) {
      scan.torn_bytes = file_bytes - block_start;
      break;
    }
    if (reader.header().seq != expected_seq || !follows(reader.header())) {
      // A duplicated, replayed or relabelled frame: structurally fine, but
      // it does not continue this lane — everything from here on is
      // unusable.
      ++scan.dropped_blocks;
      scan.torn_bytes = file_bytes - block_start;
      break;
    }
    ++expected_seq;
    scan.tail.push_back({reader.header(), reader.offset() - block_start, lane});
    scan.last = reader.header();
  }
  return scan;
}

/// Global append order is (day, start).
[[nodiscard]] bool appended_before(const BlockHeader& a,
                                   const BlockHeader& b) {
  return a.day != b.day ? a.day < b.day : a.start < b.start;
}

[[nodiscard]] bool block_order(const BlockInfo* a, const BlockInfo* b) {
  return appended_before(a->header, b->header);
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

OpenResult open_store(const fs::path& dir, std::string_view platform,
                      IoEnv& io, bool repair) {
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

  const std::size_t lane_count = manifest.lanes.size();
  std::vector<LaneScan> scans;
  scans.reserve(lane_count);
  for (std::size_t lane = 0; lane < lane_count; ++lane) {
    const fs::path path = store_lane_path(dir, platform, lane);
    scans.push_back(
        scan_lane(path, io.file_size(path), manifest.lanes[lane], lane));
    if (!scans.back().error.empty()) {
      result.error = "store refused: " + scans.back().error;
      return result;
    }
  }

  // Committed region, cross-lane: global order must reassemble into
  // contiguous per-day task runs whose total matches the manifest.
  std::vector<const BlockInfo*> committed;
  for (const LaneScan& scan : scans) {
    for (const BlockInfo& block : scan.committed) committed.push_back(&block);
  }
  std::stable_sort(committed.begin(), committed.end(), block_order);
  std::uint64_t committed_tasks = 0;
  {
    std::uint32_t current_day = 0;
    std::uint64_t expected_start = 0;
    bool have_day = false;
    for (const BlockInfo* block : committed) {
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

  // The uncommitted tail: adopt the longest chain that continues exactly
  // where the manifest stopped. Same-day blocks must extend the task run;
  // a later day may start only at task 0 (appends are globally FIFO, so a
  // day-N block on disk proves every earlier day finished; empty days
  // legitimately write nothing). Anything else ends the chain. The proof
  // fails where a lane lost bytes (torn, or a block that does not follow):
  // they may have held the lane's next block, which is on the day of its
  // last block or, when that day is committed, on the lane's first
  // uncommitted day. No block of a later day is adopted past such a loss.
  std::vector<const BlockInfo*> tail;
  std::uint64_t loss_day = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t lane = 0; lane < lane_count; ++lane) {
    const LaneScan& scan = scans[lane];
    for (const BlockInfo& block : scan.tail) tail.push_back(&block);
    result.salvage.dropped_blocks += scan.dropped_blocks;
    result.salvage.truncated_bytes += scan.torn_bytes;
    if (scan.torn_bytes == 0) continue;
    std::uint64_t lost_day = scan.last.has_value() ? scan.last->day : 0;
    if (lost_day < manifest.next_day) {
      lost_day = manifest.next_day;
      while (lost_day % lane_count != lane) ++lost_day;
    }
    loss_day = std::min(loss_day, lost_day);
  }
  std::stable_sort(tail.begin(), tail.end(), block_order);
  std::vector<std::uint64_t> adopted_bytes(lane_count, 0);
  std::vector<std::uint64_t> adopted_blocks(lane_count, 0);
  std::uint32_t chain_day = manifest.next_day;
  std::uint64_t chain_start = manifest.day_tasks_done;
  std::uint64_t chain_cursor = manifest.cursor;
  bool adopted_any = false;
  std::size_t kept = 0;
  for (const BlockInfo* block : tail) {
    const BlockHeader& header = block->header;
    const bool extends_day =
        header.day == chain_day && header.start == chain_start;
    const bool opens_day = header.day > chain_day && header.start == 0;
    if ((!extends_day && !opens_day) ||
        block->lane != header.day % lane_count || header.day > loss_day) {
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

  if (!repair || result.salvage.clean()) return result;
  if (result.salvage.truncated_bytes > 0) {
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
  return result;
}

std::string scan_rows(
    const fs::path& dir, std::string_view platform, const OpenResult& opened,
    const probes::ProbeFleet* sc_fleet, const probes::ProbeFleet* atlas_fleet,
    const std::function<void(const measure::Dataset&)>& per_block) {
  if (!opened.ok()) return opened.error;
  const std::vector<LaneState>& lanes = opened.lane_states;
  // Day D lives in lane D % L and appends are globally FIFO, so the merge
  // only ever compares the lanes' head blocks.
  std::vector<BlockReader> readers;
  std::vector<std::uint8_t> holding(lanes.size(), 0);  ///< head block unread
  readers.reserve(lanes.size());
  const auto lane_error = [](std::size_t lane, const std::string& why) {
    return "lane " + std::to_string(lane) + ": " + why;
  };
  const auto advance = [&](std::size_t lane) -> std::string {
    holding[lane] = 0;
    if (readers[lane].done()) return {};
    if (std::string why = readers[lane].next(); !why.empty()) {
      return lane_error(lane, why);
    }
    holding[lane] = 1;
    return {};
  };
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    readers.emplace_back(store_lane_path(dir, platform, lane),
                         lanes[lane].durable_bytes);
    if (std::string err = advance(lane); !err.empty()) return err;
  }

  measure::Dataset block;
  block.bind(sc_fleet, atlas_fleet);
  for (;;) {
    std::size_t next = lanes.size();
    for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
      if (holding[lane] != 0 &&
          (next == lanes.size() ||
           appended_before(readers[lane].header(), readers[next].header()))) {
        next = lane;
      }
    }
    if (next == lanes.size()) return {};
    const BlockReader& head = readers[next];
    block.clear_rows();
    if (std::string why = parse_block(head.payload(), head.header(),
                                      sc_fleet, atlas_fleet, block);
        !why.empty()) {
      return lane_error(next, why);
    }
    per_block(block);
    if (std::string err = advance(next); !err.empty()) return err;
  }
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
  const OpenResult opened = open_store(dir, platform, io, /*repair=*/false);
  if (!opened.ok()) {
    report.error = opened.error;
    return report;
  }
  report.committed_blocks = opened.salvage.committed_blocks;
  report.committed_rows =
      opened.durable_rows - opened.salvage.salvaged_rows;
  report.tail_blocks = opened.salvage.salvaged_blocks;
  report.tail_rows = opened.salvage.salvaged_rows;
  report.dropped_blocks = opened.salvage.dropped_blocks;
  report.torn_bytes = opened.salvage.truncated_bytes;
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
