#include "store/salvage.hpp"

#include <charconv>
#include <fstream>
#include <optional>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
#include "store/codec.hpp"
#include "util/check.hpp"

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

/// The format=4 manifest, fully parsed.
struct Manifest {
  std::string platform;
  std::string fault_profile = "none";
  std::uint64_t seed = 0;
  std::uint32_t next_day = 0;
  std::uint64_t cursor = 0;
  std::uint32_t day_tasks_done = 0;
  std::uint64_t tasks = 0;
  ShardState shard;
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
  // shard=<durable bytes>:<committed blocks>
  const std::string shard = kv["shard"];
  const std::size_t colon = shard.find(':');
  if (kv["format"] != "4" || !number("seed", out.seed) ||
      !number("next_day", out.next_day) || !number("cursor", out.cursor) ||
      !number("day_tasks_done", out.day_tasks_done) ||
      !number("tasks", out.tasks) || colon == std::string::npos ||
      !parse_number(std::string_view{shard}.substr(0, colon),
                    out.shard.durable_bytes) ||
      !parse_number(std::string_view{shard}.substr(colon + 1),
                    out.shard.next_seq)) {
    return "manifest missing or damaged fields";
  }
  if (kv["platform"] != platform) {
    return "manifest platform '" + kv["platform"] +
           "' does not match requested '" + std::string{platform} + "'";
  }
  out.platform = kv["platform"];
  if (kv.contains("fault_profile")) out.fault_profile = kv["fault_profile"];
  return {};
}

/// Longest block header line the reader accepts; a real one is under 170
/// bytes (seven fields of at most 20 digits).
constexpr std::size_t kMaxHeaderBytes = 256;

/// Reads a shard file's framed blocks in order, holding one block at a
/// time: the header line, read with a bound so a damaged shard cannot make
/// it buffer the rest of the file, then the payload, into a buffer reused
/// across blocks and checked with block_checksum(). Never reads past
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
    if (block_checksum(header_, payload_) != header_.fnv1a) {
      return "block checksum mismatch (fnv1a)";
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

/// Where the campaign stands after the blocks read so far. The next block
/// must continue `day` at task `start`, or open a later day at task 0:
/// appends are FIFO in one file, so a later-day block proves every earlier
/// day finished (empty days legitimately write nothing).
struct Chain {
  std::uint32_t day = 0;
  std::uint64_t start = 0;

  [[nodiscard]] bool continued_by(const BlockHeader& block) const {
    return block.day == day ? block.start == start
                            : block.day > day && block.start == 0;
  }
  void take(const BlockHeader& block) {
    day = block.day;
    start = std::uint64_t{block.start} + block.tasks;
  }
};

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

  const fs::path path = store_shard_path(dir, platform);
  const std::optional<std::uint64_t> size = io.file_size(path);
  const ShardState& mark = manifest.shard;
  if (!size.has_value() && mark.durable_bytes > 0) {
    result.error = "store refused: shard file missing but manifest commits " +
                   std::to_string(mark.durable_bytes) + " bytes";
    return result;
  }
  const std::uint64_t file_bytes = size.value_or(0);
  if (file_bytes < mark.durable_bytes) {
    result.error = "store refused: shard holds " + std::to_string(file_bytes) +
                   " bytes, manifest commits " +
                   std::to_string(mark.durable_bytes);
    return result;
  }

  // The committed region, strictly: the manifest vouched for these bytes,
  // so any damage there refuses rather than guesses.
  BlockReader reader{path, file_bytes};
  Chain chain;
  std::uint64_t committed_tasks = 0;
  std::uint64_t& seq = result.salvage.committed_blocks;
  const auto refuse = [&](const std::string& why) {
    result.error =
        "store refused: committed block " + std::to_string(seq) + ": " + why;
  };
  while (reader.offset() < mark.durable_bytes) {
    if (std::string why = reader.next(); !why.empty()) {
      refuse(why);
      return result;
    }
    const BlockHeader& header = reader.header();
    if (reader.offset() > mark.durable_bytes) {
      refuse("straddles the manifest's byte mark");
      return result;
    }
    if (header.seq != seq) {
      refuse("has seq " + std::to_string(header.seq));
      return result;
    }
    if (!chain.continued_by(header)) {
      refuse("day " + std::to_string(header.day) + " task " +
             std::to_string(header.start) + " does not follow day " +
             std::to_string(chain.day) + " task " +
             std::to_string(chain.start));
      return result;
    }
    chain.take(header);
    committed_tasks += header.tasks;
    ++seq;
  }
  if (seq != mark.next_seq) {
    result.error = "store refused: committed region holds " +
                   std::to_string(seq) + " blocks, manifest expects " +
                   std::to_string(mark.next_seq);
    return result;
  }
  if (committed_tasks != manifest.tasks) {
    result.error = "store refused: shard holds " +
                   std::to_string(committed_tasks) +
                   " committed task rows, manifest expects " +
                   std::to_string(manifest.tasks);
    return result;
  }

  // The uncommitted tail: adopt the longest run of blocks that continues the
  // campaign exactly where the manifest stopped, with contiguous seq. The
  // first block that is torn, fails its checksum or does not continue ends
  // adoption; it and everything after it are cut on repair.
  chain = Chain{manifest.next_day, manifest.day_tasks_done};
  std::uint64_t cursor = manifest.cursor;
  result.shard = mark;
  while (!reader.done()) {
    const std::uint64_t block_start = reader.offset();
    if (reader.next().empty()) {
      const BlockHeader& header = reader.header();
      if (header.seq == result.shard.next_seq && chain.continued_by(header)) {
        chain.take(header);
        cursor = header.cursor;
        result.shard.durable_bytes = reader.offset();
        ++result.shard.next_seq;
        ++result.salvage.salvaged_blocks;
        result.salvage.salvaged_rows += header.tasks;
        continue;
      }
      // A duplicated, replayed or reordered frame: structurally fine, but
      // it does not continue the campaign.
      ++result.salvage.dropped_blocks;
    }
    result.salvage.truncated_bytes = file_bytes - block_start;
    break;
  }
  CLOUDRTT_CHECK(chain.start <= 0xffffffffULL,
                 "salvaged day task count overflows");
  result.state.next_day = chain.day;
  result.state.cursor = static_cast<std::size_t>(cursor);
  result.state.day_tasks_done = static_cast<std::uint32_t>(chain.start);
  result.durable_rows = committed_tasks + result.salvage.salvaged_rows;

  if (!repair || result.salvage.clean()) return result;
  if (result.salvage.truncated_bytes > 0) {
    if (const IoStatus cut = io.truncate(path, result.shard.durable_bytes);
        !cut.ok()) {
      result.error = "store repair failed: " + cut.error;
      return result;
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
  BlockReader reader{store_shard_path(dir, platform),
                     opened.shard.durable_bytes};
  measure::Dataset block;
  block.bind(sc_fleet, atlas_fleet);
  while (!reader.done()) {
    if (std::string why = reader.next(); !why.empty()) return why;
    block.clear_rows();
    if (std::string why = parse_block(reader.payload(), reader.header(),
                                      sc_fleet, atlas_fleet, block);
        !why.empty()) {
      return why;
    }
    per_block(block);
  }
  return {};
}

FsckReport fsck(const fs::path& dir, std::string_view platform, IoEnv& io) {
  FsckReport report;
  report.format = manifest_format(dir, platform, io);
  if (report.format == 0) {
    report.error = "no store or checkpoint manifest found";
    return report;
  }
  if (report.format != 4) {
    report.error = "legacy format=" + std::to_string(report.format) +
                   " manifest; only format=4 stores are read — re-run the "
                   "campaign from scratch";
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
  line += "format=4, " + std::to_string(committed_blocks) +
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
