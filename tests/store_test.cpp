// Durability gate for the streaming store (store/): the crash-safety
// contract is that a campaign killed anywhere — mid-day, mid-block, even
// mid-manifest — resumes to the exact bits an uninterrupted run produces
// (core::dataset_hash is the oracle), that damage inside the *committed*
// region refuses loudly instead of guessing, and that a misbehaving disk
// degrades the store without touching the dataset.
//
// The corruption matrix fabricates the states a real crash leaves behind:
// a torn trailer (partial final block), a bit-flipped committed block, a
// zero-length shard under a non-empty manifest, a duplicated tail block (a
// replayed append), a relabelled block header, and a shard cut at and
// inside every tail block. Tail damage must salvage; committed damage must
// refuse. Legacy stores and checkpoints, and a shard next to an empty or
// unreadable manifest, are refused too, and left untouched. A random-damage
// sweep then checks that every reader of a store — fsck, open_store with
// and without repair and with a decoding visitor, and the streamed hash —
// agrees on what it holds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/export.hpp"
#include "core/study.hpp"
#include "fault/plan.hpp"
#include "measure/executor.hpp"
#include "obs/metrics.hpp"
#include "store/codec.hpp"
#include "store/io_env.hpp"
#include "store/salvage.hpp"
#include "store/shard_writer.hpp"
#include "util/rng.hpp"

namespace cloudrtt {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 23;
constexpr std::string_view kPlatform = "speedchecker";

/// Small single-platform campaign: 3 days of ~1800 tasks is enough for
/// several 512-task blocks per day without slowing the suite down.
[[nodiscard]] core::StudyConfig store_config(std::uint64_t seed = kSeed) {
  core::StudyConfig config;
  config.seed = seed;
  config.sc_probes = 1000;
  config.include_atlas = false;
  config.sc_campaign.days = 3;
  config.sc_campaign.daily_budget = 1800;
  config.sc_campaign.case_study_probes = 5;
  return config;
}

/// Uninterrupted checkpointed run, shared across cases (the suite runs as
/// one ctest entry). The Study stays alive: datasets loaded from the store
/// re-bind probe references against its fleet.
struct Baseline {
  std::unique_ptr<core::Study> study;
  fs::path dir;
  std::uint64_t hash = 0;
};

[[nodiscard]] const Baseline& baseline() {
  static const Baseline value = [] {
    Baseline b;
    b.dir = fs::path{::testing::TempDir()} / "cloudrtt_store_baseline";
    fs::remove_all(b.dir);
    b.study = std::make_unique<core::Study>(store_config());
    core::RunControl control;
    control.checkpoint_dir = b.dir.string();
    b.study->run(control);
    b.hash = core::dataset_hash(b.study->sc_dataset());
    return b;
  }();
  return value;
}

[[nodiscard]] const probes::ProbeFleet* fleet() {
  return &baseline().study->sc_fleet();
}

/// Copy a store (by default the baseline's) into a scratch directory a test
/// may damage.
[[nodiscard]] fs::path copy_store(const std::string& name,
                                  const fs::path& from = baseline().dir) {
  const fs::path dst = fs::path{::testing::TempDir()} / name;
  fs::remove_all(dst);
  fs::create_directories(dst);
  for (const fs::directory_entry& entry : fs::directory_iterator(from)) {
    fs::copy_file(entry.path(), dst / entry.path().filename());
  }
  return dst;
}

/// What a read-only open that decodes every block it accepts recovers
/// from a store. `scan_error` is the open's error, or the decode's that
/// ended it.
struct Loaded {
  store::OpenResult opened;
  measure::Dataset rows;
  std::string scan_error;
};

[[nodiscard]] Loaded load(const fs::path& dir,
                          const probes::ProbeFleet* probes = fleet()) {
  store::IoEnv io;
  Loaded loaded;
  loaded.rows.bind(probes, nullptr);
  loaded.opened = store::open_store(
      dir, kPlatform, io, /*repair=*/false, std::nullopt,
      [&](const store::BlockHeader& header, std::string_view payload) {
        return store::parse_block(payload, header, probes, nullptr,
                                  loaded.rows);
      });
  loaded.scan_error = loaded.opened.error;
  return loaded;
}

struct BlockSpan {
  store::BlockHeader header;
  std::size_t offset = 0;  ///< where the framed block starts in the file
  std::size_t size = 0;    ///< header line + payload
};

[[nodiscard]] std::string read_file(const fs::path& path) {
  // Through a stringstream, not istreambuf_iterator: GCC 12 at -O2 flags the
  // iterator copy as a potential null dereference, which breaks -Werror.
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return std::move(out).str();
}

void write_file(const fs::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

/// Every file under `dir`, by name, with its bytes.
[[nodiscard]] std::map<std::string, std::string> dir_files(
    const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    files[entry.path().filename().string()] = read_file(entry.path());
  }
  return files;
}

/// Parse every framed block of a shard file (the baseline store is healthy,
/// so the walk is expected to consume the whole file).
[[nodiscard]] std::vector<BlockSpan> index_blocks(const fs::path& shard) {
  const std::string text = read_file(shard);
  std::vector<BlockSpan> blocks;
  std::size_t offset = 0;
  while (offset < text.size()) {
    const std::size_t header_end = text.find('\n', offset);
    EXPECT_NE(header_end, std::string::npos);
    BlockSpan span;
    span.offset = offset;
    EXPECT_TRUE(store::parse_block_header(
        std::string_view{text}.substr(offset, header_end - offset),
        span.header));
    span.size = (header_end + 1 - offset) + span.header.bytes;
    offset += span.size;
    blocks.push_back(span);
  }
  return blocks;
}

[[nodiscard]] fs::path shard_file(const fs::path& dir) {
  return store::store_shard_path(dir, kPlatform);
}

/// Index of the first block of `day` or later (blocks.size() if none).
[[nodiscard]] std::size_t first_block_of(const std::vector<BlockSpan>& blocks,
                                         std::uint32_t day) {
  std::size_t i = 0;
  while (i < blocks.size() && blocks[i].header.day < day) ++i;
  return i;
}

/// Rewrite the manifest so only blocks of days < `upto_day` are committed,
/// leaving the later blocks on disk as an uncommitted tail — exactly what a
/// crash between the day's appends and its manifest commit leaves behind.
void rewind_manifest(const fs::path& dir, std::uint32_t upto_day) {
  const std::vector<BlockSpan> blocks = index_blocks(shard_file(dir));
  const std::size_t kept = first_block_of(blocks, upto_day);
  std::uint64_t rows = 0;
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < kept; ++i) {
    rows += blocks[i].header.tasks;
    bytes += blocks[i].size;
  }
  // The day-start cursor of the first uncommitted day.
  const std::uint64_t cursor =
      kept < blocks.size() && blocks[kept].header.day == upto_day
          ? blocks[kept].header.cursor
          : 0;
  std::string manifest;
  manifest += "format=4\n";
  manifest += "platform=" + std::string{kPlatform} + '\n';
  manifest += "seed=" + std::to_string(kSeed) + '\n';
  manifest += "fault_profile=none\n";
  manifest += "next_day=" + std::to_string(upto_day) + '\n';
  manifest += "cursor=" + std::to_string(cursor) + '\n';
  manifest += "day_tasks_done=0\n";
  manifest += "tasks=" + std::to_string(rows) + '\n';
  manifest +=
      "shard=" + std::to_string(bytes) + ':' + std::to_string(kept) + '\n';
  write_file(store::store_manifest_path(dir, kPlatform), manifest);
}

/// The header fields block_checksum() covers, as they appear in the line.
constexpr std::string_view kHeaderFields[] = {"seq",   "day",    "start",
                                              "tasks", "cursor", "bytes"};

/// Relabel one decimal header field of the block framed at `offset`: its
/// last digit d becomes (d + 1) mod 10, so the line still parses.
void relabel(std::string& text, std::size_t offset, std::string_view field) {
  const std::size_t line_end = text.find('\n', offset);
  const std::size_t key = text.find(' ' + std::string{field} + '=', offset);
  ASSERT_LT(key, line_end) << field;
  const std::size_t value_end = text.find_first_of(" \n", key + 1);
  char& digit = text[value_end - 1];
  digit = digit == '9' ? '0' : static_cast<char>(digit + 1);
}

/// Tear a copy of the baseline the way a crash mid-append does: day 0
/// committed, then one whole day-1 block and half of the next. Returns the
/// whole block.
[[nodiscard]] BlockSpan tear_after_one_tail_block(const fs::path& dir) {
  rewind_manifest(dir, 1);
  const std::vector<BlockSpan> blocks = index_blocks(shard_file(dir));
  const std::size_t first_tail = first_block_of(blocks, 1);
  EXPECT_LT(first_tail + 1, blocks.size());
  if (first_tail + 1 >= blocks.size()) return {};
  const BlockSpan& torn = blocks[first_tail + 1];
  fs::resize_file(shard_file(dir), torn.offset + torn.size / 2);
  return blocks[first_tail];
}

/// Resume a campaign off `dir` and hash what it collects.
[[nodiscard]] std::uint64_t resume_hash(
    const fs::path& dir, const core::StudyConfig& config = store_config()) {
  core::Study resumed{config};
  core::RunControl control;
  control.checkpoint_dir = dir.string();
  control.resume = true;
  resumed.run(control);
  EXPECT_TRUE(resumed.completed());
  return core::dataset_hash(resumed.sc_dataset());
}

TEST(StoreRoundTrip, CompletedStoreReproducesTheDatasetBitExactly) {
  const Loaded loaded = load(baseline().dir);
  ASSERT_TRUE(loaded.opened.ok()) << loaded.opened.error;
  ASSERT_TRUE(loaded.scan_error.empty()) << loaded.scan_error;
  EXPECT_TRUE(loaded.opened.salvage.clean());
  EXPECT_EQ(loaded.opened.meta.seed, kSeed);
  EXPECT_EQ(loaded.opened.state.next_day, 3u);
  EXPECT_EQ(loaded.opened.state.day_tasks_done, 0u);
  EXPECT_EQ(loaded.opened.durable_rows, loaded.rows.pings.size());
  EXPECT_EQ(core::format_dataset_hash(core::dataset_hash(loaded.rows)),
            core::format_dataset_hash(baseline().hash));
}

TEST(StoreRoundTrip, FsckReportsAHealthyStore) {
  store::IoEnv io;
  const store::FsckReport report = store::fsck(baseline().dir, kPlatform, io);
  EXPECT_TRUE(report.healthy()) << report.error;
  EXPECT_EQ(report.format, 4);
  EXPECT_GT(report.committed_blocks, 0u);
  EXPECT_GT(report.committed_rows, 0u);
  EXPECT_EQ(report.torn_bytes, 0u);
  EXPECT_NE(report.render(kPlatform).find("HEALTHY"), std::string::npos);
}

// Corruption matrix case 1 — truncated trailer: the crash tore the disk
// mid-append, leaving one whole tail block and half of another. Salvage
// must adopt the whole block, cut the torn half away, and the resume must
// replay the remainder of the interrupted day from the RNG bit-exactly.
TEST(StoreCorruption, TornTrailerSalvagesWholeBlocksAndReplaysTheRest) {
  const fs::path dir = copy_store("cloudrtt_store_torn");
  const BlockSpan whole = tear_after_one_tail_block(dir);

  store::IoEnv io;
  const store::OpenResult opened =
      store::open_store(dir, kPlatform, io, /*repair=*/false);
  ASSERT_TRUE(opened.ok()) << opened.error;
  EXPECT_EQ(opened.salvage.salvaged_blocks, 1u);
  EXPECT_EQ(opened.salvage.salvaged_rows, whole.header.tasks);
  EXPECT_GT(opened.salvage.truncated_bytes, 0u);
  EXPECT_EQ(opened.state.next_day, 1u);
  EXPECT_EQ(opened.state.day_tasks_done, whole.header.tasks);

  // fsck sees the same picture without binding rows.
  const store::FsckReport report = store::fsck(dir, kPlatform, io);
  EXPECT_TRUE(report.healthy()) << report.error;
  EXPECT_EQ(report.tail_blocks, 1u);
  EXPECT_GT(report.torn_bytes, 0u);

  EXPECT_EQ(core::format_dataset_hash(resume_hash(dir)),
            core::format_dataset_hash(baseline().hash));
}

// The streamed hash copies each scanned block into the encoders' window
// batch by batch, and numbers traces on across blocks: over a store of many
// blocks it equals the in-memory hash of the rows the store holds.
TEST(StoreRoundTrip, StreamedHashOverManyBlocksEqualsTheInMemoryHash) {
  const Loaded loaded = load(baseline().dir);
  ASSERT_TRUE(loaded.opened.ok()) << loaded.opened.error;
  ASSERT_TRUE(loaded.scan_error.empty()) << loaded.scan_error;
  ASSERT_GE(index_blocks(shard_file(baseline().dir)).size(), 8u);

  store::IoEnv io;
  const core::StreamedHashResult streamed = core::streamed_dataset_hash(
      baseline().dir, kPlatform, io, fleet(), nullptr);
  ASSERT_TRUE(streamed.ok()) << streamed.error;
  EXPECT_EQ(core::format_dataset_hash(streamed.hash),
            core::format_dataset_hash(core::dataset_hash(loaded.rows)));
  EXPECT_EQ(core::format_dataset_hash(streamed.hash),
            core::format_dataset_hash(baseline().hash));
  EXPECT_EQ(streamed.rows, loaded.rows.pings.size());
}

/// Bytes this process has read from files so far (the `rchar` line of
/// /proc/self/io, which counts every thread's reads), or nullopt where that
/// file is absent.
[[nodiscard]] std::optional<std::uint64_t> bytes_read() {
  std::ifstream in{"/proc/self/io"};
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "rchar:") return value;
  }
  return std::nullopt;
}

// Each pass over a store is one read of its shard: the streamed hash opens
// it once for its ping pass and once for its trace pass, and an in-memory
// resume decodes the blocks as its one open checks them. 64 KiB covers the
// manifest reads and the stream buffers.
TEST(StoreRoundTrip, EveryPassReadsTheShardOnce) {
  if (!bytes_read().has_value()) GTEST_SKIP() << "no /proc/self/io";
  constexpr std::uint64_t kSlack = 64 * 1024;
  const std::uint64_t shard = fs::file_size(shard_file(baseline().dir));
  ASSERT_GT(shard, 4 * kSlack);  // so that one more read shows

  store::IoEnv io;
  std::uint64_t before = *bytes_read();
  const core::StreamedHashResult hashed = core::streamed_dataset_hash(
      baseline().dir, kPlatform, io, fleet(), nullptr);
  const std::uint64_t hash_bytes = *bytes_read() - before;
  ASSERT_TRUE(hashed.ok()) << hashed.error;
  EXPECT_LE(hash_bytes, 2 * shard + kSlack) << "shard of " << shard;

  const fs::path dir = copy_store("cloudrtt_store_read_volume");
  core::Study resumed{store_config()};
  core::RunControl control;
  control.checkpoint_dir = dir.string();
  control.resume = true;
  before = *bytes_read();
  resumed.run(control);
  const std::uint64_t resume_bytes = *bytes_read() - before;
  ASSERT_TRUE(resumed.completed());
  EXPECT_LE(resume_bytes, shard + kSlack) << "shard of " << shard;
  EXPECT_EQ(core::format_dataset_hash(core::dataset_hash(resumed.sc_dataset())),
            core::format_dataset_hash(baseline().hash));
}

// A streamed resume adopts a torn tail through the same open as an
// in-memory one, so it counts its salvage in the same metrics.
TEST(StoreCorruption, StreamedResumeCountsItsSalvage) {
  const fs::path dir = copy_store("cloudrtt_store_torn_streamed");
  (void)tear_after_one_tail_block(dir);
  store::IoEnv io;
  const std::uint64_t adopted = store::fsck(dir, kPlatform, io).tail_blocks;
  ASSERT_GT(adopted, 0u);
  const obs::Counter& salvaged =
      obs::Registry::global().counter("store.salvage_blocks_total");
  const std::uint64_t before = salvaged.value();

  core::Study resumed{store_config()};
  core::RunControl control;
  control.checkpoint_dir = dir.string();
  control.resume = true;
  control.stream = true;
  resumed.run(control);
  ASSERT_TRUE(resumed.completed());
  EXPECT_EQ(salvaged.value() - before, adopted);

  const core::StreamedHashResult hashed = core::streamed_dataset_hash(
      dir, kPlatform, io, &resumed.sc_fleet(), nullptr);
  ASSERT_TRUE(hashed.ok()) << hashed.error;
  EXPECT_EQ(core::format_dataset_hash(hashed.hash),
            core::format_dataset_hash(baseline().hash));
}

// A block past the manifest mark whose checksum holds but whose payload
// does not decode (here: a probe the fleet does not know). Validation
// decodes no payload, so the open adopts it; every reader of rows must then
// refuse it, naming day and task, rather than drop it silently.
TEST(StoreCorruption, UndecodableTailBlockIsRefusedByEveryRowReader) {
  const fs::path dir = copy_store("cloudrtt_store_undecodable");
  const std::vector<BlockSpan> blocks = index_blocks(shard_file(dir));
  ASSERT_FALSE(blocks.empty());
  const BlockSpan& last = blocks.back();
  std::string text = read_file(shard_file(dir));
  std::string payload =
      text.substr(last.offset + last.size - last.header.bytes,
                  last.header.bytes);
  constexpr std::uint32_t kUnknownProbe = 0x7ffffff0;
  std::memcpy(payload.data(), &kUnknownProbe, sizeof kUnknownProbe);
  store::BlockHeader header = last.header;
  header.seq = last.header.seq + 1;
  header.day = 3;  // the day the manifest resumes at
  header.start = 0;
  header.fnv1a = store::block_checksum(header, payload);
  write_file(shard_file(dir),
             text + store::format_block_header(header) + payload);

  store::IoEnv io;
  const store::OpenResult opened =
      store::open_store(dir, kPlatform, io, /*repair=*/false);
  ASSERT_TRUE(opened.ok()) << opened.error;
  EXPECT_EQ(opened.salvage.salvaged_blocks, 1u);
  EXPECT_TRUE(store::fsck(dir, kPlatform, io).healthy());

  const Loaded loaded = load(dir);
  // The streamed hash meets the block on its reader thread, mid-pipeline;
  // it must stop its encoders, return, and say which pass refused.
  const core::StreamedHashResult hashed =
      core::streamed_dataset_hash(dir, kPlatform, io, fleet(), nullptr);
  EXPECT_FALSE(hashed.ok());
  EXPECT_EQ(loaded.scan_error.rfind("task 0 of day 3: unknown probe id", 0),
            0u)
      << loaded.scan_error;
  EXPECT_EQ(hashed.error.rfind("streamed hash (ping pass): task 0 of day 3: "
                               "unknown probe id",
                               0),
            0u)
      << hashed.error;
  EXPECT_EQ(hashed.hash, 0u);
}

// The same for a bad trace record deep in the block: a hop with ttl 0 in
// the first trace with hops from task 200 on. The streamed hash's encoders
// decode trace records only in the trace pass, on a batch that starts past
// the block's first task, and must still name the record's own task.
TEST(StoreCorruption, BadTraceRecordIsRefusedByEveryRowReader) {
  const fs::path dir = copy_store("cloudrtt_store_bad_trace");
  const std::vector<BlockSpan> blocks = index_blocks(shard_file(dir));
  ASSERT_FALSE(blocks.empty());
  const BlockSpan& full = blocks.front();
  ASSERT_EQ(full.header.tasks, store::kBlockTasks);
  std::string text = read_file(shard_file(dir));
  std::string payload =
      text.substr(full.offset + full.size - full.header.bytes,
                  full.header.bytes);
  std::uint32_t task = 0;
  std::size_t first_hop = 0;
  for (std::string_view rest = payload;; ++task) {
    ASSERT_LT(task, full.header.tasks);
    std::string_view ping;
    std::string_view trace;
    ASSERT_TRUE(store::cut_ping_record(rest, ping).empty());
    ASSERT_TRUE(store::cut_trace_record(rest, trace).empty());
    if (task >= 200 && store::trace_record_hops(trace) > 0) {
      first_hop = static_cast<std::size_t>(trace.data() - payload.data()) +
                  store::kTraceCoreBytes;
      break;
    }
  }
  payload[first_hop] = 0;  // the hop's ttl
  store::BlockHeader header = full.header;
  header.seq = blocks.back().header.seq + 1;
  header.day = 3;  // the day the manifest resumes at
  header.start = 0;
  header.fnv1a = store::block_checksum(header, payload);
  write_file(shard_file(dir),
             text + store::format_block_header(header) + payload);

  store::IoEnv io;
  const store::OpenResult opened =
      store::open_store(dir, kPlatform, io, /*repair=*/false);
  ASSERT_TRUE(opened.ok()) << opened.error;
  EXPECT_EQ(opened.salvage.salvaged_blocks, 1u);
  EXPECT_TRUE(store::fsck(dir, kPlatform, io).healthy());

  const std::string refusal =
      "task " + std::to_string(task) + " of day 3: bad hop fields";
  const Loaded loaded = load(dir);
  EXPECT_EQ(loaded.scan_error, refusal);
  const core::StreamedHashResult hashed =
      core::streamed_dataset_hash(dir, kPlatform, io, fleet(), nullptr);
  EXPECT_FALSE(hashed.ok());
  EXPECT_EQ(hashed.error, "streamed hash (trace pass): " + refusal);
  EXPECT_EQ(hashed.hash, 0u);
}

// Corruption matrix case 2 — a bit flip inside the committed region: the
// manifest vouched for these bytes, so the open must refuse (checksum),
// not return a silently different dataset.
TEST(StoreCorruption, BitFlippedCommittedBlockRefusesLoudly) {
  const fs::path dir = copy_store("cloudrtt_store_bitflip");
  std::string text = read_file(shard_file(dir));
  const std::size_t payload_start = text.find('\n') + 1;
  ASSERT_LT(payload_start + 8, text.size());
  text[payload_start + 8] = static_cast<char>(text[payload_start + 8] ^ 0x20);
  write_file(shard_file(dir), text);

  store::IoEnv io;
  const store::OpenResult opened =
      store::open_store(dir, kPlatform, io, /*repair=*/false);
  EXPECT_FALSE(opened.ok());
  EXPECT_NE(opened.error.find("checksum"), std::string::npos) << opened.error;
  EXPECT_FALSE(store::fsck(dir, kPlatform, io).healthy());
}

// A committed block whose checksum holds but whose task run does not
// continue the previous block's — what a writer bug, not damage, would
// leave — is refused too: the committed region reads as one campaign.
TEST(StoreCorruption, CommittedBlockOutOfTaskOrderRefuses) {
  const fs::path dir = copy_store("cloudrtt_store_task_order");
  const std::vector<BlockSpan> blocks = index_blocks(shard_file(dir));
  ASSERT_GE(blocks.size(), 2u);
  ASSERT_EQ(blocks[1].header.day, blocks[0].header.day);
  std::string text = read_file(shard_file(dir));
  const std::size_t payload_offset =
      blocks[1].offset + blocks[1].size - blocks[1].header.bytes;
  store::BlockHeader header = blocks[1].header;
  header.start += 1;  // same digit count: the byte marks still hold
  header.fnv1a = store::block_checksum(
      header, std::string_view{text}.substr(payload_offset,
                                            blocks[1].header.bytes));
  text.replace(blocks[1].offset, payload_offset - blocks[1].offset,
               store::format_block_header(header));
  write_file(shard_file(dir), text);

  store::IoEnv io;
  const store::OpenResult opened =
      store::open_store(dir, kPlatform, io, /*repair=*/false);
  EXPECT_FALSE(opened.ok());
  EXPECT_NE(opened.error.find("committed block 1: day 0 task 513 does not "
                              "follow day 0 task 512"),
            std::string::npos)
      << opened.error;
  EXPECT_FALSE(store::fsck(dir, kPlatform, io).healthy());
}

// Corruption matrix case 3 — zero-length shard file under a manifest that
// commits bytes: the commit point itself lied, refuse.
TEST(StoreCorruption, ZeroLengthShardUnderNonEmptyManifestRefuses) {
  const fs::path dir = copy_store("cloudrtt_store_zero");
  fs::resize_file(shard_file(dir), 0);

  store::IoEnv io;
  const store::OpenResult opened =
      store::open_store(dir, kPlatform, io, /*repair=*/false);
  EXPECT_FALSE(opened.ok());
  EXPECT_NE(opened.error.find("manifest commits"), std::string::npos)
      << opened.error;
}

// Corruption matrix case 4 — duplicated tail block (a replayed append):
// structurally a perfect frame, but its sequence number repeats, so salvage
// must drop it — and everything after it — rather than double-count rows.
TEST(StoreCorruption, DuplicatedTailBlockIsDroppedNotDoubleCounted) {
  const fs::path dir = copy_store("cloudrtt_store_dup");
  rewind_manifest(dir, 2);
  const std::vector<BlockSpan> blocks = index_blocks(shard_file(dir));
  const std::size_t first_tail = first_block_of(blocks, 2);
  ASSERT_LT(first_tail, blocks.size());
  const std::string text = read_file(shard_file(dir));
  const std::string duplicate =
      text.substr(blocks[first_tail].offset, blocks[first_tail].size);
  write_file(shard_file(dir), text + duplicate);

  store::IoEnv io;
  const store::OpenResult opened =
      store::open_store(dir, kPlatform, io, /*repair=*/false);
  ASSERT_TRUE(opened.ok()) << opened.error;
  EXPECT_GE(opened.salvage.dropped_blocks, 1u);
  EXPECT_EQ(opened.salvage.salvaged_blocks, blocks.size() - first_tail);
  EXPECT_GT(opened.salvage.truncated_bytes, 0u);

  EXPECT_EQ(core::format_dataset_hash(resume_hash(dir)),
            core::format_dataset_hash(baseline().hash));
}

// A relabelled header field (any of the six the block checksum covers)
// fails the checksum. In a committed block the open refuses; in the first
// tail block nothing is adopted, and the resume replays days 1 and 2 from
// the RNG to the uninterrupted bits — a wrong `cursor` or `day` adopted
// there would replay the wrong schedule.
TEST(StoreCorruption, RelabelledHeaderFieldIsNeverTrusted) {
  for (const std::string_view field : kHeaderFields) {
    SCOPED_TRACE(field);
    store::IoEnv io;
    {
      const fs::path dir = copy_store("cloudrtt_store_relabel_committed");
      std::string text = read_file(shard_file(dir));
      relabel(text, 0, field);
      write_file(shard_file(dir), text);
      const store::OpenResult opened =
          store::open_store(dir, kPlatform, io, /*repair=*/false);
      EXPECT_FALSE(opened.ok());
      EXPECT_NE(opened.error.find("committed block 0"), std::string::npos)
          << opened.error;
      EXPECT_FALSE(store::fsck(dir, kPlatform, io).healthy());
    }
    const fs::path dir = copy_store("cloudrtt_store_relabel_tail");
    rewind_manifest(dir, 1);
    const std::vector<BlockSpan> blocks = index_blocks(shard_file(dir));
    const std::size_t first_tail = first_block_of(blocks, 1);
    ASSERT_LT(first_tail, blocks.size());
    std::string text = read_file(shard_file(dir));
    relabel(text, blocks[first_tail].offset, field);
    write_file(shard_file(dir), text);
    const store::OpenResult opened =
        store::open_store(dir, kPlatform, io, /*repair=*/false);
    ASSERT_TRUE(opened.ok()) << opened.error;
    EXPECT_EQ(opened.salvage.salvaged_blocks, 0u);
    EXPECT_EQ(opened.state.next_day, 1u);
    EXPECT_EQ(opened.state.day_tasks_done, 0u);
    EXPECT_EQ(core::format_dataset_hash(resume_hash(dir)),
              core::format_dataset_hash(baseline().hash));
  }
}

// Degrade-don't-die: a disk that refuses half its appends must not lose a
// single row — blocks queue in memory, and once the disk heals, one commit
// catches the store up to a state indistinguishable from a healthy run.
TEST(StoreFaults, DegradedWriterCatchesUpAfterTheDiskHeals) {
  fault::IoFaults faults;
  faults.append_error_rate = 0.5;
  faults.short_write_rate = 0.25;
  faults.fsync_failure_rate = 0.25;
  store::FaultyIoEnv io{faults, /*seed=*/99};

  const fs::path dir =
      fs::path{::testing::TempDir()} / "cloudrtt_store_degraded";
  fs::remove_all(dir);
  store::StoreMeta meta;
  meta.platform = std::string{kPlatform};
  meta.seed = kSeed;
  store::ShardWriter writer{dir, meta, io, /*fresh=*/true};

  measure::CampaignState done;
  done.next_day = 3;
  const bool durable = writer.adopt(baseline().study->sc_dataset(), done);
  EXPECT_GT(io.faults_injected(), 0u);
  if (!durable) {
    EXPECT_TRUE(writer.degraded() || writer.pending_blocks() > 0);
  }

  io.heal();
  // commit() is advisory-async: enqueue the catch-up, then drain for the
  // ground truth — the healed disk must have taken everything.
  (void)writer.commit(done);
  writer.drain();
  EXPECT_FALSE(writer.degraded());
  EXPECT_EQ(writer.pending_blocks(), 0u);

  const Loaded loaded = load(dir);
  ASSERT_TRUE(loaded.opened.ok()) << loaded.opened.error;
  ASSERT_TRUE(loaded.scan_error.empty()) << loaded.scan_error;
  EXPECT_TRUE(loaded.opened.salvage.clean());
  EXPECT_EQ(core::format_dataset_hash(core::dataset_hash(loaded.rows)),
            core::format_dataset_hash(baseline().hash));
}

// I/O faults decide what is durable, never what the dataset contains: a
// whole campaign under the harsh disk-fault profile must still collect
// exactly the baseline bits.
TEST(StoreFaults, HarshIoFaultsLeaveDatasetBitsUnchanged) {
  core::StudyConfig config = store_config();
  config.io_fault_profile = fault::FaultProfile::Harsh;
  const fs::path dir = fs::path{::testing::TempDir()} / "cloudrtt_store_harsh";
  fs::remove_all(dir);
  core::Study study{config};
  core::RunControl control;
  control.checkpoint_dir = dir.string();
  study.run(control);
  ASSERT_TRUE(study.completed());
  EXPECT_EQ(core::format_dataset_hash(core::dataset_hash(study.sc_dataset())),
            core::format_dataset_hash(baseline().hash));
}

// The refusal must name both seeds and the manifest path, so an operator
// can tell at a glance which artefact disagrees. The open refuses the seed
// before it reads a block: a torn tail, which an accepted resume would cut,
// stays on disk byte for byte, and a study whose fleet does not know every
// probe id the store holds is refused for its seed, not for a record.
TEST(StoreResume, SeedMismatchRefusalNamesBothSeedsAndThePath) {
  const struct {
    const char* name;
    bool torn;
    std::size_t sc_probes;
  } cases[] = {{"whole", false, store_config().sc_probes},
               {"torn tail", true, store_config().sc_probes},
               {"smaller fleet", false, 100}};
  for (const auto& [name, torn, sc_probes] : cases) {
    SCOPED_TRACE(name);
    const fs::path dir = copy_store("cloudrtt_store_seed");
    if (torn) (void)tear_after_one_tail_block(dir);
    const std::map<std::string, std::string> before = dir_files(dir);
    core::StudyConfig config = store_config(kSeed + 1);
    config.sc_probes = sc_probes;
    core::Study other{config};
    if (sc_probes != store_config().sc_probes) {
      // Decoding the store against this fleet does fail.
      EXPECT_NE(load(dir, &other.sc_fleet()).scan_error.find(
                    "unknown probe id"),
                std::string::npos);
    }
    core::RunControl control;
    control.checkpoint_dir = dir.string();
    control.resume = true;
    try {
      other.run(control);
      ADD_FAILURE() << "resume with a mismatched seed must throw";
    } catch (const std::runtime_error& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("seed " + std::to_string(kSeed)), std::string::npos)
          << what;
      EXPECT_NE(what.find("seed " + std::to_string(kSeed + 1)),
                std::string::npos)
          << what;
      EXPECT_NE(
          what.find(store::store_manifest_path(dir, kPlatform).string()),
          std::string::npos)
          << what;
      EXPECT_EQ(what.find("unknown probe id"), std::string::npos) << what;
    }
    EXPECT_TRUE(dir_files(dir) == before);
  }
}

// Legacy manifests are no longer read: format=1 router-replay quartets,
// format=2 CSV triplets, and format=3 stores split into lane files. A
// resume over one must refuse, naming the format and the manifest, before
// any writer exists (a fresh ShardWriter would wipe the platform's
// artefacts): every file stays byte-identical and none is added. fsck calls
// it damaged. A fresh run over a format=3 store wipes it, lane files
// included, and leaves only its own format=4 files.
TEST(StoreResume, LegacyCheckpointIsRefusedAndLeftUntouched) {
  const std::string platform{kPlatform};
  const std::vector<BlockSpan> blocks =
      index_blocks(shard_file(baseline().dir));
  ASSERT_GE(blocks.size(), 2u);
  const std::string shard_text = read_file(shard_file(baseline().dir));
  // A format=3 manifest over `lanes` lane files of one block each.
  const auto lane_store = [&](std::size_t lanes) {
    std::map<std::string, std::string> files;
    std::string manifest = "format=3\nplatform=" + platform +
                           "\nseed=" + std::to_string(kSeed) +
                           "\nfault_profile=none\nlanes=" +
                           std::to_string(lanes) +
                           "\nnext_day=1\ncursor=0\nday_tasks_done=0\n";
    std::uint64_t tasks = 0;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      tasks += blocks[lane].header.tasks;
      manifest += "lane" + std::to_string(lane) + '=' +
                  std::to_string(blocks[lane].size) + ":1\n";
      files[platform + ".s" + std::to_string(lane) + ".shard"] =
          shard_text.substr(blocks[lane].offset, blocks[lane].size);
    }
    manifest += "pings=" + std::to_string(tasks) +
                "\ntraces=" + std::to_string(tasks) + '\n';
    files[platform + ".manifest"] = manifest;
    return files;
  };
  const auto csv_checkpoint = [&](int format) {
    return std::map<std::string, std::string>{
        {platform + ".manifest",
         "format=" + std::to_string(format) + "\nplatform=" + platform +
             "\nseed=" + std::to_string(kSeed) +
             "\nnext_day=2\ncursor=0\npings=1\ntraces=1\n"},
        {platform + ".pings.csv", "probe_id,rtt_ms\n1,12.5\n"},
        {platform + ".traces.csv", "trace_id,hop_ip\n0,10.0.0.1\n"}};
  };
  const struct {
    int format;
    std::map<std::string, std::string> files;
  } cases[] = {{1, csv_checkpoint(1)},
               {2, csv_checkpoint(2)},
               {3, lane_store(1)},
               {3, lane_store(2)}};

  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const auto& [format, files] = cases[i];
    SCOPED_TRACE("format=" + std::to_string(format) + ", " +
                 std::to_string(files.size()) + " files");
    const fs::path dir = fs::path{::testing::TempDir()} /
                         ("cloudrtt_store_legacy" + std::to_string(i));
    fs::remove_all(dir);
    fs::create_directories(dir);
    for (const auto& [name, bytes] : files) write_file(dir / name, bytes);
    const fs::path manifest = store::store_manifest_path(dir, kPlatform);

    core::Study study{store_config()};
    core::RunControl control;
    control.checkpoint_dir = dir.string();
    control.resume = true;
    try {
      study.run(control);
      ADD_FAILURE() << "resume over a legacy manifest must throw";
    } catch (const std::runtime_error& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("format=" + std::to_string(format)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find(manifest.string()), std::string::npos) << what;
    }
    EXPECT_EQ(dir_files(dir), files);

    store::IoEnv io;
    const store::FsckReport report = store::fsck(dir, kPlatform, io);
    EXPECT_FALSE(report.healthy());
    EXPECT_EQ(report.format, format);
    EXPECT_NE(report.error.find("legacy"), std::string::npos) << report.error;
    EXPECT_NE(report.render(kPlatform).find("DAMAGED"), std::string::npos);

    if (format == 3) {
      core::Study fresh{store_config()};
      core::RunControl fresh_control;
      fresh_control.checkpoint_dir = dir.string();
      fresh_control.stop_after_day = 1;
      fresh.run(fresh_control);
      std::vector<std::string> names;
      for (const auto& [name, bytes] : dir_files(dir)) names.push_back(name);
      EXPECT_EQ(names, (std::vector<std::string>{platform + ".manifest",
                                                 platform + ".shard"}));
      EXPECT_EQ(store::open_store(dir, kPlatform, io, /*repair=*/false).format,
                4);
      EXPECT_TRUE(store::fsck(dir, kPlatform, io).healthy());
    }
  }
}

// A shard next to a manifest that is empty or names no format holds
// committed rows: commits replace the manifest atomically, so only damage
// leaves it so. A resume must refuse before any writer exists and leave
// every file byte-identical, and fsck must call the store damaged. (A
// *missing* manifest, by contrast, means nothing was committed.)
TEST(StoreResume, DamagedManifestIsRefusedAndLeftUntouched) {
  core::StudyConfig config = store_config();
  config.sc_probes = 200;
  config.sc_campaign.days = 2;
  const fs::path stopped =
      fs::path{::testing::TempDir()} / "cloudrtt_store_manifest_base";
  fs::remove_all(stopped);
  {
    core::Study first{config};
    core::RunControl control;
    control.checkpoint_dir = stopped.string();
    control.stop_after_day = 1;
    first.run(control);
    ASSERT_FALSE(first.completed());
  }

  for (const std::string damaged : {"", "platform=speedchecker\nseed=23\n"}) {
    SCOPED_TRACE("manifest '" + damaged + "'");
    const fs::path dir = copy_store("cloudrtt_store_manifest", stopped);
    const fs::path manifest = store::store_manifest_path(dir, kPlatform);
    write_file(manifest, damaged);
    const std::map<std::string, std::string> before = dir_files(dir);
    ASSERT_FALSE(before.at(std::string{kPlatform} + ".shard").empty());

    core::Study resumed{config};
    core::RunControl control;
    control.checkpoint_dir = dir.string();
    control.resume = true;
    try {
      resumed.run(control);
      ADD_FAILURE() << "resume next to a damaged manifest must throw";
    } catch (const std::runtime_error& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("damaged manifest"), std::string::npos) << what;
      EXPECT_NE(what.find(manifest.string()), std::string::npos) << what;
    }
    EXPECT_EQ(dir_files(dir), before);

    store::IoEnv io;
    const store::OpenResult opened =
        store::open_store(dir, kPlatform, io, /*repair=*/false);
    EXPECT_TRUE(opened.found);
    EXPECT_FALSE(opened.error.empty());
    const store::FsckReport report = store::fsck(dir, kPlatform, io);
    EXPECT_FALSE(report.healthy());
    EXPECT_NE(report.render(kPlatform).find("DAMAGED"), std::string::npos);
  }
}

/// Store for the random-damage sweep and the cut sweep: two blocks a day,
/// day 0 committed and days 1 and 2 an uncommitted tail, so damage lands on
/// both sides of the mark. Two threads, to show they shape nothing on disk.
/// Small enough that 200 damaged copies are read in a few seconds.
[[nodiscard]] core::StudyConfig damage_config() {
  core::StudyConfig config = store_config();
  config.sc_probes = 300;
  config.sc_campaign.daily_budget = 520;
  config.threads = 2;
  return config;
}

/// The same shape with days of three executor batches (9,000 tasks: two
/// whole batches and a part), so damage falls inside batches and on the
/// blocks either side of a batch boundary. Three threads.
[[nodiscard]] core::StudyConfig batched_damage_config() {
  core::StudyConfig config = store_config();
  config.sc_probes = 2500;
  config.sc_campaign.daily_budget = 9000;
  config.threads = 3;
  return config;
}

struct DamageBaseline {
  core::StudyConfig config;
  std::unique_ptr<core::Study> study;
  fs::path dir;
  std::uint64_t hash = 0;      ///< of the uninterrupted run
  std::size_t first_tail = 0;  ///< index of the first uncommitted block
  std::vector<BlockSpan> blocks;
  /// Blocks that open a batch after a day's first, and the blocks just
  /// before them: where a day's batches meet on disk.
  std::vector<std::size_t> batch_edges;
};

[[nodiscard]] DamageBaseline make_damage_baseline(
    const core::StudyConfig& config, const std::string& name) {
  DamageBaseline b;
  b.config = config;
  b.dir = fs::path{::testing::TempDir()} / name;
  fs::remove_all(b.dir);
  b.study = std::make_unique<core::Study>(config);
  core::RunControl control;
  control.checkpoint_dir = b.dir.string();
  b.study->run(control);
  b.hash = core::dataset_hash(b.study->sc_dataset());
  rewind_manifest(b.dir, 1);
  b.blocks = index_blocks(shard_file(b.dir));
  b.first_tail = first_block_of(b.blocks, 1);
  for (std::size_t i = 1; i < b.blocks.size(); ++i) {
    const std::uint32_t start = b.blocks[i].header.start;
    if (start > 0 && start % measure::ParallelExecutor::kBatchTasks == 0) {
      b.batch_edges.push_back(i - 1);
      b.batch_edges.push_back(i);
    }
  }
  return b;
}

[[nodiscard]] const DamageBaseline& damage_baseline() {
  static const DamageBaseline value =
      make_damage_baseline(damage_config(), "cloudrtt_store_damage_base");
  return value;
}

[[nodiscard]] const DamageBaseline& batched_damage_baseline() {
  static const DamageBaseline value = make_damage_baseline(
      batched_damage_config(), "cloudrtt_store_batched_damage_base");
  return value;
}

/// One random damage to the store in `dir`, a copy of `base`'s: flip a
/// shard byte, cut the shard anywhere or exactly on a block boundary,
/// append a duplicated block or random bytes past the mark, swap two
/// adjacent tail blocks, relabel a header digit, or truncate the manifest.
/// Half of the block-aimed damage goes to the blocks either side of a batch
/// boundary when the days have any.
void damage(const DamageBaseline& base, const fs::path& dir, util::Rng& rng) {
  const std::vector<BlockSpan>& blocks = base.blocks;
  // A block index in [from, to).
  const auto pick = [&](std::size_t from, std::size_t to) {
    std::vector<std::size_t> edges;
    for (const std::size_t i : base.batch_edges) {
      if (i >= from && i < to) edges.push_back(i);
    }
    if (!edges.empty() && rng.chance(0.5)) {
      return edges[rng.below(edges.size())];
    }
    return from + rng.below(to - from);
  };
  const BlockSpan& block = blocks[pick(0, blocks.size())];
  std::string text = read_file(shard_file(dir));
  switch (rng.below(8)) {
    case 0:
      text[rng.below(text.size())] ^= static_cast<char>(1 + rng.below(255));
      break;
    case 1:
      text.resize(rng.below(text.size()));
      break;
    case 2:
      text.resize(block.offset);
      break;
    case 3:
      text += text.substr(block.offset, block.size);
      break;
    case 4:
      for (std::uint64_t n = 1 + rng.below(300); n > 0; --n) {
        text += static_cast<char>(rng.below(256));
      }
      break;
    case 5: {
      const std::size_t i = pick(base.first_tail, blocks.size() - 1);
      const BlockSpan& a = blocks[i];
      const BlockSpan& b = blocks[i + 1];
      text = text.substr(0, a.offset) + text.substr(b.offset, b.size) +
             text.substr(a.offset, a.size) + text.substr(b.offset + b.size);
      break;
    }
    case 6:
      relabel(text, block.offset, kHeaderFields[rng.below(6)]);
      break;
    default: {
      const fs::path manifest = store::store_manifest_path(dir, kPlatform);
      fs::resize_file(manifest, rng.below(fs::file_size(manifest)));
      return;
    }
  }
  write_file(shard_file(dir), text);
}

// Randomized damage across every reader: fsck and open_store must agree on
// whether the store is usable, and a usable store must read back — through
// an open that decodes and through the streamed hash alike — as a prefix of
// the rows the campaign collected, never as anything else. What --resume
// runs (one repairing open that decodes) must follow fsck's verdict: a
// damaged store is refused before any writer exists and left
// byte-identical, and a usable one resumes to the uninterrupted run's
// bits. A repairing open must leave nothing more to cut and the same rows;
// once the resume's journal commit lands, a read-only reopen finds nothing
// to salvage at all.
void sweep_random_damage(const DamageBaseline& base, std::uint64_t seeds) {
  ASSERT_GE(base.blocks.size(), base.first_tail + 2);
  const measure::Dataset& collected = base.study->sc_dataset();
  const probes::ProbeFleet* probes = &base.study->sc_fleet();
  std::map<std::size_t, std::uint64_t> prefix_hashes;  // by row count
  // One Study resumes every copy: run() is repeatable, and building the
  // world for every copy would dominate the sweep.
  core::Study resumer{base.config};
  std::size_t usable = 0;
  for (std::uint64_t seed = 0; seed < seeds; ++seed) {
    SCOPED_TRACE(seed);
    const fs::path dir = copy_store("cloudrtt_store_damage", base.dir);
    util::Rng rng{seed};
    damage(base, dir, rng);

    store::IoEnv io;
    const store::FsckReport report = store::fsck(dir, kPlatform, io);
    const Loaded loaded = load(dir, probes);
    ASSERT_EQ(report.healthy(), loaded.opened.ok())
        << report.error << " | " << loaded.opened.error;
    const store::OpenResult opened =
        store::open_store(dir, kPlatform, io, /*repair=*/false);
    EXPECT_TRUE(opened.found);
    EXPECT_TRUE(opened.ok() || !report.healthy()) << opened.error;
    const fs::path resume_dir = copy_store("cloudrtt_store_damage_resume", dir);
    core::RunControl resume;
    resume.checkpoint_dir = resume_dir.string();
    resume.resume = true;
    if (!loaded.opened.ok()) {
      const std::map<std::string, std::string> before = dir_files(resume_dir);
      EXPECT_THROW(resumer.run(resume), std::runtime_error);
      EXPECT_EQ(dir_files(resume_dir), before);
      continue;
    }
    ++usable;
    resumer.run(resume);
    ASSERT_TRUE(resumer.completed());
    EXPECT_EQ(
        core::format_dataset_hash(core::dataset_hash(resumer.sc_dataset())),
        core::format_dataset_hash(base.hash));
    const core::StreamedHashResult streamed =
        core::streamed_dataset_hash(dir, kPlatform, io, probes, nullptr);
    ASSERT_TRUE(loaded.scan_error.empty()) << loaded.scan_error;
    ASSERT_TRUE(streamed.ok()) << streamed.error;
    const std::uint64_t hash = core::dataset_hash(loaded.rows);
    EXPECT_EQ(core::format_dataset_hash(streamed.hash),
              core::format_dataset_hash(hash));
    const std::size_t rows = loaded.rows.pings.size();
    EXPECT_EQ(streamed.rows, rows);
    ASSERT_LE(rows, collected.pings.size());
    const auto [prefix, fresh] = prefix_hashes.try_emplace(rows, 0);
    if (fresh) {
      measure::Dataset head;
      head.append_slice(collected, 0, rows, 0, rows);
      prefix->second = core::dataset_hash(head);
    }
    EXPECT_EQ(core::format_dataset_hash(hash),
              core::format_dataset_hash(prefix->second));

    const store::OpenResult repaired =
        store::open_store(dir, kPlatform, io, /*repair=*/true);
    ASSERT_TRUE(repaired.ok()) << repaired.error;
    EXPECT_EQ(repaired.durable_rows, loaded.opened.durable_rows);
    const Loaded reopened = load(dir, probes);
    ASSERT_TRUE(reopened.opened.ok()) << reopened.opened.error;
    ASSERT_TRUE(reopened.scan_error.empty()) << reopened.scan_error;
    EXPECT_EQ(reopened.opened.salvage.dropped_blocks, 0u);
    EXPECT_EQ(reopened.opened.salvage.truncated_bytes, 0u);
    EXPECT_EQ(reopened.opened.salvage.salvaged_blocks,
              loaded.opened.salvage.salvaged_blocks);
    EXPECT_EQ(core::format_dataset_hash(core::dataset_hash(reopened.rows)),
              core::format_dataset_hash(hash));
    {
      store::ShardWriter writer{dir, repaired.meta, io, /*fresh=*/false};
      writer.restore(repaired.shard, repaired.durable_rows);
      (void)writer.commit(repaired.state);
      writer.drain();
    }
    const Loaded journaled = load(dir, probes);
    ASSERT_TRUE(journaled.opened.ok()) << journaled.opened.error;
    EXPECT_TRUE(journaled.opened.salvage.clean());
    EXPECT_EQ(core::format_dataset_hash(core::dataset_hash(journaled.rows)),
              core::format_dataset_hash(hash));
  }
  // The sweep must exercise both verdicts.
  EXPECT_GT(usable, 0u);
  EXPECT_LT(usable, seeds);
}

TEST(StoreDamage, ReadersAgreeOnRandomDamage) {
  sweep_random_damage(damage_baseline(), 200);
}

// The same sweep over days of three batches each: the uncommitted tail
// holds two such days, and the damage often lands where batches meet.
TEST(StoreDamage, ReadersAgreeOnRandomDamageAcrossBatches) {
  const DamageBaseline& base = batched_damage_baseline();
  for (std::uint32_t day = 0; day < 3; ++day) {
    std::uint64_t tasks = 0;
    for (const BlockSpan& block : base.blocks) {
      if (block.header.day == day) tasks += block.header.tasks;
    }
    ASSERT_GT(tasks, 2 * measure::ParallelExecutor::kBatchTasks) << day;
  }
  ASSERT_GE(base.batch_edges.size(), 2u * 2 * 3);
  sweep_random_damage(base, 20);
}

// A resume can start inside a day of several executor batches. Its first
// batch then runs from the resume point to the next batch boundary and the
// later ones are whole, yet the blocks must fall where the uninterrupted
// run put them: cut the shard at block boundaries before, on and after the
// day's first batch boundary, and each resume must leave that run's shard
// byte for byte, and its bits.
TEST(StoreDamage, MidDayCutsAcrossBatchesResumeToTheSameShard) {
  core::StudyConfig config = store_config();
  config.sc_probes = 1500;
  config.sc_campaign.daily_budget = 15000;
  config.threads = 3;
  const fs::path base =
      fs::path{::testing::TempDir()} / "cloudrtt_store_batches";
  fs::remove_all(base);
  std::uint64_t hash = 0;
  {
    core::Study study{config};
    core::RunControl control;
    control.checkpoint_dir = base.string();
    study.run(control);
    hash = core::dataset_hash(study.sc_dataset());
  }
  const std::string shard = read_file(shard_file(base));
  rewind_manifest(base, 1);
  const std::vector<BlockSpan> blocks = index_blocks(shard_file(base));
  const std::size_t first_tail = first_block_of(blocks, 1);
  ASSERT_GT(first_block_of(blocks, 2) - first_tail,
            measure::ParallelExecutor::kBatchTasks / store::kBlockTasks + 3);
  for (const std::size_t cut : {3u, 8u, 11u}) {
    SCOPED_TRACE(cut);
    const fs::path dir = copy_store("cloudrtt_store_batches_cut", base);
    fs::resize_file(shard_file(dir), blocks[first_tail + cut].offset);
    EXPECT_EQ(core::format_dataset_hash(resume_hash(dir, config)),
              core::format_dataset_hash(hash));
    EXPECT_TRUE(read_file(shard_file(dir)) == shard);
  }
}

// The store's bytes are pinned, not only the rows they decode to: block
// framing, `seq` numbering, per-day appends and manifests are all part of
// the on-disk contract that salvage and resume rely on. A small streamed
// study (Speedchecker days of ~7,000 tasks, so a day spans several of the
// executor's batches, and three Atlas days) must leave byte-for-byte the
// same four files at one and at four threads. FNV-1a of each file.
TEST(StoreGate, StreamedStoreMatchesPinnedLiteral) {
  core::StudyConfig config;
  config.seed = 23;
  config.sc_probes = 1500;
  config.atlas_probes = 400;
  config.sc_campaign.days = 3;
  config.atlas_campaign.days = 3;
  config.atlas_campaign.daily_budget = 6000;
  const std::map<std::string, std::string> pinned = {
      {"atlas.manifest", "bca55c0095cc6da7"},
      {"atlas.shard", "7059d6b200f15001"},
      {"speedchecker.manifest", "5e8614e592877aec"},
      {"speedchecker.shard", "a3ff2548d3e7a61f"}};
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    config.threads = threads;
    const fs::path dir = fs::path{::testing::TempDir()} / "cloudrtt_store_gate";
    fs::remove_all(dir);
    core::Study study{config};
    core::RunControl control;
    control.checkpoint_dir = dir.string();
    control.stream = true;
    study.run(control);
    ASSERT_TRUE(study.completed());
    std::map<std::string, std::string> hashes;
    for (const auto& [name, bytes] : dir_files(dir)) {
      hashes[name] = core::format_dataset_hash(util::fnv1a(bytes));
    }
    EXPECT_EQ(hashes, pinned);
  }
}

// A crash can end the shard anywhere in its uncommitted tail. Cut it at
// every block boundary (each looks like a finished append) and once inside
// every block: each resume must land on the uninterrupted run's bits.
TEST(StoreDamage, CutsAtAndInsideEveryTailBlockResumeBitExactly) {
  const DamageBaseline& base = damage_baseline();
  const std::vector<BlockSpan>& blocks = base.blocks;
  ASSERT_LT(base.first_tail, blocks.size());
  std::vector<std::size_t> cuts;
  for (std::size_t i = base.first_tail; i < blocks.size(); ++i) {
    cuts.push_back(blocks[i].offset);
    cuts.push_back(blocks[i].offset + blocks[i].size / 2);
  }
  cuts.push_back(blocks.back().offset + blocks.back().size);
  for (const std::size_t cut : cuts) {
    SCOPED_TRACE(cut);
    const fs::path dir = copy_store("cloudrtt_store_cut", base.dir);
    fs::resize_file(shard_file(dir), cut);
    EXPECT_EQ(core::format_dataset_hash(resume_hash(dir, base.config)),
              core::format_dataset_hash(base.hash));
  }
}

}  // namespace
}  // namespace cloudrtt
