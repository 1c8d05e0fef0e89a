#pragma once
// Reading a streaming store: validate what the manifest committed, salvage
// what the crash left beyond it, decode the rows.
//
// Every read of a shard file goes through one block reader (salvage.cpp)
// that holds a single framed block at a time: the header line, bounded at
// 256 bytes, then the payload in a buffer reused across blocks, checked
// with block_checksum(). Reading a store costs one block of memory however
// large the store grows.
//
// open_store() makes one pass over a platform's one shard file and keeps
// block headers only. The committed region (up to the manifest's byte
// mark) is parsed *strictly* — a shorter file, a straddling or damaged
// block, a gap in `seq`, a block that does not continue the task run, or a
// task total other than the manifest's means the commit point itself lied,
// and the open refuses with a structured error rather than guessing. Bytes
// beyond the mark are the uncommitted tail of an interrupted run: salvage
// walks them block by block and adopts the longest prefix that continues
// the campaign exactly where the manifest stopped (the chain rule in
// salvage.cpp), counts what it had to drop, and — when `repair` is set —
// truncates the shard back to its last adopted byte so the next append
// lands on a block boundary. Validation decodes no payload, so it needs no
// probe fleets.
//
// scan_rows() decodes: it reads the blocks an open accepted in file order,
// which is the order the campaign appended them, one block's rows at a
// time, and refuses a block that passes its checksum but does not decode.
//
// The resume contract: open_store() (+ scan_rows() for a resume that holds
// its rows in memory) + replaying the remainder of the interrupted day from
// the RNG (the campaign's per-day streams are forked from the never-advanced
// base seed) reproduces the exact dataset an uninterrupted run would have
// produced — core::dataset_hash is the oracle the crash-loop CI gate checks.

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <string_view>

#include "measure/campaign.hpp"
#include "measure/records.hpp"
#include "probes/fleet.hpp"
#include "store/io_env.hpp"
#include "store/shard_writer.hpp"

namespace cloudrtt::store {

/// What salvage did to the uncommitted tail of a store.
struct SalvageReport {
  std::uint64_t committed_blocks = 0;  ///< blocks inside the manifest marks
  std::uint64_t salvaged_blocks = 0;   ///< tail blocks adopted into the data
  std::uint64_t salvaged_rows = 0;     ///< task rows (ping+trace pairs) adopted
  std::uint64_t dropped_blocks = 0;    ///< structurally valid but rejected
  std::uint64_t truncated_bytes = 0;   ///< tail bytes cut (or cuttable) away
  bool repaired = false;               ///< shard physically truncated
  /// True when the store needed no recovery at all.
  [[nodiscard]] bool clean() const {
    return salvaged_blocks == 0 && dropped_blocks == 0 &&
           truncated_bytes == 0;
  }
};

/// Everything a resume needs from an opened store. The rows stay on disk;
/// scan_rows() reads them.
struct OpenResult {
  measure::CampaignState state;
  StoreMeta meta;
  /// Where durable data ends after salvage: what ShardWriter::restore()
  /// continues from and scan_rows() reads up to.
  ShardState shard;
  SalvageReport salvage;
  /// Task rows (ping+trace pairs) durably on disk after salvage: committed
  /// plus adopted tail.
  std::uint64_t durable_rows = 0;
  std::string error;
  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Manifest format under `dir` for `platform`: 4 (one shard file), 3 (legacy
/// store split into lanes), 2 (legacy CSV checkpoint), 1 (pre-address-plan
/// legacy), 0 (none/unreadable). Only format=4 is read; resume and fsck use
/// this to refuse the others.
[[nodiscard]] int manifest_format(const std::filesystem::path& dir,
                                  std::string_view platform, IoEnv& io);

/// Open a format=4 store: strict-validate the committed region, salvage the
/// tail, return the resume state. `repair` additionally truncates torn and
/// dropped tail bytes so a ShardWriter can continue in place, and counts
/// the salvage in the store.salvage_*_total metrics; read-only callers pass
/// false and count nothing.
[[nodiscard]] OpenResult open_store(const std::filesystem::path& dir,
                                    std::string_view platform, IoEnv& io,
                                    bool repair);

/// Decode the rows of the store `opened` describes: every block below its
/// durable mark (OpenResult::shard), in file order, one block's rows at a
/// time. Each block reaches `per_block` as a dataset bound to the fleets,
/// which must know every probe id it carries. Empty on success; otherwise
/// the open's error, or what failed, naming, for a block that does not
/// decode, its day and task.
[[nodiscard]] std::string scan_rows(
    const std::filesystem::path& dir, std::string_view platform,
    const OpenResult& opened, const probes::ProbeFleet* sc_fleet,
    const probes::ProbeFleet* atlas_fleet,
    const std::function<void(const measure::Dataset&)>& per_block);

/// Offline integrity check (`cloudrtt study --fsck`): open_store's
/// validation without repair. A legacy format=1/2/3 manifest is reported
/// unhealthy. fsck has no probe fleets and decodes no payload, so a block
/// that passes its checksum but does not decode still reports HEALTHY;
/// scan_rows() (a resume, the streamed dataset hash) refuses it.
struct FsckReport {
  int format = 0;
  std::uint64_t committed_blocks = 0;
  std::uint64_t committed_rows = 0;
  std::uint64_t tail_blocks = 0;     ///< salvageable on the next resume
  std::uint64_t tail_rows = 0;
  std::uint64_t dropped_blocks = 0;
  std::uint64_t torn_bytes = 0;      ///< bytes a resume would truncate
  std::string error;                 ///< committed-region violation, if any
  [[nodiscard]] bool healthy() const { return error.empty(); }
  /// One human-readable summary line per store.
  [[nodiscard]] std::string render(std::string_view platform) const;
};

[[nodiscard]] FsckReport fsck(const std::filesystem::path& dir,
                              std::string_view platform, IoEnv& io);

}  // namespace cloudrtt::store
