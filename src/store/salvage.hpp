#pragma once
// Reading a streaming store: one pass validates what the manifest
// committed, salvages what the crash left beyond it, and hands every block
// it accepts to the caller.
//
// open_store() is the store's only reader. It reads the manifest once,
// then the platform's one shard file front to back through one block
// reader (salvage.cpp) that holds a single framed block at a time: the
// header line, bounded at 256 bytes, then the payload in a buffer reused
// across blocks, checked with block_checksum(). Reading a store costs one
// block of memory however large the store grows.
//
// The committed region (up to the manifest's byte mark) is read *strictly*
// — a shorter file, a straddling or damaged block, a gap in `seq`, a block
// that does not continue the task run, or a task total other than the
// manifest's means the commit point itself lied, and the open refuses with
// a structured error rather than guessing. Bytes beyond the mark are the
// uncommitted tail of an interrupted run: salvage walks them block by
// block and adopts the longest prefix that continues the campaign exactly
// where the manifest stopped (the chain rule in salvage.cpp), counts what
// it had to drop, and — when `repair` is set — truncates the shard back to
// its last adopted byte so the next append lands on a block boundary.
//
// Each block the open accepts, committed or adopted, reaches the caller's
// visitor as it is read, in file order (the order the campaign appended
// them), checksummed but not decoded: the open itself needs no probe
// fleets. A visitor that decodes (an in-memory resume, the streamed dataset
// hash, the tests) refuses a block that passes its checksum but does not
// decode, and its refusal ends the open. fsck() is the open with no
// visitor.
//
// The resume contract: open_store() (decoding into the resumed dataset
// unless the run streams) + replaying the remainder of the interrupted day
// from the RNG (the campaign's per-day streams are forked from the
// never-advanced base seed) reproduces the exact dataset an uninterrupted
// run would have produced — core::dataset_hash is the oracle the
// crash-loop CI gate checks.

#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "measure/campaign.hpp"
#include "store/codec.hpp"
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

/// Everything a resume needs from an opened store.
struct OpenResult {
  /// Whether a manifest exists. Without one nothing was committed: a fresh
  /// writer's wipe and a kill before the first commit both leave exactly
  /// that, so there is no store, whatever shard file is there.
  bool found = false;
  /// The manifest's format= value; 0 when it names none.
  int format = 0;
  measure::CampaignState state;
  StoreMeta meta;
  /// Where durable data ends after salvage: what ShardWriter::restore()
  /// continues from.
  ShardState shard;
  SalvageReport salvage;
  /// Task rows (ping+trace pairs) durably on disk after salvage: committed
  /// plus adopted tail.
  std::uint64_t durable_rows = 0;
  std::string error;
  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Receives one block the open accepted: its header and its payload,
/// checked against its checksum but not decoded (store/codec.hpp cuts and
/// decodes records), valid for the call only. Returns what is wrong with
/// the block, or empty; an error ends the open, which returns it as its
/// own.
using BlockVisitor =
    std::function<std::string(const BlockHeader&, std::string_view)>;

/// Open the store `dir` holds for `platform` in one pass: read its
/// manifest, strict-validate the committed region, salvage the tail, and
/// hand each accepted block to `visit` (when set) as it is read. Refused
/// before any block is read, with `error` set and the directory left as it
/// is:
///  * no manifest (`found` is false);
///  * a legacy manifest (format=1 router-replay quartets, format=2 CSV
///    checkpoints, format=3 stores split into lane files), or one that is
///    empty, names no format this build reads or has fields that do not
///    parse. Commits replace the manifest atomically, so only damage
///    leaves one unreadable, and the shard next to it holds committed rows;
///  * a manifest whose seed is not `seed`, when one is given.
/// `repair` additionally truncates torn and dropped tail bytes so a
/// ShardWriter can continue in place, and counts the salvage in the
/// store.salvage_*_total metrics; read-only callers pass false and count
/// nothing. An open that fails after some blocks reached `visit` has
/// repaired nothing; the caller drops what it built from them.
[[nodiscard]] OpenResult open_store(
    const std::filesystem::path& dir, std::string_view platform, IoEnv& io,
    bool repair, std::optional<std::uint64_t> seed = std::nullopt,
    const BlockVisitor& visit = {});

/// Offline integrity check (`cloudrtt study --fsck`): open_store() with
/// no repair and no visitor. A missing manifest, and every manifest the
/// open refuses, is reported unhealthy. fsck has no probe fleets and
/// decodes no payload, so a block that passes its checksum but does not
/// decode still reports HEALTHY; an open that decodes (a resume, the
/// streamed dataset hash) refuses it.
struct FsckReport {
  bool found = false;  ///< a manifest exists (OpenResult::found)
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
