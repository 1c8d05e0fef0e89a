#pragma once
// Opening a streaming store: validate what the manifest committed, salvage
// what the crash left beyond it.
//
// The committed region of each lane (the manifest's byte mark) is parsed
// *strictly* — a shorter file, a straddling or damaged block, a checksum or
// sequence mismatch there means the commit point itself lied, and the open
// refuses with a structured error rather than guessing. Bytes beyond the
// mark are the uncommitted tail of an interrupted run: salvage walks them
// block by block and adopts the longest prefix that continues the campaign
// exactly where the manifest stopped (the chain rule in open_store), counts
// what it had to drop, and — when `repair` is set — truncates each lane back
// to its last adopted byte so the next append lands on a block boundary.
//
// The resume contract: open_store() + replaying the remainder of the
// interrupted day from the RNG (the campaign's per-day streams are forked
// from the never-advanced base seed) reproduces the exact dataset an
// uninterrupted run would have produced — core::dataset_hash is the oracle
// the crash-loop CI gate checks.

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

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
  bool repaired = false;               ///< lanes physically truncated
  /// True when the store needed no recovery at all.
  [[nodiscard]] bool clean() const {
    return salvaged_blocks == 0 && dropped_blocks == 0 &&
           truncated_bytes == 0;
  }
};

/// Everything a resume needs from an opened store.
struct OpenResult {
  measure::Dataset data;
  measure::CampaignState state;
  StoreMeta meta;
  std::vector<LaneState> lane_states;
  SalvageReport salvage;
  /// Task rows (ping+trace pairs) durably on disk after salvage: committed
  /// plus adopted tail. Equals data.pings.size() on a binding open; the only
  /// row count available on a structural open (which parses no rows).
  std::uint64_t durable_rows = 0;
  std::string error;
  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Manifest format under `dir` for `platform`: 3 (streaming store),
/// 2 (legacy CSV checkpoint), 1 (pre-address-plan legacy), 0 (none/unreadable).
/// Only format=3 is read; resume and fsck use this to refuse the others.
[[nodiscard]] int manifest_format(const std::filesystem::path& dir,
                                  std::string_view platform, IoEnv& io);

/// Open a format=3 store: strict-validate the committed region, salvage the
/// tail, rebuild the dataset and resume state. `repair` additionally
/// truncates torn/dropped tail bytes so a ShardWriter can continue in place;
/// read-only callers pass false.
[[nodiscard]] OpenResult open_store(const std::filesystem::path& dir,
                                    std::string_view platform, IoEnv& io,
                                    const probes::ProbeFleet* sc_fleet,
                                    const probes::ProbeFleet* atlas_fleet,
                                    bool repair);

/// Structural open: same committed-region validation, salvage chain and
/// repair as open_store, but no row binding — `data` comes back empty and
/// `durable_rows` carries the on-disk row count. This is what a *streaming*
/// resume uses: it needs the lane states and campaign state to continue
/// appending, never the rows themselves (RAM stays O(day)).
[[nodiscard]] OpenResult open_store_structural(
    const std::filesystem::path& dir, std::string_view platform, IoEnv& io,
    bool repair);

/// Offline integrity check (`cloudrtt study --fsck`): same validation as
/// open_store but structural only — no probe fleets, no row binding, never
/// repairs. A legacy format=1/2 checkpoint is reported unhealthy.
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
