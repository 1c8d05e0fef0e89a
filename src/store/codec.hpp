#pragma once
// Block framing and row serialisation for the streaming store.
//
// A platform's shard file is a sequence of framed blocks, each:
//
//   #cloudrtt-blk seq=<n> day=<d> start=<t> tasks=<k> cursor=<c>
//       bytes=<B> fnv1a=<16 hex>   (one line, then a newline)
//   <exactly B payload bytes>
//
// The payload serialises tasks [start, start+k) of `day` as fixed-layout
// little-endian binary records — per task a 16-byte ping, a 22-byte trace
// core and 14 bytes per hop. Doubles are raw IEEE-754 bits, regions are
// indices into the static RegionCatalog, probes are ids re-bound on load:
// exact round-trip by construction (core::dataset_hash is the oracle) and
// cheap enough that the spill worker's CPU stays invisible next to the
// campaign even on single-core machines. The framing stays a text line so
// a shard is greppable for block boundaries; the block's integrity comes
// from `fnv1a`, never from being readable. `seq` increases by one per
// block through the file; `cursor` is the country-cycle cursor at the
// *start* of the block's day, which is what a mid-day salvage needs to
// replay the schedule phase. `fnv1a` is block_checksum(): FNV-1a folded
// over 64-bit words (util::fnv1a_words — the byte-serial variant was the
// worker's single biggest CPU item) of the six header fields above it, then
// of the payload. Any bit flip, torn tail or relabelled header field is
// detectable without trusting file sizes.

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>

#include "measure/records.hpp"
#include "probes/fleet.hpp"

namespace cloudrtt::store {

inline constexpr std::string_view kBlockMagic = "#cloudrtt-blk ";

/// Tasks per block: bounds the blast radius of a torn append (at most one
/// block of rows re-executed) while keeping per-append syscall cost amortised.
inline constexpr std::size_t kBlockTasks = 512;

struct BlockHeader {
  std::uint64_t seq = 0;     ///< block sequence through the file, from 0
  std::uint32_t day = 0;
  std::uint32_t start = 0;   ///< first task index of the day in this block
  std::uint32_t tasks = 0;   ///< tasks serialised (1 ping + 1 trace each)
  std::uint64_t cursor = 0;  ///< country-cycle cursor at the day's start
  std::uint64_t bytes = 0;   ///< payload length
  std::uint64_t fnv1a = 0;   ///< block_checksum(header, payload)
};

/// The checksum a block's header carries: util::fnv1a_words over `seq`,
/// `day`, `start`, `tasks`, `cursor` and `bytes` (one word each), continued
/// over `payload`. `header.fnv1a` itself is not covered.
[[nodiscard]] std::uint64_t block_checksum(const BlockHeader& header,
                                           std::string_view payload);

[[nodiscard]] std::string format_block_header(const BlockHeader& header);

/// Parse a header line (without the trailing newline). False on anything
/// that is not a well-formed block header.
[[nodiscard]] bool parse_block_header(std::string_view line, BlockHeader& out);

/// Serialise task `row` (ping row `row` paired with trace row `row`)
/// straight from the dataset's columns — the cells already hold the on-disk
/// encoding (probe id, catalog region index), so the spill worker does no
/// pointer chasing and no binding at all.
void serialize_task(std::string& out, const measure::Dataset& data,
                    std::size_t row);

/// Parse `header.tasks` serialised tasks from `payload`, validate them
/// against the probe fleets and the static region catalogue, and append
/// them column-direct to `out`, whose binding must cover the fleets.
/// Returns empty on success, else what was wrong, naming the day and task.
[[nodiscard]] std::string parse_block(std::string_view payload,
                                      const BlockHeader& header,
                                      const probes::ProbeFleet* sc_fleet,
                                      const probes::ProbeFleet* atlas_fleet,
                                      measure::Dataset& out);

// Store artefact paths, shared by the writer, salvage and fsck.
[[nodiscard]] std::filesystem::path store_manifest_path(
    const std::filesystem::path& dir, std::string_view platform);
[[nodiscard]] std::filesystem::path store_shard_path(
    const std::filesystem::path& dir, std::string_view platform);

}  // namespace cloudrtt::store
