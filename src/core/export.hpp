#pragma once
// Dataset export: tidy CSVs of the collected pings and traceroutes, in the
// spirit of the paper's published dataset. The dataset hash folds the same
// CSV in the canonical flavour: round-trip double formatting and the
// ground-truth column that the human-facing CSVs deliberately omit, so the
// hash covers every collected bit.
//
// Every call here runs one ordered encoder (export.cpp). The row sequence
// (all pings, then all traces, each part after its header line) is cut into
// batches of at most kCsvBatchRows rows: slices of an in-memory dataset, or
// of each store block a scan decodes. A reader thread cuts them; two
// encoder threads format them with one allocation-free row encoder into a
// window of kCsvWindowBatches reused buffers; the calling thread retires the
// buffers strictly in batch order into the stream or the FNV-1a digest. So
// the output is byte for byte what one thread writing row after row would
// give, and only a bounded window of encoded batches exists at any time.
// The shape is fixed: `--threads` sizes the campaign executor only.

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <string_view>

#include "measure/records.hpp"
#include "probes/fleet.hpp"

namespace cloudrtt::store {
class IoEnv;
}  // namespace cloudrtt::store

namespace cloudrtt::core {

/// Which CSV an export writes.
enum class CsvFlavour {
  /// The published dataset: doubles in human-friendly 3-decimal fixed
  /// point, and no ground truth.
  Published,
  /// Every collected bit, as dataset_hash folds it: doubles in shortest
  /// round-trip form (std::to_chars), and the traces' `true_mode`
  /// ground-truth column.
  Canonical,
};

/// Rows per encoder batch: ping rows, or the hop rows of whole traces. A
/// trace is never split: one that would overflow a batch starts the next,
/// and a trace with no hops counts as one row. A canonical batch is about
/// 64 KiB of CSV. Boundaries never show in the output; tests place rows on
/// them.
inline constexpr std::size_t kCsvBatchRows = 512;

/// Batches the encoder holds at once, encoded or waiting to be: the window
/// that bounds its memory (~2 MiB of CSV). Tests hash more batches than
/// this, so the reader reuses every slot.
inline constexpr std::size_t kCsvWindowBatches = 32;

/// One row per ping: probe id, platform, country, continent, ISP ASN,
/// provider, region, protocol, rtt_ms, day, slot. Runs under the
/// core.export.pings_csv span and adds the rows written to
/// export.ping_rows_total.
void export_pings_csv(std::ostream& out, const measure::Dataset& data,
                      CsvFlavour flavour = CsvFlavour::Published);

/// One row per traceroute hop: trace id, probe id, provider, region, target
/// ip, day, slot, completed flag, end-to-end RTT, ttl, responded, hop ip,
/// hop rtt, and in the canonical flavour the true interconnect mode. Runs
/// under the core.export.traces_csv span and adds the rows written to
/// export.trace_rows_total.
void export_traces_csv(std::ostream& out, const measure::Dataset& data,
                       CsvFlavour flavour = CsvFlavour::Published);

/// FNV-1a (64-bit) over the full exported dataset: the ping CSV followed by
/// the trace CSV, both in the canonical flavour so every collected bit is
/// covered. Two runs are reproductions of each other iff their hashes
/// match — this is what `cloudrtt study --dataset-hash` prints and what the
/// determinism CI gate compares. A reader thread cuts `data` into batches,
/// two encoder threads format them, and the calling thread folds them in
/// order; no more than kCsvWindowBatches encoded batches exist at a time,
/// never a serialized copy of the dataset. Runs under its own phase span
/// (core.export.dataset_hash) and counts no export rows.
[[nodiscard]] std::uint64_t dataset_hash(const measure::Dataset& data);

/// The same hash computed straight from a format=4 store: a read-only
/// store::open_store on the calling thread, then, on the reader thread,
/// two store::scan_rows passes in append order (FNV-1a is sequential, and
/// the canonical serialisation is all pings then all traces). The reader
/// copies each decoded block's rows into the window batch by batch, the two
/// encoder threads format them, and the calling thread folds them in
/// order; trace ids run on across blocks. Memory stays O(one block + the
/// window) through the hash. Bit-identical to dataset_hash() over the
/// materialised dataset — the streamed study's determinism gate depends on
/// it. A failed open or scan comes back in `error`, an encoder's exception
/// is rethrown, both only after every thread has joined.
struct StreamedHashResult {
  std::uint64_t hash = 0;
  std::uint64_t rows = 0;  ///< task rows hashed (ping+trace pairs)
  std::string error;
  [[nodiscard]] bool ok() const { return error.empty(); }
};
[[nodiscard]] StreamedHashResult streamed_dataset_hash(
    const std::filesystem::path& dir, std::string_view platform,
    store::IoEnv& io, const probes::ProbeFleet* sc_fleet,
    const probes::ProbeFleet* atlas_fleet);

/// The hash as the canonical 16-digit zero-padded lower-case hex string.
[[nodiscard]] std::string format_dataset_hash(std::uint64_t hash);

}  // namespace cloudrtt::core
