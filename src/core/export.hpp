#pragma once
// Dataset export: tidy CSVs of the collected pings and traceroutes, in the
// spirit of the paper's published dataset. The dataset hash reuses the same
// writers in the canonical flavour: round-trip double formatting and the
// ground-truth column that the human-facing CSVs deliberately omit, so the
// hash covers every collected bit.
//
// The writers are incremental: construct one against an output stream (or
// an FNV-1a digest, for the dataset hash), feed it datasets chunk by chunk
// (a streamed run feeds one store block at a time), then finish(). The
// one-shot export_*_csv functions and the whole-dataset hash are thin
// wrappers over a single write() call. Both flavours run the same
// allocation-free row encoder: cells are formatted straight into a fixed
// chunk buffer that reaches the stream or digest before write() returns.

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

/// Which CSV a writer produces.
enum class CsvFlavour {
  /// The published dataset: doubles in human-friendly 3-decimal fixed
  /// point, and no ground truth.
  Published,
  /// Every collected bit, as dataset_hash folds it: doubles in shortest
  /// round-trip form (std::to_chars), and the traces' `true_mode`
  /// ground-truth column.
  Canonical,
};

/// Where a CSV writer's bytes go: an output stream, or an FNV-1a digest
/// that folds them and keeps no copy. Exactly one is set.
struct CsvSink {
  std::ostream* out = nullptr;
  std::uint64_t* fnv1a = nullptr;
};

/// Incremental ping CSV writer: header on construction, one row per ping per
/// write() call. Feeding the same rows across several write() calls produces
/// byte-identical output to one call — which is what makes the streamed
/// dataset hash equal the in-memory one.
class PingCsvWriter {
 public:
  PingCsvWriter(std::ostream& out, CsvFlavour flavour);
  /// Hashing writer: continues the FNV-1a `digest` over every byte the
  /// stream writer would write, and writes nothing.
  PingCsvWriter(std::uint64_t& digest, CsvFlavour flavour);
  void write(const measure::Dataset& data);
  void finish();

 private:
  PingCsvWriter(CsvSink sink, CsvFlavour flavour);

  CsvSink sink_;
  CsvFlavour flavour_;
  std::uint64_t rows_ = 0;
};

/// Incremental trace CSV writer (one row per hop); the running trace id
/// numbers traces across every write() call.
class TraceCsvWriter {
 public:
  TraceCsvWriter(std::ostream& out, CsvFlavour flavour);
  /// Hashing writer, as PingCsvWriter's.
  TraceCsvWriter(std::uint64_t& digest, CsvFlavour flavour);
  void write(const measure::Dataset& data);
  void finish();

 private:
  TraceCsvWriter(CsvSink sink, CsvFlavour flavour);

  CsvSink sink_;
  CsvFlavour flavour_;
  std::uint64_t rows_ = 0;
  std::uint64_t trace_id_ = 0;
};

/// One row per ping: probe id, platform, country, continent, ISP ASN,
/// provider, region, protocol, rtt_ms, day, slot.
void export_pings_csv(std::ostream& out, const measure::Dataset& data,
                      CsvFlavour flavour = CsvFlavour::Published);

/// One row per traceroute hop: trace id, probe id, provider, region, target
/// ip, day, slot, completed flag, end-to-end RTT, ttl, responded, hop ip,
/// hop rtt, and in the canonical flavour the true interconnect mode.
void export_traces_csv(std::ostream& out, const measure::Dataset& data,
                       CsvFlavour flavour = CsvFlavour::Published);

/// FNV-1a (64-bit) over the full exported dataset: the ping CSV followed by
/// the trace CSV, both in the canonical flavour so every collected bit is
/// covered. Two runs are reproductions of each other iff their hashes
/// match — this is what `cloudrtt study --dataset-hash` prints and what the
/// determinism CI gate compares. The writers fold their chunk buffer into
/// the digest, so no serialized copy of the dataset exists.
[[nodiscard]] std::uint64_t dataset_hash(const measure::Dataset& data);

/// The same hash computed straight from a format=3 store: a read-only
/// store::open_store, then two store::scan_rows passes in append order
/// (FNV-1a is sequential, and the canonical serialisation is all pings then
/// all traces). The open and the scans each hold one block at a time, so
/// memory stays O(one block) through the hash. Bit-identical to
/// dataset_hash() over the materialised dataset — the streamed study's
/// determinism gate depends on it.
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
