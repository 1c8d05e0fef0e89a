#include "core/export.hpp"

#include <charconv>
#include <cstddef>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/salvage.hpp"
#include "util/rng.hpp"
#include "util/text.hpp"

namespace cloudrtt::core {

namespace {

constexpr std::uint64_t kFnvBasis = util::kFnv1aBasis;

/// Widest numeric cells. A 3-decimal fixed-point double runs to a sign, 309
/// integer digits (DBL_MAX), the point and 3 decimals; a shortest
/// round-trip double is at most 24 characters.
constexpr std::size_t kMaxUintChars =
    std::numeric_limits<std::uint64_t>::digits10 + 1;
constexpr std::size_t kMaxDoubleChars =
    1 + (std::numeric_limits<double>::max_exponent10 + 1) + 1 + 3;

void put_bytes(const CsvSink& sink, std::string_view bytes) {
  if (sink.fnv1a != nullptr) {
    *sink.fnv1a = util::fnv1a_accum(*sink.fnv1a, bytes);
  } else {
    sink.out->write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
}

/// The row encoder's output: a fixed chunk that cells are formatted straight
/// into with std::to_chars. A cell first asks for room for its widest form;
/// when the chunk cannot give it, the buffered bytes go to the sink and the
/// chunk starts over. Nothing grows, no row allocates, and the sink sees one
/// call per chunk.
class ChunkBuffer {
 public:
  static constexpr std::size_t kBytes = 32 * 1024;

  explicit ChunkBuffer(const CsvSink& sink) : sink_(sink) {}
  ChunkBuffer(const ChunkBuffer&) = delete;
  ChunkBuffer& operator=(const ChunkBuffer&) = delete;

  void flush() {
    put_bytes(sink_, std::string_view{data_, size_});
    size_ = 0;
    ++flushes_;
  }

  /// Chunks flushed so far; bytes written under an older count are gone.
  [[nodiscard]] std::uint64_t flushes() const { return flushes_; }
  [[nodiscard]] std::size_t size() const { return size_; }

  void put(char ch) {
    *room(1) = ch;
    ++size_;
  }

  void put(std::string_view bytes) {
    while (bytes.size() > kBytes - size_) {
      const std::size_t fits = kBytes - size_;
      std::memcpy(data_ + size_, bytes.data(), fits);
      size_ = kBytes;
      bytes.remove_prefix(fits);
      flush();
    }
    if (bytes.empty()) return;
    std::memcpy(data_ + size_, bytes.data(), bytes.size());
    size_ += bytes.size();
  }

  /// A catalog string under util::write_csv_row's rule: verbatim unless it
  /// holds a comma, quote or newline, else quoted with inner quotes doubled.
  void put_text(std::string_view text) {
    if (text.find_first_of(",\"\n") == std::string_view::npos) {
      put(text);
      return;
    }
    put('"');
    for (std::size_t quote = text.find('"'); quote != std::string_view::npos;
         quote = text.find('"')) {
      put(text.substr(0, quote + 1));
      put('"');
      text.remove_prefix(quote + 1);
    }
    put(text);
    put('"');
  }

  void put_uint(std::uint64_t value) {
    char* out = room(kMaxUintChars);
    commit(std::to_chars(out, out + kMaxUintChars, value).ptr);
  }

  /// Shortest round-trip form, or the human 3-decimal fixed point (what
  /// printf's "%.3f" prints: both round the exact binary value half-even).
  void put_double(double value, bool roundtrip) {
    char* out = room(kMaxDoubleChars);
    commit(roundtrip ? std::to_chars(out, out + kMaxDoubleChars, value).ptr
                     : std::to_chars(out, out + kMaxDoubleChars, value,
                                     std::chars_format::fixed, 3)
                           .ptr);
  }

  void put_ip(net::Ipv4Address ip) {
    commit(ip.append_to(room(net::Ipv4Address::kMaxChars)));
  }

  /// Append a copy of the `bytes` bytes at offset `at` of the current chunk
  /// and return the copy's offset. When the chunk is too full, it is
  /// flushed first and the bytes, still intact, move to its front.
  std::size_t repeat(std::size_t at, std::size_t bytes) {
    if (kBytes - size_ < bytes) {
      flush();
      std::memmove(data_, data_ + at, bytes);
      size_ = bytes;
      return 0;
    }
    std::memcpy(data_ + size_, data_ + at, bytes);
    size_ += bytes;
    return size_ - bytes;
  }

 private:
  /// At least `bytes` (at most kBytes) free at the end of the chunk.
  [[nodiscard]] char* room(std::size_t bytes) {
    if (kBytes - size_ < bytes) flush();
    return data_ + size_;
  }
  void commit(const char* end) {
    size_ = static_cast<std::size_t>(end - data_);
  }

  const CsvSink& sink_;
  std::uint64_t flushes_ = 0;
  std::size_t size_ = 0;
  char data_[kBytes];
};

// lint:hot
void put_ping_row(ChunkBuffer& chunk, const measure::PingRecord& ping,
                  bool roundtrip) {
  const probes::Probe& probe = *ping.probe;
  chunk.put_uint(probe.id);
  chunk.put(',');
  // lint:allow(hot-path-alloc): probes::to_string returns a static string_view
  chunk.put_text(to_string(probe.platform));
  chunk.put(',');
  chunk.put_text(probe.country->code);
  chunk.put(',');
  chunk.put_text(geo::to_code(probe.country->continent));
  chunk.put(',');
  chunk.put_uint(probe.isp->asn);
  chunk.put(',');
  chunk.put_text(cloud::provider_info(ping.region->provider).ticker);
  chunk.put(',');
  chunk.put_text(ping.region->region_name);
  chunk.put(',');
  // lint:allow(hot-path-alloc): measure::to_string returns a static string_view
  chunk.put_text(to_string(ping.protocol));
  chunk.put(',');
  chunk.put_double(ping.rtt_ms, roundtrip);
  chunk.put(',');
  chunk.put_uint(ping.day);
  chunk.put(',');
  chunk.put_uint(ping.slot);
  chunk.put('\n');
}

/// The cells every hop row of a trace starts with, trailing comma included.
// lint:hot
void put_trace_prefix(ChunkBuffer& chunk, const measure::TraceRef& trace,
                      std::uint64_t trace_id, bool roundtrip) {
  chunk.put_uint(trace_id);
  chunk.put(',');
  chunk.put_uint(trace.probe->id);
  chunk.put(',');
  chunk.put_text(cloud::provider_info(trace.region->provider).ticker);
  chunk.put(',');
  chunk.put_text(trace.region->region_name);
  chunk.put(',');
  chunk.put_ip(trace.target_ip);
  chunk.put(',');
  chunk.put_uint(trace.day);
  chunk.put(',');
  chunk.put_uint(trace.slot);
  chunk.put(',');
  chunk.put(trace.completed ? '1' : '0');
  chunk.put(',');
  chunk.put_double(trace.end_to_end_ms, roundtrip);
  chunk.put(',');
}

/// A hop's own cells; a silent hop leaves ip and rtt empty.
// lint:hot
void put_hop_cells(ChunkBuffer& chunk, const measure::HopRecord& hop,
                   bool roundtrip) {
  chunk.put_uint(hop.ttl);
  chunk.put(',');
  chunk.put(hop.responded ? '1' : '0');
  chunk.put(',');
  if (hop.responded) chunk.put_ip(hop.ip);
  chunk.put(',');
  if (hop.responded) chunk.put_double(hop.rtt_ms, roundtrip);
}

/// One-shot export of `data` through a fresh writer on `target` (a stream
/// or a digest), under the writer's phase span.
template <typename Writer, typename Target>
void write_once(std::string_view phase_name, Target& target,
                const measure::Dataset& data, CsvFlavour flavour) {
  obs::Span phase = obs::span(phase_name);
  Writer writer(target, flavour);
  writer.write(data);
  writer.finish();
}

}  // namespace

PingCsvWriter::PingCsvWriter(std::ostream& out, CsvFlavour flavour)
    : PingCsvWriter(CsvSink{.out = &out}, flavour) {}

PingCsvWriter::PingCsvWriter(std::uint64_t& digest, CsvFlavour flavour)
    : PingCsvWriter(CsvSink{.fnv1a = &digest}, flavour) {}

PingCsvWriter::PingCsvWriter(CsvSink sink, CsvFlavour flavour)
    : sink_(sink), flavour_(flavour) {
  put_bytes(sink_,
            "probe_id,platform,country,continent,isp_asn,provider,region,"
            "protocol,rtt_ms,day,slot\n");
}

// lint:hot
void PingCsvWriter::write(const measure::Dataset& data) {
  const bool roundtrip = flavour_ == CsvFlavour::Canonical;
  ChunkBuffer chunk{sink_};
  for (const measure::PingRecord& ping : data.pings) {
    put_ping_row(chunk, ping, roundtrip);
  }
  rows_ += data.pings.size();
  chunk.flush();
}

void PingCsvWriter::finish() {
  obs::Registry::global().counter("export.ping_rows_total").inc(rows_);
}

TraceCsvWriter::TraceCsvWriter(std::ostream& out, CsvFlavour flavour)
    : TraceCsvWriter(CsvSink{.out = &out}, flavour) {}

TraceCsvWriter::TraceCsvWriter(std::uint64_t& digest, CsvFlavour flavour)
    : TraceCsvWriter(CsvSink{.fnv1a = &digest}, flavour) {}

TraceCsvWriter::TraceCsvWriter(CsvSink sink, CsvFlavour flavour)
    : sink_(sink), flavour_(flavour) {
  put_bytes(sink_,
            flavour_ == CsvFlavour::Canonical
                ? "trace_id,probe_id,provider,region,target_ip,day,slot,"
                  "completed,end_to_end_ms,ttl,responded,hop_ip,hop_rtt_ms,"
                  "true_mode\n"
                : "trace_id,probe_id,provider,region,target_ip,day,slot,"
                  "completed,end_to_end_ms,ttl,responded,hop_ip,hop_rtt_ms\n");
}

// lint:hot
void TraceCsvWriter::write(const measure::Dataset& data) {
  constexpr std::uint64_t kNoChunk = std::numeric_limits<std::uint64_t>::max();
  const bool canonical = flavour_ == CsvFlavour::Canonical;
  ChunkBuffer chunk{sink_};
  for (const measure::TraceRef& trace : data.traces) {
    // lint:allow(hot-path-alloc): topology::to_string returns a static string_view
    const std::string_view mode = topology::to_string(trace.true_mode);
    // The prefix cells repeat on every hop row of the trace: encode them
    // once, then copy them within the chunk for as long as no flush has
    // dropped them (`prefix_chunk` is the flush count they were written
    // under, or kNoChunk when a flush split them).
    std::size_t prefix_at = 0;
    std::size_t prefix_bytes = 0;
    std::uint64_t prefix_chunk = kNoChunk;
    for (const measure::HopRecord& hop : trace.hops) {
      if (prefix_chunk == chunk.flushes()) {
        prefix_at = chunk.repeat(prefix_at, prefix_bytes);
        prefix_chunk = chunk.flushes();
      } else {
        const std::uint64_t before = chunk.flushes();
        prefix_at = chunk.size();
        put_trace_prefix(chunk, trace, trace_id_, canonical);
        prefix_bytes = chunk.size() - prefix_at;
        prefix_chunk = chunk.flushes() == before ? before : kNoChunk;
      }
      put_hop_cells(chunk, hop, canonical);
      if (canonical) {
        chunk.put(',');
        chunk.put_text(mode);
      }
      chunk.put('\n');
    }
    rows_ += trace.hops.size();
    ++trace_id_;
  }
  chunk.flush();
}

void TraceCsvWriter::finish() {
  obs::Registry::global().counter("export.trace_rows_total").inc(rows_);
}

void export_pings_csv(std::ostream& out, const measure::Dataset& data,
                      CsvFlavour flavour) {
  write_once<PingCsvWriter>("core.export.pings_csv", out, data, flavour);
}

void export_traces_csv(std::ostream& out, const measure::Dataset& data,
                       CsvFlavour flavour) {
  write_once<TraceCsvWriter>("core.export.traces_csv", out, data, flavour);
}

std::uint64_t dataset_hash(const measure::Dataset& data) {
  std::uint64_t digest = kFnvBasis;
  write_once<PingCsvWriter>("core.export.pings_csv", digest, data,
                            CsvFlavour::Canonical);
  write_once<TraceCsvWriter>("core.export.traces_csv", digest, data,
                             CsvFlavour::Canonical);
  return digest;
}

StreamedHashResult streamed_dataset_hash(const std::filesystem::path& dir,
                                         std::string_view platform,
                                         store::IoEnv& io,
                                         const probes::ProbeFleet* sc_fleet,
                                         const probes::ProbeFleet* atlas_fleet) {
  obs::Span phase = obs::span("core.export.streamed_hash");
  StreamedHashResult result;
  const store::OpenResult opened =
      store::open_store(dir, platform, io, /*repair=*/false);
  if (!opened.ok()) {
    result.error = opened.error;
    return result;
  }
  std::uint64_t digest = kFnvBasis;
  // The canonical serialisation is the full ping CSV then the full trace
  // CSV, and FNV-1a is strictly sequential — so the store is scanned twice,
  // once per CSV, with one block's rows resident at a time.
  {
    PingCsvWriter writer(digest, CsvFlavour::Canonical);
    if (std::string err = store::scan_rows(
            dir, platform, opened, sc_fleet, atlas_fleet,
            [&](const measure::Dataset& block) { writer.write(block); });
        !err.empty()) {
      result.error = "streamed hash (ping pass): " + err;
      return result;
    }
    writer.finish();
  }
  {
    TraceCsvWriter writer(digest, CsvFlavour::Canonical);
    if (std::string err = store::scan_rows(
            dir, platform, opened, sc_fleet, atlas_fleet,
            [&](const measure::Dataset& block) { writer.write(block); });
        !err.empty()) {
      result.error = "streamed hash (trace pass): " + err;
      return result;
    }
    writer.finish();
  }
  result.hash = digest;
  result.rows = opened.durable_rows;
  return result;
}

std::string format_dataset_hash(std::uint64_t hash) {
  std::string hex;
  util::append_hex16(hex, hash);
  return hex;
}

}  // namespace cloudrtt::core
