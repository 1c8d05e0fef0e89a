#include "core/export.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <condition_variable>
#include <cstddef>
#include <cstring>
#include <exception>
#include <functional>
#include <initializer_list>
#include <limits>
#include <mutex>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cloud/region.hpp"
#include "geo/country.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/codec.hpp"
#include "store/salvage.hpp"
#include "util/fnv1a_fold.hpp"
#include "util/rng.hpp"
#include "util/text.hpp"

namespace cloudrtt::core {

namespace {

/// The ordered encoder's shape: constants, not knobs. With the fold wide
/// (util::fnv1a_fold), formatting is the costly step, so three encoders
/// feed the calling thread: on 4 vCPUs they hashed the streamed paper
/// scale faster than two or four did (DESIGN.md §5h). The window holds 32
/// batches (~2 MiB of CSV): on a 4-vCPU VM whose host steals CPU time, a
/// window of 6 let one descheduled thread stall the pipeline, and the
/// streamed paper-scale hash lost its gain.
constexpr unsigned kEncoders = 3;
constexpr std::size_t kWindow = kCsvWindowBatches;

/// Widest numeric cells. A 3-decimal fixed-point double runs to a sign, 309
/// integer digits (DBL_MAX), the point and 3 decimals; a shortest
/// round-trip double is at most 24 characters.
constexpr std::size_t kMaxUintChars =
    std::numeric_limits<std::uint64_t>::digits10 + 1;
constexpr std::size_t kMaxDoubleChars =
    1 + (std::numeric_limits<double>::max_exponent10 + 1) + 1 + 3;

/// An FNV-1a digest, and how many of the bytes it covers the wide kernel
/// folded (export.hash_wide_bytes_total).
struct Digest {
  std::uint64_t hash = util::kFnv1aBasis;
  std::uint64_t wide_bytes = 0;

  /// The hash; adds the wide bytes to the counter. Once per hash.
  [[nodiscard]] std::uint64_t finish() const {
    obs::Registry::global()
        .counter("export.hash_wide_bytes_total")
        .inc(wide_bytes);
    return hash;
  }
};

/// Where the encoded bytes go: an output stream, or a digest that folds
/// them and keeps no copy. Exactly one is set.
struct CsvSink {
  std::ostream* out = nullptr;
  Digest* digest = nullptr;

  void put(std::string_view bytes) const {
    if (digest != nullptr) {
      digest->hash = util::fnv1a_fold(digest->hash, bytes);
      digest->wide_bytes += util::fnv1a_fold_wide_bytes(bytes.size());
    } else {
      out->write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
  }
};

/// One batch's CSV, formatted straight into the buffer with std::to_chars.
/// A cell first asks for room for its widest form; the buffer grows only
/// for a batch larger than every one before it, so no row allocates.
class CsvBuffer {
 public:
  /// Sized for a whole batch on the thread that builds the window, so the
  /// window's memory comes from, and goes back to, the caller's heap. Grown
  /// on the encoder threads instead, it stayed resident in their malloc
  /// arenas: +4.7 MiB peak RSS on a default study at this window (Release,
  /// 4 vCPU).
  CsvBuffer() : data_(64 * 1024, '\0') {}

  void clear() { size_ = 0; }
  [[nodiscard]] std::string_view bytes() const {
    return {data_.data(), size_};
  }
  [[nodiscard]] std::size_t size() const { return size_; }

  void put(char ch) {
    *room(1) = ch;
    ++size_;
  }

  void put(std::string_view bytes) {
    if (bytes.empty()) return;
    std::memcpy(room(bytes.size()), bytes.data(), bytes.size());
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

  /// Append a copy of the `bytes` bytes at offset `at`.
  void repeat(std::size_t at, std::size_t bytes) {
    char* out = room(bytes);
    std::memcpy(out, data_.data() + at, bytes);
    size_ += bytes;
  }

 private:
  /// At least `bytes` free at the end of the buffer.
  [[nodiscard]] char* room(std::size_t bytes) {
    if (data_.size() - size_ < bytes) {
      data_.resize(std::max(2 * data_.size(), size_ + bytes));
    }
    return data_.data() + size_;
  }
  void commit(const char* end) {
    size_ = static_cast<std::size_t>(end - data_.data());
  }

  std::string data_;  ///< capacity, reused across batches
  std::size_t size_ = 0;
};

/// A country's cells, trailing comma included: its code and continent.
void put_country_cells(CsvBuffer& csv, const geo::CountryInfo& country) {
  csv.put_text(country.code);
  csv.put(',');
  csv.put_text(geo::to_code(country.continent));
  csv.put(',');
}

/// A region's cells, trailing comma included: its provider and its name.
void put_region_cells(CsvBuffer& csv, const cloud::RegionInfo& region) {
  csv.put_text(cloud::provider_info(region.provider).ticker);
  csv.put(',');
  csv.put_text(region.region_name);
  csv.put(',');
}

/// `item`'s index in `rows`, or rows.size() when it is not one of them.
template <typename Row>
[[nodiscard]] std::size_t row_in(std::span<const Row> rows, const Row* item) {
  // std::less orders pointers into different arrays too.
  const std::less<const Row*> before;
  if (before(item, rows.data()) || !before(item, rows.data() + rows.size())) {
    return rows.size();
  }
  return static_cast<std::size_t>(item - rows.data());
}

/// Every catalogue cell a row can hold, escaped under
/// util::write_csv_row's rule once per process, each ready to copy with
/// the comma after it: a probe's platform ("Speedchecker,") and its
/// country and continent ("DE,EU,"), a region's provider and name
/// ("AMZN,eu-central-1,"), a ping's protocol ("TCP,"), and a canonical hop
/// row's mode with the comma before it and the row's end (",1 AS\n"). A
/// country or region outside the catalogues (a hand-built row that a
/// RowBinding keeps in its extras) has no cell here and is escaped per row.
class CellTable {
 public:
  [[nodiscard]] static const CellTable& instance() {
    static const CellTable table;
    return table;
  }

  [[nodiscard]] std::string_view platform(probes::Platform platform) const {
    return platforms_[platform == probes::Platform::Speedchecker ? 0 : 1];
  }
  [[nodiscard]] std::string_view protocol(measure::Protocol protocol) const {
    return protocols_[protocol == measure::Protocol::Tcp ? 0 : 1];
  }
  /// Any mode value: past the four modes, the cell of topology::to_string's
  /// "?".
  [[nodiscard]] std::string_view mode(topology::InterconnectMode mode) const {
    return modes_[std::min<std::size_t>(static_cast<std::size_t>(mode),
                                        modes_.size() - 1)];
  }

  // lint:hot
  void put_country(CsvBuffer& csv, const geo::CountryInfo& country) const {
    if (const std::size_t row = row_in(countries_, &country);
        row < country_cells_.size()) {
      csv.put(country_cells_[row]);
    } else {
      put_country_cells(csv, country);
    }
  }

  // lint:hot
  void put_region(CsvBuffer& csv, const cloud::RegionInfo& region) const {
    if (const std::size_t row = row_in(regions_, &region);
        row < region_cells_.size()) {
      csv.put(region_cells_[row]);
    } else {
      put_region_cells(csv, region);
    }
  }

 private:
  CellTable()
      : countries_(geo::CountryTable::instance().all()),
        regions_(cloud::RegionCatalog::instance().all()) {
    CsvBuffer csv;
    const auto cell = [&csv](const auto& put) {
      csv.clear();
      put();
      return std::string{csv.bytes()};
    };
    const auto text_cell = [&](std::string_view text) {
      return cell([&] {
        csv.put_text(text);
        csv.put(',');
      });
    };
    for (const geo::CountryInfo& country : countries_) {
      country_cells_.push_back(
          cell([&] { put_country_cells(csv, country); }));
    }
    for (const cloud::RegionInfo& region : regions_) {
      region_cells_.push_back(cell([&] { put_region_cells(csv, region); }));
    }
    platforms_ = {text_cell(to_string(probes::Platform::Speedchecker)),
                  text_cell(to_string(probes::Platform::RipeAtlas))};
    protocols_ = {text_cell(to_string(measure::Protocol::Tcp)),
                  text_cell(to_string(measure::Protocol::Icmp))};
    for (std::size_t i = 0; i < modes_.size(); ++i) {
      modes_[i] = cell([&] {
        csv.put(',');
        csv.put_text(
            topology::to_string(static_cast<topology::InterconnectMode>(i)));
        csv.put('\n');
      });
    }
  }

  std::span<const geo::CountryInfo> countries_;
  std::span<const cloud::RegionInfo> regions_;
  std::vector<std::string> country_cells_;  ///< by CountryTable row
  std::vector<std::string> region_cells_;   ///< by RegionCatalog row
  std::array<std::string, 2> platforms_;
  std::array<std::string, 2> protocols_;
  /// The four modes, then the cell of any other value.
  std::array<std::string, 5> modes_;
};

// lint:hot
void put_ping_row(CsvBuffer& csv, const CellTable& cells,
                  const measure::PingRecord& ping, bool roundtrip) {
  const probes::Probe& probe = *ping.probe;
  csv.put_uint(probe.id);
  csv.put(',');
  csv.put(cells.platform(probe.platform));
  cells.put_country(csv, *probe.country);
  csv.put_uint(probe.isp->asn);
  csv.put(',');
  cells.put_region(csv, *ping.region);
  csv.put(cells.protocol(ping.protocol));
  csv.put_double(ping.rtt_ms, roundtrip);
  csv.put(',');
  csv.put_uint(ping.day);
  csv.put(',');
  csv.put_uint(ping.slot);
  csv.put('\n');
}

/// The cells every hop row of a trace starts with, trailing comma included.
// lint:hot
void put_trace_prefix(CsvBuffer& csv, const CellTable& cells,
                      const measure::TraceRef& trace, std::uint64_t trace_id,
                      bool roundtrip) {
  csv.put_uint(trace_id);
  csv.put(',');
  csv.put_uint(trace.probe->id);
  csv.put(',');
  cells.put_region(csv, *trace.region);
  csv.put_ip(trace.target_ip);
  csv.put(',');
  csv.put_uint(trace.day);
  csv.put(',');
  csv.put_uint(trace.slot);
  csv.put(',');
  csv.put(trace.completed ? '1' : '0');
  csv.put(',');
  csv.put_double(trace.end_to_end_ms, roundtrip);
  csv.put(',');
}

/// A hop's own cells; a silent hop leaves ip and rtt empty.
// lint:hot
void put_hop_cells(CsvBuffer& csv, const measure::HopRecord& hop,
                   bool roundtrip) {
  csv.put_uint(hop.ttl);
  csv.put(',');
  csv.put(hop.responded ? '1' : '0');
  csv.put(',');
  if (hop.responded) csv.put_ip(hop.ip);
  csv.put(',');
  if (hop.responded) csv.put_double(hop.rtt_ms, roundtrip);
}

/// Which rows a batch holds.
enum class Part : unsigned char { Pings, Traces };

[[nodiscard]] std::string_view header_line(Part part, bool canonical) {
  if (part == Part::Pings) {
    return "probe_id,platform,country,continent,isp_asn,provider,region,"
           "protocol,rtt_ms,day,slot\n";
  }
  return canonical
             ? "trace_id,probe_id,provider,region,target_ip,day,slot,"
               "completed,end_to_end_ms,ttl,responded,hop_ip,hop_rtt_ms,"
               "true_mode\n"
             : "trace_id,probe_id,provider,region,target_ip,day,slot,"
               "completed,end_to_end_ms,ttl,responded,hop_ip,hop_rtt_ms\n";
}

/// One stretch of the row sequence: a part's header line, rows
/// [begin, end) of the in-memory dataset `rows`, or, with `store_records`,
/// the `end` store records of one block that its slot holds (ping records
/// or trace records, undecoded; the first is task `first_task` of `day`).
/// Traces are numbered from first_trace_id.
struct Batch {
  Part part = Part::Pings;
  const measure::Dataset* rows = nullptr;
  bool store_records = false;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::uint64_t first_trace_id = 0;
  std::uint32_t day = 0;
  std::uint32_t first_task = 0;
};

// lint:hot
void encode_batch(const Batch& batch, bool canonical, CsvBuffer& csv) {
  csv.clear();
  if (batch.rows == nullptr) {
    csv.put(header_line(batch.part, canonical));
    return;
  }
  const CellTable& cells = CellTable::instance();
  const measure::Dataset& data = *batch.rows;
  if (batch.part == Part::Pings) {
    for (std::size_t row = batch.begin; row < batch.end; ++row) {
      put_ping_row(csv, cells, data.pings[row], canonical);
    }
    return;
  }
  std::uint64_t trace_id = batch.first_trace_id;
  for (std::size_t row = batch.begin; row < batch.end; ++row, ++trace_id) {
    const measure::TraceRef trace = data.traces[row];
    const std::string_view row_end =
        canonical ? cells.mode(trace.true_mode) : "\n";
    // The prefix cells repeat on every hop row of the trace: encode them
    // for the first hop, then copy them for the others.
    const std::size_t prefix_at = csv.size();
    std::size_t prefix_bytes = 0;
    for (const measure::HopRecord& hop : trace.hops) {
      if (prefix_bytes == 0) {
        put_trace_prefix(csv, cells, trace, trace_id, canonical);
        prefix_bytes = csv.size() - prefix_at;
      } else {
        csv.repeat(prefix_at, prefix_bytes);
      }
      put_hop_cells(csv, hop, canonical);
      csv.put(row_end);
    }
  }
}

/// The probe fleets a streamed hash decodes store records against.
struct Fleets {
  const probes::ProbeFleet* sc = nullptr;
  const probes::ProbeFleet* atlas = nullptr;
};

/// How the streamed hash names what refused it: the pass, then what.
[[nodiscard]] std::string streamed_error(Part part, std::string_view what) {
  return (part == Part::Pings ? "streamed hash (ping pass): "
                              : "streamed hash (trace pass): ") +
         std::string{what};
}

/// An encoder thread's scratch for decoding store-record batches, sized
/// for the largest batch when it is made: at most kCsvBatchRows pings, or
/// traces and hops, and one trace's 255 hops. So the encoder threads never
/// allocate (see CsvBuffer).
struct Decoded {
  explicit Decoded(Fleets with) : fleets(with) {
    rows.bind(fleets.sc, fleets.atlas);
    rows.reserve(kCsvBatchRows, kCsvBatchRows);
    rows.reserve_hops(kCsvBatchRows);
    hops.reserve(255);
  }
  Fleets fleets;
  measure::Dataset rows;
  std::vector<measure::HopRecord> hops;
};

/// Decode a store-record batch into `out.rows` (cleared first) with the
/// store codec's record decoders. Empty, or what the first record that
/// does not decode has wrong, named by its task and day.
[[nodiscard]] std::string decode_batch(const Batch& batch,
                                       std::string_view records,
                                       Decoded& out) {
  const Fleets fleets = out.fleets;
  out.rows.clear_rows();
  for (std::size_t i = 0; i < batch.end; ++i) {
    std::string_view record;
    std::string why;
    if (batch.part == Part::Pings) {
      why = store::cut_ping_record(records, record);
      if (why.empty()) {
        why = store::decode_ping_record(record, batch.day, fleets.sc,
                                        fleets.atlas, out.rows.pings);
      }
    } else {
      why = store::cut_trace_record(records, record);
      if (why.empty()) {
        why = store::decode_trace_record(record, batch.day, fleets.sc,
                                         fleets.atlas, out.rows.traces,
                                         out.hops);
      }
    }
    if (!why.empty()) {
      const auto task = static_cast<std::uint32_t>(batch.first_task + i);
      return store::record_error(batch.day, task, why);
    }
  }
  return {};
}

/// Thrown out of a producer whose pipeline is stopping (a thread failed, or
/// the caller is unwinding); it ends the reader thread and nothing else.
struct Abandoned {};

/// The ordered encoder. The reader thread runs a producer that cuts the row
/// sequence into batches and hands each to the next slot of a ring of
/// kWindow; kEncoders encoder threads claim the handed-over slots in batch
/// order and format them in parallel, decoding store records first; the
/// calling thread retires the slots strictly in batch order into the sink.
/// Batch n lives in slot n % kWindow, and a slot's contents pass between
/// the threads with three counters: handed over → claimed → (encoded) →
/// retired. The reader refills a slot only once the batch before it there
/// is retired, and every batch — a header too — is claimed and encoded
/// before it can be retired, so no slot is ever reused under an encoder.
/// What refuses the sequence first in batch order is what run() reports: a
/// batch whose records do not decode when it is retired, the producer's
/// error once every batch handed over before it is retired.
class OrderedEncoder {
 public:
  /// Hands the row sequence over batch by batch (on the reader thread);
  /// returns what went wrong, or an empty string.
  using Producer = std::function<std::string(OrderedEncoder&)>;

  /// With `store_fleets`, the producer may hand over store records, which
  /// decode against those fleets.
  OrderedEncoder(CsvSink sink, CsvFlavour flavour,
                 std::optional<Fleets> store_fleets = std::nullopt)
      : sink_(sink), canonical_(flavour == CsvFlavour::Canonical) {
    if (store_fleets) {
      decoded_.reserve(kEncoders);
      for (unsigned i = 0; i < kEncoders; ++i) {
        decoded_.emplace_back(*store_fleets);
      }
    }
  }
  OrderedEncoder(const OrderedEncoder&) = delete;
  OrderedEncoder& operator=(const OrderedEncoder&) = delete;

  /// Run `produce` and encode and retire everything it hands over. Returns
  /// the first error in batch order; rethrows a reader's or an encoder's
  /// exception, or the sink's. Each happens only after every thread has
  /// joined.
  [[nodiscard]] std::string run(const Producer& produce) {
    // Built here, if not yet, so that its cells live on the caller's heap.
    (void)CellTable::instance();
    try {
      threads_.emplace_back([this, &produce] { read(produce); });
      for (unsigned i = 0; i < kEncoders; ++i) {
        threads_.emplace_back([this, i] { encode(i); });
      }
      retire();
    } catch (...) {
      halt();
      throw;
    }
    halt();
    const std::scoped_lock lock{mutex_};
    if (failure_) std::rethrow_exception(failure_);
    return error_.empty() ? producer_error_ : error_;
  }

  // -- the producer's side, on the reader thread ----------------------------

  /// Hand over `part`'s header line.
  void header(Part part) { hand_over(acquire(), Batch{.part = part}); }

  /// Hand over `data`'s pings or traces, kCsvBatchRows CSV rows a batch,
  /// numbering traces on from the ones handed over before. `data` must
  /// outlive run(). Returns the CSV rows handed over.
  std::uint64_t rows(Part part, const measure::Dataset& data) {
    const std::size_t total =
        part == Part::Pings ? data.pings.size() : data.traces.size();
    std::uint64_t csv_rows = 0;
    for (std::size_t begin = 0; begin < total;) {
      std::size_t end = begin;
      std::size_t batch_rows = 0;
      if (part == Part::Pings) {
        end = std::min(total, begin + kCsvBatchRows);
        batch_rows = end - begin;
        csv_rows += batch_rows;
      } else {
        do {
          const std::size_t hops = data.traces.hop_count(end);
          const std::size_t cost = std::max<std::size_t>(hops, 1);
          if (end > begin && batch_rows + cost > kCsvBatchRows) break;
          batch_rows += cost;
          csv_rows += hops;
          ++end;
        } while (end < total);
      }
      hand_over(acquire(), Batch{.part = part,
                                 .rows = &data,
                                 .begin = begin,
                                 .end = end,
                                 .first_trace_id = next_trace_id_});
      if (part == Part::Traces) next_trace_id_ += end - begin;
      begin = end;
    }
    return csv_rows;
  }

  /// Hand over the `part` records of one checksummed store block, gathered
  /// into the slots undecoded: at most kCsvBatchRows CSV rows of the block
  /// a batch, traces numbered on from the ones handed over before. Cuts
  /// each task's records apart without decoding them; returns what is
  /// wrong with the block's layout, named by task and day.
  [[nodiscard]] std::string block(Part part, const store::BlockHeader& header,
                                  std::string_view payload) {
    std::string_view rest = payload;
    std::uint32_t task = 0;
    std::string_view why;
    while (task < header.tasks && why.empty()) {
      const std::size_t index = acquire();
      Slot& slot = slots_[index];
      slot.records.clear();
      Batch batch{.part = part,
                  .store_records = true,
                  .first_trace_id = next_trace_id_,
                  .day = header.day,
                  .first_task = header.start + task};
      std::size_t batch_rows = 0;
      for (; task < header.tasks; ++task) {
        const std::string_view before = rest;
        std::string_view ping;
        std::string_view trace;
        why = store::cut_ping_record(rest, ping);
        if (why.empty()) why = store::cut_trace_record(rest, trace);
        // A ping whose trace record is cut short is still handed over: it
        // decodes first, so the first error in task order is the one
        // reported, as store::parse_block reports it.
        const std::string_view record = part == Part::Pings ? ping : trace;
        if (record.empty()) break;
        const std::size_t cost =
            part == Part::Pings
                ? 1
                : std::max<std::size_t>(store::trace_record_hops(record), 1);
        if (batch.end > 0 && batch_rows + cost > kCsvBatchRows) {
          rest = before;  // the task starts the next batch, error and all
          why = {};
          break;
        }
        slot.records.append(record);
        ++batch.end;
        batch_rows += cost;
        if (!why.empty()) break;
      }
      if (batch.end == 0) continue;
      hand_over(index, batch);
      if (part == Part::Traces) next_trace_id_ += batch.end;
    }
    if (!why.empty()) {
      return store::record_error(header.day, header.start + task, why);
    }
    if (!rest.empty()) {
      return store::record_error(
          header.day, header.start + header.tasks - 1,
          std::to_string(rest.size()) + " trailing payload bytes");
    }
    return {};
  }

 private:
  struct Slot {
    Batch batch;
    std::string records;  ///< a store-record batch's bytes; capacity reused
    std::string error;    ///< why its records do not decode
    CsvBuffer csv;
  };

  /// Wait for the next batch's slot to be retired and return its index,
  /// for the reader to fill: the slot is the reader's until hand_over().
  [[nodiscard]] std::size_t acquire() {
    std::unique_lock lock{mutex_};
    space_cv_.wait(lock, [this] {
      return stopping_ || handed_over_ - retired_ < kWindow;
    });
    if (stopping_) throw Abandoned{};
    return handed_over_ % kWindow;
  }

  /// Hand slot `index`, which acquire() returned, to the encoders with
  /// `batch`.
  void hand_over(std::size_t index, const Batch& batch) {
    slots_[index].batch = batch;
    {
      const std::scoped_lock lock{mutex_};
      ++handed_over_;
    }
    work_cv_.notify_one();
  }

  void read(const Producer& produce) {
    std::string error;
    try {
      error = produce(*this);
    } catch (const Abandoned&) {
      // Stopping already; whoever stopped the pipeline reports why.
    } catch (...) {
      fail(std::current_exception());
    }
    {
      const std::scoped_lock lock{mutex_};
      reader_done_ = true;
      producer_error_ = std::move(error);
    }
    work_cv_.notify_all();
    retire_cv_.notify_all();
  }

  /// Encoder `encoder`'s loop.
  void encode(unsigned encoder) {
    try {
      for (;;) {
        std::size_t index = 0;
        {
          std::unique_lock lock{mutex_};
          work_cv_.wait(lock, [this] {
            return stopping_ || reader_done_ || claimed_ < handed_over_;
          });
          if (stopping_ || claimed_ == handed_over_) return;
          index = claimed_++ % kWindow;
        }
        Slot& slot = slots_[index];
        Batch batch = slot.batch;
        slot.error.clear();
        if (batch.store_records) {
          Decoded& decoded = decoded_.at(encoder);
          slot.error = decode_batch(batch, slot.records, decoded);
          batch.rows = &decoded.rows;
        }
        if (slot.error.empty()) {
          encode_batch(batch, canonical_, slot.csv);
        } else {
          slot.error = streamed_error(batch.part, slot.error);
        }
        {
          const std::scoped_lock lock{mutex_};
          encoded_[index] = 1;
        }
        retire_cv_.notify_one();
      }
    } catch (...) {
      fail(std::current_exception());
    }
  }

  /// The calling thread's loop: fold or write the oldest batch once it is
  /// encoded, then free its slot for the reader. A batch whose records do
  /// not decode stops the pipeline with its error instead.
  void retire() {
    for (;;) {
      std::size_t index = 0;
      {
        std::unique_lock lock{mutex_};
        retire_cv_.wait(lock, [this] {
          return stopping_ || encoded_[retired_ % kWindow] != 0 ||
                 (reader_done_ && retired_ == handed_over_);
        });
        if (stopping_ || encoded_[retired_ % kWindow] == 0) return;
        index = retired_ % kWindow;
      }
      Slot& slot = slots_[index];
      if (!slot.error.empty()) {
        {
          const std::scoped_lock lock{mutex_};
          error_ = std::move(slot.error);
          stopping_ = true;
        }
        wake_all();
        return;
      }
      sink_.put(slot.csv.bytes());
      {
        const std::scoped_lock lock{mutex_};
        encoded_[index] = 0;
        ++retired_;
      }
      space_cv_.notify_one();
    }
  }

  /// Record the first exception and stop the pipeline.
  void fail(std::exception_ptr failure) {
    {
      const std::scoped_lock lock{mutex_};
      if (!failure_) failure_ = std::move(failure);
      stopping_ = true;
    }
    wake_all();
  }

  /// Stop whatever still runs and join every thread. Idempotent.
  void halt() {
    {
      const std::scoped_lock lock{mutex_};
      stopping_ = true;
    }
    wake_all();
    for (std::thread& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
  }

  void wake_all() {
    space_cv_.notify_all();
    work_cv_.notify_all();
    retire_cv_.notify_all();
  }

  CsvSink sink_;
  bool canonical_;
  /// One per encoder thread when store records may come, each used by its
  /// thread alone.
  std::vector<Decoded> decoded_;
  std::uint64_t next_trace_id_ = 0;  ///< the reader thread's
  /// Owned by one thread at a time, as the counters below pass them on.
  std::array<Slot, kWindow> slots_;

  std::mutex mutex_;
  std::condition_variable space_cv_;   ///< the reader waits for a free slot
  std::condition_variable work_cv_;    ///< encoders wait for a batch
  std::condition_variable retire_cv_;  ///< the caller waits for the oldest
  // lint:guarded_by(mutex_)
  std::uint64_t handed_over_ = 0;  ///< batches the reader has filled
  // lint:guarded_by(mutex_)
  std::uint64_t claimed_ = 0;  ///< batches an encoder has taken
  // lint:guarded_by(mutex_)
  std::uint64_t retired_ = 0;  ///< batches written to the sink
  /// Per slot: 1 once its batch is encoded, until it is retired.
  // lint:guarded_by(mutex_)
  std::array<std::uint8_t, kWindow> encoded_{};
  // lint:guarded_by(mutex_)
  bool reader_done_ = false;
  // lint:guarded_by(mutex_)
  bool stopping_ = false;
  // lint:guarded_by(mutex_)
  std::exception_ptr failure_;
  // lint:guarded_by(mutex_)
  std::string error_;  ///< a retired batch's: its records do not decode
  // lint:guarded_by(mutex_)
  std::string producer_error_;

  std::vector<std::thread> threads_;  ///< last: every thread uses the above
};

/// `data`'s `parts`, each header first, through the ordered encoder into
/// `sink`. Returns the CSV rows written.
std::uint64_t encode_parts(CsvSink sink, CsvFlavour flavour,
                           const measure::Dataset& data,
                           std::initializer_list<Part> parts) {
  std::uint64_t rows = 0;
  OrderedEncoder encoder{sink, flavour};
  (void)encoder.run([&](OrderedEncoder& feed) {
    for (const Part part : parts) {
      feed.header(part);
      rows += feed.rows(part, data);
    }
    return std::string{};
  });
  return rows;
}

}  // namespace

void export_pings_csv(std::ostream& out, const measure::Dataset& data,
                      CsvFlavour flavour) {
  obs::Span phase = obs::span("core.export.pings_csv");
  const std::uint64_t rows =
      encode_parts(CsvSink{.out = &out}, flavour, data, {Part::Pings});
  obs::Registry::global().counter("export.ping_rows_total").inc(rows);
}

void export_traces_csv(std::ostream& out, const measure::Dataset& data,
                       CsvFlavour flavour) {
  obs::Span phase = obs::span("core.export.traces_csv");
  const std::uint64_t rows =
      encode_parts(CsvSink{.out = &out}, flavour, data, {Part::Traces});
  obs::Registry::global().counter("export.trace_rows_total").inc(rows);
}

std::uint64_t dataset_hash(const measure::Dataset& data) {
  obs::Span phase = obs::span("core.export.dataset_hash");
  Digest digest;
  (void)encode_parts(CsvSink{.digest = &digest}, CsvFlavour::Canonical, data,
                     {Part::Pings, Part::Traces});
  return digest.finish();
}

StreamedHashResult streamed_dataset_hash(
    const std::filesystem::path& dir, std::string_view platform,
    store::IoEnv& io, const probes::ProbeFleet* sc_fleet,
    const probes::ProbeFleet* atlas_fleet) {
  obs::Span phase = obs::span("core.export.streamed_hash");
  StreamedHashResult result;
  std::uint64_t rows = 0;
  Digest digest;
  OrderedEncoder encoder{CsvSink{.digest = &digest}, CsvFlavour::Canonical,
                         Fleets{.sc = sc_fleet, .atlas = atlas_fleet}};
  // The canonical serialisation is the full ping CSV then the full trace
  // CSV, and the digest folds it in that order — so the reader opens the
  // store twice, once per CSV, with one block resident at a time. Each
  // open validates the store and hands the reader every block it accepts;
  // the reader only slices them, and the encoders decode the records of
  // their pass.
  result.error = encoder.run([&](OrderedEncoder& feed) -> std::string {
    for (const Part part : {Part::Pings, Part::Traces}) {
      feed.header(part);
      const store::OpenResult opened = store::open_store(
          dir, platform, io, /*repair=*/false, std::nullopt,
          [&](const store::BlockHeader& header, std::string_view payload) {
            std::string why = feed.block(part, header, payload);
            return why.empty() ? why : streamed_error(part, why);
          });
      if (!opened.ok()) return opened.error;
      rows = opened.durable_rows;
    }
    return {};
  });
  if (!result.ok()) return result;
  result.hash = digest.finish();
  result.rows = rows;
  return result;
}

std::string format_dataset_hash(std::uint64_t hash) {
  std::string hex;
  util::append_hex16(hex, hash);
  return hex;
}

}  // namespace cloudrtt::core
