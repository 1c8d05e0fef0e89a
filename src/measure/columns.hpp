#pragma once
// Columnar dataset core (ISSUE 10 tentpole).
//
// The paper's study is 3.8M pings / 7M traceroutes; an AoS layout with two
// raw pointers per ping and a heap-allocated hop vector per trace does not
// survive the 115k-probe paper scale, let alone streaming. `Dataset` is now
// structure-of-arrays:
//
//   PingColumn   probe code | region code | protocol | rtt | day | slot
//   TraceColumn  probe code | region code | target | hop offset | hop count
//                | completed | end-to-end | day | slot | true mode
//                + one flat HopRecord pool shared by every trace
//
// Probe/region cells are *codes* — indices into the frozen probe fleets and
// the static cloud::RegionCatalog, matching the store codec's on-disk form —
// resolved back to pointers through a RowBinding. Hand-built records whose
// probe/region come from neither (unit tests) fall back to a per-dataset
// extras table, so an unbound Dataset still round-trips arbitrary rows.
//
// Cursor API: iteration yields materialised row views. A ping view is the
// PingRecord itself (`PingRef` aliases it — six scalar fields, zero-cost to
// materialise); a trace view is `TraceRef`, which carries a span into the
// hop pool instead of an owning vector. `for (const PingRecord& p :
// data.pings)` compiles unchanged (the proxy binds to the const reference);
// trace loops iterate `const TraceRef&` and analysis entry points take
// TraceRef, which converts implicitly from an owning TraceRecord.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <unordered_map>
#include <vector>

#include "measure/records.hpp"
#include "util/check.hpp"

namespace cloudrtt::measure {

// -- row codes ---------------------------------------------------------------
// Probe ids top out around 1'008'500 and the region catalog at ~200 entries,
// so the high bit of either cell is free to tag extras-table indices.
inline constexpr std::uint32_t kNullProbeCode = 0xFFFFFFFFu;
inline constexpr std::uint32_t kExtraProbeBit = 0x80000000u;
inline constexpr std::uint16_t kNullRegionCode = 0xFFFFu;
inline constexpr std::uint16_t kExtraRegionBit = 0x8000u;

/// Code <-> pointer translation shared by both columns of a Dataset.
/// Bound fleets give O(1) id lookups (ids are dense — fleet.hpp by_id);
/// everything else lands in the extras tables. Binding later never
/// invalidates codes already stored.
class RowBinding {
 public:
  void bind(const probes::ProbeFleet* sc, const probes::ProbeFleet* atlas) {
    fleets_[0] = sc;
    fleets_[1] = atlas;
  }

  [[nodiscard]] bool bound() const {
    return fleets_[0] != nullptr || fleets_[1] != nullptr;
  }
  /// No extras rows: every stored code is a real probe id / catalog index.
  [[nodiscard]] bool pure() const {
    return extra_probes_.empty() && extra_regions_.empty();
  }
  /// Codes minted under `other` can be spliced in raw: the fleets match and
  /// `other` never minted an extras code.
  [[nodiscard]] bool accepts_raw(const RowBinding& other) const {
    return fleets_[0] == other.fleets_[0] && fleets_[1] == other.fleets_[1] &&
           other.pure();
  }

  [[nodiscard]] std::uint32_t probe_code(const probes::Probe* probe);
  [[nodiscard]] std::uint16_t region_code(const cloud::RegionInfo* region);
  [[nodiscard]] const probes::Probe* probe(std::uint32_t code) const;
  [[nodiscard]] const cloud::RegionInfo* region(std::uint16_t code) const;

  /// Real platform id for serialisation (extras resolve via the pointer).
  [[nodiscard]] std::uint32_t probe_id(std::uint32_t code) const {
    CLOUDRTT_CHECK(code != kNullProbeCode,
                   "serialized record's probe must be set");
    if ((code & kExtraProbeBit) != 0) {
      return extra_probes_[code & ~kExtraProbeBit]->id;
    }
    return code;
  }
  /// Catalog index for serialisation; refuses extras/null regions with the
  /// same contract the AoS codec had.
  [[nodiscard]] std::uint16_t region_catalog_index(std::uint16_t code) const {
    CLOUDRTT_CHECK(code != kNullRegionCode && (code & kExtraRegionBit) == 0,
                   "serialized record's region must come from the catalog");
    return code;
  }

 private:
  const probes::ProbeFleet* fleets_[2] = {nullptr, nullptr};
  std::vector<const probes::Probe*> extra_probes_;
  std::unordered_map<const probes::Probe*, std::uint32_t> extra_probe_index_;
  std::vector<const cloud::RegionInfo*> extra_regions_;
  std::unordered_map<const cloud::RegionInfo*, std::uint16_t>
      extra_region_index_;
};

/// Non-owning view of one trace row: same fields as TraceRecord with the hop
/// list as a span into the column's flat pool. Converts implicitly from an
/// owning TraceRecord so call sites holding records keep compiling.
struct TraceRef {
  const probes::Probe* probe = nullptr;
  const cloud::RegionInfo* region = nullptr;
  net::Ipv4Address target_ip;
  std::span<const HopRecord> hops;
  bool completed = false;
  double end_to_end_ms = 0.0;
  std::uint32_t day = 0;
  std::uint8_t slot = 0;
  topology::InterconnectMode true_mode = topology::InterconnectMode::Public;

  TraceRef() = default;
  /*implicit*/ TraceRef(const TraceRecord& r)
      : probe(r.probe),
        region(r.region),
        target_ip(r.target_ip),
        hops(r.hops),
        completed(r.completed),
        end_to_end_ms(r.end_to_end_ms),
        day(r.day),
        slot(r.slot),
        true_mode(r.true_mode) {}

  /// Materialise an owning record (tools/tests that outlive the dataset).
  [[nodiscard]] TraceRecord to_record() const {
    TraceRecord r;
    r.probe = probe;
    r.region = region;
    r.target_ip = target_ip;
    r.hops.assign(hops.begin(), hops.end());
    r.completed = completed;
    r.end_to_end_ms = end_to_end_ms;
    r.day = day;
    r.slot = slot;
    r.true_mode = true_mode;
    return r;
  }
};

/// A ping view materialises at full fidelity — six scalar cells — so the
/// "ref" is simply the record.
using PingRef = PingRecord;

/// Proxy iterator over a column: dereferencing materialises the row view by
/// value (range-for `const Row&` binds it via lifetime extension).
template <typename Column, typename Row>
class RowIterator {
 public:
  using iterator_category = std::random_access_iterator_tag;
  using value_type = Row;
  using difference_type = std::ptrdiff_t;
  using reference = Row;  ///< proxy: a value, not a true reference
  using pointer = void;

  RowIterator() = default;
  RowIterator(const Column* column, std::size_t row)
      : column_(column), row_(row) {}

  [[nodiscard]] Row operator*() const { return (*column_)[row_]; }
  [[nodiscard]] Row operator[](difference_type n) const {
    return (*column_)[row_ + static_cast<std::size_t>(n)];
  }

  RowIterator& operator++() { ++row_; return *this; }
  RowIterator operator++(int) { RowIterator old = *this; ++row_; return old; }
  RowIterator& operator--() { --row_; return *this; }
  RowIterator operator--(int) { RowIterator old = *this; --row_; return old; }
  RowIterator& operator+=(difference_type n) {
    row_ = static_cast<std::size_t>(static_cast<difference_type>(row_) + n);
    return *this;
  }
  RowIterator& operator-=(difference_type n) { return *this += -n; }
  [[nodiscard]] friend RowIterator operator+(RowIterator it,
                                             difference_type n) {
    return it += n;
  }
  [[nodiscard]] friend RowIterator operator+(difference_type n,
                                             RowIterator it) {
    return it += n;
  }
  [[nodiscard]] friend RowIterator operator-(RowIterator it,
                                             difference_type n) {
    return it -= n;
  }
  [[nodiscard]] friend difference_type operator-(const RowIterator& a,
                                                 const RowIterator& b) {
    return static_cast<difference_type>(a.row_) -
           static_cast<difference_type>(b.row_);
  }
  [[nodiscard]] friend bool operator==(const RowIterator& a,
                                       const RowIterator& b) {
    return a.row_ == b.row_;
  }
  [[nodiscard]] friend auto operator<=>(const RowIterator& a,
                                        const RowIterator& b) {
    return a.row_ <=> b.row_;
  }

 private:
  const Column* column_ = nullptr;
  std::size_t row_ = 0;
};

class PingColumn {
 public:
  using value_type = PingRecord;
  using const_iterator = RowIterator<PingColumn, PingRecord>;
  using iterator = const_iterator;

  explicit PingColumn(RowBinding* binding) : binding_(binding) {}

  [[nodiscard]] std::size_t size() const { return rtt_.size(); }
  [[nodiscard]] bool empty() const { return rtt_.empty(); }
  void reserve(std::size_t rows);
  void clear();

  void push_back(const PingRecord& record) {
    append_row(binding_->probe_code(record.probe),
               binding_->region_code(record.region), record.protocol,
               record.rtt_ms, record.day, record.slot);
  }
  /// Raw columnar append (store/codec path — codes already validated).
  void append_row(std::uint32_t probe_code, std::uint16_t region_code,
                  Protocol protocol, double rtt_ms, std::uint32_t day,
                  std::uint8_t slot);

  [[nodiscard]] PingRecord operator[](std::size_t row) const {
    PingRecord r;
    r.probe = binding_->probe(probe_[row]);
    r.region = binding_->region(region_[row]);
    r.protocol = static_cast<Protocol>(protocol_[row]);
    r.rtt_ms = rtt_[row];
    r.day = day_[row];
    r.slot = slot_[row];
    return r;
  }
  [[nodiscard]] PingRecord front() const { return (*this)[0]; }
  [[nodiscard]] PingRecord back() const { return (*this)[size() - 1]; }
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size()}; }

  // Column cells for serialisers / single-column scans (no materialisation).
  [[nodiscard]] std::uint32_t probe_id(std::size_t row) const {
    return binding_->probe_id(probe_[row]);
  }
  [[nodiscard]] std::uint16_t region_index(std::size_t row) const {
    return binding_->region_catalog_index(region_[row]);
  }
  [[nodiscard]] Protocol protocol(std::size_t row) const {
    return static_cast<Protocol>(protocol_[row]);
  }
  [[nodiscard]] double rtt_ms(std::size_t row) const { return rtt_[row]; }
  [[nodiscard]] std::uint32_t day(std::size_t row) const { return day_[row]; }
  [[nodiscard]] std::uint8_t slot(std::size_t row) const { return slot_[row]; }
  [[nodiscard]] std::span<const double> rtt_column() const { return rtt_; }

 private:
  friend struct Dataset;
  void rebind(RowBinding* binding) { binding_ = binding; }
  /// Splice rows [begin, end) of `other` verbatim (bindings must be
  /// raw-compatible — Dataset::append checks).
  void splice(const PingColumn& other, std::size_t begin, std::size_t end);

  RowBinding* binding_;
  std::vector<std::uint32_t> probe_;
  std::vector<std::uint16_t> region_;
  std::vector<std::uint8_t> protocol_;
  std::vector<double> rtt_;
  std::vector<std::uint32_t> day_;
  std::vector<std::uint8_t> slot_;
};

class TraceColumn {
 public:
  using value_type = TraceRef;
  using const_iterator = RowIterator<TraceColumn, TraceRef>;
  using iterator = const_iterator;

  explicit TraceColumn(RowBinding* binding) : binding_(binding) {}

  [[nodiscard]] std::size_t size() const { return e2e_.size(); }
  [[nodiscard]] bool empty() const { return e2e_.empty(); }
  void reserve(std::size_t rows);
  /// Capacity hint for the flat hop pool (schedule-derived: tasks x mean
  /// path length), on top of rows already stored. Grows geometrically so
  /// exact daily hints never trigger daily copies.
  void reserve_hops(std::size_t hops) {
    const std::size_t want = hop_pool_.size() + hops;
    if (want <= hop_pool_.capacity()) return;
    hop_pool_.reserve(
        std::max(want, hop_pool_.capacity() + hop_pool_.capacity() / 2));
  }
  void clear();

  void push_back(const TraceRecord& record) {
    TraceCore core;
    core.probe = record.probe;
    core.region = record.region;
    core.target_ip = record.target_ip;
    core.completed = record.completed;
    core.end_to_end_ms = record.end_to_end_ms;
    core.day = record.day;
    core.slot = record.slot;
    core.true_mode = record.true_mode;
    push_back(core, std::span{record.hops});
  }
  /// Columnar hot path: core fields + hops copied into the flat pool.
  void push_back(const TraceCore& core, std::span<const HopRecord> hops);
  /// Raw columnar append (store/codec path — codes already validated).
  void append_row(std::uint32_t probe_code, std::uint16_t region_code,
                  std::uint32_t target_ip, bool completed,
                  double end_to_end_ms, std::uint32_t day, std::uint8_t slot,
                  topology::InterconnectMode true_mode,
                  std::span<const HopRecord> hops);

  [[nodiscard]] TraceRef operator[](std::size_t row) const {
    TraceRef r;
    r.probe = binding_->probe(probe_[row]);
    r.region = binding_->region(region_[row]);
    r.target_ip = net::Ipv4Address{target_[row]};
    r.hops = hops(row);
    r.completed = completed_[row] != 0;
    r.end_to_end_ms = e2e_[row];
    r.day = day_[row];
    r.slot = slot_[row];
    r.true_mode = static_cast<topology::InterconnectMode>(mode_[row]);
    return r;
  }
  [[nodiscard]] TraceRef front() const { return (*this)[0]; }
  [[nodiscard]] TraceRef back() const { return (*this)[size() - 1]; }
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size()}; }

  // Column cells for serialisers (no materialisation, no probe binding).
  [[nodiscard]] std::uint32_t probe_id(std::size_t row) const {
    return binding_->probe_id(probe_[row]);
  }
  [[nodiscard]] std::uint16_t region_index(std::size_t row) const {
    return binding_->region_catalog_index(region_[row]);
  }
  [[nodiscard]] net::Ipv4Address target_ip(std::size_t row) const {
    return net::Ipv4Address{target_[row]};
  }
  [[nodiscard]] bool completed(std::size_t row) const {
    return completed_[row] != 0;
  }
  [[nodiscard]] double end_to_end_ms(std::size_t row) const {
    return e2e_[row];
  }
  [[nodiscard]] std::uint32_t day(std::size_t row) const { return day_[row]; }
  [[nodiscard]] std::uint8_t slot(std::size_t row) const { return slot_[row]; }
  [[nodiscard]] topology::InterconnectMode true_mode(std::size_t row) const {
    return static_cast<topology::InterconnectMode>(mode_[row]);
  }
  [[nodiscard]] std::span<const HopRecord> hops(std::size_t row) const {
    return std::span{hop_pool_}.subspan(hop_offset_[row], hop_count_[row]);
  }
  [[nodiscard]] std::size_t hop_count(std::size_t row) const {
    return hop_count_[row];
  }
  [[nodiscard]] const std::vector<HopRecord>& hop_pool() const {
    return hop_pool_;
  }

 private:
  friend struct Dataset;
  void rebind(RowBinding* binding) { binding_ = binding; }
  void splice(const TraceColumn& other, std::size_t begin, std::size_t end);

  RowBinding* binding_;
  std::vector<std::uint32_t> probe_;
  std::vector<std::uint16_t> region_;
  std::vector<std::uint32_t> target_;
  std::vector<std::uint64_t> hop_offset_;  ///< into hop_pool_
  std::vector<std::uint32_t> hop_count_;
  std::vector<std::uint8_t> completed_;
  std::vector<double> e2e_;
  std::vector<std::uint32_t> day_;
  std::vector<std::uint8_t> slot_;
  std::vector<std::uint8_t> mode_;
  std::vector<HopRecord> hop_pool_;  ///< flat arena, task order
};

struct Dataset {
  PingColumn pings;
  TraceColumn traces;

  Dataset() : pings(&binding_), traces(&binding_) {}
  Dataset(const Dataset& other)
      : pings(other.pings), traces(other.traces), binding_(other.binding_) {
    pings.rebind(&binding_);
    traces.rebind(&binding_);
  }
  Dataset(Dataset&& other) noexcept
      : pings(std::move(other.pings)),
        traces(std::move(other.traces)),
        binding_(std::move(other.binding_)) {
    pings.rebind(&binding_);
    traces.rebind(&binding_);
  }
  Dataset& operator=(const Dataset& other) {
    if (this != &other) {
      pings = other.pings;
      traces = other.traces;
      binding_ = other.binding_;
      pings.rebind(&binding_);
      traces.rebind(&binding_);
    }
    return *this;
  }
  Dataset& operator=(Dataset&& other) noexcept {
    if (this != &other) {
      pings = std::move(other.pings);
      traces = std::move(other.traces);
      binding_ = std::move(other.binding_);
      pings.rebind(&binding_);
      traces.rebind(&binding_);
    }
    return *this;
  }

  /// Register the fleets codes resolve through. Idempotent; never
  /// invalidates rows already stored (extras stay extras).
  void bind(const probes::ProbeFleet* sc, const probes::ProbeFleet* atlas) {
    binding_.bind(sc, atlas);
  }

  void reserve(std::size_t ping_count, std::size_t trace_count) {
    pings.reserve(ping_count);
    traces.reserve(trace_count);
  }
  void reserve_hops(std::size_t hops) { traces.reserve_hops(hops); }

  /// Drop every row but keep the binding and column capacity — the streaming
  /// campaign calls this after handing on each batch, so RAM holds a batch.
  void clear_rows() {
    pings.clear();
    traces.clear();
  }

  /// Append every row of `other` (salvage merge).
  void append(const Dataset& other) {
    append_slice(other, 0, other.pings.size(), 0, other.traces.size());
  }
  /// Append ping rows [pb, pe) and trace rows [tb, te) of `other`. Raw
  /// column splice when `other`'s codes are valid under this binding;
  /// re-encoded row by row otherwise.
  void append_slice(const Dataset& other, std::size_t pb, std::size_t pe,
                    std::size_t tb, std::size_t te);

  [[nodiscard]] RowBinding& binding() { return binding_; }
  [[nodiscard]] const RowBinding& binding() const { return binding_; }

 private:
  RowBinding binding_;
};

}  // namespace cloudrtt::measure
