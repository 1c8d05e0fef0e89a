#include "analysis/nearest.hpp"

#include <limits>
#include <numeric>
#include <tuple>

#include "util/check.hpp"

namespace cloudrtt::analysis {

namespace {

constexpr std::uint32_t kNoCell = std::numeric_limits<std::uint32_t>::max();
constexpr std::size_t kNoRegion = std::numeric_limits<std::uint16_t>::max();

/// The tie-break between regions of equal mean RTT. region_name alone is
/// not unique (Amazon and Alibaba share some), so the provider follows.
[[nodiscard]] bool precedes(const cloud::RegionInfo& a,
                            const cloud::RegionInfo& b) {
  return std::tie(a.region_name, a.provider) <
         std::tie(b.region_name, b.provider);
}

}  // namespace

NearestIndex::NearestIndex(const measure::Dataset& data) {
  const measure::PingColumn& pings = data.pings;
  // Pass 1: number the probes and, per probe, its regions in first-ping
  // order, chaining a probe's cells through `next`; note each ping's cell.
  struct Pending {
    const cloud::RegionInfo* region;
    std::uint16_t region_slot;  ///< into regions_
    std::uint32_t probe;
    std::uint32_t next;
    std::uint32_t count;
  };
  std::vector<Pending> pending;
  std::unordered_map<const cloud::RegionInfo*, std::uint16_t> region_slot;
  std::vector<std::uint32_t> last_cell;  ///< per probe, kNoCell = none yet
  std::vector<std::uint32_t> ping_cell;  ///< per TCP ping, into `pending`
  ping_cell.reserve(pings.size());
  const probes::Probe* last_probe = nullptr;
  std::uint32_t probe = 0;
  for (std::size_t row = 0; row < pings.size(); ++row) {
    if (pings.protocol(row) != measure::Protocol::Tcp) continue;
    const measure::PingRecord ping = pings[row];
    if (probe_order_.empty() || ping.probe != last_probe) {
      const auto [it, inserted] = probe_index_.try_emplace(
          ping.probe, static_cast<std::uint32_t>(probe_order_.size()));
      if (inserted) {
        probe_order_.push_back(ping.probe);
        last_cell.push_back(kNoCell);
      }
      last_probe = ping.probe;
      probe = it->second;
    }
    std::uint32_t cell = last_cell[probe];
    while (cell != kNoCell && pending[cell].region != ping.region) {
      cell = pending[cell].next;
    }
    if (cell == kNoCell) {
      const auto [slot, fresh] = region_slot.try_emplace(
          ping.region, static_cast<std::uint16_t>(regions_.size()));
      if (fresh) {
        CLOUDRTT_CHECK(regions_.size() < kNoRegion,
                       "NearestIndex: more than ", kNoRegion, " regions");
        regions_.push_back(ping.region);
      }
      cell = static_cast<std::uint32_t>(pending.size());
      pending.push_back(
          Pending{ping.region, slot->second, probe, last_cell[probe], 0});
      last_cell[probe] = cell;
    }
    ++pending[cell].count;
    ping_cell.push_back(cell);
  }

  // Lay the cells out grouped by probe, each one's samples contiguous.
  first_cell_.assign(probe_order_.size() + 1, 0);
  for (const Pending& p : pending) ++first_cell_[p.probe + 1];
  for (std::size_t i = 1; i < first_cell_.size(); ++i) {
    first_cell_[i] += first_cell_[i - 1];
  }
  std::vector<std::uint32_t> placed(pending.size());
  std::vector<std::uint32_t> cursor(first_cell_.begin(), first_cell_.end() - 1);
  for (std::size_t i = 0; i < pending.size(); ++i) {
    placed[i] = cursor[pending[i].probe]++;
  }
  cell_region_.resize(pending.size());
  cell_begin_.assign(pending.size() + 1, 0);
  for (std::size_t i = 0; i < pending.size(); ++i) {
    cell_region_[placed[i]] = pending[i].region_slot;
    cell_begin_[placed[i] + 1] = pending[i].count;
  }
  for (std::size_t c = 1; c < cell_begin_.size(); ++c) {
    cell_begin_[c] += cell_begin_[c - 1];
  }

  // Pass 2: place each cell's samples in ping order.
  samples_.resize(cell_begin_.back());
  cursor.assign(cell_begin_.begin(), cell_begin_.end() - 1);
  std::size_t tcp = 0;
  for (std::size_t row = 0; row < pings.size(); ++row) {
    if (pings.protocol(row) != measure::Protocol::Tcp) continue;
    samples_[cursor[placed[ping_cell[tcp++]]]++] = pings.rtt_ms(row);
  }
}

std::pair<std::size_t, std::size_t> NearestIndex::cells_of(
    const probes::Probe* probe) const {
  const auto it = probe_index_.find(probe);
  if (it == probe_index_.end()) return {0, 0};
  return {first_cell_[it->second], first_cell_[it->second + 1]};
}

std::size_t NearestIndex::nearest_cell(
    const probes::Probe* probe, std::optional<geo::Continent> within) const {
  const std::size_t none = cell_region_.size();
  std::size_t best = none;
  double best_mean = std::numeric_limits<double>::infinity();
  const auto [first, last] = cells_of(probe);
  for (std::size_t cell = first; cell < last; ++cell) {
    const cloud::RegionInfo* region = region_of(cell);
    if (within && region->continent != *within) continue;
    const std::span<const double> rtts = samples_of(cell);
    const double mean = std::accumulate(rtts.begin(), rtts.end(), 0.0) /
                        static_cast<double>(rtts.size());
    if (mean < best_mean || (mean == best_mean && best != none &&
                             precedes(*region, *region_of(best)))) {
      best_mean = mean;
      best = cell;
    }
  }
  return best;
}

const cloud::RegionInfo* NearestIndex::nearest(
    const probes::Probe* probe, std::optional<geo::Continent> within) const {
  const std::size_t cell = nearest_cell(probe, within);
  return cell == cell_region_.size() ? nullptr : region_of(cell);
}

std::optional<std::span<const double>> NearestIndex::samples(
    const probes::Probe* probe, const cloud::RegionInfo* region) const {
  const auto [first, last] = cells_of(probe);
  for (std::size_t cell = first; cell < last; ++cell) {
    if (region_of(cell) == region) return samples_of(cell);
  }
  return std::nullopt;
}

std::span<const double> NearestIndex::samples_to_nearest(
    const probes::Probe* probe, std::optional<geo::Continent> within) const {
  const std::size_t cell = nearest_cell(probe, within);
  if (cell == cell_region_.size()) return {};
  return samples_of(cell);
}

}  // namespace cloudrtt::analysis
