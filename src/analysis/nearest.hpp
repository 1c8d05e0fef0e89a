#pragma once
// Nearest-datacenter estimation. The paper's footnote 1: "Datacenter with
// lowest mean latency over time is estimated to be closest to a probe" —
// so nearest is a *measured* property, recomputed from ping records.

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cloud/region.hpp"
#include "geo/continent.hpp"
#include "measure/records.hpp"
#include "probes/fleet.hpp"

namespace cloudrtt::analysis {

/// Every TCP ping RTT of a dataset, grouped by probe and then by region.
/// Probes keep the order of their first TCP ping, and each <probe, region>
/// cell keeps its samples in ping order in one flat array; a cell's mean
/// sums them in that order, so it is the running mean of the pings.
class NearestIndex {
 public:
  explicit NearestIndex(const measure::Dataset& data);

  /// Region with lowest mean RTT for this probe, optionally restricted to a
  /// continent; nullptr when the probe has no usable samples there. Equal
  /// means go to the lower region_name, then the lower provider.
  [[nodiscard]] const cloud::RegionInfo* nearest(
      const probes::Probe* probe,
      std::optional<geo::Continent> within = std::nullopt) const;

  /// All RTT samples recorded for a <probe, region> pair, in ping order
  /// (nullopt if none).
  [[nodiscard]] std::optional<std::span<const double>> samples(
      const probes::Probe* probe, const cloud::RegionInfo* region) const;

  /// All samples from the probe to its nearest region within the given
  /// continent (empty if none).
  [[nodiscard]] std::span<const double> samples_to_nearest(
      const probes::Probe* probe,
      std::optional<geo::Continent> within = std::nullopt) const;

  [[nodiscard]] const std::vector<const probes::Probe*>& probes() const {
    return probe_order_;
  }

 private:
  /// A <probe, region> cell: its region and its samples, which run to the
  /// next cell's first sample.
  [[nodiscard]] const cloud::RegionInfo* region_of(std::size_t cell) const {
    return regions_[cell_region_[cell]];
  }
  [[nodiscard]] std::span<const double> samples_of(std::size_t cell) const {
    return std::span{samples_}.subspan(
        cell_begin_[cell], cell_begin_[cell + 1] - cell_begin_[cell]);
  }
  /// Probe's cells [first, last), or an empty range when it has none.
  [[nodiscard]] std::pair<std::size_t, std::size_t> cells_of(
      const probes::Probe* probe) const;
  /// Index of the probe's nearest cell; cell_region_.size() when none.
  [[nodiscard]] std::size_t nearest_cell(
      const probes::Probe* probe, std::optional<geo::Continent> within) const;

  std::vector<const probes::Probe*> probe_order_;
  std::unordered_map<const probes::Probe*, std::uint32_t> probe_index_;
  std::vector<const cloud::RegionInfo*> regions_;  ///< distinct, in first use
  /// Probe i's cells are [first_cell_[i], first_cell_[i + 1]).
  std::vector<std::uint32_t> first_cell_;
  std::vector<std::uint16_t> cell_region_;  ///< into regions_
  /// Cell c's samples are samples_[cell_begin_[c], cell_begin_[c + 1]).
  std::vector<std::uint32_t> cell_begin_;
  std::vector<double> samples_;
};

}  // namespace cloudrtt::analysis
