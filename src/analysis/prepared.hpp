#pragma once
// PreparedStudy: what every exhibit reads, derived once per report.
//
// The exhibits rest on two derived facts: the AS of every traceroute hop
// (§3.3: RIB, whois fallback, IXP tagging — the IpToAsn) and each probe's
// nearest DC by lowest mean RTT (footnote 1). Preparing a study view
// resolves each distinct hop and target address once (ResolutionTable),
// builds one NearestIndex per dataset, and walks each dataset's traces once
// for what Figs. 7-13, 16-19 and §3.3 read: every trace's TraceFacts plus
// the per-probe facts of Figs. 8/9 and 16.
//
// Every exhibit function in experiments.hpp takes a PreparedStudy. A
// StudyView converts implicitly, the way TraceRef converts from
// TraceRecord, so a single exhibit call prepares its own; a report
// prepares once and hands the same state to every exhibit.

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "analysis/nearest.hpp"
#include "analysis/resolve.hpp"
#include "analysis/study_view.hpp"
#include "analysis/trace_analysis.hpp"
#include "measure/records.hpp"
#include "probes/fleet.hpp"
#include "topology/asn.hpp"

namespace cloudrtt::analysis {

/// One probe's traces, reduced to what Figs. 8/9 and 16 read.
struct ProbeTraceFacts {
  const probes::Probe* probe = nullptr;
  std::size_t last_mile_samples = 0;   ///< valid last-mile observations
  std::optional<double> last_mile_cv;  ///< Cv of their USR-ISP RTTs
  /// The majority of the per-trace home/cell inferences, ties home: the
  /// paper cannot see the real access type either.
  bool home = true;
  /// AS of the first public hop of the probe's first trace whose first
  /// public hop resolves (Fig. 16's <city, ASN> key).
  std::optional<topology::Asn> first_hop_asn;
};

/// One platform's dataset with what the exhibits derive from it.
class PreparedDataset {
 public:
  /// Without a table (a view with no resolver) only the nearest index is
  /// built; the trace facts stay empty.
  PreparedDataset(const measure::Dataset& data, ResolutionTable* table);

  [[nodiscard]] const measure::Dataset& data() const { return *data_; }
  [[nodiscard]] const NearestIndex& nearest() const { return nearest_; }

  /// The facts of every trace row, in row order. Aborts when the view had
  /// no resolver to derive them with.
  [[nodiscard]] std::span<const TraceFacts> trace_facts() const;

  /// Every probe with a trace, in ascending probe id.
  [[nodiscard]] const std::vector<ProbeTraceFacts>& probes() const {
    return probes_;
  }
  /// `probe`'s entry of probes(), or nullptr when it has no trace.
  [[nodiscard]] const ProbeTraceFacts* probe_facts(
      const probes::Probe* probe) const;

 private:
  const measure::Dataset* data_;
  NearestIndex nearest_;
  std::vector<TraceFacts> facts_;
  std::vector<ProbeTraceFacts> probes_;
  std::unordered_map<const probes::Probe*, std::uint32_t> probe_slot_;
};

class PreparedStudy {
 public:
  /*implicit*/ PreparedStudy(const StudyView& view);

  /// The view it was prepared from: the world and both fleets.
  [[nodiscard]] const StudyView& view() const { return view_; }
  [[nodiscard]] const PreparedDataset& sc() const { return sc_; }
  /// nullptr when the view has no Atlas dataset.
  [[nodiscard]] const PreparedDataset* atlas() const {
    return atlas_ ? &*atlas_ : nullptr;
  }
  [[nodiscard]] bool has_atlas() const { return atlas_.has_value(); }

 private:
  PreparedStudy(const StudyView& view, std::optional<ResolutionTable> table);

  StudyView view_;
  PreparedDataset sc_;
  std::optional<PreparedDataset> atlas_;
};

}  // namespace cloudrtt::analysis
