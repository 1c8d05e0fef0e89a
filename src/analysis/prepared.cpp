#include "analysis/prepared.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/stats.hpp"

namespace cloudrtt::analysis {

namespace {

/// A probe's traces while the pass walks them.
struct ProbeTraces {
  const probes::Probe* probe = nullptr;
  std::size_t home_votes = 0;  ///< valid last-mile observations, by class
  std::size_t cell_votes = 0;
  std::optional<topology::Asn> first_hop_asn;
};

[[nodiscard]] std::optional<ResolutionTable> table_for(const StudyView& view) {
  if (view.resolver == nullptr) return std::nullopt;
  return ResolutionTable{*view.resolver};
}

[[nodiscard]] const measure::Dataset& sc_data_of(const StudyView& view) {
  CLOUDRTT_CHECK(view.sc_data != nullptr,
                 "PreparedStudy: the view has no Speedchecker data");
  return *view.sc_data;
}

}  // namespace

PreparedDataset::PreparedDataset(const measure::Dataset& data,
                                 ResolutionTable* table)
    : data_(&data), nearest_(data) {
  if (table == nullptr) return;
  const measure::TraceColumn& traces = data.traces;
  facts_.reserve(traces.size());
  std::vector<std::optional<Resolution>> hops;  // the current trace's
  std::vector<ProbeTraces> per_probe;           // in first-trace order
  std::vector<std::uint32_t> trace_probe(traces.size());  // into per_probe
  const probes::Probe* last_probe = nullptr;
  std::uint32_t slot = 0;
  for (std::size_t row = 0; row < traces.size(); ++row) {
    const measure::TraceRef trace = traces[row];
    // The trace's hop resolutions, as the per-call classifiers resolve
    // them, but through the table.
    hops.clear();
    for (const measure::HopRecord& hop : trace.hops) {
      hops.push_back(hop.responded ? table->resolve(hop.ip) : std::nullopt);
    }
    const TraceFacts& facts = facts_.emplace_back(derive_facts(
        trace, hops, table->resolve(trace.target_ip), table->resolver()));

    if (per_probe.empty() || trace.probe != last_probe) {
      const auto [it, inserted] = probe_slot_.try_emplace(
          trace.probe, static_cast<std::uint32_t>(per_probe.size()));
      if (inserted) per_probe.emplace_back().probe = trace.probe;
      last_probe = trace.probe;
      slot = it->second;
    }
    trace_probe[row] = slot;
    ProbeTraces& entry = per_probe[slot];
    if (const LastMileObservation obs = facts.last_mile(trace); obs.valid) {
      if (obs.access == AccessClass::Home) {
        ++entry.home_votes;
      } else {
        ++entry.cell_votes;
      }
    }
    if (!entry.first_hop_asn && facts.first_public_hop != TraceFacts::kNoHop) {
      if (const auto& res = hops[facts.first_public_hop]) {
        entry.first_hop_asn = res->asn;
      }
    }
  }

  // Each probe's last-mile RTTs, contiguous and in trace order, for its Cv.
  std::vector<std::size_t> begin(per_probe.size() + 1, 0);
  for (std::size_t i = 0; i < per_probe.size(); ++i) {
    begin[i + 1] = begin[i] + per_probe[i].home_votes + per_probe[i].cell_votes;
  }
  std::vector<double> usr_isp_ms(begin.back());
  std::vector<std::size_t> cursor(begin.begin(), begin.end() - 1);
  for (std::size_t row = 0; row < traces.size(); ++row) {
    const LastMileObservation obs = facts_[row].last_mile(traces[row]);
    if (obs.valid) usr_isp_ms[cursor[trace_probe[row]]++] = obs.usr_isp_ms;
  }

  // Ascending probe id, so what the exhibits collect per probe comes out
  // in the same order on every run.
  probes_.reserve(per_probe.size());
  std::vector<double> samples;
  for (std::size_t i = 0; i < per_probe.size(); ++i) {
    const ProbeTraces& entry = per_probe[i];
    samples.assign(usr_isp_ms.begin() + static_cast<std::ptrdiff_t>(begin[i]),
                   usr_isp_ms.begin() +
                       static_cast<std::ptrdiff_t>(begin[i + 1]));
    probes_.push_back(ProbeTraceFacts{
        entry.probe, samples.size(), util::coefficient_of_variation(samples),
        entry.home_votes >= entry.cell_votes, entry.first_hop_asn});
  }
  std::stable_sort(probes_.begin(), probes_.end(),
                   [](const ProbeTraceFacts& a, const ProbeTraceFacts& b) {
                     return a.probe->id < b.probe->id;
                   });
  for (std::size_t i = 0; i < probes_.size(); ++i) {
    probe_slot_[probes_[i].probe] = static_cast<std::uint32_t>(i);
  }
}

std::span<const TraceFacts> PreparedDataset::trace_facts() const {
  CLOUDRTT_CHECK(facts_.size() == data_->traces.size(),
                 "trace facts need a resolver: the study view has none");
  return facts_;
}

const ProbeTraceFacts* PreparedDataset::probe_facts(
    const probes::Probe* probe) const {
  const auto it = probe_slot_.find(probe);
  return it == probe_slot_.end() ? nullptr : &probes_[it->second];
}

PreparedStudy::PreparedStudy(const StudyView& view)
    : PreparedStudy(view, table_for(view)) {}

PreparedStudy::PreparedStudy(const StudyView& view,
                             std::optional<ResolutionTable> table)
    : view_(view), sc_(sc_data_of(view), table ? &*table : nullptr) {
  if (view.has_atlas()) {
    atlas_.emplace(*view.atlas_data, table ? &*table : nullptr);
  }
}

}  // namespace cloudrtt::analysis
