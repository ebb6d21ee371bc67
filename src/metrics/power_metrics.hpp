// Power-behaviour metrics (§V.C), including the paper's new
// "accumulative effect of overspending" ΔP×T:
//
//   ΔP×T = ∫_{P > P_th} (P(t) - P_th) dt  /  ∫ P(t) dt
//
// i.e. the overspent energy above the provision threshold relative to the
// total energy — a proxy for the accumulated thermal impact of power
// overload.
#pragma once

#include <vector>

#include "common/units.hpp"

namespace pcap::metrics {

/// A uniformly sampled power trace: sample i is the (piecewise-constant)
/// power over [i*dt, (i+1)*dt).
struct PowerTrace {
  Seconds dt{1.0};
  std::vector<double> watts;

  [[nodiscard]] std::size_t size() const { return watts.size(); }
  [[nodiscard]] bool empty() const { return watts.empty(); }
  [[nodiscard]] Seconds duration() const {
    return dt * static_cast<double>(watts.size());
  }
  void add(Watts p) { watts.push_back(p.value()); }
};

// Threshold-boundary convention: a sample sitting EXACTLY at the
// threshold is not "above" it. overspent_energy contributes zero there
// (max(0, P - th) == 0), and so does accumulated_overspend — a trace
// pinned at the threshold reports zero overspend.

/// Peak power P_max of the trace (0 for an empty trace).
Watts peak_power(const PowerTrace& trace);

/// Time-weighted mean power.
Watts mean_power(const PowerTrace& trace);

/// Total energy ∫ P dt.
Joules total_energy(const PowerTrace& trace);

/// Energy spent above the threshold: ∫_{P>th} (P - th) dt.
Joules overspent_energy(const PowerTrace& trace, Watts threshold);

/// The paper's ΔP×T metric. Returns 0 for an empty trace or zero total
/// energy.
double accumulated_overspend(const PowerTrace& trace, Watts threshold);

}  // namespace pcap::metrics
