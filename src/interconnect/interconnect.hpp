// Interconnect contention model.
//
// The Tianhe-1A network attaches groups of nodes to leaf switches whose
// uplinks into the core are shared (and typically oversubscribed). When
// the jobs on one switch collectively offer more remote traffic than the
// uplink carries, everyone on that switch gets a proportional share —
// and network-bound phases slow down accordingly.
//
// The model is deliberately coarse: per sampling interval, each node
// offers `bytes`, a fixed fraction of which crosses its leaf uplink;
// per-switch delivered fractions are min(1, capacity / offered). That is
// enough to produce the phenomenon that matters for power studies:
// co-scheduled communication-heavy jobs interfere, stretching their
// runtimes and flattening their power draw.
#pragma once

#include <cstddef>
#include <vector>

#include "common/units.hpp"

namespace pcap::interconnect {

struct InterconnectParams {
  bool enabled = false;
  int nodes_per_switch = 16;
  double uplink_bandwidth = 40e9;  ///< bytes/second shared per leaf switch
  double remote_fraction = 0.6;    ///< share of node traffic crossing the
                                   ///< uplink (rest stays switch-local)
};

class Interconnect {
 public:
  Interconnect(InterconnectParams params, std::size_t num_nodes);

  [[nodiscard]] const InterconnectParams& params() const { return params_; }
  [[nodiscard]] std::size_t num_switches() const { return num_switches_; }
  [[nodiscard]] std::size_t switch_of(std::size_t node) const;

  /// Computes per-node delivered fractions (in (0, 1]) for one interval
  /// into `out` (resized to num_nodes). `offered_bytes[i]` is node i's
  /// traffic within `dt`; when disabled, every fraction is 1. Reuses an
  /// internal per-switch scratch buffer, so steady-state ticks never
  /// touch the heap.
  void delivered_fractions_into(const std::vector<double>& offered_bytes,
                                Seconds dt, std::vector<double>& out);

 private:
  InterconnectParams params_;
  std::size_t num_nodes_;
  std::size_t num_switches_;
  std::vector<double> switch_offered_;  ///< per-switch scratch
};

}  // namespace pcap::interconnect
