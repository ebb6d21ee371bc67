// Node type descriptions (hardware capability + power character).
#pragma once

#include <memory>
#include <string>

#include "common/units.hpp"
#include "hw/dvfs.hpp"
#include "hw/power_model.hpp"
#include "hw/thermal.hpp"

namespace pcap::hw {

/// Immutable description of one node type. Nodes share specs via
/// shared_ptr; a heterogeneous cluster simply mixes specs.
struct NodeSpec {
  std::string name;
  int sockets = 2;
  int cores_per_socket = 6;
  Bytes mem_total{0.0};
  double nic_bandwidth = 0.0;  ///< bytes per second
  DvfsLadder ladder;
  PowerModel power_model;
  ThermalParams thermal;
  bool controllable = true;  ///< false: no DVFS facility (§II.A privileged)

  [[nodiscard]] int total_cores() const { return sockets * cores_per_socket; }

  /// Validates invariants (ladder depth == power table depth, positive
  /// core/memory/bandwidth figures, non-negative thermal resistance and
  /// leakage, positive thermal time constant). Throws
  /// std::invalid_argument.
  void validate() const;
};

using NodeSpecPtr = std::shared_ptr<const NodeSpec>;

/// The Tianhe-1A compute board of the paper's testbed (§V.A): two Xeon
/// X5670 (2 x 6 cores), 12 x 4 GB DDR3, Tianhe high-speed NIC, 10-level
/// DVFS from 1.60 to 2.93 GHz. Power figures are calibrated to a dual-5600
/// series board: ~140 W idle / ~415 W flat-out at the top level.
NodeSpecPtr tianhe1a_node_spec();

/// A lower-power node type with a 4-level ladder, used by heterogeneous
/// scenarios and to exercise ladders of differing depth.
NodeSpecPtr low_power_node_spec();

/// A node with no power-management facility (controllable = false),
/// representing the paper's privileged/uncontrollable class.
NodeSpecPtr uncontrollable_node_spec();

}  // namespace pcap::hw
