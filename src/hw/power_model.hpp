// The paper's power profile model — formula (1).
//
//   P(l) = P_idle(l)
//        + Uti_CPU * sum_{x in CPU} P_x(l)
//        + Mem_used/Mem_total * P_mem(l)
//        + Data_NIC/(tau * BW_NIC) * P_NIC(l)
//
// Per-level device tables hold the static power P_idle(l) and the maximal
// *dynamic* power of each device class at level l (the gap between its
// maximal and idle power, as §II.C defines P_cpu(l)).
#pragma once

#include <vector>

#include "common/units.hpp"
#include "hw/dvfs.hpp"

namespace pcap::hw {

/// Per-level power table for one node type. Index = DVFS level.
struct DevicePowerTable {
  std::vector<Watts> idle;     ///< P_idle(l): static node power at level l.
  std::vector<Watts> cpu_dyn;  ///< sum over CPU units of P_x(l).
  std::vector<Watts> mem_dyn;  ///< P_mem(l): max dynamic power of memory.
  std::vector<Watts> nic_dyn;  ///< P_NIC(l): max dynamic power of the NIC.

  [[nodiscard]] int num_levels() const {
    return static_cast<int>(idle.size());
  }
  /// Validates that all four tables have the same, non-zero depth and all
  /// entries are non-negative. Throws std::invalid_argument otherwise.
  void validate() const;
};

/// A node's instantaneous resource usage — the inputs of formula (1),
/// sampled over one interval tau (§II.C).
struct OperatingPoint {
  double cpu_utilization = 0.0;  ///< Uti_CPU in [0, 1].
  Bytes mem_used{0.0};           ///< Mem_used.
  Bytes mem_total{1.0};          ///< Mem_total (> 0).
  Bytes nic_bytes{0.0};          ///< Data_NIC transmitted within tau.
  Seconds tau{1.0};              ///< sampling interval.
  double nic_bandwidth = 1.0;    ///< BW_NIC in bytes/second (> 0).

  /// NIC duty fraction Data_NIC / (tau * BW_NIC), clamped to [0, 1].
  [[nodiscard]] double nic_fraction() const;
  /// Memory fraction Mem_used / Mem_total, clamped to [0, 1].
  [[nodiscard]] double mem_fraction() const;
};

/// Evaluates formula (1) for a given table.
class PowerModel {
 public:
  explicit PowerModel(DevicePowerTable table);

  [[nodiscard]] const DevicePowerTable& table() const { return table_; }
  [[nodiscard]] int num_levels() const { return table_.num_levels(); }

  /// P(l) for the given operating point. `level` must be valid.
  [[nodiscard]] Watts power(Level level, const OperatingPoint& op) const;

  /// Theoretical per-node maximum: all usage fractions at 1 on the top
  /// level. Contributes to P_thy = sum_i P_i (§II.D, necessity).
  [[nodiscard]] Watts theoretical_max() const;

 private:
  DevicePowerTable table_;
};

/// Builds the per-level table for a dual-socket Xeon X5670 Tianhe-1A board:
/// idle and CPU dynamic power follow the ladder's f*V^2 scale; memory and
/// NIC dynamic power are level-independent (DVFS only acts on the CPU,
/// §V.A: "power consumption of all other devices is indirectly managed").
DevicePowerTable make_scaled_table(const DvfsLadder& ladder, Watts idle_base,
                                   Watts idle_scaled, Watts cpu_dyn_max,
                                   Watts mem_dyn, Watts nic_dyn);

}  // namespace pcap::hw
