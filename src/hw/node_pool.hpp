// Structure-of-arrays storage for the hot per-node run state.
//
// A million-node tick sweep cannot afford to pointer-chase through Node
// objects: the power ledger, DVFS level, thermal RC state and operating
// point all live here in flat parallel arrays, one slot per node, so the
// cluster's refresh loops walk contiguous memory. hw::Node remains the
// API — it becomes a thin view over one slot (standalone nodes own a
// single-slot pool), so every existing caller keeps compiling while the
// cluster's hot paths index the arrays directly.
//
// Ownership rules (see DESIGN.md "SoA node-state pools"):
//   - The pool owner (Cluster, or a standalone Node) writes operating-point
//     and utilisation fields only from its serial tick sections or from
//     parallel shards that each own a disjoint slot range.
//   - set_level()/set_operating_point() on a Node view are the only
//     externally reachable mutators (power manager, actuation channel,
//     tests); with change tracking enabled they enqueue the slot on the
//     changed list, which the cluster drains at the next tick start.
//   - The lazy evaluation caches (true/estimated/static power, thermal
//     decay) are per-slot, so concurrent evaluation of *distinct* slots
//     from sweep workers is race-free, exactly like the old per-Node
//     mutable memo members.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "hw/dvfs.hpp"
#include "hw/node_spec.hpp"
#include "hw/power_model.hpp"

namespace pcap::hw {

class NodeStatePool {
 public:
  explicit NodeStatePool(std::size_t n);

  [[nodiscard]] std::size_t size() const { return spec_.size(); }

  /// Binds slot `i` to a spec and resets its run state (highest level,
  /// ambient temperature, empty operating point) — the same initial state
  /// the old Node constructor produced. `variation` is the process
  /// variation factor the owner drew for this board.
  void init_slot(std::size_t i, const NodeSpec* spec, double variation);

  // -- direct array access (hot loops) --------------------------------------
  [[nodiscard]] const NodeSpec& spec(std::size_t i) const { return *spec_[i]; }
  [[nodiscard]] Level level(std::size_t i) const { return level_[i]; }
  [[nodiscard]] double relative_speed(std::size_t i) const {
    return relative_speed_[i];
  }
  [[nodiscard]] double cpu_utilization(std::size_t i) const {
    return cpu_utilization_[i];
  }
  [[nodiscard]] bool busy(std::size_t i) const { return busy_[i] != 0; }
  [[nodiscard]] double variation(std::size_t i) const { return variation_[i]; }
  [[nodiscard]] double mem_used(std::size_t i) const { return mem_used_[i]; }
  [[nodiscard]] double nic_bytes(std::size_t i) const { return nic_bytes_[i]; }

  /// Assembles the slot's operating point (the AoS view legacy callers
  /// expect; hot paths read the individual arrays instead).
  [[nodiscard]] OperatingPoint operating_point(std::size_t i) const;

  // -- mutators -------------------------------------------------------------
  /// Current sim-time, set by the pool owner once per tick. set_level uses
  /// it to fast-forward a slot's temperature under the *old* power before
  /// the level switches — a DVFS change from the actuation plane lands
  /// mid-timeline, and the heating up to that instant happened at the
  /// pre-change draw. Standalone pools can leave it at 0 (no-op).
  void set_now(double now_s) { now_s_ = now_s; }

  /// DVFS level write with the Node::set_level contract: clamped to the
  /// ladder, pinned to the highest level on uncontrollable boards.
  /// Returns the level in effect; enqueues the slot on the changed list
  /// when the level actually moved and tracking is on.
  Level set_level(std::size_t i, Level l);

  /// Utilisation-only refresh: the static share of formula (1) survives.
  void set_cpu_utilization(std::size_t i, double u) {
    cpu_utilization_[i] = u;
    true_valid_[i] = 0;
    est_valid_[i] = 0;
  }

  /// Rewrites the static operating-point fields (memory footprint, NIC
  /// traffic, sampling interval, bandwidth) and invalidates the static
  /// power caches.
  void set_static_op(std::size_t i, double mem_used, double nic_bytes,
                     double tau_s, double nic_bandwidth);

  void set_busy(std::size_t i, bool b) {
    busy_[i] = b ? 1 : 0;
  }

  /// Full operating-point write with the Node::set_operating_point
  /// fast path: utilisation-only when the static fields are unchanged.
  void set_operating_point(std::size_t i, const OperatingPoint& op);

  // -- power (formula 1 + variation + leakage) ------------------------------
  /// Physical draw at the current temperature; memoised per slot.
  [[nodiscard]] Watts true_power(std::size_t i) const;
  /// Formula-(1) estimate (no variation, no leakage); memoised per slot.
  [[nodiscard]] Watts estimated_power(std::size_t i) const;
  /// Estimate at an arbitrary level (Algorithm 2's P'(x)).
  [[nodiscard]] Watts estimated_power_at(std::size_t i, Level l) const;
  /// Formula (1) evaluated at *observed* counter readings — the profiling
  /// agent's fast path. Reuses the slot's cached static split so a sample
  /// costs two multiply-adds and one divide, not a model evaluation.
  /// Inline: the telemetry sweep calls it once per candidate per cycle.
  [[nodiscard]] Watts estimated_power_observed(
      std::size_t i, double observed_cpu, double observed_nic_bytes) const {
    if (static_valid_[i] == 0) refresh_static(i);
    const double denom = nic_div_[i];
    const double nic_frac =
        denom <= 0.0 ? 0.0
                     : std::clamp(observed_nic_bytes / denom, 0.0, 1.0);
    const double uti = std::clamp(observed_cpu, 0.0, 1.0);
    return Watts{base_idle_mem_w_[i] + nic_frac * nic_dyn_w_[i] +
                 uti * cpu_dyn_w_[i]};
  }

  // -- thermal (lazy closed form) -------------------------------------------
  // Temperature is stored together with the sim-time it refers to; power
  // is piecewise-constant between refresh events, so advancing the RC
  // exponential under the *current* true power before any power write is
  // the exact integral — quiescent nodes pay nothing per tick.
  [[nodiscard]] Celsius temperature(std::size_t i) const {
    return Celsius{temperature_c_[i]};
  }
  /// Fast-forwards the slot's temperature to `now_s` under the current
  /// true power and returns it. No-op when now_s <= the stored timestamp.
  Celsius advance_temperature_to(std::size_t i, double now_s) const;

  // -- change tracking ------------------------------------------------------
  /// Cluster-owned pools track external power-relevant writes (level
  /// changes from the manager / actuation plane) so the tick only
  /// re-evaluates what moved. Standalone pools leave this off.
  void enable_change_tracking();
  /// Slots whose level changed since the last drain, unordered and
  /// deduplicated. The caller sorts, consumes, then calls clear_changed().
  [[nodiscard]] std::vector<std::uint32_t>& changed_slots() {
    return changed_list_;
  }
  void clear_changed();

 private:
  void refresh_static(std::size_t i) const;
  void step_temperature(std::size_t i, double power_w, double dt_s) const;
  void note_power_change(std::size_t i);

  std::vector<const NodeSpec*> spec_;
  std::vector<Level> level_;
  std::vector<double> relative_speed_;
  std::vector<double> variation_;
  std::vector<std::uint8_t> busy_;

  // Operating point, unpacked.
  std::vector<double> cpu_utilization_;
  std::vector<double> mem_used_;
  std::vector<double> mem_total_;
  std::vector<double> nic_bytes_;
  std::vector<double> tau_s_;
  std::vector<double> nic_bandwidth_;

  // Thermal RC state: T at sim-time thermal_time_s_, plus a four-entry
  // MRU decay cache per slot. Steady state interleaves up to three
  // distinct dts per node (the staircase refresh period, the shorter
  // refresh->collect gap and its collect->refresh complement); four
  // entries keep exp() off the path with one slot of slack for control
  // actuation landing mid-window.
  mutable std::vector<double> temperature_c_;
  mutable std::vector<double> thermal_time_s_;
  mutable std::vector<double> th_dt_a_, th_decay_a_;
  mutable std::vector<double> th_dt_b_, th_decay_b_;
  mutable std::vector<double> th_dt_c_, th_decay_c_;
  mutable std::vector<double> th_dt_d_, th_decay_d_;

  // Formula-(1) memoisation, split exactly like the old Node caches:
  // static share (idle + memory + NIC terms), utilisation coefficient,
  // idle power (the leakage share), plus the idle+memory sub-share and
  // NIC divisor for the observed-counters fast path.
  mutable std::vector<double> true_power_w_;
  mutable std::vector<double> est_power_w_;
  mutable std::vector<double> static_power_w_;
  mutable std::vector<double> cpu_dyn_w_;
  mutable std::vector<double> idle_leak_w_;
  mutable std::vector<double> base_idle_mem_w_;
  mutable std::vector<double> nic_dyn_w_;
  mutable std::vector<double> nic_div_;  ///< tau * bandwidth, 0 when unset
  mutable std::vector<std::uint8_t> true_valid_;
  mutable std::vector<std::uint8_t> est_valid_;
  mutable std::vector<std::uint8_t> static_valid_;

  double now_s_ = 0.0;
  bool track_changes_ = false;
  std::vector<std::uint8_t> changed_mark_;
  std::vector<std::uint32_t> changed_list_;
};

}  // namespace pcap::hw
