// A compute node: spec + mutable run state (DVFS level, usage, temperature).
//
// Since the SoA refactor the run state lives in a NodeStatePool slot and
// Node is a thin view over it: the cluster owns one big pool (cache-linear
// tick sweeps index its arrays directly), while a standalone Node — tests,
// single-board examples — owns a private single-slot pool. Either way the
// public API below is unchanged.
#pragma once

#include <cstdint>
#include <memory>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "hw/node_pool.hpp"
#include "hw/node_spec.hpp"

namespace pcap::hw {

using NodeId = std::uint32_t;

class Node {
 public:
  /// `variation_rng`, when provided, draws a per-node process-variation
  /// factor (~2 % sigma) so identical boards do not consume identical
  /// power — the reason the paper estimates rather than assumes power.
  /// Standalone form: the node owns a private single-slot pool.
  Node(NodeId id, NodeSpecPtr spec, common::Rng* variation_rng = nullptr);

  /// Pool-backed form: the node is a view over `pool` slot `slot` (the
  /// cluster's layout). The pool must outlive the node.
  Node(NodeId id, NodeSpecPtr spec, NodeStatePool* pool, std::uint32_t slot,
       common::Rng* variation_rng = nullptr);

  // Views are move-only: moving a standalone node re-targets the view at
  // the relocated private pool; copying would alias run state.
  Node(Node&& other) noexcept;
  Node& operator=(Node&& other) noexcept;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const NodeSpec& spec() const { return *spec_; }
  [[nodiscard]] bool controllable() const { return spec_->controllable; }
  /// The pool slot backing this node (cluster nodes: slot == id).
  [[nodiscard]] std::uint32_t slot() const { return slot_; }

  // -- power state (DVFS level) -------------------------------------------
  [[nodiscard]] Level level() const { return pool_->level(slot_); }
  [[nodiscard]] bool at_lowest() const { return level() == 0; }
  [[nodiscard]] bool at_highest() const {
    return level() == spec_->ladder.highest();
  }
  /// Sets the DVFS level, clamped to the spec's ladder. Uncontrollable
  /// nodes ignore the request and stay at the highest level; returns the
  /// level actually in effect afterwards.
  Level set_level(Level l) { return pool_->set_level(slot_, l); }
  /// One-step throttle/restore used by Algorithm 1.
  Level degrade_one() { return set_level(level() - 1); }
  Level restore_one() { return set_level(level() + 1); }

  /// Clock-speed ratio at the current level (1.0 at the top). Cached on
  /// level changes: the workload engine reads this per job-node per tick.
  [[nodiscard]] double relative_speed() const {
    return pool_->relative_speed(slot_);
  }

  // -- operating point ------------------------------------------------------
  /// The cluster's workload engine refreshes the pool arrays directly; this
  /// keeps the old entry point for standalone nodes and tests. On a steady
  /// phase only the CPU utilisation moves, so the static share of formula
  /// (1) — idle + memory + NIC terms — survives the refresh.
  void set_operating_point(const OperatingPoint& op) {
    pool_->set_operating_point(slot_, op);
  }
  /// Assembled by value from the pool arrays since the SoA refactor.
  [[nodiscard]] OperatingPoint operating_point() const {
    return pool_->operating_point(slot_);
  }
  // Direct pool reads for hot samplers that need a few fields, not the
  // whole assembled operating point (the profiling agent's per-node sweep).
  [[nodiscard]] double cpu_utilization() const {
    return pool_->cpu_utilization(slot_);
  }
  [[nodiscard]] double mem_used() const { return pool_->mem_used(slot_); }
  [[nodiscard]] double nic_bytes() const { return pool_->nic_bytes(slot_); }
  [[nodiscard]] bool busy() const { return pool_->busy(slot_); }
  void set_busy(bool busy) { pool_->set_busy(slot_, busy); }

  // -- power ----------------------------------------------------------------
  /// Physical power draw: formula (1) plus process variation plus
  /// temperature-driven leakage on the static share. This is what the
  /// facility power meter integrates over. Memoised in the pool slot, so
  /// quiescent nodes cost a load, not a formula.
  [[nodiscard]] Watts true_power() const { return pool_->true_power(slot_); }

  /// What a profiling agent can compute from /proc-style counters — plain
  /// formula (1), without variation or leakage. The gap between this and
  /// true_power() is the estimation error the architecture must tolerate.
  [[nodiscard]] Watts estimated_power() const {
    return pool_->estimated_power(slot_);
  }

  /// Formula-(1) estimate at an arbitrary level (the P'(x) of Algorithm 2).
  [[nodiscard]] Watts estimated_power_at(Level l) const {
    return pool_->estimated_power_at(slot_, l);
  }

  /// Formula (1) at observed counter readings — the profiling agent's
  /// per-sample fast path (reuses the slot's cached static split).
  [[nodiscard]] Watts estimated_power_observed(double observed_cpu,
                                               double observed_nic) const {
    return pool_->estimated_power_observed(slot_, observed_cpu, observed_nic);
  }

  // -- thermal ---------------------------------------------------------------
  /// Temperature as of the last thermal advance (no integration).
  [[nodiscard]] Celsius temperature() const {
    return pool_->temperature(slot_);
  }
  /// Lazy closed-form advance: fast-forwards the RC exponential under the
  /// current power to sim-time `now` and returns the temperature. Exact,
  /// because power is piecewise-constant between power-changing events.
  [[nodiscard]] Celsius temperature_at(Seconds now) const {
    return pool_->advance_temperature_to(slot_, now.value());
  }

 private:
  NodeId id_;
  NodeSpecPtr spec_;
  NodeStatePool* pool_;
  std::uint32_t slot_;
  std::unique_ptr<NodeStatePool> owned_;  ///< standalone nodes only
};

}  // namespace pcap::hw
