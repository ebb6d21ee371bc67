// Management-plane fault injection.
//
// At Tianhe-1A scale the telemetry plane is itself a distributed system:
// profiling agents die and restart, whole nodes crash and come back, and
// counters read mid-update arrive as garbage. The injector drives those
// failure modes per monitored node so the consuming layers (collector,
// manager, capping engine) can be exercised — and hardened — against them.
//
// Determinism contract: every per-node fault process draws from that
// node's own RNG stream (Rng::stream(id)), and apply() touches only state
// owned by its node id. A parallel collection sweep may therefore call
// apply() concurrently for distinct nodes and produce results that are
// bit-identical to a serial sweep. Shared counters are relaxed atomics.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/id_table.hpp"
#include "common/rng.hpp"
#include "telemetry/sample.hpp"

namespace pcap::telemetry {

struct FaultParams {
  /// Per-cycle probability that a healthy node's agent stops reporting
  /// (process died, /proc reader wedged). While down, no samples leave
  /// the node.
  double agent_dropout_rate = 0.0;
  /// Per-cycle probability that a down agent restarts and reports again.
  double agent_recovery_rate = 0.25;
  /// Per-cycle probability that a healthy node crashes outright.
  double crash_rate = 0.0;
  /// How long a crash window lasts before the node rejoins, in collection
  /// cycles. A crash also silences the node's agent for the window.
  int crash_duration_cycles = 60;
  /// Probability that a report that does get out carries a corrupted
  /// power estimate (counter torn mid-update, byte-swapped payload). The
  /// corruption is *implausible* — negative or far above the board's
  /// ceiling — so consumers can and must sanity-check.
  double corruption_rate = 0.0;

  /// True when any fault channel is active; the collector skips the
  /// injector entirely otherwise, keeping the healthy path unchanged.
  [[nodiscard]] bool enabled() const {
    return agent_dropout_rate > 0.0 || crash_rate > 0.0 ||
           corruption_rate > 0.0;
  }
  /// Throws std::invalid_argument on out-of-range rates/durations.
  void validate() const;
};

class FaultInjector {
 public:
  /// What the injector did to one node's report this cycle.
  struct Outcome {
    bool suppressed = false;     ///< no report left the node this cycle
    bool corrupted = false;      ///< report left, but with a mangled payload
    bool crash_started = false;  ///< node entered a crash window this cycle
    bool recovered = false;      ///< node rejoined this cycle
  };

  FaultInjector(FaultParams params, common::Rng rng);

  /// Registers the nodes the collector monitors. Serial — call from
  /// candidate-set changes, never from inside a sweep. Per-node fault
  /// state persists across candidate churn (a crashed node that leaves
  /// and re-enters the candidate set is still crashed).
  void ensure_nodes(const std::vector<hw::NodeId>& ids);

  /// Advances node `sample.node`'s fault process by one cycle and applies
  /// the disposition to the freshly taken sample (possibly corrupting its
  /// power estimate in place). Thread-safe across DISTINCT node ids.
  Outcome apply(NodeSample& sample);

  /// Agent or node currently silent (down agent or open crash window)?
  [[nodiscard]] bool is_silent(hw::NodeId id) const;
  /// Number of monitored nodes currently silent.
  [[nodiscard]] std::size_t silent_count() const;

  // Cumulative ground-truth counters (relaxed atomics: sweeps update them
  // concurrently; read them only between sweeps).
  [[nodiscard]] std::uint64_t samples_suppressed() const {
    return samples_suppressed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t samples_corrupted() const {
    return samples_corrupted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t agent_dropouts() const {
    return agent_dropouts_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t crash_events() const {
    return crash_events_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t recovery_events() const {
    return recovery_events_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const FaultParams& params() const { return params_; }

 private:
  /// One node's fault process. Only apply() for this node's id touches it.
  struct NodeState {
    common::Rng rng{0};
    bool known = false;      ///< registered via ensure_nodes()
    bool agent_up = true;
    /// Crash windows count down in cycles; 0 = healthy. Decremented once
    /// per apply(), i.e. per collection cycle the node is monitored.
    int crash_cycles_left = 0;
  };

  FaultParams params_;
  common::Rng root_;
  /// Indexed by node id, over the span of registered ids only.
  common::IdTable<NodeState> states_;
  std::atomic<std::uint64_t> samples_suppressed_{0};
  std::atomic<std::uint64_t> samples_corrupted_{0};
  std::atomic<std::uint64_t> agent_dropouts_{0};
  std::atomic<std::uint64_t> crash_events_{0};
  std::atomic<std::uint64_t> recovery_events_{0};
};

}  // namespace pcap::telemetry
