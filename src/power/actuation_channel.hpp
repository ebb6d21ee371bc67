// Actuation-plane fault injection: the lossy path from manager to node.
//
// PR 2 made the sensing side survive a degraded telemetry plane; this is
// the mirror image for commands. At Tianhe-1A scale the actuation path is
// itself a distributed system: level commands get lost or arrive cycles
// late, a DVFS transition can fail outright or land only part-way, and
// nodes reboot mid-degradation — silently resetting to their highest
// power state while the manager still believes them throttled.
//
// The channel sits between the capping manager's decision and the
// NodeController: commands go in, the subset that actually reaches
// hardware (possibly late, possibly altered) comes out. It never touches
// node levels itself except for reboots, which are hardware events, not
// commands.
//
// Determinism contract: every per-node fault process draws from that
// node's own RNG stream (Rng::stream(id)). The channel runs serially
// inside the manager's control cycle and iterates nodes in id order, so
// a run is bit-identical regardless of how many worker threads the
// cluster's node sweeps use.
#pragma once

#include <cstdint>
#include <vector>

#include "common/id_table.hpp"
#include "common/rng.hpp"
#include "hw/node.hpp"
#include "power/capping.hpp"

namespace pcap::power {

struct ActuationFaultParams {
  /// Probability that a sent command never reaches its node.
  double command_loss_rate = 0.0;
  /// Commands that are not lost land this many control cycles late.
  int delivery_delay_cycles = 0;
  /// Probability that a delivered command's DVFS transition fails: the
  /// node acknowledges nothing and stays at its current level.
  double transition_failure_rate = 0.0;
  /// Probability that a delivered multi-level command (|target - current|
  /// > 1, e.g. a red-state floor or a healing command) lands only one
  /// step toward the target instead of all the way.
  double partial_transition_rate = 0.0;
  /// Per-cycle probability that a node reboots. A rebooting node resets
  /// to its highest level (firmware default), drops its queued commands,
  /// and is unreachable for the reboot window.
  double reboot_rate = 0.0;
  /// Reboot window length in control cycles.
  int reboot_duration_cycles = 30;

  /// True when any fault channel is active; the manager bypasses the
  /// channel entirely otherwise, keeping the healthy path unchanged.
  [[nodiscard]] bool enabled() const {
    return command_loss_rate > 0.0 || delivery_delay_cycles > 0 ||
           transition_failure_rate > 0.0 || partial_transition_rate > 0.0 ||
           reboot_rate > 0.0;
  }
  /// Throws std::invalid_argument on out-of-range rates/durations.
  void validate() const;
};

class ActuationChannel {
 public:
  ActuationChannel(ActuationFaultParams params, common::Rng rng);

  /// Registers nodes commands may address. Serial — call on candidate-set
  /// changes, never mid-sweep. Per-node fault state (reboot windows,
  /// queued commands) persists across candidate churn: a node that leaves
  /// the candidate set mid-reboot is still rebooting when it returns. A
  /// bypassed channel (no fault enabled) registers nothing.
  void ensure_nodes(const std::vector<hw::NodeId>& ids);

  /// Advances every node's fault process by one control cycle: ticks and
  /// starts reboot windows (resetting rebooting nodes to their highest
  /// level — the one place the channel touches hardware directly) and
  /// appends commands whose delivery delay expired this cycle to
  /// `delivered`, applying failure/partial draws at delivery time.
  void begin_cycle(std::vector<hw::Node>& nodes,
                   std::vector<LevelCommand>& delivered);

  /// Pushes this cycle's commands through the channel. Immediate
  /// deliveries (delay 0) are appended to `delivered` after loss and
  /// failure/partial draws; delayed ones are queued for a later
  /// begin_cycle(). Commands to rebooting nodes are dropped and counted.
  void send(const std::vector<LevelCommand>& commands,
            const std::vector<hw::Node>& nodes,
            std::vector<LevelCommand>& delivered);

  /// Node currently inside a reboot window (unreachable)?
  [[nodiscard]] bool rebooting(hw::NodeId id) const;
  /// Commands queued inside the channel awaiting their delivery cycle.
  [[nodiscard]] std::size_t in_flight_count() const { return in_flight_; }

  // Cumulative ground-truth counters over the channel's lifetime.
  [[nodiscard]] std::uint64_t commands_lost() const { return lost_; }
  [[nodiscard]] std::uint64_t commands_dropped_rebooting() const {
    return dropped_rebooting_;
  }
  [[nodiscard]] std::uint64_t transitions_failed() const { return failed_; }
  [[nodiscard]] std::uint64_t transitions_partial() const { return partial_; }
  [[nodiscard]] std::uint64_t reboot_events() const { return reboots_; }

  [[nodiscard]] const ActuationFaultParams& params() const { return params_; }

 private:
  /// A command inside the delivery pipe.
  struct QueuedCommand {
    std::uint64_t deliver_at_cycle = 0;
    hw::Level level = 0;
  };
  /// One node's actuation fault process, touched only serially.
  struct NodeState {
    common::Rng rng{0};
    bool known = false;  ///< registered via ensure_nodes()
    /// Reboot windows count down per begin_cycle(); 0 = up.
    int reboot_cycles_left = 0;
    std::vector<QueuedCommand> queue;  ///< delayed commands, FIFO order
  };

  void deliver(NodeState& st, hw::NodeId id, hw::Level target,
               const hw::Node& node, std::vector<LevelCommand>& delivered);

  ActuationFaultParams params_;
  common::Rng root_;
  std::uint64_t cycle_ = 0;
  std::size_t in_flight_ = 0;
  /// Indexed by node id, over the span of registered ids only.
  common::IdTable<NodeState> states_;
  std::uint64_t lost_ = 0;
  std::uint64_t dropped_rebooting_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t partial_ = 0;
  std::uint64_t reboots_ = 0;
};

}  // namespace pcap::power
