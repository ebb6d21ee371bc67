// Node-local failsafe watchdog: fail-to-cap when the controller dies.
//
// The capping managers are implicit single points of failure — if a zone
// shard or the root learner goes silent, nodes hold their last DVFS levels
// indefinitely and the "stay under P_H" guarantee quietly expires. The
// paper provisions close to the breaker limit, so the architecture needs
// nodes that fail toward safety, not toward whatever they were last told.
//
// Model: each node's local agent counts control cycles since it last heard
// from its controller — either a command delivery addressed to it
// ("contact") or the controller's per-cycle liveness beacon over the
// actuation fabric ("heartbeat", one per controller group, since a live
// controller is live for every node it owns). Past
// `WatchdogParams::timeout_cycles` of silence the agent autonomously steps
// its node DOWN to `safe_level` (never up — a failsafe must not add
// power), and keeps re-asserting it each silent cycle so a mid-outage
// reboot that resets the node to full power is re-capped within one cycle.
//
// Every level the watchdog changes is flagged "adoption pending": when the
// controller returns, its reconciler must adopt the observed level as the
// new believed reality (clearing the flag via resolve_adoption) instead of
// logging divergence warnings and issuing healing commands against its own
// failsafe. See ActuationReconciler::adopt_reality.
//
// The watchdog is deterministic (no RNG) and ticked serially by the
// cluster once per control cycle, after the manager. Group heartbeat
// stamps make the healthy path O(groups): members are only scanned while
// their group is stale or still has engaged nodes to release.
#pragma once

#include <cstdint>
#include <vector>

#include "hw/dvfs.hpp"
#include "hw/node.hpp"

namespace pcap::hw {

struct WatchdogParams {
  /// Control cycles of controller silence a node tolerates before stepping
  /// to the failsafe point. 0 disables the watchdog entirely.
  std::int64_t timeout_cycles = 0;
  /// The safe operating point (DVFS level) a timed-out node steps down to.
  Level safe_level = 0;

  [[nodiscard]] bool enabled() const { return timeout_cycles > 0; }
  /// Throws std::invalid_argument on negative timeout or safe level.
  void validate() const;
};

class FailsafeWatchdog {
 public:
  explicit FailsafeWatchdog(WatchdogParams params);

  /// (Re)partitions nodes into controller groups (group g = the nodes
  /// owned by controller g; the flat manager is one group, the zone tree
  /// one per zone). Stamps every group's heartbeat "now" so a
  /// reconfiguration never manufactures instant timeouts. Engaged/pending
  /// state of nodes that stay members survives regrouping.
  void set_groups(const std::vector<std::vector<NodeId>>& groups);

  /// Controller group g executed a live cycle this control period.
  void heartbeat(std::size_t group);
  /// A command was delivered to this node this control period.
  void contact(NodeId id);

  /// Advances one control cycle: engages/releases members of stale/live
  /// groups and re-asserts the failsafe level on silent nodes. Serial, in
  /// ascending node order within each group — deterministic. Returns the
  /// number of levels actually changed this cycle.
  std::size_t tick(std::vector<Node>& nodes);

  /// Did the watchdog change this node's level without the controller's
  /// knowledge (and the controller has not yet adopted it)?
  [[nodiscard]] bool adoption_pending(NodeId id) const {
    return id < slots_.size() && slots_[id].pending;
  }
  /// Any adoptions pending among group g's members?
  [[nodiscard]] bool adoption_pending_in_group(std::size_t group) const {
    return group < pending_per_group_.size() && pending_per_group_[group] > 0;
  }
  /// The controller observed this node's post-failsafe level and adopted
  /// it into its shadow tables.
  void resolve_adoption(NodeId id);

  [[nodiscard]] std::size_t pending_count() const { return pending_count_; }
  [[nodiscard]] std::size_t engaged_count() const { return engaged_count_; }
  /// Distinct node-engagement episodes (a node timing out counts once per
  /// outage, however long the window).
  [[nodiscard]] std::uint64_t engagements() const { return engagements_; }
  /// Levels actually changed by the failsafe, lifetime.
  [[nodiscard]] std::uint64_t failsafe_transitions() const {
    return failsafe_transitions_;
  }
  [[nodiscard]] const WatchdogParams& params() const { return params_; }

 private:
  struct Slot {
    std::uint32_t group = 0;
    std::int64_t last_contact = -1;  ///< watchdog cycle of last delivery
    bool member = false;             ///< belongs to a current group
    bool engaged = false;            ///< currently past timeout
    bool pending = false;            ///< failsafe change awaiting adoption
  };

  Slot& slot(NodeId id);

  WatchdogParams params_;
  std::vector<Slot> slots_;  ///< indexed by node id
  std::vector<std::vector<NodeId>> groups_;
  std::vector<std::int64_t> group_hb_;
  std::vector<std::uint32_t> engaged_per_group_;
  std::vector<std::uint32_t> pending_per_group_;
  std::int64_t cycle_ = 0;
  std::size_t pending_count_ = 0;
  std::size_t engaged_count_ = 0;
  std::uint64_t engagements_ = 0;
  std::uint64_t failsafe_transitions_ = 0;
};

}  // namespace pcap::hw
