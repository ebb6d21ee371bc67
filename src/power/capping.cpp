#include "power/capping.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/logging.hpp"
#include "power/checkpoint.hpp"

namespace pcap::power {

CappingEngine::CappingEngine(CappingParams params) : params_(params) {
  if (params_.steady_green_cycles <= 0) {
    throw std::invalid_argument("CappingEngine: T_g must be positive");
  }
}

CycleDecision CappingEngine::cycle(PowerState band,
                                   TargetSelectionPolicy& policy,
                                   const PolicyContext& ctx) {
  // Nodes that left the candidate set (job churn, reconfiguration) are no
  // longer ours to restore.
  for (auto it = degraded_.begin(); it != degraded_.end();) {
    if (ctx.node(*it) == nullptr) {
      it = degraded_.erase(it);
    } else {
      ++it;
    }
  }

  switch (band) {
    case PowerState::kGreen:
      return green_cycle(ctx);
    case PowerState::kYellow:
      return yellow_cycle(policy, ctx);
    case PowerState::kRed:
      return red_cycle(ctx);
  }
  throw std::logic_error("CappingEngine: unreachable");
}

CycleDecision CappingEngine::green_cycle(const PolicyContext& ctx) {
  CycleDecision d;
  d.state = PowerState::kGreen;
  ++time_g_;
  if (time_g_ < params_.steady_green_cycles || degraded_.empty()) return d;

  // Steady green: raise every degraded node by one level; nodes reaching
  // their spec's top level leave A_degraded ("if l_i + 1 is the highest
  // level for node i then remove node i from A_degraded"). A node whose
  // telemetry has gone stale — or whose previous command is still
  // unacknowledged — stays degraded but is not raised this cycle: its
  // true level is a guess, and restoring against a guess risks
  // overshooting the cap we just recovered from.
  for (auto it = degraded_.begin(); it != degraded_.end();) {
    const NodeView* nv = ctx.node(*it);
    if (nv->stale || nv->command_in_flight) {
      ++it;
      continue;
    }
    const hw::Level restored = std::min(nv->level + 1, nv->highest_level);
    d.commands.push_back(LevelCommand{*it, restored});
    if (restored >= nv->highest_level) {
      it = degraded_.erase(it);
    } else {
      ++it;
    }
  }
  return d;
}

CycleDecision CappingEngine::yellow_cycle(TargetSelectionPolicy& policy,
                                          const PolicyContext& ctx) {
  CycleDecision d;
  d.state = PowerState::kYellow;
  time_g_ = 0;

  // A policy target can be invalid for two reasons: the policy is buggy
  // (duplicate/idle/at-floor picks), or — far more often at scale — the
  // telemetry it acted on was stale or missing. Either way, aborting the
  // whole control cycle over one bad target means NO node gets throttled
  // while power sits above P_L, which is strictly worse than acting on
  // the valid remainder. Skip, count, warn.
  for (const hw::NodeId id : policy.select(ctx)) {
    const NodeView* nv = ctx.node(id);
    if (nv != nullptr && nv->command_in_flight) {
      // Not a bad target — the reconciler owns this node until its last
      // command acks, retries out, or is abandoned. Deferring is the
      // safe-side choice, not an anomaly, so it never warns.
      ++d.deferred_in_flight;
      continue;
    }
    if (nv == nullptr || nv->at_lowest || !nv->busy || nv->stale) {
      ++d.skipped;
      continue;
    }
    d.commands.push_back(LevelCommand{id, nv->level - 1});
    degraded_.insert(id);
  }
  if (d.skipped > 0) {
    skipped_targets_ += d.skipped;
    PCAP_WARN("capping: skipped %zu invalid/stale targets this cycle",
              d.skipped);
  }
  return d;
}

CycleDecision CappingEngine::red_cycle(const PolicyContext& ctx) {
  CycleDecision d;
  d.state = PowerState::kRed;
  time_g_ = 0;
  // Idempotent flooring: a node already at its lowest level gets no
  // command and does not (re-)enter A_degraded — repeating the red cycle
  // must not inflate target/actuation counts, and a node this engine
  // never lowered must not be "restored" above where it started. Stale
  // nodes ARE sent to the floor: red is the safety state and flooring is
  // the one command that is safe whatever the node's true level is.
  for (const NodeView& nv : ctx.nodes) {
    if (nv.at_lowest) continue;
    d.commands.push_back(LevelCommand{nv.id, 0});  // lowest power state
    degraded_.insert(nv.id);
  }
  return d;
}

EngineCheckpoint CappingEngine::checkpoint() const {
  EngineCheckpoint cp;
  cp.time_g = time_g_;
  cp.degraded.assign(degraded_.begin(), degraded_.end());  // ascending
  return cp;
}

void CappingEngine::restore(const EngineCheckpoint& cp) {
  time_g_ = cp.time_g;
  degraded_.clear();
  degraded_.insert(cp.degraded.begin(), cp.degraded.end());
}

}  // namespace pcap::power
