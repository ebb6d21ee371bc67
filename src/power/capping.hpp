// Algorithm 1: the power capping algorithm (§III.B, Figure 2).
//
// Per control cycle, given the measured system power P and the thresholds:
//   green  (P <  P_L): Time_g++; once the system has been green for T_g
//                      consecutive cycles ("steady green"), restore every
//                      degraded node by one level; nodes reaching their
//                      top level leave A_degraded.
//   yellow (P_L <= P < P_H): Time_g := 0; the target selection policy
//                      picks A_target from the candidates; each target is
//                      degraded by one level and joins A_degraded.
//   red    (P >= P_H): Time_g := 0; every candidate node is commanded to
//                      its lowest level; A_degraded := A_candidate.
//
// The engine is pure decision logic: it emits (node, target level)
// commands and never touches hardware. It does not classify either — the
// control root (power/control_root.hpp) reads the meter and hands the
// engine the band to run.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "common/units.hpp"
#include "power/policy.hpp"
#include "power/state.hpp"

namespace pcap::power {

struct EngineCheckpoint;  // power/checkpoint.hpp

struct CappingParams {
  std::int64_t steady_green_cycles = 10;  ///< T_g (the paper uses 10, §V.C)
};

/// An actuation command: set node `node` to power state `level`.
struct LevelCommand {
  hw::NodeId node = 0;
  hw::Level level = 0;

  friend bool operator==(const LevelCommand&, const LevelCommand&) = default;
};

struct CycleDecision {
  PowerState state = PowerState::kGreen;
  std::vector<LevelCommand> commands;  ///< the A_target with target levels
  /// Policy-selected targets the engine refused this cycle (unknown node,
  /// idle, already at the ladder floor, or stale telemetry). A healthy
  /// policy keeps this at 0; under telemetry faults it quantifies how
  /// often selection ran ahead of the data.
  std::size_t skipped = 0;
  /// Targets passed over because a prior command is still unacked. Unlike
  /// `skipped` this is routine under a lossy actuation plane — the
  /// reconciler's retry clock owns those nodes — so it is counted
  /// separately and never warned about.
  std::size_t deferred_in_flight = 0;
};

class CappingEngine {
 public:
  explicit CappingEngine(CappingParams params);

  /// Runs one cycle of Algorithm 1 in `band` — the state the control root
  /// decided (power/control_root.hpp), after any predictive elevation.
  /// `ctx` must describe the current candidate set (ctx.nodes) and job
  /// aggregation; `policy` is consulted only in yellow, where it reads the
  /// saving to find from ctx.required_saving().
  CycleDecision cycle(PowerState band, TargetSelectionPolicy& policy,
                      const PolicyContext& ctx);

  /// A_degraded: candidates this engine has pushed below their top level.
  [[nodiscard]] const std::set<hw::NodeId>& degraded() const {
    return degraded_;
  }
  /// Time_g: consecutive green cycles so far.
  [[nodiscard]] std::int64_t green_timer() const { return time_g_; }
  /// Invalid/stale policy targets skipped over the engine's lifetime. One
  /// bad target used to abort the whole manager cycle; now it costs one
  /// counted warning and the rest of the decision still lands.
  [[nodiscard]] std::uint64_t skipped_targets() const {
    return skipped_targets_;
  }
  [[nodiscard]] const CappingParams& params() const { return params_; }

  /// Records a non-green cycle without running a decision: Time_g := 0,
  /// A_degraded untouched. The zone tree calls this for a yellow zone
  /// with no deficit share (no shed capacity left), so a later green
  /// period still has to re-earn steady-green before restoring — exactly
  /// as if yellow_cycle had run and emitted nothing.
  void note_non_green_cycle() { time_g_ = 0; }

  /// Adopts a node into A_degraded that this engine did not lower itself
  /// — the failsafe watchdog stepped it down during a controller outage
  /// and the reconciler adopted the observed level. Membership is what
  /// lets steady-green restore the node back up; without it the failsafe
  /// level would stick forever.
  void adopt_degraded(hw::NodeId id) { degraded_.insert(id); }

  /// Captures/restores (Time_g, A_degraded) for warm restart. The
  /// lifetime skipped-target counter is process-scoped and not part of
  /// the image. See power/checkpoint.hpp.
  [[nodiscard]] EngineCheckpoint checkpoint() const;
  void restore(const EngineCheckpoint& cp);

 private:
  CycleDecision green_cycle(const PolicyContext& ctx);
  CycleDecision yellow_cycle(TargetSelectionPolicy& policy,
                             const PolicyContext& ctx);
  CycleDecision red_cycle(const PolicyContext& ctx);

  CappingParams params_;
  std::int64_t time_g_ = 0;
  std::uint64_t skipped_targets_ = 0;
  std::set<hw::NodeId> degraded_;  ///< A_degraded
};

}  // namespace pcap::power
