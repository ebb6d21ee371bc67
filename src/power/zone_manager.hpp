// The capping manager: one ControlRoot over Z zone shards (§II's
// facility→cluster provisioning hierarchy, generalised).
//
// Every capping-policy run is a ZoneTreeManager. It partitions
// A_candidate into Z zones, gives each zone its own collector/reconciler/
// channel/engine shard (a CappingManager driven through its phase API),
// and runs exactly one ControlRoot (power/control_root.hpp):
//
//   root:  observe the facility meter, learn P_L/P_H, forecast, decide
//          the band (with predictive elevation) and draw every outage
//          window — root blackouts and zone-shard crashes alike.
//   zones: collect + build context + select (in parallel across zones
//          when Z >= 2; disjoint per-shard state). Node-mutating steps
//          (reboot/delivery processing, actuation) run serially in fixed
//          zone order.
//
// A flat controller is the one-zone tree (Z = 1, the default). Shard z
// forks its streams from rng.fork("zone<z>") at every Z, so they depend
// only on (seed, z); the root then forks "control". The zone count alone
// selects three rules:
//   1. Decisions. At Z = 1 the shard decides on every live cycle against
//      the root's own (P, P_L) with this cycle's forecast stamped in. At
//      Z >= 2 the root splits the yellow deficit D = max(0, P - P_L)
//      into per-zone shares (uniform or usage-proportional over the zones
//      that can still shed, folded serially in zone order), and a
//      deciding shard's context carries (P, P_L) = (share s, 0), so
//      ctx.required_saving() == s.
//   2. The pcap_zone_* series exist only at Z >= 2.
//   3. Pool. At Z = 1 the shard gets the thread pool for its own sweeps;
//      at Z >= 2 the pool fans out across zones and shards stay serial
//      inside a zone task (no nested pool use).
// The dynamic candidate selector runs at Z = 1 only: a re-selection
// repartitions the zone.
//
// Phases A (collect), C (context), D (policy) and E (actuate) publish the
// pcap_cycle_phase_seconds spans.
//
// Activity. A zone is ACTIVE on a cycle when it runs a context phase (a
// build, or on a green wait cycle the reconcile-only wait pass); only an
// active zone must sweep first, and only an active zone counts in
// pcap_zone_active_cycles_total and refreshes pcap_zone_power_watts. A
// green zone is active exactly when its shard's context gate fires
// (CappingManager::context_gate): something pending, unresponsive, in
// flight or awaiting watchdog adoption, or A_degraded non-empty on a
// cycle that is not idle. An idle green cycle — exact telemetry, exact
// actuation, the candidate set unchanged since the last build, and
// restoration more than one cycle away — reads nothing, so it neither
// sweeps (bar the stride's own schedule) nor runs a context phase. The
// cycle before restoration is never idle. Every live zone still selects
// on a green cycle, so its green timer ticks. On a yellow or red cycle
// every live zone is active: it sweeps and builds its context.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "obs/registry.hpp"
#include "power/control_root.hpp"
#include "power/manager.hpp"
#include "power/state.hpp"

namespace pcap::power {

struct TreeCheckpoint;  // power/checkpoint.hpp

struct ZoneTreeParams {
  enum class Assignment : std::uint8_t {
    kBlock,   ///< contiguous id ranges (rack-shaped zones)
    kStride,  ///< round-robin (load-levelling zones)
  };
  enum class Redistribution : std::uint8_t {
    kUniform,       ///< D / |eligible zones|
    kProportional,  ///< D scaled by each zone's measured share of power
  };

  std::size_t zone_count = 1;
  Assignment assignment = Assignment::kBlock;
  Redistribution redistribution = Redistribution::kUniform;
};

/// Parses "block"/"stride" — throws std::invalid_argument otherwise.
ZoneTreeParams::Assignment parse_zone_assignment(const std::string& s);
/// Parses "uniform"/"proportional" — throws std::invalid_argument otherwise.
ZoneTreeParams::Redistribution parse_zone_redistribution(const std::string& s);

class ZoneTreeManager final : public PowerManagerBase {
 public:
  /// `shard_params` configures every zone shard; its thresholds,
  /// prediction and control sub-structs configure the tree's root, and
  /// its selector the tree's dynamic candidate selection.
  /// `policy_factory` is invoked once per zone so each shard gets its own
  /// selection-policy state. Throws std::invalid_argument for a zero zone
  /// count, a null factory, and for a selector or zone-crash windows
  /// (control.zone_outage_rate > 0) below or above their zone counts: the
  /// selector needs Z = 1 (a re-selection repartitions the zone), and a
  /// zone crash needs Z >= 2 (a sibling has to adopt the orphan).
  ZoneTreeManager(ZoneTreeParams params, CappingManagerParams shard_params,
                  std::function<PolicyPtr()> policy_factory, common::Rng rng);

  [[nodiscard]] std::string name() const override;

  /// Partitions `ids` into the configured zones and hands each shard its
  /// members. Ids are sorted and deduplicated first so the partition is a
  /// pure function of the id set.
  void set_candidate_set(const std::vector<hw::NodeId>& ids);

  ManagerReport cycle(Watts measured, std::vector<hw::Node>& nodes,
                      const sched::Scheduler& scheduler,
                      Seconds now) override;

  /// At Z = 1 the shard sweeps on the pool; at Z >= 2 the pool fans out
  /// across zones (rule 3 above). Results are bit-identical either way.
  void set_thread_pool(common::ThreadPool* pool) override;

  /// Preregisters the pcap_manager_*/pcap_telemetry_*/pcap_actuation_*
  /// series experiments read by name, and at Z >= 2 the per-zone
  /// pcap_zone_* gauges/counters under zone="..." labels. ManagerReport
  /// and the trace CSV are views over the values the registry
  /// accumulates — see DESIGN.md §11.
  void bind_metrics(obs::Registry& reg) override;

  /// Watchdog group z = zone z: each shard attaches under its zone index
  /// and the tree owns the grouping (refreshed on every repartition).
  void set_watchdog(hw::FailsafeWatchdog* wd) override;

  /// The tree's root: learner, forecaster, band, and the control-fault
  /// process (root blackouts + per-zone crash windows, drawn from streams
  /// keyed by (seed, zone)).
  [[nodiscard]] const ControlRoot& root() const { return *root_; }
  [[nodiscard]] ControlRoot& root() { return *root_; }

  /// Captures/restores warm-restart state: the policy name, root
  /// learner/predictor, per-shard engine/reconciler/collector-clock and
  /// each zone's last-known power. Restore into a tree
  /// with the same policy and zone count AFTER set_candidate_set; restore
  /// throws std::invalid_argument otherwise. See power/checkpoint.hpp.
  [[nodiscard]] TreeCheckpoint checkpoint() const;
  void restore(const TreeCheckpoint& cp);

  [[nodiscard]] std::size_t zone_count() const { return zones_.size(); }
  [[nodiscard]] const std::vector<hw::NodeId>& zone_members(
      std::size_t z) const {
    return zones_[z].shard->candidate_set();
  }
  [[nodiscard]] const CappingManager& zone(std::size_t z) const {
    return *zones_[z].shard;
  }
  [[nodiscard]] const ZoneTreeParams& params() const { return params_; }
  /// Zones that ran a context phase last cycle.
  [[nodiscard]] std::size_t zones_active_last_cycle() const {
    return active_last_cycle_;
  }
  /// Last measured zone power / deficit share (valid after a cycle at
  /// Z >= 2; a one-zone tree folds neither and reads 0).
  [[nodiscard]] Watts zone_power(std::size_t z) const {
    return zones_[z].power;
  }
  [[nodiscard]] Watts zone_share(std::size_t z) const {
    return zones_[z].share;
  }

 private:
  struct Zone {
    std::unique_ptr<CappingManager> shard;  ///< holds the zone's members

    Watts power{0.0};     ///< sum of context node power, last active cycle
    /// Sum of job-level one-step shed capacity; read only by the yellow
    /// root fold, from the same cycle's build.
    Watts capacity{0.0};
    /// Ever completed a context build? Gates orphan accounting: a downed
    /// zone with a measured history is accounted at last-known power, one
    /// that crashed before its first build at theoretical worst case.
    bool ever_measured = false;
    /// Σ members' theoretical max draw (lazy; invalidated on membership
    /// change) — the conservative stand-in for a never-measured orphan.
    Watts worst_case{0.0};
    bool worst_case_valid = false;

    // Per-cycle scratch.
    bool active = false;   ///< ran a context phase this cycle
    bool collected = false;
    bool down = false;     ///< zone shard crashed this cycle
    Watts share{0.0};
    CycleDecision decision;
    ManagerReport report;  ///< per-zone health/selection fields
    std::size_t transitions = 0;

    // Per-zone registry handles (inert when no registry is bound).
    obs::GaugeHandle power_gauge, share_gauge;
    obs::CounterHandle active_cycles, targets_total;
  };

  /// Re-derives the watchdog's group partition (group z = zone z members).
  void refresh_watchdog_groups();

  ZoneTreeParams params_;
  std::vector<Zone> zones_;
  /// Dynamic candidate selection (Z = 1 only).
  std::optional<CandidateSelector> selector_;
  common::ThreadPool* pool_ = nullptr;
  ManagerMetrics metrics_;  ///< root aggregate series
  /// Bound only at Z >= 2, for the pcap_zone_* series.
  obs::Registry* reg_ = nullptr;
  /// Optional only for construction order: its "control" rng fork must
  /// come AFTER the shard forks, so it is emplaced at the end of the
  /// constructor body.
  std::optional<ControlRoot> root_;
  hw::FailsafeWatchdog* watchdog_ = nullptr;
  /// Safe-side inflation for a downed zone's accounted power — reuses the
  /// shards' stale_power_margin (both cover "we cannot see this anymore").
  double orphan_margin_ = 0.10;

  std::size_t active_last_cycle_ = 0;
};

}  // namespace pcap::power
