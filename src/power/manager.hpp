// The capping manager's data types and its shard (§II, Figure 1).
//
// One capping manager runs on the management node: power::ZoneTreeManager
// (power/zone_manager.hpp). A flat deployment is its one-zone case. Each
// control cycle its ControlRoot reads the facility meter, learns P_L/P_H,
// forecasts and decides the band (power/control_root.hpp); every zone's
// CappingManager shard then collects samples from its candidates'
// profiling agents, builds the policy context, runs Algorithm 1 in that
// band with the configured target set selection policy, and dispatches
// the resulting level commands to the node controllers.
//
// This header holds what the tree and its shards share: the per-cycle
// ManagerReport, the ManagerMetrics registry bindings, the
// PowerManagerBase interface the cluster drives (the baselines library
// implements it too), the manager parameters and the shard itself.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/id_table.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "hw/watchdog.hpp"
#include "obs/registry.hpp"
#include "obs/spans.hpp"
#include "power/actuation_channel.hpp"
#include "power/candidate_selector.hpp"
#include "power/capping.hpp"
#include "power/control_fault_injector.hpp"
#include "power/job_index.hpp"
#include "power/node_controller.hpp"
#include "power/policy.hpp"
#include "power/predictor.hpp"
#include "power/reconciler.hpp"
#include "power/state.hpp"
#include "power/thresholds.hpp"
#include "sched/scheduler.hpp"
#include "telemetry/collector.hpp"

namespace pcap::power {

struct ShardCheckpoint;  // power/checkpoint.hpp

/// What the zone tree folds from a shard's context on an active cycle:
/// its deficit-share weight and, from a build, its shed capacity.
struct ContextTotals {
  Watts power{0.0};     ///< Σ view power, in view order
  Watts capacity{0.0};  ///< Σ job one-step shed capacity, in job order
};

/// What one control cycle did — recorded by experiments per cycle.
struct ManagerReport {
  PowerState state = PowerState::kGreen;
  Watts measured{0.0};
  Watts p_low{0.0};
  Watts p_high{0.0};
  bool training = false;
  std::size_t targets = 0;      ///< |A_target| this cycle
  std::size_t transitions = 0;  ///< level changes actually applied
  double manager_utilization = 0.0;  ///< Fig.5 cost model, this cycle

  // Telemetry health, this cycle. Zero on the steady-green fast path and
  // on an idle green cycle (no context phase runs), and on a wait cycle
  // (context_phase reconciles without a build, and only under exact
  // telemetry, where every tally is zero).
  std::size_t stale_nodes = 0;       ///< views past the sample-age bound
  std::size_t missing_nodes = 0;     ///< candidates with no usable sample
  std::size_t fallback_nodes = 0;    ///< views on a substituted estimate
  std::size_t rejected_samples = 0;  ///< implausible samples skipped
  std::size_t skipped_targets = 0;   ///< policy targets the engine refused
  std::size_t deferred_targets = 0;  ///< targets passed over: command in flight

  // Actuation reconciliation, this cycle. Zero whenever no context phase
  // ran (steady green or an idle green cycle, nothing pending); a wait
  // cycle reconciles, so its acks, divergences and heals count.
  std::size_t acks = 0;         ///< commands confirmed by telemetry
  std::size_t retries = 0;      ///< unacked commands re-sent
  std::size_t divergences = 0;  ///< observed level != believed level
  std::size_t heals = 0;        ///< healing commands emitted
  std::size_t commands_in_flight = 0;  ///< unacked commands after actuation
  std::size_t unresponsive_nodes = 0;  ///< candidates dropped: no acks left

  // Cumulative fault/transport ground truth (collector + injector
  // lifetime totals; filled every cycle, including steady green).
  std::uint64_t samples_lost = 0;        ///< dropped by the transport
  std::uint64_t samples_suppressed = 0;  ///< never left the node
  std::uint64_t samples_corrupted = 0;   ///< delivered with garbage power
  std::uint64_t crash_events = 0;
  std::uint64_t recovery_events = 0;
  std::size_t agents_down = 0;  ///< nodes currently silent

  // Cumulative actuation-plane ground truth (channel + reconciler +
  // controller lifetime totals; filled every cycle).
  std::uint64_t commands_lost = 0;       ///< dropped in transit
  std::uint64_t commands_rebooting = 0;  ///< dropped at a rebooting node
  std::uint64_t transitions_failed = 0;  ///< delivered, DVFS switch failed
  std::uint64_t transitions_partial = 0; ///< delivered, landed part-way
  std::uint64_t reboot_events = 0;
  std::uint64_t commands_abandoned = 0;  ///< retry budget exhausted
  std::uint64_t commands_clamped = 0;    ///< request clamped by the node

  // Forecasting (managers running a PowerPredictor; all-zero otherwise).
  bool has_forecast = false;  ///< a forecast informed this cycle
  Watts forecast{0.0};        ///< predicted P, horizon cycles ahead
  /// |forecast - realised| for the forecast that targeted THIS cycle
  /// (made horizon cycles ago); valid only when forecast_scored.
  double forecast_abs_error = 0.0;
  bool forecast_scored = false;
  // Cumulative predictor ground truth (control-root lifetime totals).
  std::uint64_t predictor_overshoots = 0;  ///< false alarms (pred>=P_L, real<P_L)
  std::uint64_t predictor_misses = 0;      ///< unseen ramps (pred<P_L, real>=P_L)
  std::uint64_t predictive_elevations = 0; ///< green cycles promoted to yellow

  // Control-plane failure domain (see power/control_fault_injector.hpp).
  bool controller_down = false;  ///< root controller silent this cycle
  std::size_t zones_down = 0;    ///< zone shards silent this cycle
  /// Failsafe watchdog levels the reconciler adopted as reality this
  /// cycle (zero divergence warnings for them by construction).
  std::size_t watchdog_adoptions = 0;
  // Cumulative control-fault ground truth (injector lifetime totals).
  std::uint64_t ctrl_outages = 0;  ///< root outage windows started
  std::uint64_t ctrl_outage_cycles = 0;
  std::uint64_t ctrl_delayed_cycles = 0;
  std::uint64_t ctrl_zone_outage_cycles = 0;
};

/// The capping manager's registry bindings: the pcap_manager_*,
/// pcap_telemetry_*, pcap_actuation_*, pcap_ctrl_* and pcap_predictor_*
/// series experiment extraction reads, whatever the zone count. Handles
/// are preregistered by bind(), so publish() performs only array stores;
/// everything is inert until a registry is bound.
struct ManagerMetrics {
  obs::Registry* reg = nullptr;
  // Per-cycle accumulators (counter += report value each cycle).
  obs::CounterHandle cycles_green, cycles_yellow, cycles_red, training_cycles;
  obs::CounterHandle targets, transitions, skipped_targets, deferred_targets;
  obs::CounterHandle stale_nodes, missing_nodes, fallback_nodes,
      rejected_samples, unresponsive_node_cycles;
  obs::CounterHandle acks, retries, divergences, heals;
  // Mirrored lifetime ground truth (collector/injector/channel own it).
  obs::CounterHandle samples_lost, samples_suppressed, samples_corrupted,
      crash_events, recovery_events;
  obs::CounterHandle commands_lost, commands_rebooting, transitions_failed,
      transitions_partial, reboot_events, commands_abandoned,
      commands_clamped;
  obs::CounterHandle ctrl_outage_events, ctrl_outage_cycles,
      ctrl_delayed_cycles, ctrl_zone_outage_cycles;
  obs::CounterHandle watchdog_adoptions;
  obs::CounterHandle predictor_overshoots, predictor_misses,
      predictive_elevations;
  // Instantaneous state.
  obs::GaugeHandle measured_watts, p_low_watts, p_high_watts,
      commands_in_flight, unresponsive_nodes, agents_down, orphan_zones;
  obs::GaugeHandle predictor_forecast_watts, predictor_abs_error_watts;
  // Control-loop stage timers.
  obs::SpanTimer collect_span, context_span, policy_span, actuate_span;

  void bind(obs::Registry& registry);
  /// Pushes one cycle's report into the registry (no-op when unbound).
  /// `unresponsive_now` is the instantaneous reconciler tally, summed
  /// across the shards.
  void publish(const ManagerReport& report, std::size_t unresponsive_now);
};

class PowerManagerBase {
 public:
  virtual ~PowerManagerBase() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Runs one control cycle against the live node array and scheduler
  /// state. `measured` is the facility meter reading (Algorithm 1's P).
  virtual ManagerReport cycle(Watts measured, std::vector<hw::Node>& nodes,
                              const sched::Scheduler& scheduler,
                              Seconds now) = 0;

  /// Offers a worker pool for intra-cycle sweeps (telemetry collection on
  /// large candidate sets). Managers that cannot use one ignore it; the
  /// pool is owned by the caller (the cluster) and outlives the manager's
  /// use of it. nullptr detaches.
  virtual void set_thread_pool(common::ThreadPool* /*pool*/) {}

  /// Offers a metrics registry (owned by the caller, outliving the
  /// manager's use of it). Managers preregister their series here so the
  /// per-cycle publish is pure array stores; the default implementation
  /// publishes nothing.
  virtual void bind_metrics(obs::Registry& /*reg*/) {}

  /// Offers the cluster's node-local failsafe watchdog (owned by the
  /// caller, outliving the manager's use of it; nullptr detaches). A live
  /// manager heartbeats it every cycle and stamps per-node contacts on
  /// command delivery; managers that model no controller liveness (the
  /// baselines) ignore it — the watchdog then never times out because it
  /// has no groups.
  virtual void set_watchdog(hw::FailsafeWatchdog* /*wd*/) {}
};

struct CappingManagerParams {
  ThresholdParams thresholds;
  CappingParams capping;
  telemetry::CollectorParams collector;
  Seconds cycle_period{1.0};
  /// A node view older than this many collection cycles is stale: it gets
  /// a conservative fallback power estimate and is excluded from target
  /// selection. Delayed transport alone ages samples by delay_cycles, so
  /// keep this above the configured delay.
  std::int64_t max_sample_age_cycles = 5;
  /// Fallback inflation for stale views: last-known power × (1 + margin).
  /// Overstating a blind node's draw keeps the aggregate estimate — and
  /// therefore capping — on the safe side of the provision.
  double stale_power_margin = 0.10;
  /// Steady-green telemetry stride: on a green cycle that fails the
  /// context gate — nothing degraded, pending, unresponsive or in flight,
  /// or an idle cycle (see CappingManager::context_gate) — the full agent
  /// sweep runs only every this many cycles (1 = sweep every cycle, the
  /// legacy cadence). Any cycle that passes the context gate collects
  /// first — the gate is evaluated before the sweep and can only shrink
  /// between then and context_phase. Under undelayed transport that sweep
  /// delivers before the build reads it, so no build reads across a
  /// strided gap and max_sample_age_cycles never has to cover the stride.
  /// With transport delay_cycles > 0 that no longer holds: deliveries land
  /// only during a sweep, so the gated sweep's own reports are still in
  /// flight and the first gated cycle after a strided run reads samples
  /// up to stride + delay_cycles - 1 cycles old. When that exceeds
  /// max_sample_age_cycles every view is stale and the cycle throttles
  /// nothing. No clamp ties the stride to the age bound. The meter (the
  /// classification input) is read every cycle regardless.
  std::int64_t green_collect_stride = 16;
  /// When set, A_candidate is recomputed dynamically (§III.A algorithm
  /// (c)) instead of being fixed by set_candidate_set(). Read by the tree,
  /// which repartitions on every re-selection; one zone only.
  std::optional<CandidateSelectorParams> selector;
  /// Command-side fault model. Default-constructed = perfect actuation;
  /// the manager then bypasses the channel and the healthy path is
  /// byte-for-byte what it was without one.
  ActuationFaultParams actuation;
  /// Ack/retry/divergence bookkeeping for the lossy channel. Always on:
  /// with perfect actuation every command acks on the next cycle's
  /// telemetry, so the reconciler never emits anything.
  ReconcilerParams reconciliation;
  /// Controller-failure model (outage/stall windows). Default-constructed
  /// = an immortal controller; the injector then draws nothing and the
  /// healthy path is byte-for-byte what it was without one. The tree's
  /// root owns all windows; shards never read this.
  ControlFaultParams control;
  /// System-power forecasting. Disabled by default; when enabled the
  /// root runs a PowerPredictor over the facility meter stream and lets
  /// forecast-driven policies act before P_L is crossed. refresh_cycles
  /// == 0 resolves to thresholds.adjust_period_cycles (the learner's t_p
  /// cadence).
  PredictionParams prediction;
};

/// One zone's share of the paper's architecture: candidate-set telemetry,
/// the policy context, Algorithm 1 with a pluggable target selection
/// policy, and actuation through the (possibly lossy) channel and the
/// reconciler. A shard owns no ControlRoot — the tree's root learns,
/// forecasts, classifies and draws every outage window — so
/// params.thresholds, params.prediction, params.control and
/// params.selector are not read here. The ZoneTreeManager drives it
/// through the phase API below.
class CappingManager final {
 public:
  /// Forks the "collector" then the "actuation" stream from `rng`,
  /// advancing it: the one-zone tree passes its own stream, so its root's
  /// later "control" fork follows these two.
  CappingManager(CappingManagerParams params, PolicyPtr policy,
                 common::Rng& rng);

  [[nodiscard]] std::string name() const;

  /// Defines A_candidate. Uncontrollable nodes are filtered out by the
  /// caller or tolerated here (their commands are no-ops), but monitoring
  /// them wastes management budget, so prefer passing controllable ids.
  void set_candidate_set(const std::vector<hw::NodeId>& ids);
  [[nodiscard]] const std::vector<hw::NodeId>& candidate_set() const {
    return collector_.candidate_set();
  }

  /// The pool parallelises both the telemetry sweep and context assembly
  /// (sharded over candidate slots; see assemble_context). Results are
  /// bit-identical with or without it.
  void set_thread_pool(common::ThreadPool* pool) {
    pool_ = pool;
    collector_.set_thread_pool(pool);
  }

  [[nodiscard]] const CappingEngine& engine() const { return engine_; }
  [[nodiscard]] const telemetry::Collector& collector() const {
    return collector_;
  }
  [[nodiscard]] const NodeController& controller() const {
    return controller_;
  }
  [[nodiscard]] const ActuationChannel& actuation_channel() const {
    return channel_;
  }
  [[nodiscard]] const ActuationReconciler& reconciler() const {
    return reconciler_;
  }
  [[nodiscard]] const TargetSelectionPolicy& policy() const {
    return *policy_;
  }

  /// Build counters. e2ebench reads them; they go in the benchmark change
  /// that drops the `power.ctx_*` per-layer metrics.
  struct ContextBuildStats {
    std::uint64_t full_builds = 0;   ///< reconciled context builds
    std::uint64_t delta_builds = 0;  ///< always 0
    std::uint64_t noop_builds = 0;   ///< always 0
    std::uint64_t dirty_slots = 0;   ///< always 0
  };
  [[nodiscard]] const ContextBuildStats& incremental_stats() const {
    return build_stats_;
  }

  /// Attaches the cluster-owned watchdog as group `group` (the tree owns
  /// the grouping: group z = zone z). nullptr detaches.
  void attach_watchdog(hw::FailsafeWatchdog* wd, std::size_t group);
  /// Any failsafe-changed levels in this shard's group still awaiting
  /// reconciler adoption? Forces context_phase — adoption only happens
  /// there.
  [[nodiscard]] bool watchdog_pending() const {
    return watchdog_ != nullptr &&
           watchdog_->adoption_pending_in_group(watchdog_group_);
  }

  /// Captures/restores the shard's warm-restart state (engine, reconciler
  /// shadow tables, collector clock, policy state). Restore into a freshly
  /// constructed shard AFTER set_candidate_set: policy scratch and the
  /// job index rebuild from the first context, and injector fault streams
  /// restart — the outside world does not rewind with the controller.
  [[nodiscard]] ShardCheckpoint checkpoint() const;
  void restore(const ShardCheckpoint& cp);

  /// Read-only context build from current telemetry and scheduler state,
  /// into `ctx` (its node/job buffers are reused). It bypasses the
  /// reconciler and stamps neither P nor P_L. Public so tests and
  /// benchmarks can inspect the context and measure selection cost in
  /// isolation.
  void build_context_into(PolicyContext& ctx,
                          const std::vector<hw::Node>& nodes,
                          const sched::Scheduler& scheduler) const;

  // --- Shard phase API -------------------------------------------------
  // The zone tree drives every shard through these phases against its
  // root's band. Call order within one cycle: context_gate (once!) →
  // collect_phase → begin_actuation_phase → [apply_deliveries on the
  // training path | context_phase → select_phase → actuate_phase] →
  // add_shard_totals.

  /// The single context/collect gate: true when this cycle must run
  /// context_phase (and therefore must have collected first) — a context
  /// build, or on a green wait cycle the reconcile-only wait pass. Evaluate
  /// exactly ONCE per cycle, before begin_actuation_phase — that call
  /// processes reboots and delayed deliveries, which can shrink
  /// in_flight/pending state; re-evaluating after it can disagree with
  /// the collect decision made before it (collect skipped, context built
  /// on stale views).
  ///
  /// False on a green cycle with nothing degraded, pending, unresponsive,
  /// in flight or awaiting watchdog adoption, and on an idle green cycle:
  /// one with A_degraded non-empty but nothing else outstanding, exact
  /// telemetry, exact actuation (no reboot or failed transition can move
  /// a level unseen), the candidate set unchanged since the last build,
  /// and green timer + 2 < T_g, so neither this cycle nor the next one
  /// restores. Nothing reads what an idle cycle would collect: Algorithm 1
  /// reads no view before T_g, and the cycle before restoration still
  /// sweeps, so the restoration build's power_prev is last cycle's sample.
  [[nodiscard]] bool context_gate(PowerState state) const {
    if (state != PowerState::kGreen || reconciler_.pending_count() > 0 ||
        reconciler_.unresponsive_count() > 0 ||
        channel_.in_flight_count() > 0 || watchdog_pending()) {
      return true;
    }
    if (engine_.degraded().empty()) return false;
    const bool idle = exact_telemetry_ && !params_.actuation.enabled() &&
                      !candidates_changed_ &&
                      engine_.green_timer() + 2 <
                          engine_.params().steady_green_cycles;
    return !idle;
  }

  /// No loss, no delay, no telemetry faults: a cycle that collected
  /// holds a fresh, plausible newest sample for every candidate.
  [[nodiscard]] bool exact_telemetry() const { return exact_telemetry_; }

  /// True when the steady-green stride schedule says the upcoming cycle
  /// sweeps anyway (keeps per-slot staleness clocks bounded).
  [[nodiscard]] bool collect_due() const {
    return collect_stride_ <= 1 ||
           (collector_.cycle_count() + 1) % collect_stride_ == 0;
  }

  /// Runs (or stride-skips) the telemetry sweep; either way the
  /// collector's cycle clock advances so staleness stays well-defined.
  void collect_phase(bool collect_now, const std::vector<hw::Node>& nodes,
                     Seconds now, std::size_t monitored_jobs);

  /// Opens the actuation cycle: clears per-cycle scratch, then lets the
  /// channel process reboots and due delayed deliveries (mutates nodes —
  /// serialise across shards). Deliveries land in delivered_scratch_ for
  /// apply_deliveries / actuate_phase.
  void begin_actuation_phase(std::vector<hw::Node>& nodes);

  /// Builds the persistent policy context through the reconciler, or on
  /// a wait cycle runs the wait pass instead, then closes the observation
  /// window (retries/abandons into recon_work_). A wait cycle is a green
  /// `band` whose engine only waits out T_g (green timer + 1 < T_g), with
  /// the candidate set unchanged since the last build and exact telemetry
  /// (no loss, no delay, no telemetry faults). Algorithm 1 then reads no
  /// view, and a fresh build would hold every candidate, so the A_degraded
  /// prune against the last build's context is the same no-op. The wait
  /// pass feeds each candidate's newest sample, in slot order, through
  /// the reconciler step the merge runs (reconcile_view). Fills the
  /// telemetry-health fields of `report` from a build; a wait pass leaves
  /// them zero, as a build under exact telemetry would. When `totals` is
  /// non-null it receives the context's totals: folded from the build, or
  /// on a wait pass the same power sum, in the same order, from the
  /// samples (capacity 0: only a yellow build's capacity is ever read).
  void context_phase(PowerState band, const std::vector<hw::Node>& nodes,
                     const sched::Scheduler& scheduler, ManagerReport& report,
                     ContextTotals* totals);

  /// Runs Algorithm 1 in `band` against the context built by
  /// context_phase (after a wait pass, by the last build; a wait cycle's
  /// green decision reads no view). (system_power, p_low) become the
  /// context's P and P_L, so a yellow policy sheds
  /// ctx.required_saving(), and `forecast` is
  /// stamped in for the forecast-driven policies: a one-zone tree passes
  /// the meter, the learned P_L and the root's forecast; a deeper tree
  /// passes (zone share, 0) and no forecast.
  [[nodiscard]] CycleDecision select_phase(PowerState band, Watts system_power,
                                           Watts p_low,
                                           std::optional<Watts> forecast);

  /// Admits the decision through the reconciler, sends via the channel,
  /// applies everything delivered (mutates nodes — serialise across
  /// shards). Returns the number of level transitions applied.
  std::size_t actuate_phase(const CycleDecision& decision,
                            std::vector<hw::Node>& nodes);

  /// Training-path and dead-cycle tail: applies only the channel's due
  /// deliveries (no new commands). Returns transitions applied.
  std::size_t apply_deliveries(std::vector<hw::Node>& nodes);

  /// Zero-decision non-green cycle (zone skipped by the tree): the green
  /// timer resets exactly as if a yellow/red decision had run.
  void note_non_green_cycle() { engine_.note_non_green_cycle(); }

  /// Adds this shard's part of the report: manager utilisation, the
  /// lifetime telemetry/actuation/reconciler totals and this cycle's
  /// reconciler work (acks, retries, divergences, heals). Cheap and valid
  /// on every path — training, steady green, dead cycles.
  void add_shard_totals(ManagerReport& report) const;

  /// The context select_phase decided against (persistent scratch). After
  /// a wait pass it is still the last build's.
  [[nodiscard]] const PolicyContext& context() const { return scratch_ctx_; }
  [[nodiscard]] const CappingManagerParams& params() const { return params_; }

 private:
  /// Stamps watchdog contact for every command in delivered_scratch_ —
  /// a delivery is the one controller signal a node can see directly.
  void stamp_delivery_contacts();

  /// The one context-build routine, run in full on every cycle that
  /// builds (every gated cycle but a wait cycle). When `rec`
  /// is non-null, each fresh node view is fed through the reconciler
  /// (acks/divergences/heals into `work`), in-flight commands mark their
  /// views, and the safe-side power accounting is applied;
  /// build_context_into passes nullptr for a read-only build.
  ///
  /// Steps: (1) refill every slot's ViewRecord, and its view in place at
  /// ctx.nodes[slot], in parallel from strictly per-node inputs; (2) a
  /// serial merge in candidate order applies everything order-sensitive
  /// (reconciler mutation, tallies, safe-side pending accounting) and
  /// compacts the kept views forward; (3) the job pass. Output is
  /// bit-identical across worker counts.
  void assemble_context(PolicyContext& ctx,
                        const std::vector<hw::Node>& nodes,
                        const sched::Scheduler& scheduler,
                        ActuationReconciler* rec,
                        ActuationReconciler::CycleWork* work) const;

  /// One candidate slot's bookkeeping from the sharded assembly pass; the
  /// slot's view itself lives in ctx.nodes[slot] until the merge.
  struct ViewRecord {
    enum class Status : std::uint8_t {
      kMissing,              ///< no plausible sample in the window
      kMissingUnresponsive,  ///< ditto, and the node is abandoned
      kExcludedUnresponsive, ///< abandoned and stale: out of the context
      kOk,
    };
    std::uint64_t sample_cycle = 0; ///< cycle stamp of the chosen sample
    std::uint32_t rejected = 0;     ///< implausible samples skipped
    Status status = Status::kMissing;
    bool substituted = false;  ///< fresh only after skipping corrupt ones
  };

  /// Refill body for one slot: derives view_records_[slot] and, when its
  /// status is kOk, the slot's view `out` from strictly per-node inputs.
  void fill_view_record(std::size_t slot,
                        const std::vector<hw::NodeId>& candidates,
                        const std::vector<hw::Node>& nodes,
                        const ActuationReconciler* rec,
                        std::uint64_t now_cycle, std::uint64_t max_age,
                        NodeView& out) const;

  /// The per-slot merge rule: tallies the record, then runs
  /// reconcile_view on the slot's view from the refill, finished in
  /// place. Returns false when the slot has no context view. `rec` may be
  /// null (read-only build): no observation and no pending accounting.
  bool merge_slot(std::size_t slot, PolicyContext& ctx,
                  const std::vector<hw::Node>& nodes, ActuationReconciler* rec,
                  ActuationReconciler::CycleWork* work,
                  std::uint64_t now_cycle, NodeView& nv) const;

  /// The per-slot reconciler step, shared by the merge and the wait pass:
  /// on a fresh view, adopt a failsafe level awaiting adoption, otherwise
  /// observe; then the pending-command safe-side accounting on `nv`
  /// (in-flight mark, unacked-restore power uplift). `sample_cycle` is the
  /// cycle stamp of the sample behind `nv`.
  void reconcile_view(NodeView& nv, std::uint64_t sample_cycle,
                      const std::vector<hw::Node>& nodes,
                      ActuationReconciler& rec,
                      ActuationReconciler::CycleWork& work,
                      std::uint64_t now_cycle) const;

  /// The wait pass (see context_phase): every candidate's newest sample
  /// through reconcile_view; with `totals`, also the build's power sum.
  void wait_pass(const std::vector<hw::Node>& nodes, ContextTotals* totals);

  /// The job pass: every job entry (parallel stage + serial compaction).
  void job_pass(PolicyContext& ctx) const;

  /// Computes one entry's JobView against the current ctx.nodes.
  static void fill_job_view(const JobIndex::Entry& e, const PolicyContext& ctx,
                            JobView& jv);

  CappingManagerParams params_;
  PolicyPtr policy_;
  // collector_ is declared (and therefore initialised) before channel_:
  // the rng fork order "collector" then "actuation" is part of the seed
  // compatibility contract — reordering would reshuffle every stream.
  telemetry::Collector collector_;
  CappingEngine engine_;
  NodeController controller_;
  ActuationChannel channel_;
  ActuationReconciler reconciler_;
  hw::FailsafeWatchdog* watchdog_ = nullptr;
  std::size_t watchdog_group_ = 0;
  /// Steady-green sweep stride, green_collect_stride as given (no clamp
  /// against max_sample_age_cycles).
  std::int64_t collect_stride_ = 1;
  bool exact_telemetry_ = false;  ///< see exact_telemetry()
  /// Set by set_candidate_set, cleared by a reconciled build: scratch_ctx_
  /// does not yet hold the current candidate set, so no wait pass and no
  /// idle cycle.
  bool candidates_changed_ = true;
  common::ThreadPool* pool_ = nullptr;
  /// Per-slot records from the refill; persist across cycles so the
  /// steady state allocates nothing.
  mutable std::vector<ViewRecord> view_records_;
  /// Incremental mirror of the scheduler's running set; synced (O(churn))
  /// at the top of every context build. Mutable because assembly is
  /// logically const — the index is a cache of scheduler state. Assumes
  /// one shard observes one scheduler, as the tree guarantees.
  mutable JobIndex job_index_;
  /// Per-entry JobView staging for the job pass; compacted into ctx.jobs
  /// by swap so per-job node vectors keep their capacity on both sides.
  mutable std::vector<JobView> job_stage_;
  /// Reused across cycles by context_phase; holds its capacity.
  PolicyContext scratch_ctx_;
  /// Per-cycle scratch, reused: commands that reached hardware this cycle
  /// and the reconciler's outgoing work.
  std::vector<LevelCommand> delivered_scratch_;
  ActuationReconciler::CycleWork recon_work_;

  mutable ContextBuildStats build_stats_;
};

/// A null manager: monitors nothing, throttles nothing. The |A_candidate|=0
/// baseline every normalised figure divides by.
class NoCappingManager final : public PowerManagerBase {
 public:
  [[nodiscard]] std::string name() const override { return "none"; }
  ManagerReport cycle(Watts measured, std::vector<hw::Node>& nodes,
                      const sched::Scheduler& scheduler,
                      Seconds now) override;
};

}  // namespace pcap::power
