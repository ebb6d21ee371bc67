// The global power manager (§II, Figure 1).
//
// One instance runs on the management node. Each control cycle it:
//   1. runs its ControlRoot: the facility meter reading feeds the
//      threshold learner and the predictor and is classified into the
//      cycle's band (power/control_root.hpp),
//   2. collects samples from the candidate set's profiling agents,
//   3. (after training) runs Algorithm 1 in that band with the configured
//      target set selection policy, and
//   4. dispatches the resulting level commands to the node controllers.
//
// PowerManagerBase is the interface the cluster drives; the baselines
// library provides alternative implementations behind the same interface.
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
#include "power/control_root.hpp"
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

  // Telemetry health, this cycle. Zero on the steady-green fast path
  // (no context is built there — nothing was selected against).
  std::size_t stale_nodes = 0;       ///< views past the sample-age bound
  std::size_t missing_nodes = 0;     ///< candidates with no usable sample
  std::size_t fallback_nodes = 0;    ///< views on a substituted estimate
  std::size_t rejected_samples = 0;  ///< implausible samples skipped
  std::size_t skipped_targets = 0;   ///< policy targets the engine refused
  std::size_t deferred_targets = 0;  ///< targets passed over: command in flight

  // Actuation reconciliation, this cycle. Zero whenever no context was
  // built (steady green with nothing pending).
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

/// Registry bindings shared by every capping-style manager (the flat
/// CappingManager and the zone tree publish the same series, so
/// experiment extraction reads one schema whichever control plane ran).
/// Handles are preregistered by bind(), so publish() performs only array
/// stores; everything is inert until a registry is bound.
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
  /// `unresponsive_now` is the instantaneous reconciler tally (summed
  /// across shards by the zone tree).
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
  /// Steady-green telemetry stride: when the classified state is green and
  /// nothing is degraded, pending, unresponsive or in flight, the full
  /// agent sweep runs only every this many cycles (1 = sweep every cycle,
  /// the legacy cadence). Any cycle that will build a policy context
  /// collects first — the gate is evaluated before the sweep and can only
  /// shrink between then and the context build — so decisions never act
  /// across a strided gap, and max_sample_age_cycles never has to cover
  /// the stride: staleness only matters on deciding cycles, which always
  /// just collected. The meter (the classification input) is read every
  /// cycle regardless.
  std::int64_t green_collect_stride = 16;
  /// When set, A_candidate is recomputed dynamically (§III.A algorithm
  /// (c)) instead of being fixed by set_candidate_set().
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
  /// healthy path is byte-for-byte what it was without one. Under the
  /// zone tree the tree's root owns all windows; shards never read this.
  ControlFaultParams control;
  /// System-power forecasting. Disabled by default; when enabled the
  /// manager runs a PowerPredictor over the facility meter stream, stamps
  /// its forecast into every policy context, and lets forecast-driven
  /// policies act before P_L is crossed. refresh_cycles == 0 resolves to
  /// thresholds.adjust_period_cycles (the learner's t_p cadence).
  PredictionParams prediction;
  /// Incremental context plane: keep the policy context, per-slot view
  /// records and per-job aggregates alive across cycles and re-derive only
  /// what changed — telemetry deltas from the collector's change cursors,
  /// job churn from the JobIndex epoch, actuation state from the
  /// reconciler/watchdog watch set. Decisions, counters and exports are
  /// bit-identical to the full rebuild (`off` = rebuild every cycle, the
  /// A/B baseline); only reconciler observed-cycle stamps may lag, since a
  /// content-identical confirmation carries no new information.
  bool incremental_context = true;
};

/// The paper's architecture: candidate-set telemetry + threshold learning
/// + Algorithm 1 + a pluggable target selection policy.
class CappingManager final : public PowerManagerBase {
 public:
  CappingManager(CappingManagerParams params, PolicyPtr policy,
                 common::Rng rng);

  /// Constructor tag for a zone-tree shard: telemetry, context, selection
  /// and actuation only. A shard owns no ControlRoot — the tree's root
  /// learns, forecasts, classifies and draws every outage window for all
  /// zones — so params.thresholds, params.prediction and params.control
  /// are not read.
  struct ShardTag {};
  CappingManager(CappingManagerParams params, PolicyPtr policy,
                 common::Rng rng, ShardTag);

  [[nodiscard]] std::string name() const override;

  /// Defines A_candidate. Uncontrollable nodes are filtered out by the
  /// caller or tolerated here (their commands are no-ops), but monitoring
  /// them wastes management budget, so prefer passing controllable ids.
  void set_candidate_set(const std::vector<hw::NodeId>& ids);
  [[nodiscard]] const std::vector<hw::NodeId>& candidate_set() const {
    return collector_.candidate_set();
  }

  ManagerReport cycle(Watts measured, std::vector<hw::Node>& nodes,
                      const sched::Scheduler& scheduler,
                      Seconds now) override;

  /// Preregisters every manager series (counters, gauges, cycle-phase
  /// spans) in `reg`. ManagerReport and the trace CSV then become views
  /// over the values the registry accumulates — see DESIGN.md §11.
  void bind_metrics(obs::Registry& reg) override;

  /// The pool parallelises both the telemetry sweep and context assembly
  /// (sharded over candidate slots; see assemble_context). Results are
  /// bit-identical with or without it.
  void set_thread_pool(common::ThreadPool* pool) override {
    pool_ = pool;
    collector_.set_thread_pool(pool);
  }

  /// The learner, predictor and outage windows of this manager. A zone
  /// shard has none (the tree's root decides for it): std::logic_error.
  [[nodiscard]] const ControlRoot& root() const;
  [[nodiscard]] ControlRoot& root();
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

  /// How each reconciled context build chose its dirty set (lifetime
  /// totals; read-only builds are not counted). Lets tests and benches
  /// assert the delta plane actually engages instead of inferring it from
  /// wall time.
  struct IncrementalStats {
    std::uint64_t full_builds = 0;   ///< every slot dirty: O(candidates)
    std::uint64_t delta_builds = 0;  ///< dirty set from the scan (incl. no-ops)
    std::uint64_t noop_builds = 0;   ///< empty dirty set + unchanged jobs
    std::uint64_t dirty_slots = 0;   ///< Σ dirty slots over delta builds
  };
  [[nodiscard]] const IncrementalStats& incremental_stats() const {
    return inc_stats_;
  }

  /// Cluster-owned watchdog: this manager becomes group 0 and (re)groups
  /// the watchdog over its candidate set now and on every
  /// set_candidate_set.
  void set_watchdog(hw::FailsafeWatchdog* wd) override;
  /// Tree-driven variant: attach as group `group` without touching the
  /// watchdog's grouping (the zone tree owns the partition).
  void attach_watchdog(hw::FailsafeWatchdog* wd, std::size_t group);
  /// Any failsafe-changed levels in this manager's group still awaiting
  /// reconciler adoption? Forces a context build — adoption only happens
  /// through one.
  [[nodiscard]] bool watchdog_pending() const {
    return watchdog_ != nullptr &&
           watchdog_->adoption_pending_in_group(watchdog_group_);
  }

  /// Captures/restores the warm-restart state (root learner/predictor,
  /// engine, reconciler shadow tables, collector clock; a shard's image
  /// carries a default learner and no predictor). Restore into a freshly
  /// constructed manager AFTER set_candidate_set: policy scratch and the
  /// job index rebuild from the first context, and injector fault streams
  /// restart — the outside world does not rewind with the controller.
  [[nodiscard]] ShardCheckpoint checkpoint() const;
  void restore(const ShardCheckpoint& cp);

  /// Read-only context build from current telemetry and scheduler state,
  /// into `ctx` (its node/job buffers are reused). Public so tests and
  /// benchmarks can inspect the context and measure selection cost in
  /// isolation. It bypasses the reconciler and refills the per-slot
  /// records, so the next control cycle rebuilds its own context in full.
  void build_context_into(PolicyContext& ctx, Watts measured,
                          const std::vector<hw::Node>& nodes,
                          const sched::Scheduler& scheduler) const;

  // --- Shard phase API -------------------------------------------------
  // cycle() is expressed through these phases after its root decided the
  // band; the zone tree drives the same phases per shard against its own
  // root's band. Call order within one cycle: context_gate (once!) →
  // collect_phase → begin_actuation_phase → [apply_deliveries on the
  // training path | context_phase → select_phase → actuate_phase] →
  // add_shard_totals.

  /// The single context/collect gate: true when this cycle must build a
  /// policy context (and therefore must have collected first). Evaluate
  /// exactly ONCE per cycle, before begin_actuation_phase — that call
  /// processes reboots and delayed deliveries, which can shrink
  /// in_flight/pending state; re-evaluating after it can disagree with
  /// the collect decision made before it (collect skipped, context built
  /// on stale views).
  [[nodiscard]] bool context_gate(PowerState state) const {
    return state != PowerState::kGreen || !engine_.degraded().empty() ||
           reconciler_.pending_count() > 0 ||
           reconciler_.unresponsive_count() > 0 ||
           channel_.in_flight_count() > 0 || watchdog_pending();
  }

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

  /// Builds the persistent policy context through the reconciler and
  /// closes the observation window (retries/abandons into recon_work_).
  /// Fills the telemetry-health fields of `report`.
  void context_phase(const std::vector<hw::Node>& nodes,
                     const sched::Scheduler& scheduler, ManagerReport& report);

  /// Runs Algorithm 1 in `band` against the context built by
  /// context_phase. (system_power, p_low) become the context's P and P_L,
  /// so a yellow policy sheds ctx.required_saving(): the flat cycle passes
  /// the meter and the learned P_L, the zone tree passes (zone share, 0).
  [[nodiscard]] CycleDecision select_phase(PowerState band, Watts system_power,
                                           Watts p_low);

  /// Admits the decision through the reconciler, sends via the channel,
  /// applies everything delivered (mutates nodes — serialise across
  /// shards). Returns the number of level transitions applied.
  std::size_t actuate_phase(const CycleDecision& decision,
                            std::vector<hw::Node>& nodes);

  /// Training-path tail: applies only the channel's due deliveries (no
  /// new commands). Returns transitions applied.
  std::size_t apply_deliveries(std::vector<hw::Node>& nodes);

  /// Zero-decision non-green cycle (zone skipped by the tree): the green
  /// timer resets exactly as if a yellow/red decision had run.
  void note_non_green_cycle() { engine_.note_non_green_cycle(); }

  /// Adds this shard's part of the report: manager utilisation, the
  /// lifetime telemetry/actuation/reconciler totals and this cycle's
  /// reconciler work (acks, retries, divergences, heals). Cheap and valid
  /// on every path — training, steady green, dead cycles.
  void add_shard_totals(ManagerReport& report) const;

  /// The context select_phase decided against (persistent scratch).
  [[nodiscard]] const PolicyContext& context() const { return scratch_ctx_; }
  /// This cycle's reconciler work (valid after context_phase).
  [[nodiscard]] const ActuationReconciler::CycleWork& recon_work() const {
    return recon_work_;
  }
  [[nodiscard]] const CappingManagerParams& params() const { return params_; }

 private:
  CappingManager(CappingManagerParams params, PolicyPtr policy,
                 common::Rng rng, bool with_root);

  /// The outage path: the root reported the controller silent this cycle
  /// (`report` is its header). No heartbeat, no sweep, no decision — but
  /// hardware keeps moving (reboots, due deliveries land and stamp
  /// watchdog contacts) and the collector clock ticks so staleness stays
  /// well-defined.
  ManagerReport dead_cycle(ManagerReport report, std::vector<hw::Node>& nodes,
                           const sched::Scheduler& scheduler, Seconds now);

  /// Stamps watchdog contact for every command in delivered_scratch_ —
  /// a delivery is the one controller signal a node can see directly.
  void stamp_delivery_contacts();

  /// The one context-build routine. When `rec` is non-null, each fresh
  /// node view is fed through the reconciler (acks/divergences/heals into
  /// `work`), in-flight commands mark their views, and the safe-side power
  /// accounting is applied; build_context_into passes nullptr for a
  /// read-only build.
  ///
  /// Steps: (1) decide the dirty slot set — every slot for a full build
  /// (no valid persisted state, incremental_context off, or a read-only
  /// build), otherwise the slots whose view may have moved since the last
  /// build; (2) refill the dirty slots' ViewRecords in parallel from
  /// strictly per-node inputs; (3) a serial merge in candidate order
  /// applies everything order-sensitive (reconciler mutation, tallies,
  /// safe-side pending accounting) — in place, or as a compaction over all
  /// slots when the build is full or a slot entered or left the context;
  /// (4) refresh the job views fed by dirty slots through the node -> job
  /// CSR, or run the whole job pass when the build compacted or jobs
  /// churned. Output is bit-identical across worker counts and between
  /// full and incremental builds.
  void assemble_context(PolicyContext& ctx,
                        const std::vector<hw::Node>& nodes,
                        const sched::Scheduler& scheduler,
                        ActuationReconciler* rec,
                        ActuationReconciler::CycleWork* work) const;

  /// One candidate slot's output from the sharded assembly pass.
  struct ViewRecord {
    enum class Status : std::uint8_t {
      kMissing,              ///< no plausible sample in the window
      kMissingUnresponsive,  ///< ditto, and the node is abandoned
      kExcludedUnresponsive, ///< abandoned and stale: out of the context
      kOk,
    };
    NodeView view;                  ///< valid only when status == kOk
    std::uint64_t sample_cycle = 0; ///< cycle stamp of the chosen sample
    std::uint32_t rejected = 0;     ///< implausible samples skipped
    Status status = Status::kMissing;
    bool substituted = false;  ///< fresh only after skipping corrupt ones
  };

  /// Refill body for one slot: derives view_records_[slot] from strictly
  /// per-node inputs.
  void fill_view_record(std::size_t slot,
                        const std::vector<hw::NodeId>& candidates,
                        const std::vector<hw::Node>& nodes,
                        const ActuationReconciler* rec,
                        std::uint64_t now_cycle, std::uint64_t max_age) const;

  /// Adds (or, with `retract`, removes) one record's contribution to the
  /// context's integer health tallies.
  static void tally_record(PolicyContext& ctx, const ViewRecord& vr,
                           bool retract);

  /// The per-slot merge rule: tallies the record, runs the reconciler on
  /// a fresh view (adopt a failsafe level awaiting adoption, otherwise
  /// observe), applies the pending-command safe-side accounting and
  /// derives inc_degraded_[slot]. Returns false when the slot has no
  /// context view; otherwise `nv` is the view to place. `rec` may be null
  /// (read-only build): no observation and no pending accounting.
  bool merge_slot(std::size_t slot, PolicyContext& ctx,
                  const std::vector<hw::Node>& nodes, ActuationReconciler* rec,
                  ActuationReconciler::CycleWork* work,
                  std::uint64_t now_cycle, NodeView& nv) const;

  /// The whole job pass: every job entry (parallel stage + serial
  /// compaction), recording entry -> ctx.jobs positions.
  void job_pass_full(PolicyContext& ctx) const;

  /// Computes one entry's JobView against the current ctx.nodes — the
  /// arithmetic of both the whole job pass and the CSR refresh.
  static void fill_job_view(const JobIndex::Entry& e, const PolicyContext& ctx,
                            JobView& jv);

  /// Rebuilds the node-id -> job-entry CSR used to map dirty slots to the
  /// job views they feed.
  void rebuild_job_csr() const;

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
  /// Empty on zone-tree shards. Emplaced in the constructor body: its rng
  /// fork ("control") comes strictly after "collector" and "actuation", so
  /// the control-fault stream never perturbs either existing one.
  std::optional<ControlRoot> root_;
  hw::FailsafeWatchdog* watchdog_ = nullptr;
  std::size_t watchdog_group_ = 0;
  /// True when this manager owns the watchdog's grouping (flat mode);
  /// false when the zone tree partitioned it and shards merely attach.
  bool owns_watchdog_groups_ = false;
  std::optional<CandidateSelector> selector_;
  /// Effective steady-green sweep stride (param clamped against the
  /// staleness bound at construction).
  std::int64_t collect_stride_ = 1;
  common::ThreadPool* pool_ = nullptr;
  ManagerMetrics metrics_;
  /// Per-slot records from the refill; persist across cycles so clean
  /// slots keep theirs and the steady state allocates nothing.
  mutable std::vector<ViewRecord> view_records_;
  /// Incremental mirror of the scheduler's running set; synced (O(churn))
  /// at the top of every context build. Mutable because assembly is
  /// logically const — the index is a cache of scheduler state. Assumes
  /// one manager observes one scheduler, as cycle() guarantees.
  mutable JobIndex job_index_;
  /// Per-entry JobView staging for the job pass; compacted into ctx.jobs
  /// by swap so per-job node vectors keep their capacity on both sides.
  mutable std::vector<JobView> job_stage_;
  /// Reused across cycles by cycle(); holds its capacity.
  PolicyContext scratch_ctx_;
  /// Per-cycle scratch, reused: commands that reached hardware this cycle
  /// and the reconciler's outgoing work.
  std::vector<LevelCommand> delivered_scratch_;
  ActuationReconciler::CycleWork recon_work_;

  // --- Incremental context plane (params_.incremental_context) ---------
  // Valid only between reconciled builds of the persistent scratch_ctx_;
  // a read-only build or any structural change (candidate churn, warm
  // restart) drops inc_valid_ and the next build is a full one.
  static constexpr std::uint32_t kNoPos = 0xffffffffu;
  mutable bool inc_valid_ = false;
  mutable std::uint64_t inc_build_cycle_ = 0;  ///< collector cycle of last build
  mutable std::uint64_t inc_job_epoch_ = 0;    ///< JobIndex epoch of last build
  /// Slot -> ctx.nodes index; kNoPos when the slot has no view.
  mutable std::vector<std::uint32_t> inc_pos_;
  /// Slot's record was not clean-and-fresh at the last build (missing,
  /// unresponsive, stale, substituted, rejected deliveries, or carrying
  /// in-flight inflation): must be re-derived even without a telemetry
  /// content change, because its view depends on state that moves with
  /// the clock.
  mutable std::vector<std::uint8_t> inc_degraded_;
  mutable std::vector<std::uint32_t> inc_dirty_;        ///< scratch: dirty slots
  mutable std::vector<std::uint32_t> inc_job_pos_;  ///< entry -> ctx.jobs index
  /// Node id -> csr offset, over the candidates' id span plus one.
  mutable common::IdTable<std::uint32_t> inc_csr_off_;
  mutable std::vector<std::uint32_t> inc_csr_;      ///< job-entry indices
  mutable std::vector<std::uint8_t> inc_job_dirty_; ///< scratch, per entry
  mutable JobView inc_job_scratch_;
  mutable IncrementalStats inc_stats_;
  /// Reconciler + watchdog watch set handed to the collector pre-sweep.
  std::vector<hw::NodeId> watch_scratch_;
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
