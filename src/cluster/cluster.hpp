// The cluster façade: nodes + scheduler + workload engine + power manager,
// stepped on the discrete-event kernel.
//
// Every tick (the sampling interval τ, default 1 s) the cluster:
//   1. applies deferred workload events from the previous tick (phase
//      changes, retirements, actuation-plane level changes),
//   2. keeps the job queue non-empty (the paper's arrival rule) or feeds a
//      recorded trace, and launches queued jobs onto free nodes,
//   3. advances job progress at each job's cached bottleneck rate,
//   4. refreshes the *due* nodes — the utilisation staircase grid plus
//      anything an event touched — analytically fast-forwarding ramp,
//      OU noise and RC thermal state across the skipped ticks,
//   5. folds the accounted-power ledger and reads the facility meter, and
//   6. runs one control cycle of the installed power manager.
//
// Hot per-node state lives in a structure-of-arrays pool (hw::NodeStatePool);
// hw::Node is a view. Steady-state ticks cost O(due set), not O(N): a node
// whose job sits in a long phase is touched only on its staircase slot
// (every util_refresh_ticks ticks), and — with noise disabled — not at all
// once its ramp converges. Serial, parallel, event-driven and full-scan
// modes produce bit-identical trajectories; see DESIGN.md.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "hw/node.hpp"
#include "hw/node_pool.hpp"
#include "hw/power_meter.hpp"
#include "hw/watchdog.hpp"
#include "interconnect/interconnect.hpp"
#include "metrics/performance.hpp"
#include "metrics/trace_recorder.hpp"
#include "obs/registry.hpp"
#include "obs/spans.hpp"
#include "power/manager.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulation.hpp"
#include "workload/job_generator.hpp"
#include "workload/trace.hpp"

namespace pcap::cluster {

struct ClusterConfig {
  /// Node population: `num_nodes` copies of `spec`, or an explicit
  /// per-node list in `node_specs` (which wins when non-empty).
  std::size_t num_nodes = 128;
  hw::NodeSpecPtr spec;  ///< defaults to tianhe1a_node_spec() when null
  std::vector<hw::NodeSpecPtr> node_specs;

  Seconds tick{1.0};  ///< simulation step / meter sampling interval
  /// Leaf-switch uplink contention (disabled by default; the paper's
  /// evaluation numbers are calibrated without it).
  interconnect::InterconnectParams interconnect;
  /// Control cycle period: the manager collects, classifies and actuates
  /// once per control period (a multiple of tick). A few seconds matches
  /// a real central manager sweeping /proc on hundreds of nodes, and sets
  /// the τ over which change-based policies compute ΔP.
  Seconds control_period{4.0};
  hw::PowerMeterParams meter;
  sched::SchedulerOptions scheduler;
  /// Node-local failsafe: after this many silent control cycles a node
  /// autonomously steps down to the safe level (0 = disabled). The cluster
  /// owns the watchdog and ticks it once per control cycle, right after
  /// the manager; the manager feeds it heartbeats/contacts and absorbs
  /// its level changes through the reconciler's adoption path.
  hw::WatchdogParams watchdog;

  /// OU noise on per-node CPU utilisation (stationary sigma / relaxation).
  /// Applied to busy nodes only: it models workload-phase fluctuation, and
  /// a noise band on an idle node's ~2 % utilisation is unphysical (it
  /// clips at zero). Idle nodes converge to idle_utilization and quiesce.
  double utilization_noise_sigma = 0.02;
  double utilization_noise_tau_s = 30.0;
  /// Idle nodes hover at this mean utilisation.
  double idle_utilization = 0.02;
  /// Phase-transition ramp: node utilisation approaches its phase target
  /// with this time constant (seconds). Models the fact that thousands of
  /// MPI ranks do not switch phases within one sampling interval, so
  /// system power ramps rather than steps — which is what gives the
  /// 1 Hz control loop its reaction window. 0 disables ramping.
  double utilization_ramp_tau_s = 45.0;

  /// Utilisation staircase period R: each node's ramp + OU noise are
  /// re-evaluated every R ticks (64-node blocks rotate through the grid,
  /// so ~N/R nodes refresh per tick). The closed-form k-step ramp and the
  /// exact k-step OU transition make the staircase a coarser *sampling* of
  /// the same process, not a different one. 1 restores per-tick refresh.
  /// 16 keeps the staircase well inside the 4 s default control period's
  /// effective sampling (the manager reads the meter, not the per-node
  /// signals) while quartering the sweep cost versus per-4-tick refresh.
  std::int64_t util_refresh_ticks = 16;
  /// Once |smoothed - target| falls below this, the ramp snaps to its
  /// target; with noise disabled the node then quiesces entirely (drops
  /// out of the staircase grid) until the next install wakes it.
  double util_snap_eps = 1e-4;
  /// Event-driven refresh (default): build the due set from the staircase
  /// grid + wake events. false = reference mode: scan all N nodes per tick
  /// applying identical per-node predicates — same results, no skipping —
  /// used by the determinism A/B gate in CI.
  bool event_driven_ticks = true;

  std::uint64_t seed = 42;

  /// Worker threads for intra-tick node/job sweeps: 0 = hardware
  /// concurrency, 1 = fully serial (no pool is ever created). Results are
  /// bit-identical for every setting: all randomness is drawn from
  /// per-node streams and every reduction runs serially in index order.
  std::size_t worker_threads = 0;
  /// Clusters below this node count never create a pool, and sweeps over
  /// fewer indices than this run inline even when a pool exists — fan-out
  /// overhead beats the win on small populations (BENCH_tick.json: the
  /// pool still loses at 1024 nodes on one core; aligned with the
  /// collector's parallel_threshold).
  std::size_t parallel_node_threshold = 2048;
  /// Indices per pool chunk in a parallel sweep.
  std::size_t parallel_grain = 256;

  /// Paper arrival rule: submit a fresh random job whenever the queue is
  /// empty. When false, jobs come only from submit()/a trace.
  bool auto_generate_jobs = true;
  workload::NpbClass npb_class = workload::NpbClass::kD;
  /// Fraction of generated jobs marked privileged (§II.A): their nodes
  /// are excluded from A_candidate by the dynamic candidate selector.
  double privileged_job_fraction = 0.0;
  /// Override the generated application mix (empty = the paper's five
  /// NPB benchmarks). npb_extended_suite() adds MG/FT/IS.
  std::vector<workload::AppModel> app_suite;

  /// Gates the wall-clock cycle-phase span timers (obs/spans.hpp). Off,
  /// the registry still accumulates every deterministic counter/gauge but
  /// tick/cycle scopes skip their clock reads — the configuration the
  /// bench uses to price the instrumentation.
  bool obs_timing = true;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  /// Installs the power manager (defaults to NoCappingManager). The
  /// cluster owns it.
  void set_manager(std::unique_ptr<power::PowerManagerBase> manager);
  [[nodiscard]] power::PowerManagerBase& manager() { return *manager_; }

  /// Submits an externally created job (used by trace replay).
  void submit(workload::Job job);
  /// Loads a whole trace; entries are submitted at their recorded times.
  void load_trace(const workload::WorkloadTrace& trace);

  /// Advances simulated time by `duration` (must be a multiple of tick).
  void run(Seconds duration);

  // -- state ------------------------------------------------------------------
  [[nodiscard]] Seconds now() const { return sim_.now(); }
  [[nodiscard]] const std::vector<hw::Node>& nodes() const { return nodes_; }
  [[nodiscard]] std::vector<hw::Node>& nodes() { return nodes_; }
  [[nodiscard]] const sched::Scheduler& scheduler() const { return *sched_; }
  [[nodiscard]] const ClusterConfig& config() const { return config_; }

  /// Wall-socket power at the last tick.
  [[nodiscard]] Watts last_power() const { return last_power_; }
  /// Report from the manager's last control cycle.
  [[nodiscard]] const power::ManagerReport& last_report() const {
    return last_report_;
  }

  /// All controllable node ids (the natural A_candidate pool).
  [[nodiscard]] std::vector<hw::NodeId> controllable_nodes() const;

  /// Sum over nodes of per-node theoretical maxima (P_thy, §II.D) at the
  /// wall socket.
  [[nodiscard]] Watts theoretical_peak() const;

  /// Per-node delivered traffic fractions from the last tick (all 1.0
  /// when interconnect contention is disabled).
  [[nodiscard]] const std::vector<double>& last_delivered_fractions() const {
    return delivered_;
  }

  /// The SoA pool backing every node's hot state; exposed for tests and
  /// benchmarks that assert on pool-level invariants.
  [[nodiscard]] const hw::NodeStatePool& node_pool() const {
    return *node_pool_;
  }

  /// The node-local failsafe watchdog (always constructed; inert unless
  /// config.watchdog.timeout_cycles > 0).
  [[nodiscard]] const hw::FailsafeWatchdog& watchdog() const {
    return *watchdog_;
  }

  /// The worker pool driving intra-tick sweeps — shared with the manager's
  /// telemetry collector, and available to callers running their own
  /// cluster-level sweeps. nullptr when the cluster runs serial (small
  /// population or worker_threads == 1).
  [[nodiscard]] common::ThreadPool* thread_pool() const {
    return pool_.get();
  }

  // -- measurement ------------------------------------------------------------
  /// Starts/stops recording per-cycle points and finished-job records.
  void start_recording();
  [[nodiscard]] const metrics::TraceRecorder& recorder() const;
  [[nodiscard]] const std::vector<metrics::JobRecord>& finished_records()
      const {
    return finished_records_;
  }

  /// Record of jobs generated so far (submit time/app/nprocs) — exportable
  /// as a workload trace for replay experiments.
  [[nodiscard]] const workload::WorkloadTrace& generated_trace() const {
    return generated_trace_;
  }

  /// The cluster-owned metrics registry: engine + cluster + manager series
  /// all live here. Frozen at the first tick, so install managers first.
  /// Export with metrics().prometheus_text() / metrics().json_snapshot().
  [[nodiscard]] obs::Registry& metrics() { return metrics_; }
  [[nodiscard]] const obs::Registry& metrics() const { return metrics_; }

 private:
  /// Per-node device-usage target, rewritten only when an install event
  /// (launch, phase change, retirement) lands on the node.
  struct UsageTarget {
    double cpu = 0.0;
    double mem_fraction = 0.02;
    double nic_bytes = 0.0;
    bool busy = false;
  };

  static constexpr std::uint32_t kNoJob = 0xffffffffu;
  /// Nodes per staircase block; blocks rotate through the refresh grid so
  /// the due set stays cache-linear runs of 64 slots.
  static constexpr std::size_t kBlock = 64;

  void tick();
  void ensure_queue_nonempty();

  // -- tick stages (see tick() for ordering rationale) -----------------------
  void drain_level_changes();
  void drain_pending_installs(std::int64_t tk, double now_s);
  void launch_jobs(Seconds now, std::int64_t tk);
  void advance_jobs(Seconds now, Seconds dt);
  void retire_finished();
  void build_due_set(std::int64_t tk);
  void refresh_due_nodes(std::int64_t tk, double now_s, double dt_s);

  /// Re-points node `i` at its owner's current phase (or idle), after
  /// fast-forwarding ramp/noise through tick tk-1 under the *old* target
  /// and temperature through the previous tick boundary under the old
  /// power — the new target only shapes ticks >= tk, exactly as if every
  /// tick had been stepped. Wakes the node (staircase + forced list).
  void install_target(std::size_t i, std::int64_t tk, double now_s);
  /// Closed-form staircase step: k = tk - last_refresh ramp steps at once
  /// plus one exact k-step OU transition, writing the pool utilisation.
  void advance_util_to(std::size_t i, std::int64_t tk);

  ClusterConfig config_;
  common::Rng rng_;
  sim::Simulation sim_;
  /// SoA storage for all hot per-node state; nodes_ are views into it.
  /// Declared before nodes_ so the views never dangle.
  std::unique_ptr<hw::NodeStatePool> node_pool_;
  std::vector<hw::Node> nodes_;
  std::vector<common::OrnsteinUhlenbeck> util_noise_;
  std::vector<double> smoothed_util_;
  std::vector<double> delivered_;
  /// One independent noise stream per node (root fork "util-noise",
  /// child = stream(node id)): draws are a pure function of (seed, node,
  /// refresh history), never of sweep order or worker count — the
  /// precondition for parallel and event-driven ticks alike.
  std::vector<common::Rng> noise_rngs_;
  std::unique_ptr<common::ThreadPool> pool_;
  std::unique_ptr<sched::Scheduler> sched_;
  std::unique_ptr<interconnect::Interconnect> fabric_;
  std::optional<workload::JobGenerator> generator_;
  hw::SystemPowerMeter meter_;
  /// Declared before manager_: managers hold a raw pointer into it.
  std::unique_ptr<hw::FailsafeWatchdog> watchdog_;
  std::unique_ptr<power::PowerManagerBase> manager_;

  // -- per-node event/staircase state ----------------------------------------
  std::vector<UsageTarget> targets_;
  std::vector<double> offered_;
  /// Last tick (0-based) node i's utilisation was refreshed at; -1 before
  /// the first. The staircase guarantees gaps of at most R ticks while a
  /// node is awake, which bounds the ramp power table.
  std::vector<std::int64_t> last_refresh_tick_;
  /// 0 = quiescent (converged, noiseless), 1 = on the staircase grid,
  /// 2 = transient deactivate request from the parallel refresh shards,
  /// committed (and counted out of block_active_) by the serial fold.
  std::vector<std::uint8_t> util_active_;
  /// Awake-node count per kBlock slots: a due block with count 0 is
  /// skipped whole — the O(active) part of the event-driven claim.
  std::vector<std::uint32_t> block_active_;
  /// bit0: utilisation install forced this tick; bit1: power-only wake
  /// (DVFS level moved). Either bit puts the node in the due set.
  std::vector<std::uint8_t> forced_mark_;
  std::vector<std::uint32_t> forced_list_;
  std::vector<std::uint32_t> due_scratch_;
  /// Nodes whose install takes effect next tick (phase changes and
  /// retirements detected this tick — the legacy sweep also applied a new
  /// phase's targets one tick after the crossing).
  std::vector<std::uint32_t> pending_installs_;
  /// Running-slot of the job occupying each node (kNoJob when idle) and
  /// the MPI ranks placed there (NIC traffic scales with it).
  std::vector<std::uint32_t> owner_slot_;
  std::vector<double> node_procs_;
  /// d^k for the ramp decay d = exp(-tick/ramp_tau), k in [0, R].
  std::vector<double> ramp_decay_pow_;
  /// Exact OU k-step coefficients for k in [0, R] (index 0 unused): the
  /// staircase bounds awake gaps at R ticks, so every hot-path transition
  /// hits this table instead of recomputing exp/sqrt per node.
  std::vector<common::OrnsteinUhlenbeck::StepCoeffs> ou_step_;

  /// Block partial-sum ledger over per-node true power: leaves are the
  /// accounted power, total() is the meter's IT-side input. Pure function
  /// of the leaves — identical across modes and worker counts.
  hw::PowerSumTree accounted_;

  // -- per-running-job state (aligned with scheduler running order) ----------
  std::vector<workload::Job*> jobs_scratch_;
  std::vector<const workload::Phase*> phases_scratch_;
  std::vector<double> job_power_w_;    ///< Σ accounted leaves over members
  std::vector<double> job_energy_acc_; ///< ∫ job_power dt, flushed at retire
  std::vector<double> job_rate_;       ///< cached bottleneck progress rate
  std::vector<std::uint8_t> job_rate_dirty_;
  std::vector<unsigned char> job_done_;
  std::vector<workload::JobId> finished_scratch_;
  std::vector<double> finished_energy_scratch_;

  Watts last_power_{0.0};
  power::ManagerReport last_report_;
  std::uint64_t ticks_ = 0;
  std::uint64_t control_every_ = 1;
  std::int64_t refresh_every_ = 8;
  bool noise_on_ = true;
  bool fabric_enabled_ = false;
  std::size_t last_refreshed_ = 0;

  /// Owned registry plus the cluster's own series; managers bind into the
  /// same registry via set_manager.
  obs::Registry metrics_;
  obs::GaugeHandle power_gauge_;
  obs::GaugeHandle running_gauge_;
  obs::GaugeHandle queued_gauge_;
  obs::GaugeHandle pool_depth_gauge_;
  obs::GaugeHandle refreshed_gauge_;
  obs::GaugeHandle watchdog_engaged_gauge_;
  obs::GaugeHandle watchdog_pending_gauge_;
  obs::CounterHandle watchdog_engagements_counter_;
  obs::CounterHandle watchdog_transitions_counter_;
  obs::CounterHandle ticks_counter_;
  obs::CounterHandle jobs_finished_counter_;
  obs::CounterHandle node_refreshes_counter_;
  obs::SpanTimer tick_span_;
  obs::SpanTimer node_sweep_span_;
  obs::SpanTimer launch_span_;
  obs::SpanTimer jobs_span_;

  bool recording_ = false;
  std::unique_ptr<metrics::TraceRecorder> recorder_;
  std::vector<metrics::JobRecord> finished_records_;
  workload::WorkloadTrace generated_trace_;
};

}  // namespace pcap::cluster
