#include "cluster/cluster.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "hw/node_spec.hpp"
#include "workload/phase.hpp"

namespace pcap::cluster {

using workload::Job;
using workload::JobId;
using workload::JobState;

Cluster::Cluster(ClusterConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      meter_(config_.meter, rng_.fork("meter")),
      watchdog_(std::make_unique<hw::FailsafeWatchdog>(config_.watchdog)),
      manager_(std::make_unique<power::NoCappingManager>()) {
  if (config_.tick <= Seconds{0.0}) {
    throw std::invalid_argument("Cluster: non-positive tick");
  }
  if (config_.control_period < config_.tick) {
    throw std::invalid_argument("Cluster: control period shorter than tick");
  }
  if (config_.util_refresh_ticks < 1) {
    throw std::invalid_argument("Cluster: util_refresh_ticks must be >= 1");
  }
  if (config_.util_snap_eps < 0.0) {
    throw std::invalid_argument("Cluster: negative util_snap_eps");
  }
  if (config_.parallel_grain == 0) config_.parallel_grain = 1;
  control_every_ = static_cast<std::uint64_t>(
      std::llround(config_.control_period.value() / config_.tick.value()));
  if (control_every_ == 0) control_every_ = 1;
  refresh_every_ = config_.util_refresh_ticks;
  noise_on_ = config_.utilization_noise_sigma > 0.0;
  fabric_enabled_ = config_.interconnect.enabled;

  // Build the node population: SoA pool first, then the Node views.
  std::vector<hw::NodeSpecPtr> specs = config_.node_specs;
  if (specs.empty()) {
    const hw::NodeSpecPtr spec =
        config_.spec ? config_.spec : hw::tianhe1a_node_spec();
    specs.assign(config_.num_nodes, spec);
  }
  if (specs.empty()) throw std::invalid_argument("Cluster: no nodes");
  const std::size_t n = specs.size();
  node_pool_ = std::make_unique<hw::NodeStatePool>(n);
  node_pool_->enable_change_tracking();
  common::Rng variation_rng = rng_.fork("variation");
  common::Rng noise_root = rng_.fork("util-noise");
  nodes_.reserve(n);
  util_noise_.reserve(n);
  smoothed_util_.reserve(n);
  noise_rngs_.reserve(n);
  std::vector<int> cores;
  cores.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes_.emplace_back(static_cast<hw::NodeId>(i), specs[i], node_pool_.get(),
                        static_cast<std::uint32_t>(i), &variation_rng);
    cores.push_back(specs[i]->total_cores());
    util_noise_.emplace_back(0.0, config_.utilization_noise_sigma,
                             config_.utilization_noise_tau_s, 0.0);
    smoothed_util_.push_back(config_.idle_utilization);
    noise_rngs_.push_back(noise_root.stream(i));
  }

  // Sweep pool: only populations worth fanning out ever spawn workers.
  if (config_.worker_threads != 1 && n >= config_.parallel_node_threshold) {
    pool_ = std::make_unique<common::ThreadPool>(config_.worker_threads);
  }
  manager_->set_thread_pool(pool_.get());

  sched_ = std::make_unique<sched::Scheduler>(cores, config_.scheduler,
                                              rng_.fork("alloc"));
  fabric_ = std::make_unique<interconnect::Interconnect>(config_.interconnect,
                                                         n);
  delivered_.assign(n, 1.0);
  offered_.assign(n, 0.0);
  last_refresh_tick_.assign(n, -1);
  util_active_.assign(n, 1);
  block_active_.assign((n + kBlock - 1) / kBlock, 0);
  for (std::size_t i = 0; i < n; ++i) ++block_active_[i / kBlock];
  forced_mark_.assign(n, 0);
  owner_slot_.assign(n, kNoJob);
  node_procs_.assign(n, 0.0);
  accounted_.reset(n);

  // Ramp decay table: d^k for k staircase steps at once. ramp_tau <= 0
  // means "snap within one tick" (legacy ramp = 1), i.e. d = 0 — with
  // d^0 = 1 pinned so a zero-step advance is the identity.
  const double d =
      config_.utilization_ramp_tau_s > 0.0
          ? std::exp(-config_.tick.value() / config_.utilization_ramp_tau_s)
          : 0.0;
  ramp_decay_pow_.assign(static_cast<std::size_t>(refresh_every_) + 1, 1.0);
  for (std::size_t k = 1; k < ramp_decay_pow_.size(); ++k) {
    ramp_decay_pow_[k] = ramp_decay_pow_[k - 1] * d;
  }

  // OU k-step coefficient table (every process shares sigma/tau, so one
  // table serves all nodes). A staircase gap can only exceed R while a
  // node is quiescent, which requires noise off — so with noise on, every
  // transition is a table hit; advance_util_to still falls back to the
  // exact step() for defensive completeness.
  if (noise_on_ && !util_noise_.empty()) {
    ou_step_.resize(static_cast<std::size_t>(refresh_every_) + 1);
    for (std::size_t k = 1; k < ou_step_.size(); ++k) {
      ou_step_[k] = util_noise_[0].coeffs(static_cast<double>(k) *
                                          config_.tick.value());
    }
  }

  // Initial operating state: every node idles at the construction instant.
  // The first staircase rotation (within R ticks) layers ramp + noise on
  // top; until then the ledger carries this clean idle draw.
  targets_.assign(n, UsageTarget{});
  for (std::size_t i = 0; i < n; ++i) {
    targets_[i].cpu = config_.idle_utilization;
    const hw::NodeSpec& spec = *specs[i];
    node_pool_->set_static_op(i, spec.mem_total.value() * 0.02, 0.0,
                              config_.tick.value(), spec.nic_bandwidth);
    node_pool_->set_cpu_utilization(i, config_.idle_utilization);
    accounted_.set_leaf(i, node_pool_->true_power(i).value());
  }

  if (config_.auto_generate_jobs) {
    if (config_.app_suite.empty()) {
      generator_ = workload::JobGenerator::paper_default(
          rng_.fork("jobs"), sched_->max_job_width(), config_.npb_class,
          config_.privileged_job_fraction);
    } else {
      generator_ = workload::JobGenerator(
          config_.app_suite, workload::npb_nprocs_choices(),
          rng_.fork("jobs"), sched_->max_job_width(),
          config_.privileged_job_fraction);
    }
  }

  // Observability: the cluster owns the registry; the engine publishes
  // into it, managers bind into it (set_manager), and it freezes at the
  // first tick so no series creation ever reaches the hot path.
  metrics_.set_timing_enabled(config_.obs_timing);
  sim_.attach_metrics(metrics_);
  power_gauge_ = metrics_.gauge("pcap_cluster_power_watts",
                                "Wall-socket power at the last tick");
  running_gauge_ = metrics_.gauge("pcap_cluster_running_jobs",
                                  "Jobs currently running");
  queued_gauge_ = metrics_.gauge("pcap_cluster_queued_jobs",
                                 "Jobs waiting in the queue");
  pool_depth_gauge_ = metrics_.gauge("pcap_pool_queue_depth",
                                     "Worker-pool tasks queued at tick end");
  refreshed_gauge_ =
      metrics_.gauge("pcap_cluster_nodes_refreshed",
                     "Due-set size of the last tick's refresh pass");
  watchdog_engaged_gauge_ =
      metrics_.gauge("pcap_watchdog_engaged_nodes",
                     "Nodes currently holding their failsafe level");
  watchdog_pending_gauge_ =
      metrics_.gauge("pcap_watchdog_pending_adoptions",
                     "Failsafe level changes the controller has not yet "
                     "adopted");
  watchdog_engagements_counter_ =
      metrics_.counter("pcap_watchdog_engagements_total",
                       "Nodes that entered failsafe after controller silence");
  watchdog_transitions_counter_ =
      metrics_.counter("pcap_watchdog_failsafe_transitions_total",
                       "DVFS steps applied autonomously by node watchdogs");
  ticks_counter_ = metrics_.counter("pcap_cluster_ticks_total",
                                    "Simulation ticks executed");
  jobs_finished_counter_ = metrics_.counter("pcap_cluster_jobs_finished_total",
                                            "Jobs run to completion");
  node_refreshes_counter_ =
      metrics_.counter("pcap_cluster_node_refreshes_total",
                       "Node refresh evaluations (due-set visits)");
  const std::string span = "pcap_cycle_phase_seconds";
  const std::string span_help = "Wall-clock time per control-loop phase";
  tick_span_.bind(metrics_, span, span_help, "phase=\"tick\"");
  node_sweep_span_.bind(metrics_, span, span_help, "phase=\"node_sweep\"");
  launch_span_.bind(metrics_, span, span_help, "phase=\"launch\"");
  jobs_span_.bind(metrics_, span, span_help, "phase=\"jobs\"");
  manager_->bind_metrics(metrics_);
  manager_->set_watchdog(watchdog_.get());

  // The per-tick process drives everything.
  sim_.every(config_.tick, config_.tick, [this](Seconds) { tick(); });
}

void Cluster::set_manager(std::unique_ptr<power::PowerManagerBase> manager) {
  if (!manager) throw std::invalid_argument("Cluster: null manager");
  manager_ = std::move(manager);
  manager_->set_thread_pool(pool_.get());
  // Registration is idempotent per key, so re-installing the same manager
  // type against the (possibly frozen) registry reuses the existing slots;
  // only a new manager type after the first tick would add series, and
  // the freeze turns that into a loud error rather than a hot-path alloc.
  manager_->bind_metrics(metrics_);
  manager_->set_watchdog(watchdog_.get());
}

void Cluster::submit(Job job) {
  generated_trace_.add(workload::TraceEntry{
      .submit_time_s = job.submit_time().value(),
      .app_name = job.app().name,
      .nprocs = job.nprocs()});
  sched_->submit(std::move(job));
}

void Cluster::load_trace(const workload::WorkloadTrace& trace) {
  for (Job& job : trace.materialize(config_.npb_class)) {
    const Seconds at = job.submit_time();
    auto shared = std::make_shared<Job>(std::move(job));
    sim_.schedule_at(at, [this, shared]() mutable {
      submit(std::move(*shared));
    });
  }
}

void Cluster::run(Seconds duration) {
  sim_.run_until(sim_.now() + duration);
}

std::vector<hw::NodeId> Cluster::controllable_nodes() const {
  std::vector<hw::NodeId> out;
  for (const hw::Node& n : nodes_) {
    if (n.controllable()) out.push_back(n.id());
  }
  return out;
}

Watts Cluster::theoretical_peak() const {
  Watts total{0.0};
  for (const hw::Node& n : nodes_) {
    total += n.spec().power_model.theoretical_max();
  }
  return total / config_.meter.psu_efficiency;
}

void Cluster::start_recording() {
  recording_ = true;
  if (!recorder_) {
    recorder_ = std::make_unique<metrics::TraceRecorder>(config_.tick);
  }
}

const metrics::TraceRecorder& Cluster::recorder() const {
  if (!recorder_) throw std::logic_error("Cluster: recording never started");
  return *recorder_;
}

void Cluster::ensure_queue_nonempty() {
  if (!generator_) return;
  // "An evaluation job is added to the job queue whenever the queue is
  // empty" (§V.C).
  if (sched_->queue_length() == 0) {
    submit(generator_->next(sim_.now()));
  }
}

void Cluster::advance_util_to(std::size_t i, std::int64_t tk) {
  const std::int64_t k = tk - last_refresh_tick_[i];
  if (k <= 0) return;
  last_refresh_tick_[i] = tk;
  const double target = targets_[i].cpu;
  double s = smoothed_util_[i];
  if (s != target) {
    // k > R only happens when reinstalling a quiescent node, and a node
    // only quiesces converged (s == target) — so this clamp never touches
    // a live trajectory.
    const auto ki = static_cast<std::size_t>(
        std::min<std::int64_t>(k, refresh_every_));
    s = target + (s - target) * ramp_decay_pow_[ki];
    if (std::abs(s - target) <= config_.util_snap_eps) s = target;
    smoothed_util_[i] = s;
  }
  double u = s;
  if (noise_on_ && targets_[i].busy) {
    // One exact k-step OU transition — same law as k per-tick steps,
    // drawn from node i's own stream, so the draw count depends only on
    // this node's refresh history, never on sweep order or mode. Noise
    // rides on *busy* nodes only: the OU models workload-phase
    // fluctuation, and a ±sigma band on an idle node's ~2 % utilisation
    // is unphysical (it clips at zero) — idle nodes instead converge and
    // quiesce, which is what makes a mostly-idle machine tick at
    // O(busy/R) instead of O(N/R). A busy node is always on the
    // staircase, so k <= R here and the table covers every gap; step()
    // recomputes the same exp/sqrt, so both branches agree bitwise.
    u += k <= refresh_every_
             ? util_noise_[i].step_with(ou_step_[static_cast<std::size_t>(k)],
                                        noise_rngs_[i])
             : util_noise_[i].step(
                   static_cast<double>(k) * config_.tick.value(),
                   noise_rngs_[i]);
  } else if (s == target && util_active_[i] == 1) {
    // Converged and noiseless (idle, or sigma == 0): nothing will ever
    // move this utilisation again until an install — request quiescence
    // (committed serially).
    util_active_[i] = 2;
  }
  node_pool_->set_cpu_utilization(i, std::clamp(u, 0.0, 1.0));
}

void Cluster::install_target(std::size_t i, std::int64_t tk, double now_s) {
  // Order matters for exactness: heat through the previous tick boundary
  // at the old power, walk the ramp through tick tk-1 under the old
  // target, and only then let the new target land (its first ramp step is
  // this tick's refresh — exactly when the legacy per-tick sweep applied
  // a fresh phase's target for the first time).
  node_pool_->advance_temperature_to(i, now_s - config_.tick.value());
  advance_util_to(i, tk - 1);

  UsageTarget t;
  const std::uint32_t owner = owner_slot_[i];
  if (owner != kNoJob) {
    const workload::Phase& phase = *phases_scratch_[owner];
    t.cpu = phase.cpu_utilization;
    t.mem_fraction = phase.mem_fraction;
    t.nic_bytes = phase.comm_bytes_per_proc_per_s * node_procs_[i] *
                  config_.tick.value();
    t.busy = true;
  } else {
    t.cpu = config_.idle_utilization;
  }
  targets_[i] = t;
  offered_[i] = t.nic_bytes;
  const hw::NodeSpec& spec = node_pool_->spec(i);
  node_pool_->set_static_op(i, spec.mem_total.value() * t.mem_fraction,
                            t.nic_bytes, config_.tick.value(),
                            spec.nic_bandwidth);
  node_pool_->set_busy(i, t.busy);

  if (util_active_[i] == 0) {
    util_active_[i] = 1;
    ++block_active_[i / kBlock];
  } else {
    util_active_[i] = 1;  // cancel any in-flight deactivation request
  }
  if ((forced_mark_[i] & 1) == 0) {
    if (forced_mark_[i] == 0) {
      forced_list_.push_back(static_cast<std::uint32_t>(i));
    }
    forced_mark_[i] |= 1;
  }
}

void Cluster::drain_level_changes() {
  std::vector<std::uint32_t>& changed = node_pool_->changed_slots();
  if (changed.empty()) return;
  for (const std::uint32_t i : changed) {
    if (forced_mark_[i] == 0) forced_list_.push_back(i);
    forced_mark_[i] |= 2;
    // A level change moves relative speed, so the hosted job's bottleneck
    // rate must be recomputed.
    const std::uint32_t owner = owner_slot_[i];
    if (owner != kNoJob) job_rate_dirty_[owner] = 1;
  }
  node_pool_->clear_changed();
}

void Cluster::drain_pending_installs(std::int64_t tk, double now_s) {
  if (pending_installs_.empty()) return;
  for (const std::uint32_t i : pending_installs_) {
    install_target(i, tk, now_s);
  }
  pending_installs_.clear();
}

void Cluster::launch_jobs(Seconds now, std::int64_t tk) {
  const std::vector<JobId> started = sched_->try_launch(now);
  for (const JobId id : started) {
    Job* job = sched_->find(id);
    assert(job != nullptr);
    const auto j = static_cast<std::uint32_t>(jobs_scratch_.size());
    jobs_scratch_.push_back(job);
    phases_scratch_.push_back(&job->current_phase());
    job_rate_.push_back(1.0);
    job_rate_dirty_.push_back(1);
    job_energy_acc_.push_back(0.0);
    const std::vector<hw::NodeId>& members = job->nodes();
    double power = 0.0;
    for (std::size_t k = 0; k < members.size(); ++k) {
      const hw::NodeId nid = members[k];
      owner_slot_[nid] = j;
      node_procs_[nid] = static_cast<double>(job->placement()[k]);
      // Pre-install ledger values: this tick's refresh pass moves both
      // the leaves and (through the serial fold's deltas) this sum to the
      // phase's real draw, keeping job power ≡ Σ member leaves.
      power += accounted_.leaf(nid);
    }
    job_power_w_.push_back(power);
    // Launch installs take effect this very tick (the legacy sweep set a
    // just-started job's targets in the same tick's pass 1).
    for (const hw::NodeId nid : members) {
      install_target(nid, tk, now.value());
    }
  }
  assert(jobs_scratch_.size() == sched_->running_jobs().size());
}

void Cluster::advance_jobs(Seconds now, Seconds dt) {
  const std::size_t jobs = jobs_scratch_.size();
  job_done_.assign(jobs, 0);
  for (std::size_t j = 0; j < jobs; ++j) {
    Job* job = jobs_scratch_[j];
    const workload::Phase& phase = *phases_scratch_[j];
    if (job_rate_dirty_[j] != 0 || fabric_enabled_) {
      // Bottleneck rate over the members (§IV.A): the slowest node gates
      // progress. With the fabric disabled delivered ≡ 1 and the network
      // factor is skipped, so the rate only moves on phase changes and
      // member level changes — which is when the dirty bit is set.
      double rate = 1.0;
      for (const hw::NodeId nid : job->nodes()) {
        double node_rate = workload::frequency_progress_rate(
            phase.frequency_sensitivity, node_pool_->relative_speed(nid));
        if (fabric_enabled_) {
          node_rate *= workload::network_progress_rate(
              phase.network_sensitivity, delivered_[nid]);
        }
        rate = std::min(rate, node_rate);
      }
      job_rate_[j] = rate;
      job_rate_dirty_[j] = 0;
    }
    // A job launched this very tick has run for zero time; it only sets
    // its nodes' usage targets and starts progressing next tick.
    if (job->start_time() >= now) continue;
    if (job->advance(dt, job_rate_[j], now)) {
      job_done_[j] = 1;
      continue;
    }
    if (&job->current_phase() != phases_scratch_[j]) {
      // Phase crossed during this advance. The new phase's targets land
      // next tick (legacy pass 1 read the phase at the tick after the
      // crossing); a multi-phase skip installs only the final phase, just
      // as the per-tick sweep only ever saw the phase du jour.
      phases_scratch_[j] = &job->current_phase();
      job_rate_dirty_[j] = 1;
      for (const hw::NodeId nid : job->nodes()) {
        pending_installs_.push_back(static_cast<std::uint32_t>(nid));
      }
    }
  }
}

void Cluster::retire_finished() {
  const std::vector<JobId>& running = sched_->running_jobs();
  const std::size_t jobs = jobs_scratch_.size();
  assert(jobs == running.size());
  finished_scratch_.clear();
  finished_energy_scratch_.clear();
  std::size_t write = 0;
  for (std::size_t j = 0; j < jobs; ++j) {
    if (job_done_[j] != 0) {
      finished_scratch_.push_back(running[j]);
      // Flushed energy excludes the finishing tick (accumulation runs
      // after retirement), matching the legacy attribution window.
      finished_energy_scratch_.push_back(job_energy_acc_[j]);
      for (const hw::NodeId nid : jobs_scratch_[j]->nodes()) {
        owner_slot_[nid] = kNoJob;
        node_procs_[nid] = 0.0;
        // Freed nodes fall back to idle starting next tick (the legacy
        // sweep's idle reset also only showed at the tick after retire).
        pending_installs_.push_back(static_cast<std::uint32_t>(nid));
      }
      continue;
    }
    if (write != j) {
      jobs_scratch_[write] = jobs_scratch_[j];
      phases_scratch_[write] = phases_scratch_[j];
      job_power_w_[write] = job_power_w_[j];
      job_energy_acc_[write] = job_energy_acc_[j];
      job_rate_[write] = job_rate_[j];
      job_rate_dirty_[write] = job_rate_dirty_[j];
      for (const hw::NodeId nid : jobs_scratch_[write]->nodes()) {
        owner_slot_[nid] = static_cast<std::uint32_t>(write);
      }
    }
    ++write;
  }
  jobs_scratch_.resize(write);
  phases_scratch_.resize(write);
  job_power_w_.resize(write);
  job_energy_acc_.resize(write);
  job_rate_.resize(write);
  job_rate_dirty_.resize(write);

  metrics_.add(jobs_finished_counter_, finished_scratch_.size());
  for (std::size_t f = 0; f < finished_scratch_.size(); ++f) {
    const JobId jid = finished_scratch_[f];
    sched_->on_job_finished(jid);
    if (recording_) {
      metrics::JobRecord rec = metrics::make_record(*sched_->find(jid));
      rec.energy_j = finished_energy_scratch_[f];
      finished_records_.push_back(std::move(rec));
    }
  }
}

void Cluster::build_due_set(std::int64_t tk) {
  due_scratch_.clear();
  std::sort(forced_list_.begin(), forced_list_.end());
  const std::size_t n = nodes_.size();
  const std::size_t forced = forced_list_.size();

  // Each due entry carries its node id in the low 31 bits and the
  // "utilisation refresh due" predicate in the top bit, evaluated here
  // once — the refresh pass just decodes it instead of recomputing the
  // grid/forced predicate per node (kUtilDue clear = thermal/power-only
  // wake, e.g. a DVFS level change).
  constexpr std::uint32_t kUtilDue = 0x80000000u;

  if (!config_.event_driven_ticks) {
    // Reference mode: scan every node, applying the *same* per-node
    // predicates the event-driven path uses. The due set — and therefore
    // every downstream draw, leaf write and fold — is bit-identical; only
    // the cost of discovering it differs. CI's A/B gate runs both.
    for (std::size_t i = 0; i < n; ++i) {
      const bool grid_due =
          (tk + static_cast<std::int64_t>(i / kBlock)) % refresh_every_ == 0;
      const bool util_due = (forced_mark_[i] & 1) != 0 ||
                            (grid_due && util_active_[i] != 0);
      if (forced_mark_[i] != 0 || (grid_due && util_active_[i] != 0)) {
        due_scratch_.push_back(static_cast<std::uint32_t>(i) |
                               (util_due ? kUtilDue : 0u));
      }
    }
    return;
  }

  // Event-driven mode: ascending two-pointer merge of (a) the awake nodes
  // of the staircase blocks due this tick and (b) the sorted forced list
  // (installs + level changes). Blocks with no awake node are skipped
  // whole — that skip is the entire O(active) claim.
  std::size_t fi = 0;
  const std::size_t nblocks = block_active_.size();
  for (std::size_t b = 0; b < nblocks; ++b) {
    if ((tk + static_cast<std::int64_t>(b)) % refresh_every_ != 0 ||
        block_active_[b] == 0) {
      continue;
    }
    const std::size_t lo = b * kBlock;
    const std::size_t hi = std::min(n, lo + kBlock);
    while (fi < forced && forced_list_[fi] < lo) {
      const std::uint32_t f = forced_list_[fi++];
      due_scratch_.push_back(f | ((forced_mark_[f] & 1) != 0 ? kUtilDue : 0u));
    }
    for (std::size_t i = lo; i < hi; ++i) {
      const bool forced_here = fi < forced && forced_list_[fi] == i;
      if (forced_here) ++fi;
      if (forced_here || util_active_[i] != 0) {
        // In a due block grid_due is true, so the utilisation predicate
        // reduces to: forced-install bit or awake on the grid.
        const bool util_due =
            (forced_mark_[i] & 1) != 0 || util_active_[i] != 0;
        due_scratch_.push_back(static_cast<std::uint32_t>(i) |
                               (util_due ? kUtilDue : 0u));
      }
    }
  }
  while (fi < forced) {
    const std::uint32_t f = forced_list_[fi++];
    due_scratch_.push_back(f | ((forced_mark_[f] & 1) != 0 ? kUtilDue : 0u));
  }
}

void Cluster::refresh_due_nodes(std::int64_t tk, double now_s, double dt_s) {
  const double prev_s = now_s - dt_s;
  const std::size_t due = due_scratch_.size();

  // Per-slot state only, so it shards freely: thermal fast-forward
  // through the previous tick boundary at the old power, then the
  // closed-form utilisation staircase where the tag says so. Returns the
  // slot.
  const auto advance_slot = [&](std::uint32_t e) {
    const std::uint32_t i = e & 0x7fffffffu;
    node_pool_->advance_temperature_to(i, prev_s);
    if ((e & 0x80000000u) != 0) advance_util_to(i, tk);
    return i;
  };
  // Serial fold, in ascending node order: commit the quiescence request,
  // push a changed power into the ledger and stream the delta into the
  // owning job's power sum. Everything order-sensitive lives here, which
  // is what keeps worker counts out of the results.
  const auto fold_slot = [&](std::uint32_t i) {
    if (util_active_[i] == 2) {
      util_active_[i] = 0;
      --block_active_[i / kBlock];
    }
    const double p = node_pool_->true_power(i).value();
    const double old = accounted_.leaf(i);
    if (p != old) {
      accounted_.set_leaf(i, p);
      const std::uint32_t owner = owner_slot_[i];
      if (owner != kNoJob) job_power_w_[owner] += p - old;
    }
  };

  // Same criterion maybe_parallel_for applies: below it the sweep runs
  // inline, so fuse the per-slot work and the fold into one pass over the
  // due list instead of touching every slot's state twice.
  const bool fan_out = pool_ != nullptr &&
                       due >= config_.parallel_node_threshold &&
                       due >= 2 * config_.parallel_grain;

  if (fan_out) {
    // Shards also re-evaluate each slot's true power into its memo cache;
    // the serial fold then reads the cached value.
    common::maybe_parallel_for(
        pool_.get(), due, config_.parallel_node_threshold,
        config_.parallel_grain, [&](std::size_t begin, std::size_t end) {
          for (std::size_t d = begin; d < end; ++d) {
            (void)node_pool_->true_power(advance_slot(due_scratch_[d]));
          }
        });
    for (std::size_t d = 0; d < due; ++d) {
      fold_slot(due_scratch_[d] & 0x7fffffffu);
    }
  } else {
    for (std::size_t d = 0; d < due; ++d) {
      fold_slot(advance_slot(due_scratch_[d]));
    }
  }

  for (const std::uint32_t i : forced_list_) forced_mark_[i] = 0;
  forced_list_.clear();
  last_refreshed_ = due;
}

void Cluster::tick() {
  if (!metrics_.frozen()) metrics_.freeze();
  const obs::SpanTimer::Scope tick_scope = tick_span_.start();
  const Seconds dt = config_.tick;
  const Seconds now = sim_.now();
  const auto tk = static_cast<std::int64_t>(ticks_);
  node_pool_->set_now(now.value());

  // Deferred effects of last tick's events: actuation-plane level changes
  // (manager cycle, reboots) wake their nodes for a power re-evaluation;
  // phase changes and retirements install their new targets now.
  drain_level_changes();
  drain_pending_installs(tk, now.value());

  // Launches take effect this very tick.
  {
    const obs::SpanTimer::Scope s2 = launch_span_.start();
  ensure_queue_nonempty();
  launch_jobs(now, tk);
  }

  // Interconnect contention: offered traffic is maintained by installs,
  // so the disabled default pays nothing and delivered_ stays pinned at
  // 1.0 (the value the rate math treats as an exact no-op).
  if (fabric_enabled_) {
    fabric_->delivered_fractions_into(offered_, dt, delivered_);
  }

  // Job progress at cached bottleneck rates, then retirement (serial, in
  // running order — records append deterministically).
  {
    const obs::SpanTimer::Scope s3 = jobs_span_.start();
  advance_jobs(now, dt);
  retire_finished();
  }

  // Node refresh pass over the due set.
  {
    const obs::SpanTimer::Scope sweep_scope = node_sweep_span_.start();
    build_due_set(tk);
    refresh_due_nodes(tk, now.value(), dt.value());
  }

  // Energy attribution (per-job E, ExD): job power sums are maintained by
  // the refresh fold, so a tick pays O(running jobs), not O(nodes).
  for (std::size_t j = 0; j < jobs_scratch_.size(); ++j) {
    job_energy_acc_[j] += job_power_w_[j] * dt.value();
  }

  // The ledger fold is a pure function of the leaves — refolded blocks
  // first, then one serial pass over block sums — so the meter reading is
  // identical whatever subset of nodes this tick actually touched.
  last_power_ = meter_.measure_sum(Watts{accounted_.total()});

  ++ticks_;
  const bool control_tick = ticks_ % control_every_ == 0;
  if (control_tick) {
    last_report_ = manager_->cycle(last_power_, nodes_, *sched_, now);
    // Node-local failsafes run after the controller had its chance to
    // talk: a cycle's heartbeats/deliveries land first, then silence is
    // judged. Level changes go through the tracked pool, so next tick's
    // drain_level_changes re-prices the affected nodes like any actuation.
    watchdog_->tick(nodes_);
  }

  // Publish cluster-level series — all pure array stores against frozen
  // slots, from the serial tail of the tick.
  metrics_.set_total(ticks_counter_, ticks_);
  metrics_.set(power_gauge_, last_power_.value());
  metrics_.set(running_gauge_, static_cast<double>(sched_->running_count()));
  metrics_.set(queued_gauge_, static_cast<double>(sched_->queue_length()));
  metrics_.set(pool_depth_gauge_,
               pool_ ? static_cast<double>(pool_->queue_depth()) : 0.0);
  metrics_.set(refreshed_gauge_, static_cast<double>(last_refreshed_));
  metrics_.add(node_refreshes_counter_, last_refreshed_);
  metrics_.set(watchdog_engaged_gauge_,
               static_cast<double>(watchdog_->engaged_count()));
  metrics_.set(watchdog_pending_gauge_,
               static_cast<double>(watchdog_->pending_count()));
  metrics_.set_total(watchdog_engagements_counter_, watchdog_->engagements());
  metrics_.set_total(watchdog_transitions_counter_,
                     watchdog_->failsafe_transitions());

  if (recording_) {
    metrics::CyclePoint p;
    p.time_s = now.value();
    p.power_w = last_power_.value();
    p.p_low_w = last_report_.p_low.value();
    p.p_high_w = last_report_.p_high.value();
    p.state = static_cast<int>(last_report_.state);
    p.running_jobs = sched_->running_count();
    p.targets = control_tick ? last_report_.targets : 0;
    p.transitions = control_tick ? last_report_.transitions : 0;
    p.manager_utilization = last_report_.manager_utilization;
    p.stale_nodes = control_tick ? last_report_.stale_nodes : 0;
    p.fallback_nodes = control_tick ? last_report_.fallback_nodes : 0;
    p.skipped_targets = control_tick ? last_report_.skipped_targets : 0;
    p.retries = control_tick ? last_report_.retries : 0;
    p.divergences = control_tick ? last_report_.divergences : 0;
    p.heals = control_tick ? last_report_.heals : 0;
    recorder_->record(p);
  }
}

}  // namespace pcap::cluster
