#include "power/manager.hpp"

#include <cmath>
#include <stdexcept>

#include "power/checkpoint.hpp"

namespace pcap::power {

namespace {

/// Sanity bound for a reported power estimate. Formula-(1) estimates can
/// legitimately sit a little above the table entries (interpolation,
/// utilisation overshoot), so allow headroom over the board's theoretical
/// ceiling; anything negative, non-finite, or far beyond it is a torn or
/// byte-swapped counter, not a measurement.
Watts plausible_ceiling(const hw::Node& node) {
  return node.spec().power_model.theoretical_max() * 1.5;
}

bool plausible_sample(const telemetry::HeldSample& s, Watts ceiling) {
  const double w = s.estimated_power.value();
  return std::isfinite(w) && w >= 0.0 && s.estimated_power <= ceiling;
}

ContextTotals totals_of(const PolicyContext& ctx) {
  ContextTotals t;
  for (const NodeView& nv : ctx.nodes) t.power += nv.power;
  for (const JobView& jv : ctx.jobs) t.capacity += jv.saving_one_level;
  return t;
}

}  // namespace

CappingManager::CappingManager(CappingManagerParams params, PolicyPtr policy,
                               common::Rng& rng)
    : params_(params),
      policy_(std::move(policy)),
      // Fork order ("collector" first, then "actuation") is part of the
      // seed-compatibility contract: swapping it would reshuffle every
      // telemetry fault stream from earlier experiments.
      collector_(params.collector, rng.fork("collector")),
      engine_(params.capping),
      channel_(params.actuation, rng.fork("actuation")),
      reconciler_(params.reconciliation) {
  if (!policy_) throw std::invalid_argument("CappingManager: null policy");
  if (params_.cycle_period <= Seconds{0.0}) {
    throw std::invalid_argument("CappingManager: bad cycle period");
  }
  if (params_.max_sample_age_cycles < 0) {
    throw std::invalid_argument("CappingManager: bad max sample age");
  }
  if (params_.stale_power_margin < 0.0) {
    throw std::invalid_argument("CappingManager: bad stale power margin");
  }
  if (params_.green_collect_stride < 1) {
    throw std::invalid_argument("CappingManager: bad green collect stride");
  }
  // No staleness clamp: any cycle that will build a policy context
  // collects first (the gate runs before the sweep). Under transport
  // delay that sweep's reports are still in flight, so the first build
  // after a strided run can read stale views (see green_collect_stride).
  collect_stride_ = params_.green_collect_stride;
  const telemetry::TransportParams& transport = params_.collector.transport;
  exact_telemetry_ = transport.loss_rate == 0.0 &&
                     transport.delay_cycles == 0 &&
                     !params_.collector.faults.enabled();
  collector_.set_cycle_period(params_.cycle_period);
}

std::string CappingManager::name() const {
  return "capping:" + policy_->name();
}

void CappingManager::set_candidate_set(const std::vector<hw::NodeId>& ids) {
  collector_.set_candidate_set(ids);
  channel_.ensure_nodes(ids);
  // The collector's copy is sorted/deduplicated; hand that one to the job
  // index so both agree on membership. The refilter itself is deferred to
  // the next context build.
  job_index_.set_candidate_set(collector_.candidate_set());
  candidates_changed_ = true;
}

void CappingManager::attach_watchdog(hw::FailsafeWatchdog* wd,
                                     std::size_t group) {
  watchdog_ = wd;
  watchdog_group_ = group;
}

void ManagerMetrics::bind(obs::Registry& reg) {
  ManagerMetrics& m = *this;
  m.reg = &reg;

  const std::string cycles = "pcap_manager_cycles_total";
  const std::string cycles_help = "Control cycles by resulting power state";
  m.cycles_green = reg.counter(cycles, cycles_help, "state=\"green\"");
  m.cycles_yellow = reg.counter(cycles, cycles_help, "state=\"yellow\"");
  m.cycles_red = reg.counter(cycles, cycles_help, "state=\"red\"");
  m.training_cycles = reg.counter("pcap_manager_training_cycles_total",
                                  "Cycles spent in threshold training");

  m.targets = reg.counter("pcap_manager_targets_total",
                          "Nodes selected as throttle/restore targets");
  m.transitions = reg.counter("pcap_manager_transitions_total",
                              "Level changes actually applied at nodes");
  m.skipped_targets =
      reg.counter("pcap_manager_skipped_targets_total",
                  "Policy targets the capping engine refused");
  m.deferred_targets =
      reg.counter("pcap_manager_deferred_targets_total",
                  "Targets passed over because a command was in flight");

  m.stale_nodes = reg.counter("pcap_manager_stale_node_cycles_total",
                              "Node-cycles served past the sample-age bound");
  m.missing_nodes = reg.counter("pcap_manager_missing_node_cycles_total",
                                "Node-cycles with no usable sample");
  m.fallback_nodes =
      reg.counter("pcap_manager_fallback_node_cycles_total",
                  "Node-cycles served from a substituted estimate");
  m.rejected_samples = reg.counter("pcap_manager_rejected_samples_total",
                                   "Implausible telemetry samples skipped");
  m.unresponsive_node_cycles =
      reg.counter("pcap_manager_unresponsive_node_cycles_total",
                  "Node-cycles excluded: retry budget exhausted");

  m.acks = reg.counter("pcap_manager_acks_total",
                       "Commands confirmed by telemetry");
  m.retries = reg.counter("pcap_manager_retries_total",
                          "Unacked commands re-sent");
  m.divergences = reg.counter("pcap_manager_divergences_total",
                              "Observed level != believed level");
  m.heals = reg.counter("pcap_manager_heals_total",
                        "Healing commands emitted");

  m.samples_lost = reg.counter("pcap_telemetry_samples_lost_total",
                               "Samples dropped by the transport");
  m.samples_suppressed = reg.counter("pcap_telemetry_samples_suppressed_total",
                                     "Samples that never left the node");
  m.samples_corrupted = reg.counter("pcap_telemetry_samples_corrupted_total",
                                    "Samples delivered with garbage power");
  m.crash_events = reg.counter("pcap_telemetry_crash_events_total",
                               "Profiling agent crash events");
  m.recovery_events = reg.counter("pcap_telemetry_recovery_events_total",
                                  "Profiling agent recovery events");

  m.commands_lost = reg.counter("pcap_actuation_commands_lost_total",
                                "Commands dropped in transit");
  m.commands_rebooting =
      reg.counter("pcap_actuation_commands_rebooting_total",
                  "Commands dropped at a rebooting node");
  m.transitions_failed =
      reg.counter("pcap_actuation_transitions_failed_total",
                  "Delivered commands whose DVFS switch failed");
  m.transitions_partial =
      reg.counter("pcap_actuation_transitions_partial_total",
                  "Delivered commands that landed part-way");
  m.reboot_events = reg.counter("pcap_actuation_reboot_events_total",
                                "Node reboot events");
  m.commands_abandoned = reg.counter("pcap_actuation_commands_abandoned_total",
                                     "Commands whose retry budget ran out");
  m.commands_clamped = reg.counter("pcap_actuation_commands_clamped_total",
                                   "Requests clamped by the node controller");

  m.ctrl_outage_events = reg.counter("pcap_ctrl_outage_events_total",
                                     "Root controller outage windows started");
  m.ctrl_outage_cycles = reg.counter("pcap_ctrl_outage_cycles_total",
                                     "Cycles the root controller was down");
  m.ctrl_delayed_cycles =
      reg.counter("pcap_ctrl_delayed_cycles_total",
                  "Cycles the root controller lost to stalls");
  m.ctrl_zone_outage_cycles =
      reg.counter("pcap_ctrl_zone_outage_cycles_total",
                  "Zone-cycles lost to zone-shard crashes");
  m.watchdog_adoptions =
      reg.counter("pcap_watchdog_adoptions_total",
                  "Failsafe level changes adopted by the reconciler");

  m.predictor_overshoots =
      reg.counter("pcap_predictor_overshoots_total",
                  "Forecasts that called a P_L crossing that never came");
  m.predictor_misses =
      reg.counter("pcap_predictor_misses_total",
                  "P_L crossings the forecast did not see coming");
  m.predictive_elevations =
      reg.counter("pcap_manager_predictive_elevations_total",
                  "Green cycles promoted to the yellow path by a forecast");

  m.measured_watts = reg.gauge("pcap_manager_measured_watts",
                               "Facility meter reading at the last cycle");
  m.p_low_watts = reg.gauge("pcap_manager_p_low_watts",
                            "Learned lower power threshold");
  m.p_high_watts = reg.gauge("pcap_manager_p_high_watts",
                             "Learned upper power threshold");
  m.commands_in_flight = reg.gauge("pcap_manager_commands_in_flight",
                                   "Unacked commands after actuation");
  m.unresponsive_nodes = reg.gauge("pcap_manager_unresponsive_nodes",
                                   "Candidates currently abandoned");
  m.agents_down = reg.gauge("pcap_telemetry_agents_down",
                            "Profiling agents currently silent");
  m.orphan_zones = reg.gauge("pcap_ctrl_orphan_zones",
                             "Zone shards down at the last cycle");
  m.predictor_forecast_watts =
      reg.gauge("pcap_predictor_forecast_watts",
                "Predicted system power, horizon cycles ahead");
  m.predictor_abs_error_watts =
      reg.gauge("pcap_predictor_abs_error_watts",
                "Absolute error of the forecast that targeted this cycle");

  const std::string span = "pcap_cycle_phase_seconds";
  const std::string span_help = "Wall-clock time per control-loop phase";
  m.collect_span.bind(reg, span, span_help, "phase=\"collect\"");
  m.context_span.bind(reg, span, span_help, "phase=\"context\"");
  m.policy_span.bind(reg, span, span_help, "phase=\"policy\"");
  m.actuate_span.bind(reg, span, span_help, "phase=\"actuate\"");
}

void ManagerMetrics::publish(const ManagerReport& report,
                             std::size_t unresponsive_now) {
  ManagerMetrics& m = *this;
  obs::Registry* reg = m.reg;
  if (reg == nullptr) return;

  switch (report.state) {
    case PowerState::kGreen: reg->add(m.cycles_green); break;
    case PowerState::kYellow: reg->add(m.cycles_yellow); break;
    case PowerState::kRed: reg->add(m.cycles_red); break;
  }
  if (report.training) reg->add(m.training_cycles);

  reg->add(m.targets, report.targets);
  reg->add(m.transitions, report.transitions);
  reg->add(m.skipped_targets, report.skipped_targets);
  reg->add(m.deferred_targets, report.deferred_targets);

  reg->add(m.stale_nodes, report.stale_nodes);
  reg->add(m.missing_nodes, report.missing_nodes);
  reg->add(m.fallback_nodes, report.fallback_nodes);
  reg->add(m.rejected_samples, report.rejected_samples);
  reg->add(m.unresponsive_node_cycles, report.unresponsive_nodes);

  reg->add(m.acks, report.acks);
  reg->add(m.retries, report.retries);
  reg->add(m.divergences, report.divergences);
  reg->add(m.heals, report.heals);

  // Lifetime ground truth owned by the collector/injector/channel: mirror,
  // don't accumulate, or resets and replays would double-count.
  reg->set_total(m.samples_lost, report.samples_lost);
  reg->set_total(m.samples_suppressed, report.samples_suppressed);
  reg->set_total(m.samples_corrupted, report.samples_corrupted);
  reg->set_total(m.crash_events, report.crash_events);
  reg->set_total(m.recovery_events, report.recovery_events);
  reg->set_total(m.commands_lost, report.commands_lost);
  reg->set_total(m.commands_rebooting, report.commands_rebooting);
  reg->set_total(m.transitions_failed, report.transitions_failed);
  reg->set_total(m.transitions_partial, report.transitions_partial);
  reg->set_total(m.reboot_events, report.reboot_events);
  reg->set_total(m.commands_abandoned, report.commands_abandoned);
  reg->set_total(m.commands_clamped, report.commands_clamped);
  reg->set_total(m.ctrl_outage_events, report.ctrl_outages);
  reg->set_total(m.ctrl_outage_cycles, report.ctrl_outage_cycles);
  reg->set_total(m.ctrl_delayed_cycles, report.ctrl_delayed_cycles);
  reg->set_total(m.ctrl_zone_outage_cycles, report.ctrl_zone_outage_cycles);

  reg->add(m.watchdog_adoptions, report.watchdog_adoptions);

  reg->set_total(m.predictor_overshoots, report.predictor_overshoots);
  reg->set_total(m.predictor_misses, report.predictor_misses);
  reg->set_total(m.predictive_elevations, report.predictive_elevations);
  reg->set(m.predictor_forecast_watts,
           report.has_forecast ? report.forecast.value() : 0.0);
  reg->set(m.predictor_abs_error_watts,
           report.forecast_scored ? report.forecast_abs_error : 0.0);

  reg->set(m.measured_watts, report.measured.value());
  reg->set(m.p_low_watts, report.p_low.value());
  reg->set(m.p_high_watts, report.p_high.value());
  reg->set(m.commands_in_flight,
           static_cast<double>(report.commands_in_flight));
  reg->set(m.unresponsive_nodes, static_cast<double>(unresponsive_now));
  reg->set(m.agents_down, static_cast<double>(report.agents_down));
  reg->set(m.orphan_zones, static_cast<double>(report.zones_down));
}

void CappingManager::build_context_into(
    PolicyContext& ctx, const std::vector<hw::Node>& nodes,
    const sched::Scheduler& scheduler) const {
  assemble_context(ctx, nodes, scheduler, nullptr, nullptr);
}

void CappingManager::assemble_context(
    PolicyContext& ctx, const std::vector<hw::Node>& nodes,
    const sched::Scheduler& scheduler, ActuationReconciler* rec,
    ActuationReconciler::CycleWork* work) const {
  const std::uint64_t now_cycle = collector_.cycle_count();
  const auto max_age = static_cast<std::uint64_t>(params_.max_sample_age_cycles);
  const std::vector<hw::NodeId>& candidates = collector_.candidate_set();
  const std::size_t n = candidates.size();

  // The candidate set is sorted, so its maximum id validates the whole
  // sweep against the node table in one comparison; every per-candidate
  // access below then indexes unchecked.
  if (!candidates.empty() &&
      static_cast<std::size_t>(collector_.max_candidate_id()) >=
          nodes.size()) {
    throw std::out_of_range(
        "CappingManager::assemble_context: candidate id out of range");
  }

  job_index_.sync(scheduler);

  // 1. Parallel refill of every slot's ViewRecord, and of its view in
  // place at ctx.nodes[slot], from strictly per-node inputs: this slot's
  // telemetry history, this node's spec/power model (its memoisation
  // caches are touched by exactly one worker), and this node's reconciler
  // entries (read-only here — all reconciler mutation is deferred to the
  // serial merge, and observe_node(j) only ever touches node j's state).
  // Chunk boundaries are fixed by the grain, so the records are identical
  // for any worker count. resize() keeps the capacity, so after the first
  // cycle this fills existing storage.
  view_records_.resize(n);
  ctx.nodes.resize(n);
  common::maybe_parallel_for(
      pool_, n, params_.collector.parallel_threshold,
      params_.collector.parallel_grain,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t slot = begin; slot < end; ++slot) {
          fill_view_record(slot, candidates, nodes, rec, now_cycle, max_age,
                           ctx.nodes[slot]);
        }
      });

  // 2. Serial merge in candidate order — the order the reconciler, heal
  // emission and the counters must see. Views compact forward over the
  // slots that have none: slot >= kept always, so every move reads a view
  // this build wrote.
  ctx.stale_nodes = 0;
  ctx.missing_nodes = 0;
  ctx.fallback_nodes = 0;
  ctx.rejected_samples = 0;
  ctx.unresponsive_nodes = 0;
  std::size_t kept = 0;
  for (std::size_t slot = 0; slot < n; ++slot) {
    if (merge_slot(slot, ctx, nodes, rec, work, now_cycle, ctx.nodes[slot])) {
      if (kept != slot) ctx.nodes[kept] = ctx.nodes[slot];
      ++kept;
    }
  }
  ctx.nodes.resize(kept);
  ctx.index_nodes();

  // 3. Job views. entries() mirrors scheduler.running_jobs() in order, and
  // each entry's candidate_nodes keeps Nodes(J) order, so every per-job
  // power sum adds the same values in the same order every build.
  job_pass(ctx);
  if (rec != nullptr) ++build_stats_.full_builds;
}

void CappingManager::fill_view_record(std::size_t slot,
                                      const std::vector<hw::NodeId>& candidates,
                                      const std::vector<hw::Node>& nodes,
                                      const ActuationReconciler* rec,
                                      std::uint64_t now_cycle,
                                      std::uint64_t max_age,
                                      NodeView& out) const {
  ViewRecord& vr = view_records_[slot];
  const hw::NodeId id = candidates[slot];
  const auto& hist = collector_.history_at_slot(slot);
  const hw::Node& node = nodes[id];
  const bool unresponsive = rec != nullptr && rec->unresponsive(id);
  vr.rejected = 0;
  vr.substituted = false;

  // Walk the history newest-to-oldest for a sample that passes the sanity
  // check; corrupted deliveries are skipped, not trusted.
  const Watts ceiling = plausible_ceiling(node);
  std::size_t chosen = 0;
  bool found = false;
  for (std::size_t i = hist.size(); i-- > 0;) {
    if (plausible_sample(hist[i], ceiling)) {
      chosen = i;
      found = true;
      break;
    }
    ++vr.rejected;
  }
  if (!found) {
    // Never sampled, or nothing in the window survived the sanity check.
    // With no level/busy state to act on, the node cannot be a target;
    // the facility meter still sees its real draw, so the thresholds
    // remain grounded even while we are blind.
    vr.status = unresponsive ? ViewRecord::Status::kMissingUnresponsive
                             : ViewRecord::Status::kMissing;
    return;
  }

  const telemetry::HeldSample& latest = hist[chosen];
  NodeView nv;
  nv.id = id;
  nv.level = latest.level;
  nv.highest_level = node.spec().ladder.highest();
  nv.at_lowest = latest.level == node.spec().ladder.lowest();
  nv.busy = latest.busy;
  nv.power = latest.estimated_power;
  nv.temperature = latest.temperature;
  nv.stale = now_cycle - latest.cycle > max_age;
  if (unresponsive && nv.stale) {
    // Abandoned AND blind: the node stays out of the context entirely —
    // not selectable, not in A_degraded, not worth a command — until a
    // fresh sample earns it a readmission in the merge.
    vr.status = ViewRecord::Status::kExcludedUnresponsive;
    return;
  }
  if (nv.stale) {
    // Conservative fallback: assume the unseen node has drifted UP from
    // its last known draw. Overstating keeps the job totals — and thus
    // how aggressively Algorithm 1 sheds — on the safe side.
    nv.power *= 1.0 + params_.stale_power_margin;
  } else if (chosen + 1 != hist.size()) {
    // Fresh enough, but only after discarding newer corrupt deliveries:
    // still a substituted estimate.
    vr.substituted = true;
  }
  for (std::size_t i = chosen; i-- > 0;) {
    if (plausible_sample(hist[i], ceiling)) {
      nv.power_prev = hist[i].estimated_power;
      nv.has_prev = true;
      break;
    }
  }
  // A node already at the ladder floor has no level below it:
  // estimated_power_at(level - 1) would index off the bottom of the DVFS
  // table. Clamp the hypothetical to the current draw so saving_one_level
  // contributes exactly 0 W for a node at the floor — the value every
  // consumer already assumes, since they all skip at_lowest views before
  // reading it.
  nv.power_one_level_down =
      nv.at_lowest ? nv.power : node.estimated_power_at(latest.level - 1);
  out = nv;
  vr.sample_cycle = latest.cycle;
  vr.status = ViewRecord::Status::kOk;
}

bool CappingManager::merge_slot(std::size_t slot, PolicyContext& ctx,
                                const std::vector<hw::Node>& nodes,
                                ActuationReconciler* rec,
                                ActuationReconciler::CycleWork* work,
                                std::uint64_t now_cycle, NodeView& nv) const {
  const ViewRecord& vr = view_records_[slot];
  ctx.rejected_samples += vr.rejected;
  switch (vr.status) {
    case ViewRecord::Status::kMissing:
      ++ctx.missing_nodes;
      return false;
    case ViewRecord::Status::kMissingUnresponsive:
    case ViewRecord::Status::kExcludedUnresponsive:
      ++ctx.unresponsive_nodes;
      return false;
    case ViewRecord::Status::kOk:
      break;
  }
  if (nv.stale) {
    ++ctx.stale_nodes;
    ++ctx.fallback_nodes;
  } else if (vr.substituted) {
    ++ctx.fallback_nodes;
  }
  if (rec != nullptr) {
    reconcile_view(nv, vr.sample_cycle, nodes, *rec, *work, now_cycle);
  }
  return true;
}

void CappingManager::reconcile_view(NodeView& nv, std::uint64_t sample_cycle,
                                    const std::vector<hw::Node>& nodes,
                                    ActuationReconciler& rec,
                                    ActuationReconciler::CycleWork& work,
                                    std::uint64_t now_cycle) const {
  if (!nv.stale) {
    if (watchdog_ != nullptr && watchdog_->adoption_pending(nv.id)) {
      // The failsafe changed this node during an outage. A fresh sample
      // showing the node's ACTUAL current level is the post-failsafe
      // truth: adopt it outright — feeding it to observe_node instead
      // would log a divergence and heal the node back UP against the
      // watchdog. A fresh-but-earlier sample (collected before the
      // failsafe stepped the node, still inside the age window) shows a
      // level the node no longer holds; holding the node out of the
      // ack machinery for one cycle is strictly safer than acting on it.
      if (nv.level == nodes[nv.id].level()) {
        rec.adopt_reality(nv.id, nv.level, sample_cycle, work);
        watchdog_->resolve_adoption(nv.id);
      }
    } else {
      // Ack/divergence/readmission processing runs on fresh views only:
      // a stale sample predates whatever is in flight and can neither
      // confirm nor contradict it.
      rec.observe_node(nv.id, nv.level, sample_cycle, now_cycle, work);
    }
  }
  // Safe-side accounting for whatever is (still) unacked after the
  // observation above. An unacked restore is assumed already applied
  // when computing headroom (the node may be drawing the higher power
  // right now); an unacked throttle claims nothing — the telemetry
  // power stands and the job-level saving below excludes the node.
  // Both errors overestimate draw, never savings.
  if (const std::optional<hw::Level> target = rec.pending_target(nv.id)) {
    nv.command_in_flight = true;
    if (*target > nv.level) {
      const Watts assumed = nodes[nv.id].estimated_power_at(*target);
      if (assumed > nv.power) nv.power = assumed;
    }
  }
}

void CappingManager::wait_pass(const std::vector<hw::Node>& nodes,
                               ContextTotals* totals) {
  // Exact telemetry and a collect this cycle: every candidate's newest
  // sample is the one just taken, fresh and plausible. It is the sample
  // the refill would choose, and a build would keep every slot's view in
  // slot order, so the power sum below adds what a build's totals add.
  const std::uint64_t now_cycle = collector_.cycle_count();
  const std::vector<hw::NodeId>& candidates = collector_.candidate_set();
  ContextTotals t;
  for (std::size_t slot = 0; slot < candidates.size(); ++slot) {
    const telemetry::HeldSample& latest =
        collector_.history_at_slot(slot).back();
    NodeView nv;
    nv.id = candidates[slot];
    nv.level = latest.level;
    nv.power = latest.estimated_power;
    reconcile_view(nv, latest.cycle, nodes, reconciler_, recon_work_,
                   now_cycle);
    t.power += nv.power;
  }
  if (totals != nullptr) *totals = t;
}

void CappingManager::fill_job_view(const JobIndex::Entry& e,
                                   const PolicyContext& ctx, JobView& jv) {
  jv.id = e.id;
  jv.nodes.clear();
  jv.throttleable.clear();
  jv.power = Watts{0.0};
  jv.power_prev = Watts{0.0};
  jv.saving_one_level = Watts{0.0};
  bool have_all_prev = true;
  for (const hw::NodeId nid : e.candidate_nodes) {
    const NodeView* nv = ctx.node(nid);
    if (nv == nullptr) continue;  // no usable view this cycle
    jv.nodes.push_back(nid);
    jv.power += nv->power;
    // has_prev, not power_prev > 0: an idle or gated node legitimately
    // reports 0.0 W, and treating that as "no history" zeroed the whole
    // job's rate-of-increase signal.
    if (nv->has_prev) {
      jv.power_prev += nv->power_prev;
    } else {
      have_all_prev = false;
    }
    // Stale or in-flight nodes contribute (inflated) power but no claimed
    // saving: a throttle command they will not be selected for cannot be
    // counted as shed watts.
    if (nv->busy && !nv->at_lowest && !nv->stale && !nv->command_in_flight) {
      jv.throttleable.push_back(nid);
      jv.saving_one_level += nv->power - nv->power_one_level_down;
    }
  }
  if (!have_all_prev) jv.power_prev = Watts{0.0};  // no rate
}

void CappingManager::job_pass(PolicyContext& ctx) const {
  // Each stage slot is written by one worker and reads only the frozen
  // context, so this pass shards.
  const std::vector<JobIndex::Entry>& entries = job_index_.entries();
  job_stage_.resize(entries.size());
  common::maybe_parallel_for(
      pool_, entries.size(), params_.collector.parallel_threshold,
      params_.collector.parallel_grain,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t k = begin; k < end; ++k) {
          fill_job_view(entries[k], ctx, job_stage_[k]);
        }
      });
  // Serial compaction: jobs with no usable node this cycle drop out,
  // order is preserved, and swap keeps both sides' vector capacity.
  std::size_t used = 0;
  for (std::size_t k = 0; k < job_stage_.size(); ++k) {
    JobView& staged = job_stage_[k];
    if (staged.nodes.empty()) continue;
    if (used == ctx.jobs.size()) ctx.jobs.emplace_back();
    std::swap(ctx.jobs[used], staged);
    ++used;
  }
  ctx.jobs.erase(ctx.jobs.begin() + static_cast<std::ptrdiff_t>(used),
                 ctx.jobs.end());
  ctx.jobs_have_throttleable = true;
}

void CappingManager::collect_phase(bool collect_now,
                                   const std::vector<hw::Node>& nodes,
                                   Seconds now, std::size_t monitored_jobs) {
  if (collect_now) {
    collector_.collect(nodes, now, monitored_jobs);
  } else {
    // Clock tick only: per-slot staleness stays well-defined and the
    // stride schedule keeps its phase.
    collector_.skip_cycle(monitored_jobs);
  }
}

void CappingManager::begin_actuation_phase(std::vector<hw::Node>& nodes) {
  delivered_scratch_.clear();
  recon_work_.clear();
  channel_.begin_cycle(nodes, delivered_scratch_);
}

void CappingManager::context_phase(PowerState band,
                                   const std::vector<hw::Node>& nodes,
                                   const sched::Scheduler& scheduler,
                                   ManagerReport& report,
                                   ContextTotals* totals) {
  const bool wait = band == PowerState::kGreen &&
                    engine_.green_timer() + 1 <
                        engine_.params().steady_green_cycles &&
                    !candidates_changed_ && exact_telemetry_;
  if (wait) {
    wait_pass(nodes, totals);
  } else {
    assemble_context(scratch_ctx_, nodes, scheduler, &reconciler_,
                     &recon_work_);
    candidates_changed_ = false;
    if (totals != nullptr) *totals = totals_of(scratch_ctx_);
  }
  reconciler_.finish_observation(collector_.cycle_count(), recon_work_);
  // Failsafe levels adopted above join A_degraded: steady green is what
  // restores them back up once the controller has been back long enough.
  // A node adopted AT its top level (uncommon — safe_level at the top)
  // has nothing to restore and stays out.
  for (const LevelCommand& adopted : recon_work_.adopted_nodes) {
    if (adopted.level < nodes[adopted.node].spec().ladder.highest()) {
      engine_.adopt_degraded(adopted.node);
    }
  }
  report.watchdog_adoptions = recon_work_.adopted_nodes.size();
  if (wait) return;
  report.stale_nodes = scratch_ctx_.stale_nodes;
  report.missing_nodes = scratch_ctx_.missing_nodes;
  report.fallback_nodes = scratch_ctx_.fallback_nodes;
  report.rejected_samples = scratch_ctx_.rejected_samples;
  report.unresponsive_nodes = scratch_ctx_.unresponsive_nodes;
}

CycleDecision CappingManager::select_phase(PowerState band,
                                           Watts system_power, Watts p_low,
                                           std::optional<Watts> forecast) {
  scratch_ctx_.system_power = system_power;
  scratch_ctx_.p_low = p_low;
  // Overwrites any stamp from an earlier cycle: a context built before
  // the predictor warmed up must not carry a forecast forward.
  scratch_ctx_.has_forecast = forecast.has_value();
  scratch_ctx_.forecast_power = forecast.value_or(Watts{0.0});
  return engine_.cycle(band, *policy_, scratch_ctx_);
}

std::size_t CappingManager::actuate_phase(const CycleDecision& decision,
                                          std::vector<hw::Node>& nodes) {
  // Heals and due retries are already in recon_work_.commands; the
  // engine's fresh decisions join them after the unresponsive filter and
  // pending dedup. Everything then goes through the (possibly lossy)
  // channel, and only what the channel delivered reaches hardware.
  reconciler_.admit(decision.commands, collector_.cycle_count(), recon_work_);
  channel_.send(recon_work_.commands, nodes, delivered_scratch_);
  stamp_delivery_contacts();
  return controller_.apply(delivered_scratch_, nodes);
}

std::size_t CappingManager::apply_deliveries(std::vector<hw::Node>& nodes) {
  if (delivered_scratch_.empty()) return 0;
  stamp_delivery_contacts();
  return controller_.apply(delivered_scratch_, nodes);
}

void CappingManager::stamp_delivery_contacts() {
  if (watchdog_ == nullptr) return;
  // A delivery is controller traffic the node itself can see, so it
  // resets that node's silence clock — even when it is a leftover delayed
  // command landing mid-outage (the node cannot tell the sender is dead;
  // the timeout budget has to absorb such stragglers).
  for (const LevelCommand& cmd : delivered_scratch_) {
    watchdog_->contact(cmd.node);
  }
}

void CappingManager::add_shard_totals(ManagerReport& report) const {
  // Fault/transport ground truth is cumulative collector, channel and
  // reconciler state — cheap to read and meaningful on every path,
  // including training, steady green and controller outages where no
  // context is assembled.
  report.manager_utilization += collector_.last_cycle_manager_utilization();
  report.samples_lost += collector_.samples_lost();
  report.samples_suppressed += collector_.samples_suppressed();
  const telemetry::FaultInjector& faults = collector_.fault_injector();
  report.samples_corrupted += faults.samples_corrupted();
  report.crash_events += faults.crash_events();
  report.recovery_events += faults.recovery_events();
  report.agents_down += faults.silent_count();
  report.commands_lost += channel_.commands_lost();
  report.commands_rebooting += channel_.commands_dropped_rebooting();
  report.transitions_failed += channel_.transitions_failed();
  report.transitions_partial += channel_.transitions_partial();
  report.reboot_events += channel_.reboot_events();
  report.commands_abandoned += reconciler_.total_abandoned();
  report.commands_clamped += controller_.commands_clamped();
  report.commands_in_flight += reconciler_.pending_count();
  report.acks += recon_work_.acks;
  report.retries += recon_work_.retries;
  report.divergences += recon_work_.divergences;
  report.heals += recon_work_.heals;
}

ShardCheckpoint CappingManager::checkpoint() const {
  ShardCheckpoint cp;
  cp.engine = engine_.checkpoint();
  cp.reconciler = reconciler_.checkpoint();
  cp.collector_cycles = collector_.cycle_count();
  cp.policy_state = policy_->checkpoint_state();
  return cp;
}

void CappingManager::restore(const ShardCheckpoint& cp) {
  engine_.restore(cp.engine);
  reconciler_.restore(cp.reconciler);
  if (!cp.policy_state.empty()) policy_->restore_state(cp.policy_state);
  // Believed/observed stamps in the restored shadow tables are in the
  // checkpointed collector timebase; resume the clock there or every ack
  // and staleness comparison would be skewed by the restart.
  collector_.restore_cycle_count(cp.collector_cycles);
}

ManagerReport NoCappingManager::cycle(Watts measured,
                                      std::vector<hw::Node>& /*nodes*/,
                                      const sched::Scheduler& /*scheduler*/,
                                      Seconds /*now*/) {
  ManagerReport report;
  report.measured = measured;
  return report;
}

}  // namespace pcap::power
