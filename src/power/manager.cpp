#include "power/manager.hpp"

#include <cmath>
#include <numeric>
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

bool plausible_sample(const telemetry::NodeSample& s, Watts ceiling) {
  const double w = s.estimated_power.value();
  return std::isfinite(w) && w >= 0.0 && s.estimated_power <= ceiling;
}

}  // namespace

CappingManager::CappingManager(CappingManagerParams params, PolicyPtr policy,
                               common::Rng rng)
    : CappingManager(std::move(params), std::move(policy), rng, true) {}

CappingManager::CappingManager(CappingManagerParams params, PolicyPtr policy,
                               common::Rng rng, ShardTag)
    : CappingManager(std::move(params), std::move(policy), rng, false) {}

CappingManager::CappingManager(CappingManagerParams params, PolicyPtr policy,
                               common::Rng rng, bool with_root)
    : params_(params),
      policy_(std::move(policy)),
      // Fork order ("collector" first, then "actuation") is part of the
      // seed-compatibility contract: swapping it would reshuffle every
      // telemetry fault stream from earlier experiments.
      collector_(params.collector, rng.fork("collector")),
      engine_(params.capping),
      channel_(params.actuation, rng.fork("actuation")),
      reconciler_(params.reconciliation) {
  // "control" is forked LAST: appending the new stream after the two
  // existing forks leaves every pre-existing seed's collector and
  // actuation streams untouched.
  if (with_root) {
    root_.emplace(params_.thresholds, params_.prediction, params_.control,
                  rng.fork("control"));
  }
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
  // collects first (the gate runs before the sweep), so a strided skip
  // run can never feed a decision; max_sample_age_cycles keeps governing
  // in-context transport-delay staleness only.
  collect_stride_ = params_.green_collect_stride;
  collector_.set_cycle_period(params_.cycle_period);
  // The incremental context plane needs the collector's per-slot change
  // cursors; whether a pure temperature drift counts as a change depends
  // on whether this manager's policy will ever read it.
  collector_.configure_dedup(params_.incremental_context,
                             policy_->temperature_sensitive());
  if (params_.selector) selector_.emplace(*params_.selector);
}

std::string CappingManager::name() const {
  return "capping:" + policy_->name();
}

const ControlRoot& CappingManager::root() const {
  if (!root_) throw std::logic_error("CappingManager: zone shard has no root");
  return *root_;
}

ControlRoot& CappingManager::root() {
  if (!root_) throw std::logic_error("CappingManager: zone shard has no root");
  return *root_;
}

void CappingManager::set_candidate_set(const std::vector<hw::NodeId>& ids) {
  collector_.set_candidate_set(ids);
  channel_.ensure_nodes(ids);
  // The collector's copy is sorted/deduplicated; hand that one to the job
  // index so both agree on membership. The refilter itself is deferred to
  // the next context build.
  job_index_.set_candidate_set(collector_.candidate_set());
  // Slot layout and context positions are stale now: the next context
  // build must be a full one.
  inc_valid_ = false;
  if (owns_watchdog_groups_ && watchdog_ != nullptr) {
    watchdog_->set_groups({collector_.candidate_set()});
  }
}

void CappingManager::set_watchdog(hw::FailsafeWatchdog* wd) {
  watchdog_ = wd;
  watchdog_group_ = 0;
  owns_watchdog_groups_ = wd != nullptr;
  if (wd != nullptr) {
    wd->set_groups({collector_.candidate_set()});
  }
}

void CappingManager::attach_watchdog(hw::FailsafeWatchdog* wd,
                                     std::size_t group) {
  watchdog_ = wd;
  watchdog_group_ = group;
  owns_watchdog_groups_ = false;
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

void CappingManager::bind_metrics(obs::Registry& reg) { metrics_.bind(reg); }

void CappingManager::build_context_into(
    PolicyContext& ctx, Watts measured, const std::vector<hw::Node>& nodes,
    const sched::Scheduler& scheduler) const {
  assemble_context(ctx, nodes, scheduler, nullptr, nullptr);
  ctx.system_power = measured;
  ctx.p_low = root().thresholds().p_low();
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

  // Only a reconciled build (the persistent scratch_ctx_, fed through the
  // reconciler) leaves state the next build may trust. A read-only build
  // refills the same per-slot records without the reconciler, so it is
  // always full and leaves the persisted state invalid.
  const bool keep = params_.incremental_context && rec != nullptr;
  const bool full = !keep || !inc_valid_ || view_records_.size() != n;
  job_index_.sync(scheduler);
  const bool jobs_churned =
      full || job_index_.change_epoch() != inc_job_epoch_;

  // 1. The dirty slot set. A slot must be re-derived when its telemetry
  // content changed since the last build, when its last delivery is not
  // this cycle's confirmation (lost/delayed samples age the view), when
  // its previous record depended on clock or actuation state, or when the
  // actuation plane is mid-flight on it (pending command, abandoned, or
  // awaiting watchdog adoption — those paths mutate reconciler state in
  // the merge and must keep doing so every cycle).
  inc_dirty_.clear();
  if (full) {
    view_records_.resize(n);
    inc_dirty_.resize(n);
    std::iota(inc_dirty_.begin(), inc_dirty_.end(), 0u);
    if (rec != nullptr) ++inc_stats_.full_builds;
  } else {
    for (std::size_t slot = 0; slot < n; ++slot) {
      bool dirty = inc_degraded_[slot] != 0 ||
                   collector_.change_cycle(slot) > inc_build_cycle_ ||
                   collector_.confirm_cycle(slot) != now_cycle;
      if (!dirty) {
        const hw::NodeId id = candidates[slot];
        dirty = rec->in_flight(id) || rec->unresponsive(id) ||
                (watchdog_ != nullptr && watchdog_->adoption_pending(id));
      }
      if (dirty) inc_dirty_.push_back(static_cast<std::uint32_t>(slot));
    }
    ++inc_stats_.delta_builds;
    inc_stats_.dirty_slots += inc_dirty_.size();
    if (inc_dirty_.empty() && !jobs_churned) {
      // Quiescent: the persisted context IS this cycle's context. This is
      // the empty-dirty-set special case the zone tree's quiescence hints
      // approximate from outside.
      ++inc_stats_.noop_builds;
      inc_build_cycle_ = now_cycle;
      return;
    }
    // Retract the dirty slots' old tally contributions (integer running
    // totals); the refill below overwrites the records in place.
    for (const std::uint32_t slot : inc_dirty_) {
      tally_record(ctx, view_records_[slot], true);
    }
  }

  // 2. Parallel refill of exactly the dirty slots from strictly per-node
  // inputs: this slot's telemetry history, this node's spec/power model
  // (its memoisation caches are touched by exactly one worker), and this
  // node's reconciler entries (read-only here — all reconciler mutation is
  // deferred to the serial merge, and observe_node(j) only ever touches
  // node j's state). Chunk boundaries are fixed by the grain, so the
  // records are identical for any worker count.
  common::maybe_parallel_for(
      pool_, inc_dirty_.size(), params_.collector.parallel_threshold,
      params_.collector.parallel_grain,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          fill_view_record(inc_dirty_[i], candidates, nodes, rec, now_cycle,
                           max_age);
        }
      });

  // A slot is in the persisted context exactly when it has a position.
  bool compact = full;
  for (std::size_t i = 0; i < inc_dirty_.size() && !compact; ++i) {
    const std::uint32_t slot = inc_dirty_[i];
    const bool present = view_records_[slot].status == ViewRecord::Status::kOk;
    compact = present != (inc_pos_[slot] != kNoPos);
  }

  // 3. Serial merge in candidate order — the order the reconciler, heal
  // emission and the counters must see.
  NodeView nv;
  if (compact) {
    // Full build, or a slot entered or left the context so every position
    // after it shifts: compact over all persisted records. Re-observing a
    // clean slot's unchanged sample cycle is a reconciler no-op by its
    // staleness guard, and persisted records never carry the in-flight
    // inflation (merge_slot applies it to a copy). clear() keeps the
    // capacity, so after the first cycle this fills existing storage.
    ctx.stale_nodes = 0;
    ctx.missing_nodes = 0;
    ctx.fallback_nodes = 0;
    ctx.rejected_samples = 0;
    ctx.unresponsive_nodes = 0;
    inc_pos_.assign(n, kNoPos);
    inc_degraded_.assign(n, 0);
    ctx.nodes.clear();
    for (std::size_t slot = 0; slot < n; ++slot) {
      if (!merge_slot(slot, ctx, nodes, rec, work, now_cycle, nv)) continue;
      inc_pos_[slot] = static_cast<std::uint32_t>(ctx.nodes.size());
      ctx.nodes.push_back(nv);
    }
    ctx.index_nodes();
  } else {
    // In place, dirty slots ascending — the relative order the compaction
    // visits them, and the clean slots in between would all have been
    // no-ops.
    for (const std::uint32_t slot : inc_dirty_) {
      if (merge_slot(slot, ctx, nodes, rec, work, now_cycle, nv)) {
        ctx.nodes[inc_pos_[slot]] = nv;
      }
    }
  }

  // 4. Job views. entries() mirrors scheduler.running_jobs() in order, and
  // each entry's candidate_nodes keeps Nodes(J) order, so every per-job
  // power sum adds the same values in the same order on either path.
  if (keep && jobs_churned) rebuild_job_csr();
  if (compact || jobs_churned) {
    job_pass_full(ctx);
  } else {
    // Same job list and positions as last build: refresh only the
    // JobViews that contain a dirty slot, in ascending entry order.
    const std::vector<JobIndex::Entry>& entries = job_index_.entries();
    inc_job_dirty_.assign(entries.size(), 0);
    for (const std::uint32_t slot : inc_dirty_) {
      const hw::NodeId id = candidates[slot];
      for (std::uint32_t c = inc_csr_off_[id]; c < inc_csr_off_[id + 1]; ++c) {
        inc_job_dirty_[inc_csr_[c]] = 1;
      }
    }
    for (std::size_t k = 0; k < entries.size(); ++k) {
      if (inc_job_dirty_[k] == 0) continue;
      fill_job_view(entries[k], ctx, inc_job_scratch_);
      const bool now_empty = inc_job_scratch_.nodes.empty();
      if (now_empty != (inc_job_pos_[k] == kNoPos)) {
        // A job gained its first usable view or lost its last one: the
        // compacted ctx.jobs positions shift.
        job_pass_full(ctx);
        break;
      }
      if (!now_empty) std::swap(ctx.jobs[inc_job_pos_[k]], inc_job_scratch_);
    }
  }

  inc_build_cycle_ = now_cycle;
  inc_job_epoch_ = job_index_.change_epoch();
  inc_valid_ = keep;
}

void CappingManager::fill_view_record(std::size_t slot,
                                      const std::vector<hw::NodeId>& candidates,
                                      const std::vector<hw::Node>& nodes,
                                      const ActuationReconciler* rec,
                                      std::uint64_t now_cycle,
                                      std::uint64_t max_age) const {
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

  const telemetry::NodeSample& latest = hist[chosen];
  NodeView nv;
  nv.id = id;
  nv.level = latest.level;
  nv.highest_level = node.spec().ladder.highest();
  nv.at_lowest = latest.level == node.spec().ladder.lowest();
  nv.busy = latest.busy;
  nv.power = latest.estimated_power;
  nv.temperature = latest.temperature;
  // Freshness base: the chosen sample's stamp — or, when the newest
  // delivery has since been confirmed unchanged by the collector's dedup
  // (which freezes the history), the confirmation cycle. A suppressed
  // sweep attests the live counters still reproduce this entry bit for
  // bit, which is exactly what a fresh delivery would have proven.
  std::uint64_t fresh_cycle = latest.cycle;
  if (chosen + 1 == hist.size()) {
    const std::uint64_t confirmed = collector_.confirm_cycle(slot);
    if (confirmed > fresh_cycle) fresh_cycle = confirmed;
  }
  nv.stale = now_cycle - fresh_cycle > max_age;
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
  // contributes exactly 0 W for floored nodes — the value every consumer
  // already assumes, since they all skip at_lowest views before reading
  // it.
  nv.power_one_level_down =
      nv.at_lowest ? nv.power : node.estimated_power_at(latest.level - 1);
  vr.view = nv;
  vr.sample_cycle = latest.cycle;
  vr.status = ViewRecord::Status::kOk;
}

void CappingManager::tally_record(PolicyContext& ctx, const ViewRecord& vr,
                                  bool retract) {
  const auto bump = [retract](std::size_t& tally, std::size_t by = 1) {
    tally = retract ? tally - by : tally + by;
  };
  bump(ctx.rejected_samples, vr.rejected);
  switch (vr.status) {
    case ViewRecord::Status::kMissing:
      bump(ctx.missing_nodes);
      break;
    case ViewRecord::Status::kMissingUnresponsive:
    case ViewRecord::Status::kExcludedUnresponsive:
      bump(ctx.unresponsive_nodes);
      break;
    case ViewRecord::Status::kOk:
      if (vr.view.stale) {
        bump(ctx.stale_nodes);
        bump(ctx.fallback_nodes);
      } else if (vr.substituted) {
        bump(ctx.fallback_nodes);
      }
      break;
  }
}

bool CappingManager::merge_slot(std::size_t slot, PolicyContext& ctx,
                                const std::vector<hw::Node>& nodes,
                                ActuationReconciler* rec,
                                ActuationReconciler::CycleWork* work,
                                std::uint64_t now_cycle, NodeView& nv) const {
  const ViewRecord& vr = view_records_[slot];
  tally_record(ctx, vr, false);
  if (vr.status != ViewRecord::Status::kOk) {
    inc_degraded_[slot] = 1;
    return false;
  }
  nv = vr.view;
  if (rec != nullptr) {
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
          rec->adopt_reality(nv.id, nv.level, vr.sample_cycle, *work);
          watchdog_->resolve_adoption(nv.id);
        }
      } else {
        // Ack/divergence/readmission processing runs on fresh views only:
        // a stale sample predates whatever is in flight and can neither
        // confirm nor contradict it.
        rec->observe_node(nv.id, nv.level, vr.sample_cycle, now_cycle, *work);
      }
    }
    // Safe-side accounting for whatever is (still) unacked after the
    // observation above. An unacked restore is assumed already applied
    // when computing headroom (the node may be drawing the higher power
    // right now); an unacked throttle claims nothing — the telemetry
    // power stands and the job-level saving below excludes the node.
    // Both errors overestimate draw, never savings.
    if (const std::optional<hw::Level> target = rec->pending_target(nv.id)) {
      nv.command_in_flight = true;
      if (*target > nv.level) {
        const Watts assumed = nodes[nv.id].estimated_power_at(*target);
        if (assumed > nv.power) nv.power = assumed;
      }
    }
  }
  // A record whose view depends on clock or actuation state (not just
  // delivered sample content) must be re-derived every cycle even without
  // a telemetry change.
  inc_degraded_[slot] =
      (vr.rejected > 0 || nv.stale || vr.substituted || nv.command_in_flight)
          ? 1
          : 0;
  return true;
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

void CappingManager::job_pass_full(PolicyContext& ctx) const {
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
  inc_job_pos_.assign(entries.size(), kNoPos);
  // Serial compaction: jobs with no usable node this cycle drop out,
  // order is preserved, and swap keeps both sides' vector capacity.
  std::size_t used = 0;
  for (std::size_t k = 0; k < job_stage_.size(); ++k) {
    JobView& staged = job_stage_[k];
    if (staged.nodes.empty()) continue;
    inc_job_pos_[k] = static_cast<std::uint32_t>(used);
    if (used == ctx.jobs.size()) ctx.jobs.emplace_back();
    std::swap(ctx.jobs[used], staged);
    ++used;
  }
  ctx.jobs.erase(ctx.jobs.begin() + static_cast<std::ptrdiff_t>(used),
                 ctx.jobs.end());
  ctx.jobs_have_throttleable = true;
}

void CappingManager::rebuild_job_csr() const {
  // Node id -> list of job-entry indices (ascending, since entries are
  // scanned in order): maps a dirty slot to exactly the JobViews its view
  // feeds. Offsets span the candidates' ids [lo, hi] plus one end slot;
  // entries only ever list candidates, so every id below falls inside.
  const std::vector<JobIndex::Entry>& entries = job_index_.entries();
  const std::vector<hw::NodeId>& candidates = collector_.candidate_set();
  if (candidates.empty()) {
    inc_csr_off_.clear();
    inc_csr_.clear();
    return;
  }
  const std::size_t lo = candidates.front();
  const std::size_t hi = candidates.back();
  inc_csr_off_.reset(lo, hi + 1, 0);
  std::size_t total = 0;
  for (const JobIndex::Entry& e : entries) {
    total += e.candidate_nodes.size();
    for (const hw::NodeId nid : e.candidate_nodes) ++inc_csr_off_[nid + 1];
  }
  inc_csr_.resize(total);
  for (std::size_t i = lo + 1; i <= hi + 1; ++i) {
    inc_csr_off_[i] += inc_csr_off_[i - 1];
  }
  for (std::size_t k = 0; k < entries.size(); ++k) {
    for (const hw::NodeId nid : entries[k].candidate_nodes) {
      inc_csr_[inc_csr_off_[nid]++] = static_cast<std::uint32_t>(k);
    }
  }
  // The cursor fill shifted every offset to its range end; rotate back so
  // [off[id], off[id+1]) is node id's range again.
  for (std::size_t i = hi + 1; i > lo; --i) inc_csr_off_[i] = inc_csr_off_[i - 1];
  inc_csr_off_[lo] = 0;
}

void CappingManager::collect_phase(bool collect_now,
                                   const std::vector<hw::Node>& nodes,
                                   Seconds now, std::size_t monitored_jobs) {
  if (collect_now) {
    if (collector_.dedup_active()) {
      // Slots the actuation plane is waiting on (pending acks, abandoned
      // nodes, failsafe adoptions) consume the sample stream itself:
      // exempt them from dedup suppression so every such cycle still
      // delivers a real sample.
      watch_scratch_.clear();
      reconciler_.collect_watch(watch_scratch_);
      if (watchdog_ != nullptr) {
        watchdog_->collect_adoption_pending(watchdog_group_, watch_scratch_);
      }
      collector_.set_watch(watch_scratch_);
    }
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

void CappingManager::context_phase(const std::vector<hw::Node>& nodes,
                                   const sched::Scheduler& scheduler,
                                   ManagerReport& report) {
  assemble_context(scratch_ctx_, nodes, scheduler, &reconciler_,
                   &recon_work_);
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
  report.stale_nodes = scratch_ctx_.stale_nodes;
  report.missing_nodes = scratch_ctx_.missing_nodes;
  report.fallback_nodes = scratch_ctx_.fallback_nodes;
  report.rejected_samples = scratch_ctx_.rejected_samples;
  report.unresponsive_nodes = scratch_ctx_.unresponsive_nodes;
}

CycleDecision CappingManager::select_phase(PowerState band,
                                           Watts system_power, Watts p_low) {
  scratch_ctx_.system_power = system_power;
  scratch_ctx_.p_low = p_low;
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

ManagerReport CappingManager::dead_cycle(ManagerReport report,
                                         std::vector<hw::Node>& nodes,
                                         const sched::Scheduler& scheduler,
                                         Seconds now) {
  // No heartbeat (that is the whole point), no sweep — but the collector
  // clock ticks so per-slot sample ages stay well-defined at recovery.
  collect_phase(false, nodes, now, scheduler.running_count());
  // Hardware does not pause with the controller: reboots happen and
  // already-sent delayed commands still land (stamping watchdog contacts
  // — the node cannot tell the sender is dead).
  begin_actuation_phase(nodes);
  report.transitions = apply_deliveries(nodes);
  add_shard_totals(report);
  metrics_.publish(report, reconciler_.unresponsive_count());
  return report;
}

ManagerReport CappingManager::cycle(Watts measured,
                                    std::vector<hw::Node>& nodes,
                                    const sched::Scheduler& scheduler,
                                    Seconds now) {
  // 0/1. The root: control-fault windows, threshold learning, forecasting
  // and the band this cycle runs in. The learner reads only the facility
  // meter, never the collector, so it goes first: whether this cycle
  // needs a full telemetry sweep depends on the band. A blacked-out (or
  // stalled) controller contributes nothing else — the dead path models
  // exactly what still happens without it.
  ManagerReport report = root().cycle(measured, policy_->forecast_driven());
  if (report.controller_down) {
    return dead_cycle(report, nodes, scheduler, now);
  }
  const PowerState band = report.state;
  // A live cycle IS the liveness beacon: every node in this manager's
  // group hears from its controller this control period.
  if (watchdog_ != nullptr) watchdog_->heartbeat(watchdog_group_);

  // 1b. Candidate set re-selection (§III.A algorithm (c)). Routed through
  // set_candidate_set so the actuation channel learns new nodes too.
  if (selector_ && selector_->due()) {
    set_candidate_set(selector_->select(nodes, scheduler));
  }

  // 2. Telemetry sweep over A_candidate — or, on a quiet green cycle
  // between stride marks, just a clock tick. The context/collect gate is
  // evaluated exactly ONCE, here, strictly before begin_actuation_phase:
  // that call processes reboots and due deliveries and can shrink the
  // in-flight set, so a second evaluation after it could disagree with
  // the collect decision made now — skipping the sweep yet building a
  // context, or (worse) collecting and then not consuming the acks. A
  // predictively elevated band forces the build like any yellow one: the
  // selection acts on data as fresh as any reactive yellow cycle's.
  const bool needs_context = context_gate(band);
  const bool collect_now = needs_context || collect_due();
  {
    const obs::SpanTimer::Scope span = metrics_.collect_span.start();
    collect_phase(collect_now, nodes, now, scheduler.running_count());
  }

  // 2b. Actuation-plane hardware events happen whether or not the manager
  // is ready to react: nodes reboot (resetting to their highest level)
  // and commands whose delivery delay expired land now — even during
  // training, when the arrivals are leftovers from before a reset.
  begin_actuation_phase(nodes);

  // 3. During training the system runs unmanaged (§V.C).
  if (report.training) {
    apply_deliveries(nodes);
    add_shard_totals(report);
    metrics_.publish(report, reconciler_.unresponsive_count());
    return report;
  }

  // 4. Algorithm 1 + reconciliation + actuation. A green cycle with
  // nothing degraded and nothing in flight never consults the context
  // (the pruning loop and the restore walk both iterate A_degraded), so
  // the dominant assembly cost is skipped on the steady-state path; when
  // it does run, the persistent buffers make it allocation-free. Unacked
  // or abandoned commands force the build: acks arrive through it, and
  // unresponsive nodes can only be readmitted by looking at telemetry.
  if (needs_context) {
    const obs::SpanTimer::Scope span = metrics_.context_span.start();
    context_phase(nodes, scheduler, report);
  }
  // Stamp THIS cycle's forecast into the context (clearing any stale
  // stamp from a previous build): the forecast-driven policies read it
  // from here.
  const std::optional<Watts> forecast = root_->forecast();
  scratch_ctx_.has_forecast = forecast.has_value();
  scratch_ctx_.forecast_power = forecast.value_or(Watts{0.0});
  CycleDecision decision;
  {
    const obs::SpanTimer::Scope span = metrics_.policy_span.start();
    decision = select_phase(band, measured, report.p_low);
  }
  report.targets = decision.commands.size();
  report.skipped_targets = decision.skipped;
  report.deferred_targets = decision.deferred_in_flight;

  {
    const obs::SpanTimer::Scope span = metrics_.actuate_span.start();
    report.transitions = actuate_phase(decision, nodes);
  }

  add_shard_totals(report);
  metrics_.publish(report, reconciler_.unresponsive_count());
  return report;
}

ShardCheckpoint CappingManager::checkpoint() const {
  ShardCheckpoint cp;
  if (root_) root_->checkpoint(cp.learner, cp.predictor_state);
  cp.engine = engine_.checkpoint();
  cp.reconciler = reconciler_.checkpoint();
  cp.collector_cycles = collector_.cycle_count();
  cp.policy_state = policy_->checkpoint_state();
  return cp;
}

void CappingManager::restore(const ShardCheckpoint& cp) {
  if (root_) root_->restore(cp.learner, cp.predictor_state);
  engine_.restore(cp.engine);
  reconciler_.restore(cp.reconciler);
  if (!cp.policy_state.empty()) policy_->restore_state(cp.policy_state);
  // Believed/observed stamps in the restored shadow tables are in the
  // checkpointed collector timebase; resume the clock there or every ack
  // and staleness comparison would be skewed by the restart.
  collector_.restore_cycle_count(cp.collector_cycles);
  // Reconciler state just jumped wholesale; rebuild the context from
  // scratch rather than trusting pre-restore dirty bookkeeping.
  inc_valid_ = false;
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
