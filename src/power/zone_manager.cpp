#include "power/zone_manager.hpp"

#include <algorithm>
#include <stdexcept>

#include "power/checkpoint.hpp"

namespace pcap::power {

ZoneTreeParams::Assignment parse_zone_assignment(const std::string& s) {
  if (s == "block") return ZoneTreeParams::Assignment::kBlock;
  if (s == "stride") return ZoneTreeParams::Assignment::kStride;
  throw std::invalid_argument("zones.assignment must be block|stride, got '" +
                              s + "'");
}

ZoneTreeParams::Redistribution parse_zone_redistribution(
    const std::string& s) {
  if (s == "uniform") return ZoneTreeParams::Redistribution::kUniform;
  if (s == "proportional") return ZoneTreeParams::Redistribution::kProportional;
  throw std::invalid_argument(
      "zones.redistribution must be uniform|proportional, got '" + s + "'");
}

ZoneTreeManager::ZoneTreeManager(ZoneTreeParams params,
                                 CappingManagerParams shard_params,
                                 std::function<PolicyPtr()> policy_factory,
                                 common::Rng rng)
    : params_(params) {
  if (params_.zone_count < 1) {
    throw std::invalid_argument("ZoneTreeManager: zone_count must be >= 1");
  }
  if (!policy_factory) {
    throw std::invalid_argument("ZoneTreeManager: null policy factory");
  }
  if (shard_params.selector && params_.zone_count >= 2) {
    throw std::invalid_argument(
        "ZoneTreeManager: dynamic candidate selection needs zones.count = 1 "
        "(a re-selection repartitions the zone)");
  }
  if (shard_params.control.zone_outage_rate > 0.0 && params_.zone_count < 2) {
    throw std::invalid_argument(
        "ZoneTreeManager: control.zone_outage_rate > 0 needs zones.count >= "
        "2 (a crashed zone needs a sibling to adopt its share)");
  }
  orphan_margin_ = shard_params.stale_power_margin;
  zones_.resize(params_.zone_count);
  for (std::size_t z = 0; z < zones_.size(); ++z) {
    // One rng branch per zone: zone z's noise/fault/transport streams
    // depend only on (seed, z), not on the zone count or membership.
    common::Rng zone_rng = rng.fork("zone" + std::to_string(z));
    zones_[z].shard = std::make_unique<CappingManager>(
        shard_params, policy_factory(), zone_rng);
  }
  // Forked after the shard streams so enabling/disabling control faults —
  // or adding this fork at all — cannot perturb the streams existing
  // seeds depend on.
  root_.emplace(shard_params.thresholds, shard_params.prediction,
                shard_params.control, rng.fork("control"));
  root_->control_faults().ensure_zones(zones_.size());
  if (shard_params.selector) selector_.emplace(*shard_params.selector);
}

std::string ZoneTreeManager::name() const {
  return "zonetree(" + std::to_string(zones_.size()) +
         "):" + zones_.front().shard->name();
}

void ZoneTreeManager::set_candidate_set(const std::vector<hw::NodeId>& ids) {
  std::vector<hw::NodeId> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  const std::size_t n = sorted.size();
  const std::size_t zc = zones_.size();
  std::vector<std::vector<hw::NodeId>> parts(zc);
  if (params_.assignment == ZoneTreeParams::Assignment::kBlock) {
    // Balanced contiguous ranges: the first n % zc zones get one extra.
    const std::size_t q = n / zc;
    const std::size_t r = n % zc;
    std::size_t begin = 0;
    for (std::size_t z = 0; z < zc; ++z) {
      const std::size_t len = q + (z < r ? 1 : 0);
      parts[z].assign(sorted.begin() + begin, sorted.begin() + begin + len);
      begin += len;
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) parts[i % zc].push_back(sorted[i]);
  }
  for (std::size_t z = 0; z < zc; ++z) {
    Zone& zone = zones_[z];
    zone.shard->set_candidate_set(parts[z]);
    zone.ever_measured = false;
    zone.worst_case_valid = false;
  }
  refresh_watchdog_groups();
}

void ZoneTreeManager::set_watchdog(hw::FailsafeWatchdog* wd) {
  watchdog_ = wd;
  for (std::size_t z = 0; z < zones_.size(); ++z) {
    zones_[z].shard->attach_watchdog(wd, z);
  }
  refresh_watchdog_groups();
}

void ZoneTreeManager::set_thread_pool(common::ThreadPool* pool) {
  pool_ = pool;
  if (zones_.size() == 1) zones_[0].shard->set_thread_pool(pool);
}

void ZoneTreeManager::refresh_watchdog_groups() {
  if (watchdog_ == nullptr) return;
  std::vector<std::vector<hw::NodeId>> groups;
  groups.reserve(zones_.size());
  for (const Zone& zone : zones_) {
    groups.push_back(zone.shard->candidate_set());
  }
  watchdog_->set_groups(groups);
}

void ZoneTreeManager::bind_metrics(obs::Registry& reg) {
  metrics_.bind(reg);
  if (zones_.size() < 2) return;
  reg_ = &reg;
  for (std::size_t z = 0; z < zones_.size(); ++z) {
    const std::string label = "zone=\"" + std::to_string(z) + "\"";
    zones_[z].power_gauge =
        reg.gauge("pcap_zone_power_watts",
                  "Zone context power at the last active cycle", label);
    zones_[z].share_gauge =
        reg.gauge("pcap_zone_share_watts",
                  "Zone deficit share at the last cycle", label);
    zones_[z].active_cycles =
        reg.counter("pcap_zone_active_cycles_total",
                    "Cycles this zone ran collect+context+select", label);
    zones_[z].targets_total =
        reg.counter("pcap_zone_targets_total",
                    "Throttle/restore targets selected in this zone", label);
  }
}

ManagerReport ZoneTreeManager::cycle(Watts measured,
                                     std::vector<hw::Node>& nodes,
                                     const sched::Scheduler& scheduler,
                                     Seconds now) {
  // The root first: control-fault windows, learning, forecasting and the
  // band. The learner reads only the facility meter, never the
  // collector, so whether this cycle needs a full telemetry sweep can
  // depend on the band. A root blackout silences the whole tree (no
  // learning, no heartbeats, no decisions — hardware still moves: reboots
  // happen and sent commands land); a zone window silences just that
  // shard while the root conservatively re-plans around the orphan. An
  // elevated band drives the zones down the yellow path, shedding for
  // where the meter is heading instead of where it is.
  ManagerReport report =
      root_->cycle(measured, zones_.front().shard->policy().forecast_driven());
  const bool root_down = report.controller_down;
  const PowerState effective = report.state;
  const bool zoned = zones_.size() >= 2;

  // Zone liveness scratch + watchdog heartbeats — serial (the watchdog is
  // shared state). Group z heartbeats exactly when zone z's shard is up
  // AND the root is up: a node's silence clock only resets on controller
  // traffic it could actually have seen.
  for (std::size_t z = 0; z < zones_.size(); ++z) {
    Zone& zone = zones_[z];
    zone.down = root_down || root_->control_faults().zone_down(z);
    if (!zone.down && watchdog_ != nullptr) watchdog_->heartbeat(z);
  }

  // Candidate set re-selection (§III.A algorithm (c), Z = 1 only): a
  // live root recomputes A_candidate and the zone is repartitioned.
  if (!root_down && selector_ && selector_->due()) {
    set_candidate_set(selector_->select(nodes, scheduler));
  }

  // A dead root runs the dead path below even while training: deliveries
  // that land are counted either way.
  const bool training = report.training && !root_down;
  const std::size_t running_jobs = scheduler.running_count();
  // The learner has observed this cycle; the next observation ends training.
  const ThresholdLearner& learner = root_->thresholds();
  const bool last_training_cycle =
      learner.cycles_observed() + 1 == learner.params().training_cycles;

  // Phase A — per-zone gate + telemetry. The gate itself is O(1) per zone
  // and touches only that zone's state, so it runs serially up front; the
  // sweep that follows goes to the pool only when at least two zones
  // actually collect. A steady-green strided or idle green cycle
  // otherwise pays a pool handoff per phase for zero work per zone. The
  // gate is still evaluated exactly once per zone, strictly before phase
  // B (CappingManager::context_gate).
  for (std::size_t z = 0; z < zones_.size(); ++z) {
    Zone& zone = zones_[z];
    CappingManager& m = *zone.shard;
    zone.report = ManagerReport{};
    zone.decision = CycleDecision{};
    zone.share = Watts{0.0};
    zone.transitions = 0;

    if (zone.down) {
      // Crashed shard: no gate, no sweep, no decision — only the
      // collector clock ticks (sample ages and reconciler deadlines
      // stay well-defined at recovery).
      zone.active = false;
      zone.collected = false;
    } else if (training) {
      // Unmanaged (§III.A): no sample is read until capping starts. Under
      // exact telemetry only the last training cycle sweeps (it becomes
      // the first managed cycle's previous sample); otherwise the
      // loss/delay/fault processes advance per sweep, so sweep as gated.
      zone.active = false;
      zone.collected = m.exact_telemetry()
                           ? last_training_cycle
                           : m.context_gate(effective) || m.collect_due();
    } else if (effective == PowerState::kGreen) {
      // Idle green cycles fail the gate too: only the stride sweeps then.
      const bool gate = m.context_gate(effective);
      zone.active = gate;
      zone.collected = gate || m.collect_due();
    } else {
      // Yellow/red: every live zone sweeps and builds.
      zone.active = true;
      zone.collected = true;
    }
  }
  std::size_t collecting_zones = 0;
  std::size_t active_zones = 0;
  for (const Zone& zone : zones_) {
    collecting_zones += zone.collected ? 1 : 0;
    active_zones += zone.active ? 1 : 0;
  }
  common::ThreadPool* const collect_pool =
      collecting_zones >= 2 ? pool_ : nullptr;
  common::ThreadPool* const active_pool = active_zones >= 2 ? pool_ : nullptr;
  {
    const obs::SpanTimer::Scope span = metrics_.collect_span.start();
    common::maybe_parallel_for(
        collect_pool, zones_.size(), 2, 1,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t z = begin; z < end; ++z) {
            Zone& zone = zones_[z];
            zone.shard->collect_phase(zone.collected, nodes, now,
                                      running_jobs);
          }
        });
  }

  // Phase B — actuation-plane hardware events (reboots, due deliveries)
  // mutate nodes: strictly serial, fixed zone order.
  for (Zone& zone : zones_) zone.shard->begin_actuation_phase(nodes);

  const auto publish = [&] {
    std::size_t unresponsive_now = 0;
    std::size_t active = 0;
    for (Zone& zone : zones_) {
      unresponsive_now += zone.shard->reconciler().unresponsive_count();
      if (zone.active) ++active;
      if (reg_ != nullptr) {
        reg_->set(zone.power_gauge, zone.power.value());
        reg_->set(zone.share_gauge, zone.share.value());
        if (zone.active) reg_->add(zone.active_cycles);
        reg_->add(zone.targets_total, zone.decision.commands.size());
      }
    }
    active_last_cycle_ = active;
    for (const Zone& zone : zones_) zone.shard->add_shard_totals(report);
    metrics_.publish(report, unresponsive_now);
  };

  // Training: the system runs unmanaged — only due deliveries land.
  if (training) {
    for (Zone& zone : zones_) zone.shard->apply_deliveries(nodes);
    publish();
    return report;
  }

  // Phase C — context assembly (parallel over zones when at least two
  // have real work; each shard's reconciler/collector/job-index state is
  // disjoint). The zone's power and shed capacity are serial per-zone
  // folds over its own context (or, on a wait pass, its samples), so they
  // are identical whichever worker computed them.
  {
    const obs::SpanTimer::Scope span = metrics_.context_span.start();
    common::maybe_parallel_for(
        active_pool, zones_.size(), 2, 1,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t z = begin; z < end; ++z) {
            Zone& zone = zones_[z];
            if (!zone.active) continue;
            ContextTotals totals;
            zone.shard->context_phase(effective, nodes, scheduler,
                                      zone.report,
                                      zoned ? &totals : nullptr);
            if (!zoned) continue;  // no shares at Z = 1
            zone.power = totals.power;
            zone.capacity = totals.capacity;
            zone.ever_measured = true;
          }
        });
  }

  // Root fold — deficit shares, serial in fixed zone order (the only
  // cross-zone arithmetic in the cycle; its inputs are per-zone values
  // already pinned above, so the fold is bit-identical for any worker
  // count). Only zones that are active AND still have shed capacity are
  // eligible; the rest keep share 0.
  if (zoned && effective == PowerState::kYellow) {
    // Forecast-driven deficit base: with an armed alarm the root sheds
    // for where the meter is heading, not just where it is — on an
    // elevated green cycle the measured deficit is zero by definition, so
    // without this the elevation would distribute nothing. The base never
    // drops below the measured reading: a forecast that undershoots
    // reality can't shrink the reactive response.
    Watts deficit_base = measured;
    if (root_->alarm() && *root_->forecast() > deficit_base) {
      deficit_base = *root_->forecast();
    }
    Watts deficit = std::max(Watts{0.0}, deficit_base - report.p_low);
    // Orphan-zone adoption: a downed shard cannot shed its share, and the
    // root cannot see where its draw is heading. The meter already counts
    // the orphan's actual power, so the live zones inherit its share of
    // the deficit by construction (it is simply ineligible below); on top
    // of that the deficit is inflated by margin × the orphan's accounted
    // power — last-known context power when it was ever measured, the
    // members' theoretical max otherwise — so unseen upward drift inside
    // the orphan is shed by its siblings instead of breaching P_H.
    for (Zone& zone : zones_) {
      if (!zone.down) continue;
      if (zone.ever_measured) {
        deficit += zone.power * orphan_margin_;
      } else {
        if (!zone.worst_case_valid) {
          Watts wc{0.0};
          for (const hw::NodeId id : zone.shard->candidate_set()) {
            wc += nodes[id].spec().power_model.theoretical_max();
          }
          zone.worst_case = wc;
          zone.worst_case_valid = true;
        }
        deficit += zone.worst_case * orphan_margin_;
      }
    }
    Watts eligible_power{0.0};
    std::size_t eligible = 0;
    for (const Zone& zone : zones_) {
      if (zone.active && zone.capacity > Watts{0.0}) {
        ++eligible;
        eligible_power += zone.power;
      }
    }
    const bool proportional =
        params_.redistribution == ZoneTreeParams::Redistribution::kProportional &&
        eligible_power > Watts{0.0};
    for (Zone& zone : zones_) {
      if (!(zone.active && zone.capacity > Watts{0.0})) continue;
      zone.share = proportional
                       ? deficit * (zone.power.value() / eligible_power.value())
                       : deficit / static_cast<double>(eligible);
    }
  }

  // Phase D — selection (parallel when at least two zones are active;
  // per-shard engine/policy state is disjoint — inactive green zones only
  // tick their engine timers, O(1) work that never justifies a handoff).
  // Green runs every zone's engine — O(1) with nothing degraded — so each
  // shard's green timer ticks every cycle. A yellow zone with no share
  // resets its timer without a decision, as if a decision had run and
  // emitted nothing. At Z = 1 the shard decides on every live cycle
  // against the root's own (P, P_L) and forecast; at Z >= 2 a deciding
  // shard's context carries (P, P_L) = (share, 0): in yellow its policy
  // sheds exactly the zone's share; green and red consult no policy.
  {
    const obs::SpanTimer::Scope span = metrics_.policy_span.start();
    common::maybe_parallel_for(
        active_pool, zones_.size(), 2, 1,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t z = begin; z < end; ++z) {
            Zone& zone = zones_[z];
            CappingManager& m = *zone.shard;
            // A crashed shard decides nothing — not even a green-timer
            // tick or a non-green reset; its engine clock freezes
            // mid-outage.
            if (zone.down) continue;
            if (!zoned) {
              zone.decision = m.select_phase(effective, measured,
                                             report.p_low, root_->forecast());
              continue;
            }
            const bool decides = effective != PowerState::kYellow ||
                                 zone.share > Watts{0.0};
            if (decides) {
              zone.decision = m.select_phase(effective, zone.share, Watts{0.0},
                                             std::nullopt);
            } else {
              m.note_non_green_cycle();
            }
          }
        });
  }

  // Phase E — actuation mutates nodes: strictly serial, fixed zone order.
  // Every zone actuates every cycle (an empty decision still flushes the
  // reconciler's retries/heals and applies due deliveries).
  {
    const obs::SpanTimer::Scope span = metrics_.actuate_span.start();
    for (Zone& zone : zones_) {
      CappingManager& m = *zone.shard;
      if (zone.down) {
        // Dead shard: no admissions, no retries, no heals — but commands
        // already in the network still land (stamping watchdog contacts;
        // the node cannot tell the sender died after transmitting).
        zone.transitions = m.apply_deliveries(nodes);
        continue;
      }
      zone.transitions = m.actuate_phase(zone.decision, nodes);
    }
  }

  // Root report — serial fixed-order sum over the shards.
  for (const Zone& zone : zones_) {
    report.targets += zone.decision.commands.size();
    report.transitions += zone.transitions;
    report.skipped_targets += zone.decision.skipped;
    report.deferred_targets += zone.decision.deferred_in_flight;
    report.stale_nodes += zone.report.stale_nodes;
    report.missing_nodes += zone.report.missing_nodes;
    report.fallback_nodes += zone.report.fallback_nodes;
    report.rejected_samples += zone.report.rejected_samples;
    report.unresponsive_nodes += zone.report.unresponsive_nodes;
    report.watchdog_adoptions += zone.report.watchdog_adoptions;
  }
  publish();
  return report;
}

TreeCheckpoint ZoneTreeManager::checkpoint() const {
  TreeCheckpoint cp;
  cp.policy = zones_.front().shard->policy().name();
  root_->checkpoint(cp.learner, cp.predictor_state);
  cp.shards.reserve(zones_.size());
  cp.zones.reserve(zones_.size());
  for (const Zone& zone : zones_) {
    cp.shards.push_back(zone.shard->checkpoint());
    cp.zones.push_back({zone.power.value(), zone.ever_measured});
  }
  return cp;
}

void ZoneTreeManager::restore(const TreeCheckpoint& cp) {
  const std::string policy = zones_.front().shard->policy().name();
  if (cp.policy != policy) {
    // The shards' policy_state is the writer's: another policy would read
    // it wrongly, or silently drop it.
    throw std::invalid_argument(
        "ZoneTreeManager::restore: checkpoint policy '" + cp.policy +
        "' != tree policy '" + policy + "'");
  }
  if (cp.shards.size() != zones_.size() ||
      cp.zones.size() != zones_.size()) {
    throw std::invalid_argument(
        "ZoneTreeManager::restore: checkpoint zone count (" +
        std::to_string(cp.shards.size()) + ") != tree zone count (" +
        std::to_string(zones_.size()) + ")");
  }
  root_->restore(cp.learner, cp.predictor_state);
  for (std::size_t z = 0; z < zones_.size(); ++z) {
    Zone& zone = zones_[z];
    zone.shard->restore(cp.shards[z]);
    zone.power = Watts{cp.zones[z].power};
    zone.ever_measured = cp.zones[z].ever_measured;
    // Worst-case caches are re-derived from the live node table, not
    // carried across a restart.
    zone.worst_case_valid = false;
  }
}

}  // namespace pcap::power
