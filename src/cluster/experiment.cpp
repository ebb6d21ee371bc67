#include "cluster/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "baselines/budget_manager.hpp"
#include "baselines/feedback_manager.hpp"
#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "power/policy_registry.hpp"
#include "power/zone_manager.hpp"

namespace pcap::cluster {

std::vector<std::string> manager_names() {
  std::vector<std::string> names = power::policy_names();
  names.insert(names.begin(), "none");
  names.insert(names.end(), {"feedback", "budget"});
  return names;
}

Watts probe_uncapped_peak(const ClusterConfig& cluster, Seconds duration) {
  Cluster probe(cluster);
  probe.start_recording();
  probe.run(duration);
  return metrics::peak_power(probe.recorder().power_trace());
}

std::unique_ptr<power::PowerManagerBase> make_manager(
    const ExperimentConfig& config, const ClusterConfig& cluster,
    Watts provision, const std::vector<hw::NodeId>& candidates) {
  common::Rng rng(cluster.seed ^ 0x9d2c5680u);

  if ((config.zone_count >= 2 || config.control.enabled()) &&
      (config.manager == "none" || config.manager == "budget" ||
       config.manager == "feedback")) {
    throw std::invalid_argument(
        "make_manager: zones.count >= 2 and control-plane fault injection "
        "require a capping-policy manager (got '" + config.manager + "')");
  }
  if (config.manager == "none" || candidates.empty()) {
    return std::make_unique<power::NoCappingManager>();
  }

  if (config.manager == "budget") {
    baselines::BudgetParams p;
    // The meter reads wall power; node budgets are IT-side watts.
    p.global_budget = provision * cluster.meter.psu_efficiency;
    p.cycle_period = cluster.control_period;
    p.collector.transport = config.transport;
    p.collector.faults = config.faults;
    auto mgr = std::make_unique<baselines::BudgetManager>(p, rng);
    mgr->set_candidate_set(candidates);
    return mgr;
  }

  if (config.manager == "feedback") {
    baselines::FeedbackParams p;
    // The feedback baseline regulates to the same yellow threshold the
    // capping architecture would learn, approximated by the provision.
    p.setpoint = provision;
    p.gain = config.feedback_gain;
    p.cycle_period = cluster.control_period;
    p.collector.transport = config.transport;
    p.collector.faults = config.faults;
    auto mgr = std::make_unique<baselines::FeedbackManager>(p, rng);
    mgr->set_candidate_set(candidates);
    return mgr;
  }

  const std::vector<std::string> names = manager_names();
  if (std::find(names.begin(), names.end(), config.manager) == names.end()) {
    throw std::invalid_argument("make_manager: unknown manager '" +
                                config.manager + "'");
  }

  power::CappingManagerParams p;
  if (config.dynamic_candidates) {
    power::CandidateSelectorParams sel;
    sel.max_candidates = config.candidate_count;
    p.selector = sel;
  }
  p.thresholds.provision = provision;
  p.thresholds.red_margin = config.red_margin;
  p.thresholds.yellow_margin = config.yellow_margin;
  p.thresholds.training_cycles =
      static_cast<std::int64_t>(config.training / cluster.control_period);
  p.thresholds.adjust_period_cycles = config.adjust_period_cycles;
  p.thresholds.freeze_at_provision = config.thresholds_from_provision;
  p.capping = config.capping;
  p.cycle_period = cluster.control_period;
  p.collector.transport = config.transport;
  p.collector.faults = config.faults;
  p.max_sample_age_cycles = config.max_sample_age_cycles;
  p.stale_power_margin = config.stale_power_margin;
  p.actuation = config.actuation;
  p.reconciliation = config.reconciliation;
  p.control = config.control;
  p.prediction = config.prediction;
  if (!p.prediction.enabled &&
      (config.manager == "pi-c" || config.manager == "pred-c")) {
    // The predictive policies are inert without a forecast: selecting one
    // opts into the default predictor (the explicit [prediction] section
    // still overrides every knob).
    p.prediction.enabled = true;
  }
  // Every capping policy runs as a zone tree; Z = 1 is the flat
  // controller. The tree rejects a selector at Z >= 2 and zone-crash
  // windows at Z = 1.
  power::ZoneTreeParams zp;
  zp.zone_count = static_cast<std::size_t>(config.zone_count);
  zp.assignment = power::parse_zone_assignment(config.zone_assignment);
  zp.redistribution =
      power::parse_zone_redistribution(config.zone_redistribution);
  const std::string policy_name = config.manager;
  const power::PiTuning pi = config.pi;
  auto mgr = std::make_unique<power::ZoneTreeManager>(
      zp, p, [policy_name, pi] { return power::make_policy(policy_name, pi); },
      rng);
  mgr->set_candidate_set(candidates);
  return mgr;
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  // 1. Provision calibration.
  Watts provision = config.provision;
  if (provision <= Watts{0.0}) {
    const Watts peak =
        probe_uncapped_peak(config.cluster, config.calibration_duration);
    provision = peak * config.provision_fraction;
    PCAP_INFO("experiment: calibrated provision to %.0f W (peak %.0f W)",
              provision.value(), peak.value());
  }

  // 2. Build the cluster and manager.
  Cluster cl(config.cluster);
  std::vector<hw::NodeId> candidates = cl.controllable_nodes();
  if (config.candidate_count >= 0 &&
      static_cast<std::size_t>(config.candidate_count) < candidates.size()) {
    candidates.resize(static_cast<std::size_t>(config.candidate_count));
  }
  cl.set_manager(make_manager(config, config.cluster, provision, candidates));

  // 3. Training phase (thresholds learn; no job/power metrics recorded).
  if (config.training > Seconds{0.0}) cl.run(config.training);

  // 4. Measured phase. The manager's per-cycle counters accumulate over
  // the whole run (training included), so snapshot them here: the
  // measured-window totals below are registry deltas against this
  // baseline. Managers that bind no metrics (none, baselines) simply have
  // no series — counter_value() yields nullopt and the delta stays 0,
  // matching their all-zero report columns.
  const auto counter_at = [&cl](const std::string& key) -> std::uint64_t {
    return cl.metrics().counter_value(key).value_or(0);
  };
  const std::uint64_t base_stale =
      counter_at("pcap_manager_stale_node_cycles_total");
  const std::uint64_t base_fallback =
      counter_at("pcap_manager_fallback_node_cycles_total");
  const std::uint64_t base_skipped =
      counter_at("pcap_manager_skipped_targets_total");
  const std::uint64_t base_retries = counter_at("pcap_manager_retries_total");
  const std::uint64_t base_divergences =
      counter_at("pcap_manager_divergences_total");
  const std::uint64_t base_heals = counter_at("pcap_manager_heals_total");
  const std::uint64_t base_adoptions =
      counter_at("pcap_watchdog_adoptions_total");
  cl.start_recording();
  cl.run(config.measured);

  // 5. Extract metrics.
  ExperimentResult r;
  r.manager = config.manager;
  r.candidate_count = candidates.size();
  r.provision = provision;

  const auto trace = cl.recorder().power_trace();
  r.p_max = metrics::peak_power(trace);
  r.mean_power = metrics::mean_power(trace);
  r.energy = metrics::total_energy(trace);
  r.delta_pxt = metrics::accumulated_overspend(trace, provision);
  r.perf = metrics::summarize_performance(cl.finished_records());

  r.green_cycles = cl.recorder().state_count(0);
  r.yellow_cycles = cl.recorder().state_count(1);
  r.red_cycles = cl.recorder().state_count(2);
  r.never_red = r.red_cycles == 0;

  double util_sum = 0.0;
  std::size_t transitions = 0;
  for (const auto& p : cl.recorder().points()) {
    util_sum += p.manager_utilization;
    transitions += p.transitions;
  }
  // Telemetry-health and reconciliation totals come from the registry
  // (delta over the measured window), not from re-summing CSV columns —
  // the recorder and this result are two views over the same counters.
  r.stale_node_cycles = static_cast<std::size_t>(
      counter_at("pcap_manager_stale_node_cycles_total") - base_stale);
  r.fallback_node_cycles = static_cast<std::size_t>(
      counter_at("pcap_manager_fallback_node_cycles_total") - base_fallback);
  r.skipped_targets = static_cast<std::size_t>(
      counter_at("pcap_manager_skipped_targets_total") - base_skipped);
  r.command_retries = static_cast<std::size_t>(
      counter_at("pcap_manager_retries_total") - base_retries);
  r.divergences = static_cast<std::size_t>(
      counter_at("pcap_manager_divergences_total") - base_divergences);
  r.heals =
      static_cast<std::size_t>(counter_at("pcap_manager_heals_total") -
                               base_heals);
  r.samples_lost = cl.last_report().samples_lost;
  r.samples_suppressed = cl.last_report().samples_suppressed;
  r.samples_corrupted = cl.last_report().samples_corrupted;
  r.crash_events = cl.last_report().crash_events;
  r.recovery_events = cl.last_report().recovery_events;
  r.commands_lost = cl.last_report().commands_lost;
  r.commands_rebooting = cl.last_report().commands_rebooting;
  r.transitions_failed = cl.last_report().transitions_failed;
  r.transitions_partial = cl.last_report().transitions_partial;
  r.reboot_events = cl.last_report().reboot_events;
  r.commands_abandoned = cl.last_report().commands_abandoned;
  r.commands_clamped = cl.last_report().commands_clamped;
  r.ctrl_outages = cl.last_report().ctrl_outages;
  r.ctrl_outage_cycles = cl.last_report().ctrl_outage_cycles;
  r.ctrl_delayed_cycles = cl.last_report().ctrl_delayed_cycles;
  r.ctrl_zone_outage_cycles = cl.last_report().ctrl_zone_outage_cycles;
  r.predictor_overshoots = cl.last_report().predictor_overshoots;
  r.predictor_misses = cl.last_report().predictor_misses;
  r.predictive_elevations = cl.last_report().predictive_elevations;
  r.watchdog_engagements = cl.watchdog().engagements();
  r.watchdog_transitions = cl.watchdog().failsafe_transitions();
  r.watchdog_adoptions = static_cast<std::size_t>(
      counter_at("pcap_watchdog_adoptions_total") - base_adoptions);
  const std::size_t cycles = cl.recorder().size();
  r.mean_manager_utilization =
      cycles > 0 ? util_sum / static_cast<double>(cycles) : 0.0;
  r.transitions = transitions;
  r.p_low = cl.last_report().p_low;
  r.p_high = cl.last_report().p_high;
  r.metrics_prometheus = cl.metrics().prometheus_text();
  r.metrics_json = cl.metrics().json_snapshot();
  return r;
}

std::vector<AveragedResult> average_over_seeds(
    const std::vector<ExperimentConfig>& configs,
    const std::vector<std::uint64_t>& seeds) {
  const std::size_t runs = std::max<std::size_t>(seeds.size(), 1);
  std::vector<ExperimentResult> results(configs.size() * runs);
  common::ThreadPool pool;
  pool.parallel_for(results.size(), [&](std::size_t i) {
    ExperimentConfig c = configs[i / runs];
    if (!seeds.empty()) c.cluster.seed = seeds[i % runs];
    results[i] = run_experiment(c);
  });

  std::vector<AveragedResult> averages(configs.size());
  const double n = static_cast<double>(runs);
  for (std::size_t k = 0; k < configs.size(); ++k) {
    AveragedResult& avg = averages[k];
    avg.manager = configs[k].manager;
    for (std::size_t s = 0; s < runs; ++s) {
      const ExperimentResult& r = results[k * runs + s];
      avg.performance += r.perf.performance / n;
      avg.lossless_fraction += r.perf.lossless_fraction / n;
      avg.p_max_w += r.p_max.value() / n;
      avg.delta_pxt += r.delta_pxt / n;
      avg.yellow_s += static_cast<double>(r.yellow_cycles) / n;
      avg.red_s += static_cast<double>(r.red_cycles) / n;
      avg.manager_utilization += r.mean_manager_utilization / n;
      avg.predictive_elevations +=
          static_cast<double>(r.predictive_elevations) / n;
      avg.predictor_overshoots +=
          static_cast<double>(r.predictor_overshoots) / n;
      avg.predictor_misses += static_cast<double>(r.predictor_misses) / n;
    }
  }
  return averages;
}

}  // namespace pcap::cluster
