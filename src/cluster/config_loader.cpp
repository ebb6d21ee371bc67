#include "cluster/config_loader.hpp"

#include <cmath>
#include <set>
#include <stdexcept>

#include "cluster/scenario.hpp"
#include "common/string_util.hpp"
#include "power/zone_manager.hpp"

namespace pcap::cluster {

namespace {

const std::set<std::string>& known_keys() {
  static const std::set<std::string> keys = {
      "cluster.nodes",
      "cluster.seed",
      "cluster.tick_s",
      "cluster.control_period_s",
      "cluster.npb_class",
      "cluster.max_procs_per_node",
      "cluster.privileged_fraction",
      "cluster.idle_utilization",
      "cluster.utilization_noise",
      "cluster.ramp_tau_s",
      "manager.policy",
      "manager.candidate_count",
      "manager.dynamic_candidates",
      "manager.tg_cycles",
      "manager.red_margin",
      "manager.yellow_margin",
      "manager.adjust_period_cycles",
      "manager.feedback_gain",
      "experiment.training_h",
      "experiment.measured_h",
      "experiment.calibration_h",
      "experiment.provision_w",
      "experiment.provision_fraction",
      "telemetry.loss_rate",
      "telemetry.delay_cycles",
      "telemetry.agent_dropout_rate",
      "telemetry.agent_recovery_rate",
      "telemetry.crash_rate",
      "telemetry.crash_duration_cycles",
      "telemetry.corruption_rate",
      "telemetry.max_sample_age_cycles",
      "telemetry.stale_margin",
      "actuation.loss_rate",
      "actuation.delay_cycles",
      "actuation.failure_rate",
      "actuation.partial_rate",
      "actuation.reboot_rate",
      "actuation.reboot_duration_cycles",
      "actuation.max_retries",
      "actuation.retry_backoff_cycles",
      "actuation.retry_backoff_cap_cycles",
      "zones.count",
      "zones.assignment",
      "zones.redistribution",
      "prediction.enabled",
      "prediction.kind",
      "prediction.horizon_cycles",
      "prediction.ewma_alpha",
      "prediction.ewma_beta",
      "prediction.window_cycles",
      "prediction.refresh_cycles",
      "pi.kp",
      "pi.ki",
      "pi.integral_cap",
      "control.outage_rate",
      "control.outage_duration_cycles",
      "control.zone_outage_rate",
      "control.zone_outage_duration_cycles",
      "control.delay_rate",
      "control.delay_max_cycles",
      "watchdog.timeout_cycles",
      "watchdog.safe_level",
  };
  return keys;
}

/// Fault-model knobs must be real, non-negative numbers: a stray "nan",
/// "-0.1" or "1e999" in an ini would otherwise sail through into the
/// params structs (whose own validation cannot name the offending key —
/// and [0,1]-range checks pass NaN through every comparison).
double checked_double(const common::Config& cfg, const std::string& key,
                      double fallback) {
  const double v = cfg.get_double(key, fallback);
  if (!std::isfinite(v) || v < 0.0) {
    throw std::runtime_error("experiment config: '" + key +
                             "' must be a finite non-negative number");
  }
  return v;
}

std::int64_t checked_int(const common::Config& cfg, const std::string& key,
                         std::int64_t fallback) {
  const std::int64_t v = cfg.get_int(key, fallback);
  if (v < 0) {
    throw std::runtime_error("experiment config: '" + key +
                             "' must be >= 0");
  }
  return v;
}

}  // namespace

ExperimentConfig apply_config(ExperimentConfig base,
                              const common::Config& cfg) {
  for (const std::string& key : cfg.keys()) {
    if (known_keys().count(key) == 0) {
      throw std::runtime_error("experiment config: unknown key '" + key +
                               "'");
    }
  }

  ExperimentConfig out = std::move(base);

  // [cluster]
  out.cluster.num_nodes = static_cast<std::size_t>(cfg.get_int(
      "cluster.nodes", static_cast<std::int64_t>(out.cluster.num_nodes)));
  out.cluster.seed = static_cast<std::uint64_t>(
      cfg.get_int("cluster.seed",
                  static_cast<std::int64_t>(out.cluster.seed)));
  out.cluster.tick =
      Seconds{cfg.get_double("cluster.tick_s", out.cluster.tick.value())};
  out.cluster.control_period = Seconds{cfg.get_double(
      "cluster.control_period_s", out.cluster.control_period.value())};
  const std::string cls = common::to_lower(cfg.get_string(
      "cluster.npb_class",
      out.cluster.npb_class == workload::NpbClass::kC ? "c" : "d"));
  if (cls == "c") {
    out.cluster.npb_class = workload::NpbClass::kC;
  } else if (cls == "d") {
    out.cluster.npb_class = workload::NpbClass::kD;
  } else {
    throw std::runtime_error("experiment config: npb_class must be C or D");
  }
  out.cluster.scheduler.max_procs_per_node = static_cast<int>(cfg.get_int(
      "cluster.max_procs_per_node",
      out.cluster.scheduler.max_procs_per_node));
  out.cluster.privileged_job_fraction = cfg.get_double(
      "cluster.privileged_fraction", out.cluster.privileged_job_fraction);
  out.cluster.idle_utilization =
      cfg.get_double("cluster.idle_utilization", out.cluster.idle_utilization);
  out.cluster.utilization_noise_sigma = cfg.get_double(
      "cluster.utilization_noise", out.cluster.utilization_noise_sigma);
  out.cluster.utilization_ramp_tau_s =
      cfg.get_double("cluster.ramp_tau_s", out.cluster.utilization_ramp_tau_s);

  // [manager]
  out.manager = cfg.get_string("manager.policy", out.manager);
  out.candidate_count = static_cast<int>(
      cfg.get_int("manager.candidate_count", out.candidate_count));
  out.dynamic_candidates =
      cfg.get_bool("manager.dynamic_candidates", out.dynamic_candidates);
  out.capping.steady_green_cycles =
      cfg.get_int("manager.tg_cycles", out.capping.steady_green_cycles);
  out.red_margin = cfg.get_double("manager.red_margin", out.red_margin);
  out.yellow_margin =
      cfg.get_double("manager.yellow_margin", out.yellow_margin);
  out.adjust_period_cycles = cfg.get_int("manager.adjust_period_cycles",
                                         out.adjust_period_cycles);
  out.feedback_gain =
      cfg.get_double("manager.feedback_gain", out.feedback_gain);

  // [experiment]
  out.training = Seconds{
      cfg.get_double("experiment.training_h", out.training.value() / 3600.0) *
      3600.0};
  out.measured = Seconds{
      cfg.get_double("experiment.measured_h", out.measured.value() / 3600.0) *
      3600.0};
  out.calibration_duration =
      Seconds{cfg.get_double("experiment.calibration_h",
                             out.calibration_duration.value() / 3600.0) *
              3600.0};
  out.provision =
      Watts{cfg.get_double("experiment.provision_w", out.provision.value())};
  out.provision_fraction = cfg.get_double("experiment.provision_fraction",
                                          out.provision_fraction);

  // [telemetry]
  out.transport.loss_rate =
      checked_double(cfg, "telemetry.loss_rate", out.transport.loss_rate);
  out.transport.delay_cycles = static_cast<int>(
      checked_int(cfg, "telemetry.delay_cycles", out.transport.delay_cycles));
  out.faults.agent_dropout_rate = checked_double(
      cfg, "telemetry.agent_dropout_rate", out.faults.agent_dropout_rate);
  out.faults.agent_recovery_rate = checked_double(
      cfg, "telemetry.agent_recovery_rate", out.faults.agent_recovery_rate);
  out.faults.crash_rate =
      checked_double(cfg, "telemetry.crash_rate", out.faults.crash_rate);
  out.faults.crash_duration_cycles = static_cast<int>(
      checked_int(cfg, "telemetry.crash_duration_cycles",
                  out.faults.crash_duration_cycles));
  out.faults.corruption_rate = checked_double(cfg, "telemetry.corruption_rate",
                                              out.faults.corruption_rate);
  out.faults.validate();
  out.max_sample_age_cycles = checked_int(
      cfg, "telemetry.max_sample_age_cycles", out.max_sample_age_cycles);
  out.stale_power_margin =
      checked_double(cfg, "telemetry.stale_margin", out.stale_power_margin);

  // [actuation]
  out.actuation.command_loss_rate = checked_double(
      cfg, "actuation.loss_rate", out.actuation.command_loss_rate);
  out.actuation.delivery_delay_cycles = static_cast<int>(checked_int(
      cfg, "actuation.delay_cycles", out.actuation.delivery_delay_cycles));
  out.actuation.transition_failure_rate = checked_double(
      cfg, "actuation.failure_rate", out.actuation.transition_failure_rate);
  out.actuation.partial_transition_rate = checked_double(
      cfg, "actuation.partial_rate", out.actuation.partial_transition_rate);
  out.actuation.reboot_rate =
      checked_double(cfg, "actuation.reboot_rate", out.actuation.reboot_rate);
  out.actuation.reboot_duration_cycles = static_cast<int>(
      checked_int(cfg, "actuation.reboot_duration_cycles",
                  out.actuation.reboot_duration_cycles));
  out.actuation.validate();
  out.reconciliation.max_retries = static_cast<int>(
      checked_int(cfg, "actuation.max_retries", out.reconciliation.max_retries));
  out.reconciliation.retry_backoff_base_cycles = static_cast<int>(
      checked_int(cfg, "actuation.retry_backoff_cycles",
                  out.reconciliation.retry_backoff_base_cycles));
  out.reconciliation.retry_backoff_cap_cycles = static_cast<int>(
      checked_int(cfg, "actuation.retry_backoff_cap_cycles",
                  out.reconciliation.retry_backoff_cap_cycles));
  out.reconciliation.validate();

  // [zones]
  out.zone_count =
      static_cast<int>(checked_int(cfg, "zones.count", out.zone_count));
  if (out.zone_count < 1) {
    throw std::runtime_error("experiment config: 'zones.count' must be >= 1");
  }
  out.zone_assignment = common::to_lower(
      cfg.get_string("zones.assignment", out.zone_assignment));
  power::parse_zone_assignment(out.zone_assignment);  // validate early
  out.zone_redistribution = common::to_lower(
      cfg.get_string("zones.redistribution", out.zone_redistribution));
  power::parse_zone_redistribution(out.zone_redistribution);

  // [prediction] — system-power forecasting for the predictive policies.
  out.prediction.enabled =
      cfg.get_bool("prediction.enabled", out.prediction.enabled);
  out.prediction.kind = common::to_lower(
      cfg.get_string("prediction.kind", out.prediction.kind));
  out.prediction.horizon_cycles = checked_int(
      cfg, "prediction.horizon_cycles", out.prediction.horizon_cycles);
  out.prediction.ewma_alpha =
      checked_double(cfg, "prediction.ewma_alpha", out.prediction.ewma_alpha);
  out.prediction.ewma_beta =
      checked_double(cfg, "prediction.ewma_beta", out.prediction.ewma_beta);
  out.prediction.window_cycles = checked_int(
      cfg, "prediction.window_cycles", out.prediction.window_cycles);
  out.prediction.refresh_cycles = checked_int(
      cfg, "prediction.refresh_cycles", out.prediction.refresh_cycles);
  out.prediction.validate();  // validated even while disabled: fail early

  // [pi] — PI-C controller tuning.
  out.pi.kp = checked_double(cfg, "pi.kp", out.pi.kp);
  out.pi.ki = checked_double(cfg, "pi.ki", out.pi.ki);
  out.pi.integral_cap =
      checked_double(cfg, "pi.integral_cap", out.pi.integral_cap);
  out.pi.validate();

  // [control] — controller-failure injection + the node-local failsafe.
  out.control.outage_rate =
      checked_double(cfg, "control.outage_rate", out.control.outage_rate);
  out.control.outage_duration_cycles = static_cast<int>(
      checked_int(cfg, "control.outage_duration_cycles",
                  out.control.outage_duration_cycles));
  out.control.zone_outage_rate = checked_double(
      cfg, "control.zone_outage_rate", out.control.zone_outage_rate);
  out.control.zone_outage_duration_cycles = static_cast<int>(
      checked_int(cfg, "control.zone_outage_duration_cycles",
                  out.control.zone_outage_duration_cycles));
  out.control.delay_rate =
      checked_double(cfg, "control.delay_rate", out.control.delay_rate);
  out.control.delay_max_cycles = static_cast<int>(checked_int(
      cfg, "control.delay_max_cycles", out.control.delay_max_cycles));
  out.control.validate();
  out.cluster.watchdog.timeout_cycles = checked_int(
      cfg, "watchdog.timeout_cycles", out.cluster.watchdog.timeout_cycles);
  out.cluster.watchdog.safe_level = static_cast<hw::Level>(checked_int(
      cfg, "watchdog.safe_level", out.cluster.watchdog.safe_level));
  out.cluster.watchdog.validate();

  return out;
}

ExperimentConfig experiment_from_file(const std::string& path) {
  return apply_config(paper_scenario(), common::Config::load_file(path));
}

}  // namespace pcap::cluster
