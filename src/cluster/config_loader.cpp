#include "cluster/config_loader.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "cluster/scenario.hpp"
#include "common/string_util.hpp"
#include "power/zone_manager.hpp"

namespace pcap::cluster {

namespace {

using common::Config;

/// How a key's text maps onto its field; the field's type does the rest.
/// Fault and tuning knobs are kNonNeg: a stray "nan", "-0.1" or "1e999"
/// would otherwise sail into the params structs, whose validate() cannot
/// name the key (and whose [0,1] range checks let NaN through). Sizes and
/// periods are kPositive: -1 nodes would read as SIZE_MAX, a zero tick
/// would never advance the clock.
enum Rule {
  kAny,       ///< the value as written
  kNonNeg,    ///< a finite number >= 0
  kPositive,  ///< a finite number > 0
  kLower,     ///< lower-cased text, checked by its section's validate()
  kHours,     ///< a finite, non-negative Seconds field written in hours
  kManager,   ///< one of manager_names(), exactly as written
};

template <class T>
void read_field(const Config& cfg, const std::string& key, Rule rule,
                T& field) {
  const bool non_negative = rule == kNonNeg || rule == kHours;
  const bool positive = rule == kPositive;
  const auto reject = [&](const std::string& why) {
    throw std::runtime_error("experiment config: " + why);
  };
  const auto check_finite = [&](double v) {
    if (non_negative && !(std::isfinite(v) && v >= 0.0)) {
      reject("'" + key + "' must be a finite non-negative number");
    }
    if (positive && !(std::isfinite(v) && v > 0.0)) {
      reject("'" + key + "' must be a finite positive number");
    }
  };
  if constexpr (std::is_same_v<T, bool>) {
    field = cfg.get_bool(key, field);
  } else if constexpr (std::is_integral_v<T>) {
    const std::int64_t v =
        cfg.get_int(key, static_cast<std::int64_t>(field));
    if (non_negative && v < 0) reject("'" + key + "' must be >= 0");
    if (positive && v <= 0) reject("'" + key + "' must be > 0");
    field = static_cast<T>(v);
  } else if constexpr (std::is_floating_point_v<T>) {
    field = cfg.get_double(key, field);
    check_finite(field);
  } else if constexpr (std::is_same_v<T, std::string>) {
    field = cfg.get_string(key, field);
    if (rule == kLower) field = common::to_lower(field);
    if (rule == kManager) {
      const std::vector<std::string> names = manager_names();
      if (std::find(names.begin(), names.end(), field) == names.end()) {
        reject("unknown manager '" + field + "' in '" + key + "'");
      }
    }
  } else if constexpr (std::is_same_v<T, workload::NpbClass>) {
    const std::string cls = common::to_lower(cfg.get_string(
        key, field == workload::NpbClass::kC ? "c" : "d"));
    if (cls != "c" && cls != "d") reject("npb_class must be C or D");
    field = cls == "c" ? workload::NpbClass::kC : workload::NpbClass::kD;
  } else {  // Seconds, Watts
    const double scale = rule == kHours ? 3600.0 : 1.0;
    field = T{cfg.get_double(key, field.value() / scale) * scale};
    check_finite(field.value());
  }
}

template <class N>
std::string shortest(N v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

template <class T>
std::string show_field(const T& field, Rule rule) {
  if constexpr (std::is_same_v<T, bool>) {
    return field ? "true" : "false";
  } else if constexpr (std::is_integral_v<T>) {
    return shortest(static_cast<std::int64_t>(field));  // as get_int reads
  } else if constexpr (std::is_floating_point_v<T>) {
    return shortest(field);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return field;
  } else if constexpr (std::is_same_v<T, workload::NpbClass>) {
    return field == workload::NpbClass::kC ? "C" : "D";
  } else {
    return shortest(field.value() / (rule == kHours ? 3600.0 : 1.0));
  }
}

/// One config key: its name, what it sets, and how to read and print the
/// ExperimentConfig field behind it.
struct Key {
  std::string name;
  std::string doc;
  std::function<void(const Config&, ExperimentConfig&)> read;
  std::function<std::string(const ExperimentConfig&)> show;
};

/// `field` is a generic accessor (FIELD below), so one lambda serves both
/// the reader and the printer.
template <class Field>
Key key(const std::string& name, std::string doc, Rule rule, Field field) {
  return {name, std::move(doc),
          [=](const Config& cfg, ExperimentConfig& c) {
            read_field(cfg, name, rule, field(c));
          },
          [=](const ExperimentConfig& c) {
            return show_field(field(c), rule);
          }};
}

#define FIELD(path) [](auto& c) -> auto& { return c.path; }

/// The key reference: every key the loader accepts, in reading order.
const std::vector<Key>& keys() {
  static const std::vector<Key> table = {
      key("cluster.nodes", "node count (homogeneous Tianhe boards)",
          kPositive, FIELD(cluster.num_nodes)),
      key("cluster.seed", "seeds the workload, noise and fault draws", kAny,
          FIELD(cluster.seed)),
      key("cluster.tick_s", "simulation step (s)", kPositive,
          FIELD(cluster.tick)),
      key("cluster.control_period_s", "manager cycle (s)", kPositive,
          FIELD(cluster.control_period)),
      key("cluster.npb_class", "NPB problem class, C or D", kAny,
          FIELD(cluster.npb_class)),
      key("cluster.max_procs_per_node", "rank placement width", kPositive,
          FIELD(cluster.scheduler.max_procs_per_node)),
      key("cluster.privileged_fraction", "fraction of jobs marked privileged",
          kNonNeg, FIELD(cluster.privileged_job_fraction)),
      key("cluster.idle_utilization", "utilization of an idle node", kNonNeg,
          FIELD(cluster.idle_utilization)),
      key("cluster.utilization_noise", "sigma of per-tick utilization noise",
          kNonNeg, FIELD(cluster.utilization_noise_sigma)),
      key("cluster.ramp_tau_s", "utilization ramp time constant (s)",
          kNonNeg, FIELD(cluster.utilization_ramp_tau_s)),

      key("manager.policy", "manager name, one of manager_names()",
          kManager, FIELD(manager)),
      key("manager.candidate_count", "|A_candidate|; -1 = all controllable",
          kAny, FIELD(candidate_count)),
      key("manager.dynamic_candidates", "use the §III.A selection algorithm",
          kAny, FIELD(dynamic_candidates)),
      key("manager.tg_cycles", "steady-green timer T_g", kPositive,
          FIELD(capping.steady_green_cycles)),
      key("manager.red_margin", "P_H factor", kNonNeg, FIELD(red_margin)),
      key("manager.yellow_margin", "P_L factor", kNonNeg,
          FIELD(yellow_margin)),
      key("manager.thresholds_from_provision",
          "derive P_L/P_H from P_Max, no learning (administrator mode)", kAny,
          FIELD(thresholds_from_provision)),
      key("manager.adjust_period_cycles", "threshold adjust period t_p",
          kPositive, FIELD(adjust_period_cycles)),
      key("manager.feedback_gain", "gain of the feedback baseline", kPositive,
          FIELD(feedback_gain)),

      key("experiment.training_h", "threshold training phase", kHours,
          FIELD(training)),
      key("experiment.measured_h", "measured window", kHours, FIELD(measured)),
      key("experiment.calibration_h", "uncapped provision probe", kHours,
          FIELD(calibration_duration)),
      key("experiment.provision_w", "explicit P_Max (0 = calibrate)",
          kNonNeg, FIELD(provision)),
      key("experiment.provision_fraction", "P_Max / uncapped probe peak",
          kPositive, FIELD(provision_fraction)),

      key("telemetry.loss_rate", "agent-report loss probability", kNonNeg,
          FIELD(transport.loss_rate)),
      key("telemetry.delay_cycles", "agent-report delivery delay", kNonNeg,
          FIELD(transport.delay_cycles)),
      key("telemetry.agent_dropout_rate",
          "per-cycle P(healthy agent stops reporting)", kNonNeg,
          FIELD(faults.agent_dropout_rate)),
      key("telemetry.agent_recovery_rate",
          "per-cycle P(down agent restarts)", kNonNeg,
          FIELD(faults.agent_recovery_rate)),
      key("telemetry.crash_rate", "per-cycle P(node crashes)", kNonNeg,
          FIELD(faults.crash_rate)),
      key("telemetry.crash_duration_cycles", "length of a crash window",
          kNonNeg, FIELD(faults.crash_duration_cycles)),
      key("telemetry.corruption_rate",
          "P(delivered report has a garbage power)", kNonNeg,
          FIELD(faults.corruption_rate)),
      key("telemetry.max_sample_age_cycles",
          "older views are stale (fallback estimate)", kNonNeg,
          FIELD(max_sample_age_cycles)),
      key("telemetry.stale_margin", "stale power = last known x (1 + margin)",
          kNonNeg, FIELD(stale_power_margin)),

      key("actuation.loss_rate", "P(DVFS command lost in transit)", kNonNeg,
          FIELD(actuation.command_loss_rate)),
      key("actuation.delay_cycles", "command delivery delay", kNonNeg,
          FIELD(actuation.delivery_delay_cycles)),
      key("actuation.failure_rate", "P(transition fails outright)", kNonNeg,
          FIELD(actuation.transition_failure_rate)),
      key("actuation.partial_rate", "P(transition stalls one step in)",
          kNonNeg, FIELD(actuation.partial_transition_rate)),
      key("actuation.reboot_rate", "per-cycle P(node reboots to full power)",
          kNonNeg, FIELD(actuation.reboot_rate)),
      key("actuation.reboot_duration_cycles", "length of a reboot window",
          kNonNeg, FIELD(actuation.reboot_duration_cycles)),
      key("actuation.max_retries", "re-sends before a node is abandoned",
          kNonNeg, FIELD(reconciliation.max_retries)),
      key("actuation.retry_backoff_cycles",
          "first retry delay (doubles per retry)", kNonNeg,
          FIELD(reconciliation.retry_backoff_base_cycles)),
      key("actuation.retry_backoff_cap_cycles", "longest retry delay",
          kNonNeg, FIELD(reconciliation.retry_backoff_cap_cycles)),

      key("zones.count", "zone shards (1 = the flat controller)", kNonNeg,
          FIELD(zone_count)),
      key("zones.assignment", "block | stride", kLower, FIELD(zone_assignment)),
      key("zones.redistribution", "uniform | proportional headroom split",
          kLower, FIELD(zone_redistribution)),

      key("prediction.enabled", "pi-c/pred-c turn it on themselves", kAny,
          FIELD(prediction.enabled)),
      key("prediction.kind", "ewma | fft", kLower, FIELD(prediction.kind)),
      key("prediction.horizon_cycles", "forecast horizon h", kNonNeg,
          FIELD(prediction.horizon_cycles)),
      key("prediction.ewma_alpha", "level smoothing weight", kNonNeg,
          FIELD(prediction.ewma_alpha)),
      key("prediction.ewma_beta", "trend smoothing weight", kNonNeg,
          FIELD(prediction.ewma_beta)),
      key("prediction.window_cycles", "fft periodicity window", kNonNeg,
          FIELD(prediction.window_cycles)),
      key("prediction.refresh_cycles", "fft refresh period (0 = t_p)",
          kNonNeg, FIELD(prediction.refresh_cycles)),

      key("pi.kp", "pi-c proportional gain", kNonNeg, FIELD(pi.kp)),
      key("pi.ki", "pi-c integral gain", kNonNeg, FIELD(pi.ki)),
      key("pi.integral_cap", "pi-c anti-windup clamp", kNonNeg,
          FIELD(pi.integral_cap)),

      key("control.outage_rate", "per-cycle P(root controller blacks out)",
          kNonNeg, FIELD(control.outage_rate)),
      key("control.outage_duration_cycles", "length of a blackout", kNonNeg,
          FIELD(control.outage_duration_cycles)),
      key("control.zone_outage_rate",
          "per-cycle P(a zone shard crashes); needs zones.count >= 2",
          kNonNeg, FIELD(control.zone_outage_rate)),
      key("control.zone_outage_duration_cycles",
          "length of a zone shard crash", kNonNeg,
          FIELD(control.zone_outage_duration_cycles)),
      key("control.delay_rate", "per-cycle P(a control cycle stalls)",
          kNonNeg, FIELD(control.delay_rate)),
      key("control.delay_max_cycles", "longest stall", kNonNeg,
          FIELD(control.delay_max_cycles)),

      key("watchdog.timeout_cycles",
          "silent cycles before the node-local failsafe trips (0 = off)",
          kNonNeg, FIELD(cluster.watchdog.timeout_cycles)),
      key("watchdog.safe_level", "DVFS level a tripped node steps down to",
          kNonNeg, FIELD(cluster.watchdog.safe_level)),
  };
  return table;
}

#undef FIELD

/// The checks that span a section, in the order they have always run.
void validate(const ExperimentConfig& c) {
  c.faults.validate();
  c.actuation.validate();
  c.reconciliation.validate();
  if (c.zone_count < 1) {
    throw std::runtime_error("experiment config: 'zones.count' must be >= 1");
  }
  power::parse_zone_assignment(c.zone_assignment);
  power::parse_zone_redistribution(c.zone_redistribution);
  c.prediction.validate();  // validated even while disabled: fail early
  c.pi.validate();
  c.control.validate();
  c.cluster.watchdog.validate();
}

}  // namespace

ExperimentConfig apply_config(ExperimentConfig base, const Config& cfg) {
  for (const std::string& name : cfg.keys()) {
    if (std::none_of(keys().begin(), keys().end(),
                     [&](const Key& k) { return k.name == name; })) {
      throw std::runtime_error("experiment config: unknown key '" + name +
                               "'");
    }
  }
  for (const Key& k : keys()) k.read(cfg, base);
  validate(base);
  return base;
}

std::string config_text(const ExperimentConfig& config) {
  Config out;
  for (const Key& k : keys()) out.set(k.name, k.show(config));
  return out.to_string();
}

ExperimentConfig experiment_from_file(const std::string& path) {
  return apply_config(paper_scenario(), Config::load_file(path));
}

}  // namespace pcap::cluster
