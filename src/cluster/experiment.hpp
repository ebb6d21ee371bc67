// Experiment runner: training phase + measured phase + metric extraction.
//
// One ExperimentConfig fully determines a run (seeded), so benches sweep
// configs and compare results. Managers are selected by name, one of
// manager_names().
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "metrics/performance.hpp"
#include "power/actuation_channel.hpp"
#include "power/capping.hpp"
#include "power/policy_registry.hpp"
#include "power/predictor.hpp"
#include "power/reconciler.hpp"
#include "power/thresholds.hpp"

namespace pcap::cluster {

struct ExperimentConfig {
  ClusterConfig cluster;

  std::string manager = "mpc";

  /// Size of A_candidate: the first N controllable nodes. Negative = all.
  int candidate_count = -1;

  /// Use the dynamic candidate selector (§III.A algorithm (c)) instead of
  /// a fixed candidate set: privileged jobs' nodes are excluded while
  /// they run, and |A_candidate| stays capped at candidate_count.
  bool dynamic_candidates = false;

  /// Power provision capability P_Max (wall watts). When unset (<= 0) it
  /// is calibrated as `provision_fraction` x the peak of a short uncapped
  /// probe run with the same seed.
  Watts provision{0.0};
  double provision_fraction = 0.84;
  Seconds calibration_duration{7200.0};

  Seconds training{4 * 3600.0};  ///< paper: 24 h; benches default to 4 h
  Seconds measured{12 * 3600.0};

  power::CappingParams capping;      ///< T_g etc.
  double red_margin = 0.07;          ///< P_H factor (§III.A)
  double yellow_margin = 0.16;       ///< P_L factor
  /// Administrator mode: derive P_L/P_H from the provision instead of
  /// learning P_peak (no training phase).
  bool thresholds_from_provision = false;
  std::int64_t adjust_period_cycles = 3600;  ///< t_p

  double feedback_gain = 1.0;  ///< only for manager == "feedback"

  /// Management-plane fault model: agent reports may be lost or delayed.
  telemetry::TransportParams transport;
  /// Telemetry-plane fault injection: agent dropout, node crash windows,
  /// corrupted power estimates. All-zero (off) by default.
  telemetry::FaultParams faults;
  /// Manager-side staleness policy (see CappingManagerParams).
  std::int64_t max_sample_age_cycles = 5;
  double stale_power_margin = 0.10;
  /// Actuation-plane fault model: command loss/delay, failed or partial
  /// DVFS transitions, node reboots. All-zero (off) by default. Only the
  /// capping managers route commands through the channel; the baselines
  /// keep their perfect actuators.
  power::ActuationFaultParams actuation;
  /// Manager-side ack/retry/divergence policy for the lossy channel.
  power::ReconcilerParams reconciliation;
  /// Control-plane fault model: whole-controller blackouts, per-zone
  /// shard crash windows, control-cycle delay. All-zero (off) by default;
  /// only the capping managers support it (the baselines throw).
  power::ControlFaultParams control;

  /// System-power forecasting (power/predictor.hpp). Off by default; the
  /// predictive policies (pi-c/pred-c) auto-enable it with these params —
  /// they are inert without a forecast.
  power::PredictionParams prediction;
  /// PI controller tuning; consumed only by manager == "pi-c".
  power::PiTuning pi;

  /// Zones of the capping-policy manager, a ZoneTreeManager (Z zone
  /// shards under one root learner / headroom redistributor). 1 = the
  /// flat controller. Z >= 2 is incompatible with dynamic_candidates and
  /// with the budget/feedback/none baselines; control.zone_outage_rate > 0
  /// needs Z >= 2.
  int zone_count = 1;
  std::string zone_assignment = "block";        ///< block | stride
  std::string zone_redistribution = "uniform";  ///< uniform | proportional
};

struct ExperimentResult {
  std::string manager;
  std::size_t candidate_count = 0;

  metrics::PerformanceSummary perf;
  Watts p_max{0.0};          ///< peak wall power in the measured window
  Watts mean_power{0.0};
  Joules energy{0.0};
  double delta_pxt = 0.0;    ///< ΔP×T against the provision threshold
  Watts provision{0.0};
  Watts p_low{0.0};          ///< final learned thresholds
  Watts p_high{0.0};

  std::size_t green_cycles = 0;
  std::size_t yellow_cycles = 0;
  std::size_t red_cycles = 0;
  bool never_red = true;     ///< §V.D: power never entered the red state
  double mean_manager_utilization = 0.0;
  std::size_t transitions = 0;  ///< DVFS actuations during measurement

  // Telemetry-health accounting over the measured window.
  std::size_t stale_node_cycles = 0;     ///< Σ per-cycle stale views
  std::size_t fallback_node_cycles = 0;  ///< Σ per-cycle substituted views
  std::size_t skipped_targets = 0;       ///< Σ targets the engine refused
  // Actuation reconciliation over the measured window.
  std::size_t command_retries = 0;       ///< Σ per-cycle re-sent commands
  std::size_t divergences = 0;           ///< Σ per-cycle believed≠observed
  std::size_t heals = 0;                 ///< Σ per-cycle healing commands
  // Fault/transport ground truth (lifetime totals at the end of the run).
  std::uint64_t samples_lost = 0;
  std::uint64_t samples_suppressed = 0;
  std::uint64_t samples_corrupted = 0;
  std::uint64_t crash_events = 0;
  std::uint64_t recovery_events = 0;
  // Actuation-plane ground truth (lifetime totals at the end of the run).
  std::uint64_t commands_lost = 0;
  std::uint64_t commands_rebooting = 0;
  std::uint64_t transitions_failed = 0;
  std::uint64_t transitions_partial = 0;
  std::uint64_t reboot_events = 0;
  std::uint64_t commands_abandoned = 0;
  std::uint64_t commands_clamped = 0;
  // Control-plane fault ground truth (lifetime totals at the end of the
  // run) and failsafe-watchdog activity.
  std::uint64_t ctrl_outages = 0;
  std::uint64_t ctrl_outage_cycles = 0;
  std::uint64_t ctrl_delayed_cycles = 0;
  std::uint64_t ctrl_zone_outage_cycles = 0;
  // Predictor ground truth (lifetime totals at the end of the run;
  // all-zero for managers without a forecaster).
  std::uint64_t predictor_overshoots = 0;
  std::uint64_t predictor_misses = 0;
  std::uint64_t predictive_elevations = 0;
  std::uint64_t watchdog_engagements = 0;
  std::uint64_t watchdog_transitions = 0;
  std::size_t watchdog_adoptions = 0;  ///< measured-window delta

  // Final registry exports (obs/registry.hpp): every series the engine,
  // cluster and manager published, including the cycle-phase span
  // histograms. The telemetry/actuation totals above are themselves
  // derived from this registry (counter deltas over the measured window).
  std::string metrics_prometheus;  ///< Prometheus text exposition
  std::string metrics_json;        ///< JSON snapshot
};

/// Runs calibration (if needed), training and measurement; returns the
/// metrics of the measured window.
ExperimentResult run_experiment(const ExperimentConfig& config);

/// The scalar results of one config averaged over seeds.
struct AveragedResult {
  std::string manager;
  double performance = 0.0;
  double lossless_fraction = 0.0;
  double p_max_w = 0.0;
  double delta_pxt = 0.0;
  double yellow_s = 0.0;
  double red_s = 0.0;
  double manager_utilization = 0.0;
  double predictive_elevations = 0.0;
  double predictor_overshoots = 0.0;
  double predictor_misses = 0.0;
};

/// Runs every config once per seed, all (config, seed) pairs in one
/// parallel_for, then folds each config's runs serially in seed order
/// (Σ xᵢ/n), so the means do not depend on the worker count. With no
/// seeds each config runs once at its own cluster.seed.
std::vector<AveragedResult> average_over_seeds(
    const std::vector<ExperimentConfig>& configs,
    const std::vector<std::uint64_t>& seeds);

/// Probes the uncapped peak power of the configured cluster/workload over
/// `duration` (used for provision calibration; deterministic given seed).
Watts probe_uncapped_peak(const ClusterConfig& cluster, Seconds duration);

/// Every manager make_manager builds: "none" (no power management, the
/// baseline runs); power::policy_names() (the paper's architecture with
/// that policy, including the related-work "uniform" and "sla" inside
/// Algorithm 1); "feedback" (Wang-style proportional controller) and
/// "budget" (two-level demand-proportional budgets).
std::vector<std::string> manager_names();

/// Builds the manager named in the config (exposed for examples/tests).
std::unique_ptr<power::PowerManagerBase> make_manager(
    const ExperimentConfig& config, const ClusterConfig& cluster,
    Watts provision, const std::vector<hw::NodeId>& candidates);

}  // namespace pcap::cluster
