// Builds experiment configurations from INI-style config files, so runs
// can be described declaratively (see examples/configs/*.ini and the
// pcapsim driver).
//
// Recognised keys (all optional; defaults come from paper_scenario()):
//
//   [cluster]
//   nodes = 128                 node count (homogeneous Tianhe boards)
//   seed = 42
//   tick_s = 1.0                simulation step
//   control_period_s = 4.0      manager cycle
//   npb_class = D               C or D
//   max_procs_per_node = 3      rank placement width
//   privileged_fraction = 0.0   fraction of jobs marked privileged
//   idle_utilization = 0.02
//   utilization_noise = 0.02
//   ramp_tau_s = 45
//
//   [manager]
//   policy = mpc                none|mpc|mpc-c|lpc|lpc-c|bfp|hri|hri-c|
//                               ht|ht-c|pi-c|pred-c|uniform|sla|
//                               feedback|budget
//   candidate_count = -1        -1 = all controllable nodes
//   dynamic_candidates = false  use the §III.A selection algorithm
//   tg_cycles = 10              steady-green timer T_g
//   red_margin = 0.07
//   yellow_margin = 0.16
//   adjust_period_cycles = 3600 t_p
//   feedback_gain = 1.0
//
//   [experiment]
//   training_h = 4
//   measured_h = 12
//   calibration_h = 2
//   provision_w = 0             explicit P_Max (0 = calibrate)
//   provision_fraction = 0.84   calibration factor
//
//   [telemetry]
//   loss_rate = 0.0             agent-report loss probability
//   delay_cycles = 0            agent-report delivery delay
//   agent_dropout_rate = 0.0    per-cycle P(healthy agent stops reporting)
//   agent_recovery_rate = 0.25  per-cycle P(down agent restarts)
//   crash_rate = 0.0            per-cycle P(node crashes)
//   crash_duration_cycles = 60  length of a crash window
//   corruption_rate = 0.0       P(delivered report has a garbage power)
//   max_sample_age_cycles = 5   older views are stale (fallback estimate)
//   stale_margin = 0.10         stale power = last known × (1 + margin)
//
//   [actuation]
//   loss_rate = 0.0             P(DVFS command lost in transit)
//   delay_cycles = 0            command delivery delay
//   failure_rate = 0.0          P(transition fails outright)
//   partial_rate = 0.0          P(transition stalls one step in)
//   reboot_rate = 0.0           per-cycle P(node reboots to full power)
//   reboot_duration_cycles = 30 length of a reboot window
//   max_retries = 5             re-sends before a node is abandoned
//   retry_backoff_cycles = 2    first retry delay (doubles per retry)
//   retry_backoff_cap_cycles = 16
//
//   [zones]
//   count = 1                   zone shards (1 = the flat controller)
//   assignment = block          block|stride
//   redistribution = uniform    uniform|proportional headroom split
//
//   [prediction]
//   enabled = false             pi-c/pred-c turn it on themselves
//   kind = ewma                 ewma|fft
//   horizon_cycles = 5          forecast horizon h
//   ewma_alpha = 0.25           level smoothing weight
//   ewma_beta = 0.08            trend smoothing weight
//   window_cycles = 256         fft periodicity window
//   refresh_cycles = 0          fft refresh period (0 = t_p)
//
//   [pi]                        pi-c controller tuning
//   kp = 1.0
//   ki = 0.05
//   integral_cap = 0.5          anti-windup clamp
//
//   [control]
//   outage_rate = 0.0           per-cycle P(root controller blacks out)
//   outage_duration_cycles = 60
//   zone_outage_rate = 0.0      per-cycle P(a zone shard crashes); Z >= 2
//   zone_outage_duration_cycles = 45
//   delay_rate = 0.0            per-cycle P(a control cycle stalls)
//   delay_max_cycles = 3        longest stall
//
//   [watchdog]
//   timeout_cycles = 0          silent cycles before the node-local
//                               failsafe trips (0 = off)
//   safe_level = 0              DVFS level a tripped node steps down to
//
// pcapsim takes the same keys as `section.key=value` arguments.
#pragma once

#include <string>

#include "cluster/experiment.hpp"
#include "common/config.hpp"

namespace pcap::cluster {

/// Applies config keys on top of `base` (typically paper_scenario()).
/// Unknown keys are rejected with std::runtime_error so typos do not
/// silently produce default-valued experiments.
ExperimentConfig apply_config(ExperimentConfig base,
                              const common::Config& cfg);

/// Convenience: paper_scenario() + apply_config(load_file(path)).
ExperimentConfig experiment_from_file(const std::string& path);

}  // namespace pcap::cluster
