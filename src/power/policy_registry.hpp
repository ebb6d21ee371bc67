// The target set selection policies (§IV) and their name -> policy factory.
//
// Every policy is one row of a table in policy_registry.cpp: an order
// over jobs (P(J), ΔP^t(J), mean temperature or SLA class) and a goal —
// the first job in that order, or whole jobs in that order until the
// one-level saving covers a demand (Algorithm 2). The rows:
//   mpc / mpc-c   — P(J) descending; one job / until Saved >= P - P_L.
//   lpc / lpc-c   — P(J) ascending; one job / until P - P_L.
//   hri / hri-c   — ΔP^t(J) descending (§IV.B); one job / until P - P_L.
//   ht / ht-c     — mean board temperature descending (thermal-aware
//                   extension, after Sarood & Kale [5]).
//   sla           — SLA class ascending (bronze first), then P(J)
//                   descending, until P - P_L (after Ranganathan et al.).
//   pred-c        — P(J) descending until max(forecast - P_L, P - P_L).
//   pi-c          — P(J) descending until max(P_L (kp e + ki ∫e), P - P_L),
//                   a Cerf-style PI controller on the predicted relative
//                   error e = (P_pred - P_L) / P_L with anti-windup.
//   bfp           — the job whose saving is the smallest one >= P - P_L,
//                   else the largest saving.
//   uniform       — every busy node above the floor, no job awareness
//                   (the related-work strawman of §I.B).
//
// pi-c and pred-c are forecast_driven(): they read the manager's forecast
// and fall back to the meter without one. Under a zone shard's synthetic
// context (p_low <= 0, system_power = the zone's share) they honour the
// share verbatim, without touching the PI state.
#pragma once

#include <string>
#include <vector>

#include "power/policy.hpp"

namespace pcap::power {

/// PI-C gains. The controller runs on the *relative* error
/// e = (P_pred - P_L) / P_L, so the gains are dimensionless and one
/// tuning works across cluster sizes; the output is scaled back by P_L
/// into watts of demanded saving.
struct PiTuning {
  double kp = 1.0;           ///< proportional gain
  double ki = 0.05;          ///< integral gain (per control cycle)
  double integral_cap = 0.5; ///< anti-windup clamp on the integral term

  void validate() const;
};

/// Instantiates a policy by (case-insensitive) name, one of
/// policy_names(). Throws std::invalid_argument for unknown names.
PolicyPtr make_policy(const std::string& name);

/// Same, but routes PI gains into "pi-c" (other names ignore `pi`).
PolicyPtr make_policy(const std::string& name, const PiTuning& pi);

/// All registered policy names, in table order.
std::vector<std::string> policy_names();

enum class SlaClass { kBronze = 0, kSilver = 1, kGold = 2 };

/// Deterministic service class of a job (bronze/silver/gold in a 2:2:1
/// mix by id), so SLA runs are reproducible; a production system would
/// read it from the scheduler.
SlaClass sla_class_of(workload::JobId id);

/// Mean board temperature over a job's candidate nodes (degrees C);
/// 0 for an empty node list.
double mean_job_temperature(const PolicyContext& ctx, const JobView& job);

}  // namespace pcap::power
