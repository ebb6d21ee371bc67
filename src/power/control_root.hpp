// The root of the control plane (§II's global power manager, §III.A–B).
//
// There is one facility meter, so there is one job that depends on it
// alone, and the capping manager (the zone tree, power/zone_manager.hpp)
// runs it exactly once per cycle for all of its zones:
//
//   1. advance the control-fault windows (is the controller alive?),
//   2. feed the meter reading to the ThresholdLearner (P_L/P_H, §III.A),
//   3. feed it to the PowerPredictor (spectrum refresh on the t_p
//      cadence, forecast, accuracy scoring),
//   4. classify the reading green/yellow/red (§II.B), and
//   5. predictive elevation: a green cycle whose forecast reaches P_L
//      under a forecast-driven policy runs the yellow path instead, so
//      the saving lands before the crossing. Green→yellow only — red stays
//      strictly meter-driven, so a bad forecast can cost a few
//      conservative throttles but can never floor the whole cluster.
//
// A dead root (outage or stall window) observes nothing — the learner's
// and the predictor's windows freeze mid-outage — but still classifies
// against the last-learned thresholds: the band is physically real
// whether or not anyone is watching it.
//
// Everything below the root (telemetry, context, selection, actuation) is
// shard work; CappingManager's phase API carries it out against the band
// the root decided.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "power/control_fault_injector.hpp"
#include "power/predictor.hpp"
#include "power/thresholds.hpp"

namespace pcap::power {

struct ManagerReport;      // power/manager.hpp
struct LearnerCheckpoint;  // power/checkpoint.hpp

class ControlRoot {
 public:
  /// `rng` seeds the control-fault process only. prediction.refresh_cycles
  /// == 0 resolves to thresholds.adjust_period_cycles (the learner's t_p).
  ControlRoot(ThresholdParams thresholds, PredictionParams prediction,
              ControlFaultParams control, common::Rng rng);

  /// Runs steps 1–5 and returns the cycle's report header:
  /// controller_down, measured, P_L, P_H, training, the forecast fields,
  /// the root's lifetime totals (control faults, forecast accuracy,
  /// elevations), and `state` = the effective band after elevation.
  ManagerReport cycle(Watts measured, bool forecast_driven);

  /// The forecast-driven alarm of the last cycle: live root, training
  /// over, a forecast exists and it reaches P_L. Elevates green cycles;
  /// the zone tree also sheds for the forecast when it is armed.
  [[nodiscard]] bool alarm() const { return alarm_; }
  /// The forecast made by the last live cycle for horizon cycles ahead
  /// (empty before the predictor warms up, or without a predictor).
  [[nodiscard]] std::optional<Watts> forecast() const { return forecast_; }

  [[nodiscard]] const ThresholdLearner& thresholds() const { return learner_; }
  [[nodiscard]] ThresholdLearner& thresholds() { return learner_; }
  /// The forecaster, or nullptr when prediction is disabled.
  [[nodiscard]] const PowerPredictor* predictor() const {
    return predictor_.get();
  }
  [[nodiscard]] const ForecastScorer& forecast_scorer() const {
    return scorer_;
  }
  [[nodiscard]] const ControlFaultInjector& control_faults() const {
    return faults_;
  }
  /// Mutable access for drills (inject a forced outage window from a test
  /// or an operator console) and for the tree's zone registration. Serial
  /// with cycle().
  [[nodiscard]] ControlFaultInjector& control_faults() { return faults_; }
  /// Green cycles promoted to the yellow path by a forecast (lifetime).
  [[nodiscard]] std::uint64_t predictive_elevations() const {
    return predictive_elevations_;
  }

  /// The root's half of a checkpoint: the learner image and the predictor
  /// image (the observation counter rides in front of the opaque model
  /// state so the restored refresh cadence stays phase-aligned; empty
  /// without a predictor).
  void checkpoint(LearnerCheckpoint& learner,
                  std::vector<double>& predictor_state) const;
  void restore(const LearnerCheckpoint& learner,
               const std::vector<double>& predictor_state);

 private:
  /// Step 3 plus the forecast stamps of `report`. No-op without a
  /// predictor; live cycles only.
  void forecast_phase(Watts measured, ManagerReport& report);

  ThresholdLearner learner_;
  PredictionParams prediction_;
  PredictorPtr predictor_;
  ForecastScorer scorer_;
  std::optional<Watts> forecast_;
  /// Resolved spectrum refresh cadence; counts live observations.
  std::int64_t predictor_refresh_cycles_ = 0;
  std::int64_t predictor_observations_ = 0;
  std::uint64_t predictive_elevations_ = 0;
  bool alarm_ = false;
  ControlFaultInjector faults_;
};

}  // namespace pcap::power
