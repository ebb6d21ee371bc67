#include "power/control_root.hpp"

#include "power/checkpoint.hpp"
#include "power/manager.hpp"
#include "power/state.hpp"

namespace pcap::power {

ControlRoot::ControlRoot(ThresholdParams thresholds,
                         PredictionParams prediction,
                         ControlFaultParams control, common::Rng rng)
    : learner_(thresholds),
      prediction_(prediction),
      faults_(control, rng) {
  if (prediction_.enabled) {
    prediction_.validate();
    predictor_ = make_predictor(prediction_);
    predictor_refresh_cycles_ = prediction_.refresh_cycles > 0
                                    ? prediction_.refresh_cycles
                                    : thresholds.adjust_period_cycles;
    scorer_.reset(prediction_.horizon_cycles);
  }
}

ManagerReport ControlRoot::cycle(Watts measured, bool forecast_driven) {
  ManagerReport report;
  // With faults disabled begin_cycle() draws nothing and is always false.
  report.controller_down = faults_.begin_cycle();
  const bool live = !report.controller_down;
  if (live) learner_.observe(measured);
  report.measured = measured;
  report.p_low = learner_.p_low();
  report.p_high = learner_.p_high();
  report.training = learner_.training();
  report.state = classify_power(measured, report.p_low, report.p_high);

  // The model runs during training too (it is warm the moment capping
  // starts), but only arms the predictive path once training is over.
  alarm_ = false;
  if (live) {
    forecast_phase(measured, report);
    alarm_ = !report.training && forecast_driven && forecast_.has_value() &&
             *forecast_ >= report.p_low;
  }
  if (alarm_ && report.state == PowerState::kGreen) {
    report.state = PowerState::kYellow;
    ++predictive_elevations_;
  }

  report.zones_down = faults_.zones_down();
  report.ctrl_outages = faults_.outages_started();
  report.ctrl_outage_cycles = faults_.outage_cycles();
  report.ctrl_delayed_cycles = faults_.delayed_cycles();
  report.ctrl_zone_outage_cycles = faults_.zone_outage_cycles();
  report.predictor_overshoots = scorer_.overshoots();
  report.predictor_misses = scorer_.misses();
  report.predictive_elevations = predictive_elevations_;
  return report;
}

void ControlRoot::forecast_phase(Watts measured, ManagerReport& report) {
  if (!predictor_) return;
  predictor_->observe(measured);
  ++predictor_observations_;
  if (auto* periodic = dynamic_cast<PeriodicityPredictor*>(predictor_.get());
      periodic != nullptr &&
      predictor_observations_ % predictor_refresh_cycles_ == 0) {
    // The only super-O(1) model work, scheduled on the learner's t_p
    // cadence — never on the per-cycle hot path.
    periodic->refresh();
  }
  forecast_ = predictor_->forecast(prediction_.horizon_cycles);
  std::optional<double> raw;
  if (forecast_) raw = forecast_->value();
  const std::optional<ForecastScorer::Score> score =
      scorer_.step(measured.value(), learner_.p_low().value(), raw);
  if (score) {
    report.forecast_abs_error = score->abs_error;
    report.forecast_scored = true;
  }
  report.has_forecast = forecast_.has_value();
  if (forecast_) report.forecast = *forecast_;
}

void ControlRoot::checkpoint(LearnerCheckpoint& learner,
                             std::vector<double>& predictor_state) const {
  learner = learner_.checkpoint();
  predictor_state.clear();
  if (!predictor_) return;
  predictor_state.push_back(static_cast<double>(predictor_observations_));
  const std::vector<double> model = predictor_->checkpoint_state();
  predictor_state.insert(predictor_state.end(), model.begin(), model.end());
}

void ControlRoot::restore(const LearnerCheckpoint& learner,
                          const std::vector<double>& predictor_state) {
  learner_.restore(learner);
  if (!predictor_ || predictor_state.empty()) return;
  predictor_observations_ = static_cast<std::int64_t>(predictor_state[0]);
  predictor_->restore_state(
      std::vector<double>(predictor_state.begin() + 1, predictor_state.end()));
  forecast_ = predictor_->forecast(prediction_.horizon_cycles);
}

}  // namespace pcap::power
