// First-order thermal model with temperature-dependent leakage.
//
// The paper's introduction cites the positive feedback loop between
// temperature and power ("a chipset with higher temperatures consumes more
// power while running identical computations" [5]) and motivates ΔP×T as a
// proxy for accumulated thermal damage. We model node temperature with a
// lumped RC network:
//
//   dT/dt = (P * R_th - (T - T_amb)) / tau_th
//
// and scale leakage (idle) power by a factor growing linearly with the
// temperature excess above a reference point.
#pragma once

#include <cmath>

#include "common/units.hpp"

namespace pcap::hw {

struct ThermalParams {
  double thermal_resistance = 0.12;  ///< R_th in deg-C per watt.
  Seconds time_constant{120.0};      ///< tau_th: RC time constant.
  Celsius ambient{22.0};             ///< machine-room inlet temperature.
  Celsius leakage_reference{55.0};   ///< T_ref above which leakage grows.
  double leakage_coefficient = 0.0;  ///< fractional leakage per deg-C; 0
                                     ///< disables the feedback entirely.
};

/// Closed-form pieces of the RC integral, used by the NodeStatePool's lazy
/// fast-forward. Power is piecewise-constant between power-changing
/// events, so advancing by any dt under the power that held over the
/// interval is the *exact* solution of the ODE — this is what lets
/// quiescent nodes skip per-tick thermal stepping entirely and
/// fast-forward in one evaluation when they next wake.
inline double thermal_decay(const ThermalParams& p, double dt_s) {
  return std::exp(-dt_s / p.time_constant.value());
}

inline double thermal_fast_forward(const ThermalParams& p, double current_c,
                                   double power_w, double decay) {
  const double target = p.ambient.value() + power_w * p.thermal_resistance;
  return target + (current_c - target) * decay;
}

/// Multiplier (>= 1) applied to idle (leakage) power: 1 at or below the
/// reference temperature, 1 + k * (T - T_ref) above it.
inline double leakage_factor(const ThermalParams& p, double temperature_c) {
  if (p.leakage_coefficient == 0.0 ||
      temperature_c <= p.leakage_reference.value()) {
    return 1.0;
  }
  return 1.0 + p.leakage_coefficient *
                   (temperature_c - p.leakage_reference.value());
}

}  // namespace pcap::hw
