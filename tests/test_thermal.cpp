#include "hw/thermal.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "hw/node_spec.hpp"

namespace pcap::hw {
namespace {

ThermalParams params() {
  ThermalParams p;
  p.thermal_resistance = 0.1;
  p.time_constant = Seconds{100.0};
  p.ambient = Celsius{20.0};
  p.leakage_reference = Celsius{50.0};
  p.leakage_coefficient = 0.002;
  return p;
}

// One advance of dt seconds from `current` under `power_w`.
double step(const ThermalParams& p, double current, double power_w,
            double dt_s) {
  return thermal_fast_forward(p, current, power_w, thermal_decay(p, dt_s));
}

TEST(Thermal, EquilibriumIsAmbientPlusRTimesP) {
  // A fully decayed advance (decay 0) lands on the equilibrium.
  const ThermalParams p = params();
  EXPECT_DOUBLE_EQ(thermal_fast_forward(p, 35.0, 300.0, 0.0), 20.0 + 30.0);
  EXPECT_DOUBLE_EQ(thermal_fast_forward(p, 35.0, 0.0, 0.0), 20.0);
}

TEST(Thermal, StepApproachesEquilibrium) {
  const ThermalParams p = params();
  double t = 20.0;
  for (int i = 0; i < 1000; ++i) t = step(p, t, 300.0, 1.0);
  EXPECT_NEAR(t, 50.0, 0.1);
}

TEST(Thermal, StepMonotoneTowardsTarget) {
  const ThermalParams p = params();
  const double t1 = step(p, 20.0, 300.0, 1.0);
  const double t2 = step(p, t1, 300.0, 1.0);
  EXPECT_GT(t1, 20.0);
  EXPECT_GT(t2, t1);
  EXPECT_LT(t2, 50.0);
}

TEST(Thermal, CoolsWhenPowerDrops) {
  const ThermalParams p = params();
  const double cooled = step(p, 45.0, 0.0, 10.0);
  EXPECT_LT(cooled, 45.0);
  EXPECT_GT(cooled, 20.0);
}

TEST(Thermal, LargeStepIsStable) {
  // Exact exponential integration cannot overshoot, even for dt >> tau.
  EXPECT_NEAR(step(params(), 20.0, 300.0, 1e6), 50.0, 1e-6);
}

TEST(Thermal, StepExactExponential) {
  // One step of dt = tau: gap shrinks by e^-1.
  EXPECT_DOUBLE_EQ(thermal_decay(params(), 100.0), std::exp(-1.0));
  EXPECT_NEAR(step(params(), 20.0, 300.0, 100.0),
              50.0 - 30.0 * std::exp(-1.0), 1e-9);
}

TEST(Thermal, LeakageBelowReferenceIsOne) {
  EXPECT_DOUBLE_EQ(leakage_factor(params(), 30.0), 1.0);
  EXPECT_DOUBLE_EQ(leakage_factor(params(), 50.0), 1.0);
}

TEST(Thermal, LeakageGrowsAboveReference) {
  EXPECT_DOUBLE_EQ(leakage_factor(params(), 60.0), 1.0 + 0.002 * 10.0);
  EXPECT_GT(leakage_factor(params(), 80.0), leakage_factor(params(), 60.0));
}

TEST(Thermal, ZeroCoefficientDisablesLeakage) {
  ThermalParams p = params();
  p.leakage_coefficient = 0.0;
  EXPECT_DOUBLE_EQ(leakage_factor(p, 90.0), 1.0);
}

TEST(Thermal, BadParamsThrow) {
  // A node spec carries its thermal parameters; validate() rejects them.
  NodeSpec spec = *tianhe1a_node_spec();
  spec.thermal = params();
  EXPECT_NO_THROW(spec.validate());
  spec.thermal.time_constant = Seconds{0.0};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.thermal = params();
  spec.thermal.thermal_resistance = -1.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.thermal = params();
  spec.thermal.leakage_coefficient = -0.1;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace pcap::hw
