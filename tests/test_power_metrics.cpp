#include "metrics/power_metrics.hpp"

#include <gtest/gtest.h>

namespace pcap::metrics {
namespace {

PowerTrace trace(std::vector<double> watts, double dt = 1.0) {
  PowerTrace t;
  t.dt = Seconds{dt};
  t.watts = std::move(watts);
  return t;
}

TEST(PowerTrace, DurationAndAdd) {
  PowerTrace t;
  t.dt = Seconds{2.0};
  t.add(Watts{100.0});
  t.add(Watts{200.0});
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.duration(), Seconds{4.0});
}

TEST(PeakPower, FindsMax) {
  EXPECT_DOUBLE_EQ(peak_power(trace({100.0, 300.0, 200.0})).value(), 300.0);
}

TEST(PeakPower, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(peak_power(trace({})).value(), 0.0);
}

TEST(MeanPower, Averages) {
  EXPECT_DOUBLE_EQ(mean_power(trace({100.0, 200.0, 300.0})).value(), 200.0);
}

TEST(TotalEnergy, IntegratesOverDt) {
  EXPECT_DOUBLE_EQ(total_energy(trace({100.0, 200.0}, 2.0)).value(), 600.0);
}

TEST(OverspentEnergy, OnlyAboveThreshold) {
  // Above 150: (50 + 0 + 150) * dt.
  EXPECT_DOUBLE_EQ(
      overspent_energy(trace({200.0, 100.0, 300.0}), Watts{150.0}).value(),
      200.0);
}

TEST(OverspentEnergy, ZeroWhenNeverAbove) {
  EXPECT_DOUBLE_EQ(
      overspent_energy(trace({100.0, 120.0}), Watts{150.0}).value(), 0.0);
}

TEST(AccumulatedOverspend, MatchesPaperFormula) {
  // P = {200, 100, 300}, th = 150. Overspend = 200, total = 600.
  EXPECT_NEAR(accumulated_overspend(trace({200.0, 100.0, 300.0}),
                                    Watts{150.0}),
              200.0 / 600.0, 1e-12);
}

TEST(AccumulatedOverspend, ZeroForSafeTrace) {
  EXPECT_DOUBLE_EQ(
      accumulated_overspend(trace({100.0, 100.0}), Watts{150.0}), 0.0);
}

TEST(AccumulatedOverspend, EmptyTraceIsZero) {
  EXPECT_DOUBLE_EQ(accumulated_overspend(trace({}), Watts{150.0}), 0.0);
}

TEST(AccumulatedOverspend, IndependentOfDt) {
  // The ratio of two integrals over the same trace cancels dt.
  const double a =
      accumulated_overspend(trace({200.0, 100.0, 300.0}, 1.0), Watts{150.0});
  const double b =
      accumulated_overspend(trace({200.0, 100.0, 300.0}, 5.0), Watts{150.0});
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(AccumulatedOverspend, CappingReducesIt) {
  // A capped version of the same trace (clipped at 250) must score lower.
  const auto uncapped = trace({200.0, 100.0, 300.0, 280.0});
  auto capped = uncapped;
  for (double& w : capped.watts) w = std::min(w, 250.0);
  EXPECT_LT(accumulated_overspend(capped, Watts{150.0}),
            accumulated_overspend(uncapped, Watts{150.0}));
}

TEST(AccumulatedOverspend, ZeroDtTraceIsZero) {
  // Degenerate dt = 0: both integrals vanish; no division blow-up.
  EXPECT_DOUBLE_EQ(
      accumulated_overspend(trace({200.0, 300.0}, 0.0), Watts{150.0}), 0.0);
}

TEST(AccumulatedOverspend, AllBelowThresholdIsZero) {
  EXPECT_DOUBLE_EQ(
      accumulated_overspend(trace({10.0, 20.0, 30.0}), Watts{150.0}), 0.0);
}

TEST(AccumulatedOverspend, AllAtThresholdIsZero) {
  // Every sample exactly at the threshold overspends nothing — the same
  // boundary convention overspent_energy follows.
  EXPECT_DOUBLE_EQ(
      accumulated_overspend(trace({150.0, 150.0, 150.0}), Watts{150.0}),
      0.0);
}

TEST(BoundaryConvention, OverspendMetricsAgreeOnAThresholdExactSample) {
  // ΔP×T boundary pin: one sample exactly AT the threshold, one below,
  // one strictly above. Both overspend metrics must count only the strict
  // excursion — an exact-at-threshold sample contributes zero overspend.
  const auto t = trace({150.0, 149.0, 151.0}, 2.0);
  const Watts th{150.0};
  EXPECT_DOUBLE_EQ(overspent_energy(t, th).value(), 1.0 * 2.0);
  EXPECT_DOUBLE_EQ(accumulated_overspend(t, th),
                   (1.0 * 2.0) / ((150.0 + 149.0 + 151.0) * 2.0));
}

}  // namespace
}  // namespace pcap::metrics
