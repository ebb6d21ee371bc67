#include "power/state.hpp"

#include <gtest/gtest.h>

#include <tuple>

namespace pcap::power {
namespace {

TEST(PowerState, GreenBelowLow) {
  EXPECT_EQ(classify_power(Watts{80.0}, Watts{100.0}, Watts{120.0}),
            PowerState::kGreen);
}

TEST(PowerState, YellowBetweenThresholds) {
  EXPECT_EQ(classify_power(Watts{110.0}, Watts{100.0}, Watts{120.0}),
            PowerState::kYellow);
}

TEST(PowerState, RedAtOrAboveHigh) {
  EXPECT_EQ(classify_power(Watts{120.0}, Watts{100.0}, Watts{120.0}),
            PowerState::kRed);
  EXPECT_EQ(classify_power(Watts{500.0}, Watts{100.0}, Watts{120.0}),
            PowerState::kRed);
}

TEST(PowerState, BoundariesArePaperExact) {
  // Green: P < P_L.  Yellow: P_L <= P < P_H.  Red: P >= P_H.
  EXPECT_EQ(classify_power(Watts{100.0}, Watts{100.0}, Watts{120.0}),
            PowerState::kYellow);
  EXPECT_EQ(classify_power(Watts{99.999}, Watts{100.0}, Watts{120.0}),
            PowerState::kGreen);
  EXPECT_EQ(classify_power(Watts{119.999}, Watts{100.0}, Watts{120.0}),
            PowerState::kYellow);
}

TEST(PowerState, EqualThresholdsHaveNoYellowBand) {
  EXPECT_EQ(classify_power(Watts{99.0}, Watts{100.0}, Watts{100.0}),
            PowerState::kGreen);
  EXPECT_EQ(classify_power(Watts{100.0}, Watts{100.0}, Watts{100.0}),
            PowerState::kRed);
}

TEST(PowerState, InvertedThresholdsThrow) {
  EXPECT_THROW(classify_power(Watts{1.0}, Watts{120.0}, Watts{100.0}),
               std::invalid_argument);
}

// Property: classification is monotone in P for any valid thresholds.
class StateMonotone
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(StateMonotone, MonotoneInPower) {
  const auto [low, high] = GetParam();
  PowerState prev = PowerState::kGreen;
  for (double p = 0.0; p <= high * 1.5; p += high / 40.0) {
    const PowerState s = classify_power(Watts{p}, Watts{low}, Watts{high});
    EXPECT_GE(static_cast<int>(s), static_cast<int>(prev));
    prev = s;
  }
  EXPECT_EQ(prev, PowerState::kRed);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, StateMonotone,
                         ::testing::Values(std::make_tuple(84.0, 93.0),
                                           std::make_tuple(100.0, 100.0),
                                           std::make_tuple(10.0, 1000.0)));

}  // namespace
}  // namespace pcap::power
