#include "telemetry/management_cost.hpp"

#include <gtest/gtest.h>

namespace pcap::telemetry {
namespace {

TEST(ManagementCost, ZeroNodesCostsBaseOnly) {
  const ManagementCostModel m;
  EXPECT_DOUBLE_EQ(m.cycle_cost_us(0, 0), m.params().base_us);
}

TEST(ManagementCost, GrowsWithCandidates) {
  const ManagementCostModel m;
  double prev = 0.0;
  for (const std::size_t n : {8u, 16u, 32u, 64u, 128u}) {
    const double cost = m.cycle_cost_us(n, 10);
    EXPECT_GT(cost, prev);
    prev = cost;
  }
}

TEST(ManagementCost, SuperLinearInCandidates) {
  // Figure 5's key claim: cost grows non-linearly with |A_candidate|.
  // Doubling n (with jobs proportional to n) must more than double cost
  // net of the fixed base.
  const ManagementCostModel m;
  const double base = m.params().base_us;
  const double c64 = m.cycle_cost_us(64, 8) - base;
  const double c128 = m.cycle_cost_us(128, 16) - base;
  EXPECT_GT(c128, 2.0 * c64);
}

TEST(ManagementCost, GrowsWithJobs) {
  const ManagementCostModel m;
  EXPECT_GT(m.cycle_cost_us(64, 20), m.cycle_cost_us(64, 5));
}

TEST(ManagementCost, UtilizationIsCostOverPeriod) {
  const ManagementCostModel m;
  const double cost_us = m.cycle_cost_us(32, 4);
  EXPECT_NEAR(m.cpu_utilization(32, 4, Seconds{1.0}), cost_us * 1e-6, 1e-12);
  EXPECT_NEAR(m.cpu_utilization(32, 4, Seconds{2.0}), cost_us * 1e-6 / 2.0,
              1e-12);
}

TEST(ManagementCost, BadPeriodThrows) {
  const ManagementCostModel m;
  EXPECT_THROW((void)m.cpu_utilization(1, 1, Seconds{0.0}),
               std::invalid_argument);
}

TEST(ManagementCost, NegativeCoefficientThrows) {
  ManagementCostParams p;
  p.collect_us_per_node = -1.0;
  EXPECT_THROW(ManagementCostModel{p}, std::invalid_argument);
}

TEST(ManagementCost, SingleNodeAvoidsLogZero) {
  const ManagementCostModel m;
  EXPECT_GT(m.cycle_cost_us(1, 0), m.params().base_us);
}

}  // namespace
}  // namespace pcap::telemetry
