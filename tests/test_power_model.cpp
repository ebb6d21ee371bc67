#include "hw/power_model.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "hw/node_spec.hpp"

namespace pcap::hw {
namespace {

using namespace pcap::literals;

DevicePowerTable simple_table() {
  // Two levels with easily checkable numbers.
  DevicePowerTable t;
  t.idle = {Watts{100.0}, Watts{140.0}};
  t.cpu_dyn = {Watts{60.0}, Watts{190.0}};
  t.mem_dyn = {Watts{60.0}, Watts{60.0}};
  t.nic_dyn = {Watts{25.0}, Watts{25.0}};
  return t;
}

OperatingPoint op_full() {
  OperatingPoint op;
  op.cpu_utilization = 1.0;
  op.mem_used = Bytes{48.0};
  op.mem_total = Bytes{48.0};
  op.nic_bytes = Bytes{5e9};
  op.tau = Seconds{1.0};
  op.nic_bandwidth = 5e9;
  return op;
}

TEST(PowerModel, Formula1AtFullLoad) {
  const PowerModel m(simple_table());
  // P = idle + 1*cpu + 1*mem + 1*nic at the top level.
  EXPECT_DOUBLE_EQ(m.power(1, op_full()).value(), 140.0 + 190.0 + 60.0 + 25.0);
  EXPECT_DOUBLE_EQ(m.power(0, op_full()).value(), 100.0 + 60.0 + 60.0 + 25.0);
}

TEST(PowerModel, Formula1Idle) {
  const PowerModel m(simple_table());
  OperatingPoint op;
  op.mem_total = Bytes{48.0};
  op.nic_bandwidth = 5e9;
  EXPECT_DOUBLE_EQ(m.power(1, op).value(), 140.0);
}

TEST(PowerModel, Formula1PartialTerms) {
  const PowerModel m(simple_table());
  OperatingPoint op = op_full();
  op.cpu_utilization = 0.5;
  op.mem_used = Bytes{24.0};       // half the memory
  op.nic_bytes = Bytes{2.5e9};     // half the link
  EXPECT_DOUBLE_EQ(m.power(1, op).value(),
                   140.0 + 0.5 * 190.0 + 0.5 * 60.0 + 0.5 * 25.0);
}

TEST(PowerModel, NicFractionUsesTauTimesBandwidth) {
  OperatingPoint op = op_full();
  op.tau = Seconds{2.0};
  op.nic_bytes = Bytes{5e9};  // half of 2 s * 5e9 B/s
  EXPECT_DOUBLE_EQ(op.nic_fraction(), 0.5);
}

TEST(PowerModel, FractionsClampToOne) {
  const PowerModel m(simple_table());
  OperatingPoint op = op_full();
  op.cpu_utilization = 1.7;
  op.mem_used = Bytes{500.0};
  op.nic_bytes = Bytes{1e12};
  EXPECT_DOUBLE_EQ(m.power(1, op).value(), 140.0 + 190.0 + 60.0 + 25.0);
}

TEST(PowerModel, NegativeUtilizationClampsToZero) {
  const PowerModel m(simple_table());
  OperatingPoint op;
  op.cpu_utilization = -0.5;
  op.mem_total = Bytes{48.0};
  op.nic_bandwidth = 5e9;
  EXPECT_DOUBLE_EQ(m.power(1, op).value(), 140.0);
}

TEST(PowerModel, BadLevelThrows) {
  const PowerModel m(simple_table());
  EXPECT_THROW((void)m.power(2, op_full()), std::out_of_range);
  EXPECT_THROW((void)m.power(-1, op_full()), std::out_of_range);
}

TEST(PowerModel, TheoreticalMax) {
  const PowerModel m(simple_table());
  EXPECT_DOUBLE_EQ(m.theoretical_max().value(), 140.0 + 190.0 + 60.0 + 25.0);
}

TEST(DevicePowerTable, ValidateCatchesRagged) {
  DevicePowerTable t = simple_table();
  t.mem_dyn.pop_back();
  EXPECT_THROW(t.validate(), std::invalid_argument);
}

TEST(DevicePowerTable, ValidateCatchesNegative) {
  DevicePowerTable t = simple_table();
  t.cpu_dyn[0] = Watts{-1.0};
  EXPECT_THROW(t.validate(), std::invalid_argument);
}

TEST(DevicePowerTable, ValidateCatchesEmpty) {
  DevicePowerTable t;
  EXPECT_THROW(t.validate(), std::invalid_argument);
}

TEST(MakeScaledTable, DepthMatchesLadder) {
  const DvfsLadder ladder = DvfsLadder::xeon_x5670();
  const DevicePowerTable t =
      make_scaled_table(ladder, 95_W, 45_W, 190_W, 60_W, 25_W);
  EXPECT_EQ(t.num_levels(), ladder.num_levels());
}

TEST(MakeScaledTable, CpuDynFollowsPowerScale) {
  const DvfsLadder ladder = DvfsLadder::xeon_x5670();
  const DevicePowerTable t =
      make_scaled_table(ladder, 95_W, 45_W, 190_W, 60_W, 25_W);
  for (Level l = 0; l < ladder.num_levels(); ++l) {
    EXPECT_NEAR(t.cpu_dyn[static_cast<std::size_t>(l)].value(),
                190.0 * ladder.power_scale(l), 1e-9);
  }
}

TEST(MakeScaledTable, MemAndNicLevelIndependent) {
  const DvfsLadder ladder = DvfsLadder::xeon_x5670();
  const DevicePowerTable t =
      make_scaled_table(ladder, 95_W, 45_W, 190_W, 60_W, 25_W);
  for (Level l = 0; l < ladder.num_levels(); ++l) {
    EXPECT_DOUBLE_EQ(t.mem_dyn[static_cast<std::size_t>(l)].value(), 60.0);
    EXPECT_DOUBLE_EQ(t.nic_dyn[static_cast<std::size_t>(l)].value(), 25.0);
  }
}

// Property sweep over (level, utilisation): power is monotone both in the
// DVFS level and in the CPU utilisation — formula (1) must never reward
// running faster with less power.
class PowerMonotone
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(PowerMonotone, IncreasingInLevelAndUtilization) {
  const auto spec = tianhe1a_node_spec();
  const PowerModel& m = spec->power_model;
  const auto [level, uti] = GetParam();
  OperatingPoint op = op_full();
  op.cpu_utilization = uti;

  if (level + 1 < m.num_levels()) {
    EXPECT_LE(m.power(level, op), m.power(level + 1, op));
  }
  OperatingPoint hotter = op;
  hotter.cpu_utilization = uti + 0.1;
  EXPECT_LE(m.power(level, op), m.power(level, hotter));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PowerMonotone,
    ::testing::Combine(::testing::Values(0, 2, 4, 6, 8, 9),
                       ::testing::Values(0.0, 0.25, 0.5, 0.75, 0.9)));

TEST(TianheSpec, PowerEnvelopeIsPlausible) {
  const auto spec = tianhe1a_node_spec();
  const PowerModel& m = spec->power_model;
  // Idle at top level ~140 W; flat out ~415 W; floor-level full load in
  // between — the envelope a dual-X5670 board actually has.
  EXPECT_NEAR(m.table().idle[9].value(), 140.0, 5.0);
  EXPECT_NEAR(m.theoretical_max().value(), 415.0, 10.0);
  EXPECT_LT(m.power(0, op_full()), m.power(9, op_full()));
  EXPECT_GT(m.power(0, op_full()).value(), 200.0);
}

}  // namespace
}  // namespace pcap::hw
