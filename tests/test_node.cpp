#include "hw/node.hpp"

#include <gtest/gtest.h>

#include "hw/node_spec.hpp"

namespace pcap::hw {
namespace {

OperatingPoint busy_op(const NodeSpec& spec) {
  OperatingPoint op;
  op.cpu_utilization = 0.8;
  op.mem_used = spec.mem_total * 0.5;
  op.mem_total = spec.mem_total;
  op.nic_bytes = Bytes{1e9};
  op.tau = Seconds{1.0};
  op.nic_bandwidth = spec.nic_bandwidth;
  return op;
}

TEST(Node, StartsAtHighestLevelAndAmbient) {
  const Node n(0, tianhe1a_node_spec());
  EXPECT_TRUE(n.at_highest());
  EXPECT_FALSE(n.at_lowest());
  EXPECT_EQ(n.level(), 9);
  EXPECT_EQ(n.temperature(), n.spec().thermal.ambient);
  EXPECT_DOUBLE_EQ(n.relative_speed(), 1.0);
}

TEST(Node, SetLevelClamps) {
  Node n(0, tianhe1a_node_spec());
  EXPECT_EQ(n.set_level(-5), 0);
  EXPECT_TRUE(n.at_lowest());
  EXPECT_EQ(n.set_level(99), 9);
  EXPECT_TRUE(n.at_highest());
  EXPECT_EQ(n.set_level(4), 4);
}

TEST(Node, DegradeAndRestoreOneLevel) {
  Node n(0, tianhe1a_node_spec());
  EXPECT_EQ(n.degrade_one(), 8);
  EXPECT_EQ(n.degrade_one(), 7);
  EXPECT_EQ(n.restore_one(), 8);
  n.set_level(0);
  EXPECT_EQ(n.degrade_one(), 0);  // cannot go below the floor
}

TEST(Node, UncontrollableIgnoresCommands) {
  Node n(0, uncontrollable_node_spec());
  EXPECT_FALSE(n.controllable());
  EXPECT_EQ(n.set_level(0), n.spec().ladder.highest());
  EXPECT_TRUE(n.at_highest());
}

TEST(Node, EstimatedPowerMatchesModel) {
  Node n(0, tianhe1a_node_spec());
  const OperatingPoint op = busy_op(n.spec());
  n.set_operating_point(op);
  EXPECT_EQ(n.estimated_power(), n.spec().power_model.power(9, op));
  n.set_level(3);
  EXPECT_EQ(n.estimated_power(), n.spec().power_model.power(3, op));
}

TEST(Node, EstimatedPowerAtClampsLevel) {
  Node n(0, tianhe1a_node_spec());
  n.set_operating_point(busy_op(n.spec()));
  EXPECT_EQ(n.estimated_power_at(-1), n.estimated_power_at(0));
  EXPECT_EQ(n.estimated_power_at(42), n.estimated_power_at(9));
}

TEST(Node, TruePowerEqualsEstimateWithoutVariationAtAmbient) {
  // No variation RNG, temperature below the leakage reference.
  Node n(0, tianhe1a_node_spec());
  n.set_operating_point(busy_op(n.spec()));
  EXPECT_NEAR(n.true_power().value(), n.estimated_power().value(), 1e-9);
}

TEST(Node, VariationMakesTruePowerDiffer) {
  common::Rng rng(99);
  // Find a node whose drawn variation is not ~1.
  Node n(0, tianhe1a_node_spec(), &rng);
  n.set_operating_point(busy_op(n.spec()));
  const double ratio = n.true_power().value() / n.estimated_power().value();
  EXPECT_GT(ratio, 0.9);
  EXPECT_LT(ratio, 1.1);
  EXPECT_NE(ratio, 1.0);
}

TEST(Node, ThermalAdvanceWarmsUnderLoad) {
  Node n(0, tianhe1a_node_spec());
  n.set_operating_point(busy_op(n.spec()));
  const Celsius before = n.temperature();
  for (int s = 1; s <= 60; ++s) {
    (void)n.temperature_at(Seconds{static_cast<double>(s)});
  }
  EXPECT_GT(n.temperature(), before);
}

TEST(Node, LeakageRaisesTruePowerWhenHot) {
  auto base = *tianhe1a_node_spec();
  base.thermal.leakage_coefficient = 0.004;
  base.thermal.leakage_reference = Celsius{30.0};
  base.thermal.thermal_resistance = 0.12;
  const auto spec = std::make_shared<const NodeSpec>(std::move(base));

  Node n(0, spec);
  n.set_operating_point(busy_op(*spec));
  const Watts cold = n.true_power();
  // One 1 s step per call, each at the current leakage-raised power.
  for (int s = 1; s <= 2000; ++s) {
    (void)n.temperature_at(Seconds{static_cast<double>(s)});
  }
  EXPECT_GT(n.true_power(), cold);  // positive feedback loop
}

TEST(Node, TruePowerIsEstimatePlusLeakageOnIdle) {
  // The one leakage formula: only the idle share of formula (1) scales
  // with temperature. No variation rng, so the variation factor is 1.
  auto base = *tianhe1a_node_spec();
  base.thermal.leakage_coefficient = 0.004;
  base.thermal.leakage_reference = Celsius{30.0};
  const auto spec = std::make_shared<const NodeSpec>(std::move(base));

  Node n(0, spec);
  n.set_operating_point(busy_op(*spec));
  const double hot = n.temperature_at(Seconds{2000.0}).value();
  ASSERT_GT(hot, spec->thermal.leakage_reference.value());
  const double estimated = n.estimated_power().value();
  const double idle =
      spec->power_model.table().idle[static_cast<std::size_t>(n.level())]
          .value();
  const double leak = leakage_factor(spec->thermal, hot);
  EXPECT_GT(leak, 1.0);
  EXPECT_EQ(n.true_power().value(), (estimated - idle) + idle * leak);
}

TEST(Node, BusyFlag) {
  Node n(0, tianhe1a_node_spec());
  EXPECT_FALSE(n.busy());
  n.set_busy(true);
  EXPECT_TRUE(n.busy());
}

TEST(NodeSpec, FactoriesValidate) {
  EXPECT_NO_THROW(tianhe1a_node_spec()->validate());
  EXPECT_NO_THROW(low_power_node_spec()->validate());
  EXPECT_NO_THROW(uncontrollable_node_spec()->validate());
}

TEST(NodeSpec, TianheMatchesPaperDescription) {
  const auto spec = tianhe1a_node_spec();
  EXPECT_EQ(spec->sockets, 2);
  EXPECT_EQ(spec->cores_per_socket, 6);
  EXPECT_EQ(spec->total_cores(), 12);
  EXPECT_EQ(spec->ladder.num_levels(), 10);
  using namespace pcap::literals;
  EXPECT_EQ(spec->mem_total, 48_GiB);
}

TEST(NodeSpec, ValidateCatchesMismatchedDepth) {
  auto bad = *tianhe1a_node_spec();
  bad.ladder = DvfsLadder::coarse_low_power();  // 4 levels vs 10-level table
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace pcap::hw
