#include "hw/power_meter.hpp"

#include <gtest/gtest.h>

#include "hw/node.hpp"
#include "hw/node_spec.hpp"

namespace pcap::hw {
namespace {

std::vector<Node> make_nodes(std::size_t n) {
  std::vector<Node> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.emplace_back(static_cast<NodeId>(i), tianhe1a_node_spec());
  }
  return nodes;
}

// The IT-side sum the cluster's ledger hands to measure_sum().
Watts it_power(const std::vector<Node>& nodes) {
  Watts total{0.0};
  for (const Node& n : nodes) total += n.true_power();
  return total;
}

SystemPowerMeter noiseless_meter(double psu_efficiency) {
  PowerMeterParams p;
  p.psu_efficiency = psu_efficiency;
  p.noise_sigma = 0.0;
  return SystemPowerMeter(p, common::Rng(1));
}

TEST(PowerMeter, ExactSumsTruePower) {
  const auto nodes = make_nodes(4);
  double expected = 0.0;
  for (const Node& n : nodes) expected += n.true_power().value();
  EXPECT_DOUBLE_EQ(noiseless_meter(1.0).measure_sum(it_power(nodes)).value(),
                   expected);
}

TEST(PowerMeter, PsuEfficiencyScalesWallPower) {
  const Watts it = it_power(make_nodes(2));
  const Watts wall = noiseless_meter(0.92).measure_sum(it);
  EXPECT_NEAR(wall.value(), it.value() / 0.92, 1e-9);
  EXPECT_GT(wall, it);
}

TEST(PowerMeter, NoiselessMeasureEqualsExact) {
  const Watts it = it_power(make_nodes(3));
  SystemPowerMeter meter = noiseless_meter(0.92);
  EXPECT_DOUBLE_EQ(meter.measure_sum(it).value(), it.value() / 0.92);
}

TEST(PowerMeter, NoiseIsSmallAndUnbiased) {
  const Watts it = it_power(make_nodes(4));
  PowerMeterParams p;
  p.noise_sigma = 0.002;
  SystemPowerMeter meter(p, common::Rng(7));
  const double truth = it.value() / p.psu_efficiency;
  double sum = 0.0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    const double m = meter.measure_sum(it).value();
    EXPECT_NEAR(m, truth, truth * 0.02);  // 10 sigma
    sum += m;
  }
  EXPECT_NEAR(sum / n, truth, truth * 0.001);
}

TEST(PowerMeter, BadEfficiencyThrows) {
  PowerMeterParams p;
  p.psu_efficiency = 0.0;
  EXPECT_THROW(SystemPowerMeter(p, common::Rng(1)), std::invalid_argument);
  p.psu_efficiency = 1.5;
  EXPECT_THROW(SystemPowerMeter(p, common::Rng(1)), std::invalid_argument);
}

TEST(PowerMeter, NegativeNoiseThrows) {
  PowerMeterParams p;
  p.noise_sigma = -0.1;
  EXPECT_THROW(SystemPowerMeter(p, common::Rng(1)), std::invalid_argument);
}

TEST(PowerMeter, EmptyClusterReadsZero) {
  SystemPowerMeter meter(PowerMeterParams{}, common::Rng(1));
  EXPECT_DOUBLE_EQ(meter.measure_sum(it_power({})).value(), 0.0);
}

TEST(PowerMeter, ThrottledClusterReadsLower) {
  auto nodes = make_nodes(4);
  OperatingPoint op;
  op.cpu_utilization = 0.9;
  op.mem_total = nodes[0].spec().mem_total;
  op.nic_bandwidth = nodes[0].spec().nic_bandwidth;
  for (auto& n : nodes) n.set_operating_point(op);
  SystemPowerMeter meter = noiseless_meter(0.92);
  const Watts before = meter.measure_sum(it_power(nodes));
  for (auto& n : nodes) n.set_level(0);
  const Watts after = meter.measure_sum(it_power(nodes));
  EXPECT_LT(after, before);
}

}  // namespace
}  // namespace pcap::hw
