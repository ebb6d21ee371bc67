#include "telemetry/agent.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "hw/node_spec.hpp"
#include "telemetry/collector.hpp"

namespace pcap::telemetry {
namespace {

hw::Node busy_node(hw::NodeId id) {
  hw::Node n(id, hw::tianhe1a_node_spec());
  hw::OperatingPoint op;
  op.cpu_utilization = 0.7;
  op.mem_used = n.spec().mem_total * 0.4;
  op.mem_total = n.spec().mem_total;
  op.nic_bytes = Bytes{1e9};
  op.tau = Seconds{1.0};
  op.nic_bandwidth = n.spec().nic_bandwidth;
  n.set_operating_point(op);
  n.set_busy(true);
  return n;
}

/// A pool indexed by id whose node 3 is the busy node under test.
std::vector<hw::Node> busy_pool() {
  std::vector<hw::Node> pool;
  for (hw::NodeId id = 0; id < 4; ++id) pool.push_back(busy_node(id));
  return pool;
}

/// The key of the sampler's noise stream at collection cycle `cycle`.
std::uint64_t key_at(std::uint64_t cycle, std::uint64_t root = 1) {
  return common::counter_key(root, cycle);
}

TEST(Agent, NoiselessSampleMatchesNodeEstimate) {
  AgentParams p;
  p.utilization_noise = 0.0;
  p.nic_noise = 0.0;
  const std::vector<hw::Node> pool = busy_pool();
  const hw::Node& n = pool[3];
  const NodeSample s = sample_node(pool, 3, Seconds{10.0}, p, key_at(1));
  EXPECT_EQ(s.node, 3u);
  EXPECT_EQ(s.time, Seconds{10.0});
  EXPECT_DOUBLE_EQ(s.cpu_utilization, 0.7);
  EXPECT_EQ(s.level, n.level());
  EXPECT_TRUE(s.busy);
  EXPECT_DOUBLE_EQ(s.estimated_power.value(), n.estimated_power().value());
}

TEST(Agent, NoisySampleStaysClose) {
  const std::vector<hw::Node> pool = busy_pool();
  const hw::Node& n = pool[3];
  for (int i = 0; i < 100; ++i) {
    const NodeSample s =
        sample_node(pool, 3, Seconds{static_cast<double>(i)}, AgentParams{},
                    key_at(static_cast<std::uint64_t>(i), 2));
    EXPECT_NEAR(s.cpu_utilization, 0.7, 0.06);
    EXPECT_NEAR(s.estimated_power.value(), n.estimated_power().value(),
                n.estimated_power().value() * 0.1);
  }
}

TEST(Agent, NoiseClampsUtilizationToValidRange) {
  AgentParams p;
  p.utilization_noise = 0.5;  // huge noise
  const std::vector<hw::Node> pool = busy_pool();
  for (int i = 0; i < 200; ++i) {
    const NodeSample s = sample_node(pool, 3, Seconds{0.0}, p,
                                     key_at(static_cast<std::uint64_t>(i), 3));
    EXPECT_GE(s.cpu_utilization, 0.0);
    EXPECT_LE(s.cpu_utilization, 1.0);
  }
}

TEST(Agent, ForeignNodeThrows) {
  // Slot 3 of the pool holds node 4: the pool is not indexed by id.
  std::vector<hw::Node> pool = busy_pool();
  pool.pop_back();
  pool.push_back(busy_node(/*id=*/4));
  EXPECT_THROW(sample_node(pool, 3, Seconds{0.0}, AgentParams{}, key_at(1)),
               std::invalid_argument);
}

TEST(Agent, NegativeNoiseThrows) {
  CollectorParams p;
  p.agent.utilization_noise = -0.1;
  EXPECT_THROW(Collector(p, common::Rng(1)), std::invalid_argument);
  p = CollectorParams{};
  p.agent.nic_noise = -0.1;
  EXPECT_THROW(Collector(p, common::Rng(1)), std::invalid_argument);
}

TEST(Agent, ReportsThrottledLevel) {
  std::vector<hw::Node> pool = busy_pool();
  pool[3].set_level(2);
  const NodeSample s =
      sample_node(pool, 3, Seconds{0.0}, AgentParams{}, key_at(1, 5));
  EXPECT_EQ(s.level, 2);
}

TEST(Agent, EstimateUsesCurrentLevel) {
  AgentParams p;
  p.utilization_noise = 0.0;
  p.nic_noise = 0.0;
  std::vector<hw::Node> pool = busy_pool();
  const Watts top =
      sample_node(pool, 3, Seconds{0.0}, p, key_at(1, 6)).estimated_power;
  pool[3].set_level(0);
  const Watts floor =
      sample_node(pool, 3, Seconds{1.0}, p, key_at(2, 6)).estimated_power;
  EXPECT_LT(floor, top);
}

TEST(Agent, SampleIsAPureFunctionOfNodeAndKey) {
  const std::vector<hw::Node> pool = busy_pool();
  const NodeSample a = sample_node(pool, 3, Seconds{1.0}, AgentParams{},
                                   key_at(7));
  const NodeSample b = sample_node(pool, 3, Seconds{1.0}, AgentParams{},
                                   key_at(7));
  EXPECT_EQ(a.cpu_utilization, b.cpu_utilization);
  EXPECT_EQ(a.nic_bytes, b.nic_bytes);
  // Another cycle, or another node at the same cycle, draws other noise.
  EXPECT_NE(sample_node(pool, 3, Seconds{1.0}, AgentParams{}, key_at(8))
                .cpu_utilization,
            a.cpu_utilization);
  EXPECT_NE(sample_node(pool, 2, Seconds{1.0}, AgentParams{}, key_at(7))
                .cpu_utilization,
            a.cpu_utilization);
}

/// Running mean and standard deviation.
struct Moments {
  double sum = 0.0;
  double sum_sq = 0.0;
  int n = 0;
  void add(double x) {
    sum += x;
    sum_sq += x * x;
    ++n;
  }
  [[nodiscard]] double mean() const { return sum / n; }
  [[nodiscard]] double sd() const {
    return std::sqrt(sum_sq / n - mean() * mean());
  }
};

TEST(Agent, NoiseIsGaussianPerNodeOverCycles) {
  // Over 10^5 collection cycles, each node's utilisation and NIC noise
  // have mean 0 and standard deviation sigma. The node sits at mid
  // utilisation so the [0, 1] clamp never binds at sigma = 0.01; with
  // n = 10^5 the standard error of the mean is sigma / 316 and that of
  // the standard deviation about sigma / 447, so the 2 % tolerances are
  // more than 6 standard errors wide.
  constexpr int kDraws = 100'000;
  const AgentParams p;  // sigma_cpu = 0.01, sigma_nic = 0.02 (relative)
  std::vector<hw::Node> pool = busy_pool();
  for (hw::Node& n : pool) {
    hw::OperatingPoint op = n.operating_point();
    op.cpu_utilization = 0.5;
    n.set_operating_point(op);
  }
  for (const hw::NodeId id : {hw::NodeId{0}, hw::NodeId{3}}) {
    const double nic = pool[id].nic_bytes();
    Moments cpu;
    Moments rel;
    for (int i = 0; i < kDraws; ++i) {
      const NodeSample s = sample_node(pool, id, Seconds{0.0}, p,
                                       key_at(static_cast<std::uint64_t>(i)));
      cpu.add(s.cpu_utilization - 0.5);
      rel.add(s.nic_bytes.value() / nic - 1.0);
    }
    EXPECT_NEAR(cpu.mean(), 0.0, 0.02 * p.utilization_noise) << "node " << id;
    EXPECT_NEAR(cpu.sd(), p.utilization_noise, 0.02 * p.utilization_noise)
        << "node " << id;
    EXPECT_NEAR(rel.mean(), 0.0, 0.02 * p.nic_noise) << "node " << id;
    EXPECT_NEAR(rel.sd(), p.nic_noise, 0.02 * p.nic_noise) << "node " << id;
  }
}

}  // namespace
}  // namespace pcap::telemetry
