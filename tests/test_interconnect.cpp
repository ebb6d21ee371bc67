#include "interconnect/interconnect.hpp"

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/scenario.hpp"
#include "workload/phase.hpp"

namespace pcap::interconnect {
namespace {

InterconnectParams params(double uplink = 100.0, int per_switch = 4,
                          double remote = 0.5) {
  InterconnectParams p;
  p.enabled = true;
  p.uplink_bandwidth = uplink;
  p.nodes_per_switch = per_switch;
  p.remote_fraction = remote;
  return p;
}

std::vector<double> delivered(Interconnect& ic,
                              const std::vector<double>& offered,
                              Seconds dt) {
  std::vector<double> out;
  ic.delivered_fractions_into(offered, dt, out);
  return out;
}

TEST(Interconnect, SwitchAssignment) {
  const Interconnect ic(params(100.0, 4), 10);
  EXPECT_EQ(ic.num_switches(), 3u);
  EXPECT_EQ(ic.switch_of(0), 0u);
  EXPECT_EQ(ic.switch_of(3), 0u);
  EXPECT_EQ(ic.switch_of(4), 1u);
  EXPECT_EQ(ic.switch_of(9), 2u);
  EXPECT_THROW((void)ic.switch_of(10), std::out_of_range);
}

TEST(Interconnect, DisabledDeliversEverything) {
  InterconnectParams p = params(1.0);  // absurdly small uplink
  p.enabled = false;
  Interconnect ic(p, 4);
  const auto f = delivered(ic, {1e9, 1e9, 1e9, 1e9}, Seconds{1.0});
  for (const double v : f) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Interconnect, UncontendedDeliversEverything) {
  // 4 nodes x 50 B offered x 0.5 remote = 100 B <= 100 B/s x 1 s? exactly
  // at capacity -> fraction 1.
  Interconnect ic(params(), 4);
  const auto f = delivered(ic, {50.0, 50.0, 50.0, 50.0}, Seconds{1.0});
  for (const double v : f) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Interconnect, OversubscribedSharesProportionally) {
  // Offered remote = 4 x 100 x 0.5 = 200 over capacity 100: fraction 0.5.
  Interconnect ic(params(), 4);
  const auto f = delivered(ic, {100.0, 100.0, 100.0, 100.0}, Seconds{1.0});
  for (const double v : f) EXPECT_DOUBLE_EQ(v, 0.5);
}

TEST(Interconnect, ContentionIsPerSwitch) {
  // Nodes 0-3 on switch 0 (saturated); nodes 4-7 on switch 1 (idle).
  Interconnect ic(params(), 8);
  std::vector<double> offered = {200.0, 200.0, 200.0, 200.0, 0.0, 0.0, 0.0,
                                 0.0};
  const auto f = delivered(ic, offered, Seconds{1.0});
  EXPECT_LT(f[0], 1.0);
  EXPECT_DOUBLE_EQ(f[0], f[3]);
  EXPECT_DOUBLE_EQ(f[4], 1.0);
  EXPECT_DOUBLE_EQ(f[7], 1.0);
}

TEST(Interconnect, DtScalesCapacity) {
  Interconnect ic(params(), 4);
  // Same offered bytes over a 2 s window: half the rate, no contention.
  const auto f = delivered(ic, {100.0, 100.0, 100.0, 100.0}, Seconds{2.0});
  for (const double v : f) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Interconnect, BadParamsThrow) {
  EXPECT_THROW(Interconnect(params(0.0), 4), std::invalid_argument);
  InterconnectParams p = params();
  p.nodes_per_switch = 0;
  EXPECT_THROW(Interconnect(p, 4), std::invalid_argument);
  p = params();
  p.remote_fraction = 1.5;
  EXPECT_THROW(Interconnect(p, 4), std::invalid_argument);
  EXPECT_THROW(Interconnect(params(), 0), std::invalid_argument);
}

TEST(Interconnect, SizeMismatchThrows) {
  Interconnect ic(params(), 4);
  EXPECT_THROW(delivered(ic, {1.0}, Seconds{1.0}), std::invalid_argument);
  EXPECT_THROW(delivered(ic, {1.0, 1.0, 1.0, 1.0}, Seconds{0.0}),
               std::invalid_argument);
}

TEST(NetworkProgressRate, Bounds) {
  using workload::network_progress_rate;
  EXPECT_DOUBLE_EQ(network_progress_rate(0.0, 0.5), 1.0);  // insensitive
  EXPECT_DOUBLE_EQ(network_progress_rate(1.0, 0.5), 0.5);  // fully bound
  EXPECT_DOUBLE_EQ(network_progress_rate(0.5, 0.5), 0.75);
  EXPECT_DOUBLE_EQ(network_progress_rate(0.5, 1.0), 1.0);
  EXPECT_THROW(network_progress_rate(0.5, 0.0), std::invalid_argument);
  EXPECT_THROW(network_progress_rate(0.5, 1.5), std::invalid_argument);
}

TEST(ClusterWithContention, CommHeavyJobsSlowDown) {
  // Same workload, fabric off vs badly oversubscribed fabric: jobs take
  // longer under contention.
  cluster::ExperimentConfig cfg = cluster::small_scenario(37);
  cfg.cluster.num_nodes = 16;

  cluster::Cluster free_fabric(cfg.cluster);
  free_fabric.start_recording();
  free_fabric.run(Seconds{2 * 3600.0});

  cfg.cluster.interconnect.enabled = true;
  cfg.cluster.interconnect.nodes_per_switch = 8;
  cfg.cluster.interconnect.uplink_bandwidth = 2e8;  // ~25 MB/s per node
  cluster::Cluster contended(cfg.cluster);
  contended.start_recording();
  contended.run(Seconds{2 * 3600.0});

  const auto perf_free =
      metrics::summarize_performance(free_fabric.finished_records());
  const auto perf_contended =
      metrics::summarize_performance(contended.finished_records());
  ASSERT_GT(perf_free.finished_jobs, 0u);
  ASSERT_GT(perf_contended.finished_jobs, 0u);
  // Uncapped + free fabric: jobs run at model speed. Contended: slower.
  EXPECT_GT(perf_free.performance, 0.99);
  EXPECT_LT(perf_contended.performance, perf_free.performance - 0.01);
}

TEST(ClusterWithContention, FractionsExposedPerTick) {
  cluster::ExperimentConfig cfg = cluster::small_scenario(39);
  cfg.cluster.num_nodes = 8;
  cfg.cluster.interconnect.enabled = true;
  cfg.cluster.interconnect.uplink_bandwidth = 1e8;
  cluster::Cluster cl(cfg.cluster);
  cl.run(Seconds{1800.0});
  const auto& f = cl.last_delivered_fractions();
  ASSERT_EQ(f.size(), 8u);
  for (const double v : f) {
    EXPECT_GT(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

}  // namespace
}  // namespace pcap::interconnect
