#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

#include "cluster/scenario.hpp"
#include "hw/node_spec.hpp"
#include "power/policy_registry.hpp"

namespace pcap::cluster {
namespace {

ClusterConfig small_config(std::uint64_t seed = 7) {
  ClusterConfig cfg = small_scenario(seed).cluster;
  cfg.num_nodes = 8;
  return cfg;
}

TEST(Cluster, BuildsRequestedNodes) {
  Cluster c(small_config());
  EXPECT_EQ(c.nodes().size(), 8u);
  EXPECT_EQ(c.scheduler().total_nodes(), 8);
  EXPECT_EQ(c.now(), Seconds{0.0});
}

TEST(Cluster, TheoreticalPeakSumsNodeMaxima) {
  Cluster c(small_config());
  const double per_node =
      hw::tianhe1a_node_spec()->power_model.theoretical_max().value();
  EXPECT_NEAR(c.theoretical_peak().value(),
              8.0 * per_node / c.config().meter.psu_efficiency, 1e-6);
}

TEST(Cluster, AutoGeneratesJobsWhenQueueEmpty) {
  Cluster c(small_config());
  c.run(Seconds{60.0});
  EXPECT_GT(c.scheduler().running_count() + c.scheduler().queue_length(), 0u);
  EXPECT_FALSE(c.generated_trace().empty());
}

TEST(Cluster, PowerReadingIsPlausible) {
  Cluster c(small_config());
  c.run(Seconds{300.0});
  // 8 nodes: between 8x idle floor and the theoretical peak.
  EXPECT_GT(c.last_power().value(), 8.0 * 80.0);
  EXPECT_LT(c.last_power(), c.theoretical_peak());
}

TEST(Cluster, RecordingCapturesEveryTick) {
  Cluster c(small_config());
  c.start_recording();
  c.run(Seconds{120.0});
  EXPECT_EQ(c.recorder().size(), 120u);
}

TEST(Cluster, RecorderBeforeStartThrows) {
  Cluster c(small_config());
  EXPECT_THROW((void)c.recorder(), std::logic_error);
}

TEST(Cluster, DeterministicForSameSeed) {
  Cluster a(small_config(11));
  Cluster b(small_config(11));
  a.start_recording();
  b.start_recording();
  a.run(Seconds{600.0});
  b.run(Seconds{600.0});
  ASSERT_EQ(a.recorder().size(), b.recorder().size());
  for (std::size_t i = 0; i < a.recorder().size(); ++i) {
    ASSERT_DOUBLE_EQ(a.recorder().points()[i].power_w,
                     b.recorder().points()[i].power_w);
  }
}

TEST(Cluster, DifferentSeedsDiverge) {
  Cluster a(small_config(1));
  Cluster b(small_config(2));
  a.start_recording();
  b.start_recording();
  a.run(Seconds{600.0});
  b.run(Seconds{600.0});
  bool differs = false;
  for (std::size_t i = 0; i < a.recorder().size(); ++i) {
    if (a.recorder().points()[i].power_w !=
        b.recorder().points()[i].power_w) {
      differs = true;
      break;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(Cluster, JobsEventuallyFinish) {
  ClusterConfig cfg = small_config();
  Cluster c(cfg);
  c.start_recording();
  c.run(Seconds{4.0 * 3600.0});
  EXPECT_GT(c.scheduler().finished_count(), 0u);
  EXPECT_FALSE(c.finished_records().empty());
}

TEST(Cluster, UncappedJobsMatchBaselineDuration) {
  ClusterConfig cfg = small_config();
  Cluster c(cfg);  // default NoCappingManager
  c.start_recording();
  c.run(Seconds{4.0 * 3600.0});
  ASSERT_FALSE(c.finished_records().empty());
  for (const auto& r : c.finished_records()) {
    EXPECT_NEAR(r.actual_s, r.baseline_s, r.baseline_s * 0.005 + 2.0)
        << "job " << r.id << " (" << r.app << ")";
  }
}

TEST(Cluster, JobEnergyAttributionIsPlausible) {
  ClusterConfig cfg = small_config();
  Cluster c(cfg);
  c.start_recording();
  c.run(Seconds{4.0 * 3600.0});
  ASSERT_FALSE(c.finished_records().empty());
  for (const auto& r : c.finished_records()) {
    // Energy is bounded by (node count x node max power x duration) above
    // and by (node count x idle floor x duration) below.
    const double dur = r.actual_s;
    const int nodes = (r.nprocs + 2) / 3;  // 3 ranks per node placement
    EXPECT_GT(r.energy_j, dur * 80.0) << "job " << r.id;
    EXPECT_LT(r.energy_j, dur * 450.0 * nodes) << "job " << r.id;
  }
}

TEST(Cluster, TraceReplayReproducesWorkload) {
  ClusterConfig cfg = small_config(23);
  Cluster original(cfg);
  original.run(Seconds{1800.0});
  const workload::WorkloadTrace trace = original.generated_trace();
  ASSERT_FALSE(trace.empty());

  ClusterConfig replay_cfg = cfg;
  replay_cfg.auto_generate_jobs = false;
  Cluster replay(replay_cfg);
  replay.load_trace(trace);
  replay.run(Seconds{1800.0});
  // Same jobs were submitted (modulo those not yet submitted at cutoff).
  EXPECT_EQ(replay.generated_trace().size(), trace.size());
  EXPECT_GT(replay.scheduler().running_count() +
                replay.scheduler().finished_count(),
            0u);
}

TEST(Cluster, ManagerSwapTakesEffect) {
  ClusterConfig cfg = small_config();
  Cluster c(cfg);
  c.set_manager(std::make_unique<power::NoCappingManager>());
  EXPECT_EQ(c.manager().name(), "none");
  EXPECT_THROW(c.set_manager(nullptr), std::invalid_argument);
}

TEST(Cluster, ControllableNodesListsAll) {
  Cluster c(small_config());
  EXPECT_EQ(c.controllable_nodes().size(), 8u);
}

TEST(Cluster, MixedControllabilityFiltersPrivileged) {
  ClusterConfig cfg = small_config();
  cfg.num_nodes = 0;
  cfg.node_specs = {hw::tianhe1a_node_spec(), hw::uncontrollable_node_spec(),
                    hw::tianhe1a_node_spec()};
  Cluster c(cfg);
  const auto ids = c.controllable_nodes();
  EXPECT_EQ(ids, (std::vector<hw::NodeId>{0, 2}));
}

TEST(Cluster, HeterogeneousClusterRuns) {
  ExperimentConfig cfg = heterogeneous_scenario(5);
  Cluster c(cfg.cluster);
  c.start_recording();
  c.run(Seconds{1800.0});
  EXPECT_EQ(c.nodes().size(), 24u);
  EXPECT_GT(c.last_power().value(), 0.0);
}

TEST(Cluster, BadConfigThrows) {
  ClusterConfig cfg = small_config();
  cfg.tick = Seconds{0.0};
  EXPECT_THROW(Cluster{cfg}, std::invalid_argument);

  cfg = small_config();
  cfg.num_nodes = 0;
  EXPECT_THROW(Cluster{cfg}, std::invalid_argument);

  cfg = small_config();
  cfg.control_period = Seconds{0.5};  // shorter than the 1 s tick
  EXPECT_THROW(Cluster{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace pcap::cluster
