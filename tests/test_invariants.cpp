// System-level invariant sweeps: properties that must hold for every
// policy and seed on full training+measurement runs.
#include <gtest/gtest.h>

#include <tuple>

#include "cluster/cluster.hpp"
#include "cluster/experiment.hpp"
#include "cluster/scenario.hpp"
#include "power/policy_registry.hpp"
#include "power/zone_manager.hpp"

namespace pcap::cluster {
namespace {

ExperimentConfig tiny(std::uint64_t seed) {
  ExperimentConfig cfg = small_scenario(seed);
  cfg.cluster.num_nodes = 12;
  cfg.calibration_duration = Seconds{900.0};
  cfg.training = Seconds{900.0};
  cfg.measured = Seconds{1800.0};
  return cfg;
}

// Every registry policy, three seeds: the run completes, performance is
// sane, the state accounting adds up, and capping never *raises* the
// peak.
class PolicyInvariants
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(PolicyInvariants, EndToEndSanity) {
  const auto& [policy, seed] = GetParam();
  ExperimentConfig cfg = tiny(static_cast<std::uint64_t>(seed) * 101);
  const Watts peak =
      probe_uncapped_peak(cfg.cluster, cfg.calibration_duration);
  cfg.provision = peak * cfg.provision_fraction;

  cfg.manager = "none";
  const ExperimentResult none = run_experiment(cfg);
  cfg.manager = policy;
  const ExperimentResult r = run_experiment(cfg);

  EXPECT_GT(r.perf.finished_jobs, 0u);
  EXPECT_GT(r.perf.performance, 0.75) << policy;
  EXPECT_LE(r.perf.performance, 1.0 + 0.01) << policy;
  EXPECT_LE(r.perf.lossless_fraction, 1.0) << policy;
  // Capping must not raise the peak (small slack for meter noise).
  EXPECT_LE(r.p_max.value(), none.p_max.value() * 1.02) << policy;
  // ...and must not raise total energy (throttling only removes power).
  EXPECT_LE(r.energy.value(), none.energy.value() * 1.02) << policy;
  // State cycles account for every measured tick.
  EXPECT_EQ(r.green_cycles + r.yellow_cycles + r.red_cycles,
            static_cast<std::size_t>(cfg.measured.value()))
      << policy;
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyInvariants,
    ::testing::Combine(::testing::Values("mpc", "mpc-c", "lpc", "lpc-c",
                                         "bfp", "hri", "hri-c", "ht", "ht-c"),
                       ::testing::Values(1, 2)));

// After the offered load stops, Algorithm 1's steady-green restore must
// eventually return every degraded node to its top level.
class RecoveryInvariant : public ::testing::TestWithParam<int> {};

TEST_P(RecoveryInvariant, NodesReturnToTopAfterQuiescence) {
  ExperimentConfig cfg = tiny(static_cast<std::uint64_t>(GetParam()) * 53);
  cfg.manager = "mpc";
  cfg.training = Seconds{0.0};

  Cluster cl(cfg.cluster);
  cl.set_manager(make_manager(cfg, cfg.cluster, Watts{3000.0},
                              cl.controllable_nodes()));
  // Run under load long enough for throttling to happen.
  cl.run(Seconds{3600.0});

  // Build a quiescent cluster continuation: stop generating jobs by
  // swapping in an empty workload via a fresh cluster is not possible
  // in-place, so instead force a deep degrade and observe restore while
  // the system is green (power far below thresholds).
  for (auto& node : cl.nodes()) node.set_level(0);
  cl.run(Seconds{1200.0});  // plenty of green cycles at T_g = 10

  // The engine only restores nodes in A_degraded (those it degraded
  // itself); our forced set_level(0) bypassed it, so restoration happens
  // only for nodes the engine later throttles. The invariant we can
  // assert: no node sits at the floor through a steady-green restore pass
  // (the engine never leaves its own A_degraded stuck). The live workload
  // keeps oscillating between states, so rather than hoping the run ends
  // inside steady green, step until the green timer shows a restore pass
  // has just fired — at that instant every degraded node must have been
  // lifted off the floor.
  const auto& mgr =
      dynamic_cast<const power::ZoneTreeManager&>(cl.manager()).zone(0);
  const std::int64_t tg = mgr.engine().params().steady_green_cycles;
  Seconds waited{0.0};
  while (mgr.engine().green_timer() <= tg && waited < Seconds{1200.0}) {
    cl.run(Seconds{1.0});
    waited += Seconds{1.0};
  }
  if (mgr.engine().green_timer() <= tg) {
    GTEST_SKIP() << "system never reached steady green in the budget";
  }
  for (const hw::NodeId id : mgr.engine().degraded()) {
    EXPECT_FALSE(cl.nodes()[id].at_lowest())
        << "node " << id << " stuck at the floor during steady green";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryInvariant, ::testing::Range(1, 4));

// Determinism across the whole experiment pipeline: identical configs
// give bit-identical results.
class DeterminismInvariant : public ::testing::TestWithParam<int> {};

TEST_P(DeterminismInvariant, ExperimentsAreReproducible) {
  ExperimentConfig cfg = tiny(static_cast<std::uint64_t>(GetParam()) * 7);
  cfg.manager = GetParam() % 2 == 0 ? "mpc" : "hri";
  cfg.provision = Watts{3200.0};
  const ExperimentResult a = run_experiment(cfg);
  const ExperimentResult b = run_experiment(cfg);
  EXPECT_DOUBLE_EQ(a.p_max.value(), b.p_max.value());
  EXPECT_DOUBLE_EQ(a.perf.performance, b.perf.performance);
  EXPECT_EQ(a.perf.finished_jobs, b.perf.finished_jobs);
  EXPECT_EQ(a.yellow_cycles, b.yellow_cycles);
  EXPECT_DOUBLE_EQ(a.delta_pxt, b.delta_pxt);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismInvariant, ::testing::Range(1, 5));

// The paper's central safety claim, as a property: with MPC capping on
// and thresholds learned, the red state is at most a transient (a tiny
// fraction of the measured window), and power stays below P_H virtually
// always.
class SafetyInvariant : public ::testing::TestWithParam<int> {};

TEST_P(SafetyInvariant, RedIsAtMostTransientUnderMpc) {
  ExperimentConfig cfg = tiny(static_cast<std::uint64_t>(GetParam()) * 211);
  cfg.manager = "mpc";
  const ExperimentResult r = run_experiment(cfg);
  const double red_fraction =
      static_cast<double>(r.red_cycles) / cfg.measured.value();
  EXPECT_LT(red_fraction, 0.005) << "red for " << r.red_cycles << " s";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SafetyInvariant, ::testing::Range(1, 6));

}  // namespace
}  // namespace pcap::cluster
