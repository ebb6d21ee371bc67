// End-to-end fault tolerance (the management plane as a failure domain):
// the capping manager must survive lossy/delayed transport, agent
// dropouts, crash windows, corrupted samples and candidate churn — all at
// once — without throwing, while still keeping the system capped; and the
// whole degraded run must stay bit-identical across worker-thread counts.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/experiment.hpp"
#include "cluster/scenario.hpp"
#include "hw/node_spec.hpp"
#include "metrics/trace_recorder.hpp"
#include "power/policy_registry.hpp"
#include "power/zone_manager.hpp"
#include "support.hpp"

namespace pcap {
namespace {

struct RunResult {
  std::vector<metrics::CyclePoint> points;
  std::vector<metrics::JobRecord> finished;
  double total_energy_j = 0.0;
  std::uint64_t samples_lost = 0;
  std::uint64_t samples_suppressed = 0;
};

/// A degraded-management-plane cluster run: report loss AND delivery
/// delay AND agent dropout/crash/corruption AND periodic candidate
/// re-selection, with the parallel sweeps forced on.
RunResult run_degraded_cluster(std::size_t worker_threads) {
  cluster::ClusterConfig cfg;
  cfg.num_nodes = 200;
  cfg.spec = hw::tianhe1a_node_spec();
  cfg.tick = Seconds{1.0};
  cfg.control_period = Seconds{4.0};
  cfg.seed = test::fault_seed(20260807);
  cfg.scheduler.max_procs_per_node = 3;
  cfg.worker_threads = worker_threads;
  cfg.parallel_node_threshold = 1;
  cfg.parallel_grain = 16;
  // Privileged jobs make the dynamic selector actually churn A_candidate.
  cfg.privileged_job_fraction = 0.3;
  cluster::Cluster cl(cfg);

  power::CappingManagerParams p;
  // Capped by construction: the provision is taken from this rig's own
  // uncapped probe, so P_L sits under the draw every seed reaches and the
  // manager must keep building contexts from the degraded telemetry and
  // sending commands through the faulty planes. (A fixed fraction of the
  // theoretical peak never left green on some seeds.)
  p.thresholds.provision =
      cluster::probe_uncapped_peak(cfg, Seconds{500.0}) * 0.9;
  p.thresholds.training_cycles = 0;
  p.thresholds.freeze_at_provision = true;
  p.cycle_period = cfg.control_period;
  p.collector.parallel_threshold = 16;
  p.collector.parallel_grain = 16;
  p.collector.transport.loss_rate = 0.05;
  p.collector.transport.delay_cycles = 2;
  p.collector.faults.agent_dropout_rate = 0.02;
  p.collector.faults.agent_recovery_rate = 0.25;
  p.collector.faults.crash_rate = 2e-3;
  p.collector.faults.crash_duration_cycles = 30;
  p.collector.faults.corruption_rate = 0.01;
  p.max_sample_age_cycles = 3;  // delay is 2: healthy nodes stay fresh
  p.selector = power::CandidateSelectorParams{};
  p.selector->reselect_period_cycles = 5;
  // The uniform baseline selects every busy node, stale or not — which is
  // exactly what exercises the engine's defensive skip path.
  auto mgr = std::make_unique<power::ZoneTreeManager>(
      power::ZoneTreeParams{}, p,
      [] { return power::make_policy("uniform"); },
      common::Rng(cfg.seed ^ 0x9d2c5680u));
  mgr->set_candidate_set(cl.controllable_nodes());
  cl.set_manager(std::move(mgr));

  cl.start_recording();
  cl.run(Seconds{500.0});

  RunResult out;
  out.points = cl.recorder().points();
  out.finished = cl.finished_records();
  for (const metrics::JobRecord& r : out.finished) {
    out.total_energy_j += r.energy_j;
  }
  out.samples_lost = cl.last_report().samples_lost;
  out.samples_suppressed = cl.last_report().samples_suppressed;
  return out;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const metrics::CyclePoint& pa = a.points[i];
    const metrics::CyclePoint& pb = b.points[i];
    EXPECT_EQ(pa.time_s, pb.time_s) << "tick " << i;
    EXPECT_EQ(pa.power_w, pb.power_w) << "tick " << i;
    EXPECT_EQ(pa.state, pb.state) << "tick " << i;
    EXPECT_EQ(pa.running_jobs, pb.running_jobs) << "tick " << i;
    EXPECT_EQ(pa.targets, pb.targets) << "tick " << i;
    EXPECT_EQ(pa.transitions, pb.transitions) << "tick " << i;
    EXPECT_EQ(pa.stale_nodes, pb.stale_nodes) << "tick " << i;
    EXPECT_EQ(pa.fallback_nodes, pb.fallback_nodes) << "tick " << i;
    EXPECT_EQ(pa.skipped_targets, pb.skipped_targets) << "tick " << i;
  }
  ASSERT_EQ(a.finished.size(), b.finished.size());
  for (std::size_t i = 0; i < a.finished.size(); ++i) {
    EXPECT_EQ(a.finished[i].id, b.finished[i].id) << "job " << i;
    EXPECT_EQ(a.finished[i].energy_j, b.finished[i].energy_j) << "job " << i;
  }
  EXPECT_EQ(a.total_energy_j, b.total_energy_j);
  EXPECT_EQ(a.samples_lost, b.samples_lost);
  EXPECT_EQ(a.samples_suppressed, b.samples_suppressed);
}

TEST(FaultTolerance, DegradedRunSurvivesAndStaysDeterministic) {
  const RunResult serial = run_degraded_cluster(1);
  ASSERT_GT(serial.points.size(), 400u);
  ASSERT_TRUE(test::capped_and_commanded(serial.points));

  // The fault machinery really fired...
  EXPECT_GT(serial.samples_lost, 0u);
  EXPECT_GT(serial.samples_suppressed, 0u);
  std::size_t stale = 0;
  for (const metrics::CyclePoint& p : serial.points) stale += p.stale_nodes;
  EXPECT_GT(stale, 0u) << "no cycle ever saw a stale node view";

  // ...and the run is still bit-identical under parallel sweeps.
  const RunResult four = run_degraded_cluster(4);
  expect_identical(serial, four);
}

TEST(FaultTolerance, FaultyScenarioStaysCappedAndCountsItsWounds) {
  cluster::ExperimentConfig cfg = cluster::faulty_telemetry_scenario(23);
  // Bench-sized windows; crashes made frequent enough that a short run is
  // guaranteed to see at least one full crash + recovery.
  cfg.calibration_duration = Seconds{900.0};
  cfg.training = Seconds{900.0};
  cfg.measured = Seconds{1800.0};
  cfg.faults.crash_rate = 5e-4;
  // The uniform policy ignores per-node staleness when selecting targets,
  // so the engine's defensive skip path is exercised too.
  cfg.manager = "uniform";

  const cluster::ExperimentResult r = cluster::run_experiment(cfg);

  EXPECT_LE(r.p_max, r.provision) << "capping lost control under faults";
  EXPECT_GT(r.stale_node_cycles, 0u);
  EXPECT_GT(r.fallback_node_cycles, 0u);
  EXPECT_GE(r.fallback_node_cycles, r.stale_node_cycles);
  EXPECT_GT(r.skipped_targets, 0u);
  EXPECT_GT(r.samples_lost, 0u);
  EXPECT_GT(r.samples_suppressed, 0u);
  EXPECT_GT(r.samples_corrupted, 0u);
  EXPECT_GE(r.crash_events, 1u);
  EXPECT_GE(r.recovery_events, 1u);
  // Jobs kept finishing: a blind-but-careful manager must not starve the
  // cluster by capping everything to the floor forever.
  EXPECT_GT(r.perf.finished_jobs, 0u);
}

}  // namespace
}  // namespace pcap
