// Boundary conditions of the event-driven quiescence path.
//
// The tick loop advances stable nodes in closed form (energy = P·Δt, RC
// thermal exponential, linear phase progress) and wakes them on events:
// phase boundaries, job start/end, control-cycle boundaries, DVFS
// actuation. These tests pin the edges where fast-forward windows and
// wake events coincide — the places an off-by-one-tick or a missed
// heat-through would drift the trajectory away from the full per-tick
// sweep. Every cluster test compares event-driven against full-sweep
// bit-for-bit (meter trace, job energy attribution, final node
// temperatures), the same identity bench_micro_tick --verify gates in CI.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "hw/node_pool.hpp"
#include "hw/node_spec.hpp"
#include "metrics/trace_recorder.hpp"
#include "power/policy_registry.hpp"
#include "power/zone_manager.hpp"
#include "support.hpp"
#include "workload/app_model.hpp"
#include "workload/phase.hpp"

namespace pcap {
namespace {

struct RunResult {
  std::vector<metrics::CyclePoint> points;
  std::vector<metrics::JobRecord> finished;
  std::vector<double> final_temps_c;
};

/// One recorded cluster run. `app` overrides the generated workload (so a
/// test can place phase boundaries exactly where it wants them);
/// `provision_frac` scales the cap (0.7 keeps the manager actuating DVFS
/// changes, 0.9 leaves long green stretches where nodes quiesce).
RunResult run_cluster(bool event_driven, std::size_t worker_threads,
                      const workload::AppModel* app, double provision_frac,
                      std::uint64_t seed) {
  cluster::ClusterConfig cfg;
  cfg.num_nodes = 64;
  cfg.spec = hw::tianhe1a_node_spec();
  cfg.tick = Seconds{1.0};
  cfg.control_period = Seconds{4.0};
  cfg.seed = seed;
  cfg.scheduler.max_procs_per_node = 3;
  cfg.worker_threads = worker_threads;
  cfg.parallel_node_threshold = 1;
  cfg.parallel_grain = 8;
  cfg.event_driven_ticks = event_driven;
  if (app != nullptr) cfg.app_suite = {*app};
  cluster::Cluster cl(cfg);

  power::CappingManagerParams p;
  p.thresholds.provision = cl.theoretical_peak() * provision_frac;
  p.thresholds.training_cycles = 0;
  p.thresholds.freeze_at_provision = true;
  p.cycle_period = cfg.control_period;
  auto mgr = std::make_unique<power::ZoneTreeManager>(
      power::ZoneTreeParams{}, p, [] { return power::make_policy("mpc"); },
      common::Rng(seed ^ 0x9d2c5680u));
  mgr->set_candidate_set(cl.controllable_nodes());
  cl.set_manager(std::move(mgr));

  cl.start_recording();
  cl.run(Seconds{400.0});

  RunResult out;
  out.points = cl.recorder().points();
  out.finished = cl.finished_records();
  // Quiescent nodes hold their temperature lazily at the last refresh
  // instant; materialise everything at end-of-run sim-time so the
  // comparison sees one consistent snapshot.
  out.final_temps_c.reserve(cfg.num_nodes);
  for (const hw::Node& n : cl.nodes()) {
    out.final_temps_c.push_back(n.temperature_at(cl.now()).value());
  }
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
  }
  ASSERT_EQ(a.finished.size(), b.finished.size());
  for (std::size_t i = 0; i < a.finished.size(); ++i) {
    EXPECT_EQ(a.finished[i].id, b.finished[i].id) << "job " << i;
    EXPECT_EQ(a.finished[i].actual_s, b.finished[i].actual_s) << "job " << i;
    EXPECT_EQ(a.finished[i].energy_j, b.finished[i].energy_j) << "job " << i;
  }
  ASSERT_EQ(a.final_temps_c.size(), b.final_temps_c.size());
  for (std::size_t i = 0; i < a.final_temps_c.size(); ++i) {
    EXPECT_EQ(a.final_temps_c[i], b.final_temps_c[i]) << "node " << i;
  }
}

// -- wake exactly on a control-cycle boundary ---------------------------------
//
// Phases lasting exactly one control period put every phase-boundary wake
// on the same tick as the control-cycle boundary: the workload refresh,
// the utilisation-staircase wake, and the manager cycle all fire at once.
// A fencepost error in the fast-forward window (advancing to the boundary
// twice, or past it) breaks the A/B identity immediately.
TEST(Quiescence, WakeOnControlCycleBoundaryIsExact) {
  workload::AppModel app;
  app.name = "boundary-aligned";
  app.iteration = {
      {.name = "compute",
       .cpu_utilization = 0.9,
       .frequency_sensitivity = 1.0,
       .mem_fraction = 0.3,
       .seconds_per_iteration = 4.0},
      {.name = "exchange",
       .cpu_utilization = 0.2,
       .frequency_sensitivity = 0.1,
       .mem_fraction = 0.3,
       .comm_bytes_per_proc_per_s = 1e8,
       .network_sensitivity = 0.5,
       .seconds_per_iteration = 4.0},
  };
  app.reference_duration_s = 48.0;
  app.reference_nprocs = 8;
  app.scaling_alpha = 1.0;
  app.validate();

  const RunResult off = run_cluster(false, 1, &app, 0.9, 911u);
  ASSERT_GT(off.points.size(), 90u);
  ASSERT_GT(off.finished.size(), 0u) << "no job ever finished";
  const RunResult on = run_cluster(true, 1, &app, 0.9, 911u);
  expect_identical(off, on);
  const RunResult on_parallel = run_cluster(true, 4, &app, 0.9, 911u);
  expect_identical(off, on_parallel);
}

// -- sub-tick phases ----------------------------------------------------------
//
// Phases shorter than a tick mean several phase boundaries inside one
// fast-forward step: the workload engine folds progress through them and
// the closed-form advance must land on the same folded state as the
// per-tick sweep. (True zero-duration phases are rejected at the model
// layer — see ZeroDurationPhaseIsRejected — so the fold always
// terminates.)
TEST(Quiescence, SubTickPhasesFoldIdentically) {
  workload::AppModel app;
  app.name = "sub-tick";
  app.iteration = {
      {.name = "burst",
       .cpu_utilization = 1.0,
       .frequency_sensitivity = 1.0,
       .seconds_per_iteration = 0.25},
      {.name = "stall",
       .cpu_utilization = 0.1,
       .frequency_sensitivity = 0.0,
       .seconds_per_iteration = 0.5},
      {.name = "mix",
       .cpu_utilization = 0.6,
       .frequency_sensitivity = 0.5,
       .seconds_per_iteration = 0.25},
  };
  app.reference_duration_s = 30.0;
  app.reference_nprocs = 8;
  app.scaling_alpha = 1.0;
  app.validate();

  const RunResult off = run_cluster(false, 1, &app, 0.9, 74123u);
  ASSERT_GT(off.finished.size(), 0u) << "no job ever finished";
  const RunResult on = run_cluster(true, 1, &app, 0.9, 74123u);
  expect_identical(off, on);
}

TEST(Quiescence, ZeroDurationPhaseIsRejected) {
  workload::Phase p;
  p.name = "degenerate";
  p.seconds_per_iteration = 0.0;
  EXPECT_THROW(workload::validate_phase(p), std::invalid_argument);
  p.seconds_per_iteration = -1.0;
  EXPECT_THROW(workload::validate_phase(p), std::invalid_argument);
}

// -- thermal fast-forward across a DVFS change --------------------------------
//
// A DVFS command landing mid-quiescence-window splits the thermal
// integral: heating up to the change instant happens at the old level's
// power, the rest at the new level's. set_level's internal heat-through
// must therefore be exactly equivalent to an explicit advance to the
// change instant followed by the level write — if it re-evaluates power
// first (or skips the heat-through), a long-quiescent node drifts from a
// frequently-swept one.
TEST(Quiescence, ThermalFastForwardAcrossDvfsChangeIsExact) {
  const hw::NodeSpecPtr spec = hw::tianhe1a_node_spec();
  const hw::Level low = spec->ladder.lowest();

  hw::NodeStatePool lazy(1);
  lazy.init_slot(0, spec.get(), 1.0);
  lazy.set_cpu_utilization(0, 0.9);
  lazy.set_busy(0, true);

  hw::NodeStatePool eager(1);
  eager.init_slot(0, spec.get(), 1.0);
  eager.set_cpu_utilization(0, 0.9);
  eager.set_busy(0, true);

  // Lazy: the slot sleeps from t=0 straight through the DVFS change at
  // t=150; set_level itself must heat through [0, 150) at the old draw.
  lazy.set_now(150.0);
  lazy.set_level(0, low);
  const double lazy_t = lazy.advance_temperature_to(0, 200.0).value();

  // Eager: explicit advance to the change instant, then the same write.
  eager.advance_temperature_to(0, 150.0);
  eager.set_now(150.0);
  eager.set_level(0, low);
  const double eager_t = eager.advance_temperature_to(0, 200.0).value();

  EXPECT_EQ(lazy_t, eager_t);
  // And the run genuinely heated the node (the comparison is not 0 == 0).
  EXPECT_GT(lazy_t, spec->thermal.ambient.value());
}

// A cluster-level version of the same guard: a tight cap keeps the
// manager issuing DVFS transitions all run long, so level changes keep
// landing on nodes in every quiescence state; the event-driven run must
// still match the full sweep bit-for-bit, final temperatures included.
TEST(Quiescence, DvfsChurnUnderTightCapStaysIdentical) {
  const RunResult off = run_cluster(false, 1, nullptr, 0.7, 515253u);
  std::size_t transitions = 0;
  for (const metrics::CyclePoint& pt : off.points) transitions += pt.transitions;
  ASSERT_GT(transitions, 0u) << "cap never actuated; test exercises nothing";
  const RunResult on = run_cluster(true, 1, nullptr, 0.7, 515253u);
  expect_identical(off, on);
}

// -- steady-green collect stride ----------------------------------------------
//
// The dedicated stride test the fast_params comment in test_manager.cpp
// promises: on quiet green cycles the collector only sweeps on stride
// marks (cycle_count multiples), and any cycle that needs a policy
// context — here, a yellow meter reading — collects unconditionally, so
// a decision never reads across a strided gap.
TEST(Quiescence, GreenCollectStrideSkipsQuietCyclesOnly) {
  const int n = 4;
  std::vector<hw::Node> nodes;
  for (int i = 0; i < n; ++i) {
    nodes.emplace_back(static_cast<hw::NodeId>(i), hw::tianhe1a_node_spec());
  }
  sched::Scheduler scheduler(std::vector<int>(n, 12), {}, common::Rng(3));

  power::CappingManagerParams p;
  p.thresholds.provision = Watts{2000.0};
  p.thresholds.training_cycles = 0;
  p.thresholds.freeze_at_provision = true;
  p.collector.agent.utilization_noise = 0.0;
  p.collector.agent.nic_noise = 0.0;
  p.green_collect_stride = 4;
  power::ZoneTreeManager m = test::one_zone(p, "mpc", common::Rng(7));
  const power::CappingManager& shard = m.zone(0);
  std::vector<hw::NodeId> ids;
  for (int i = 0; i < n; ++i) ids.push_back(static_cast<hw::NodeId>(i));
  m.set_candidate_set(ids);

  std::uint64_t delivered_before = 0;
  // 12 quiet green cycles: the sweep fires exactly on every 4th cycle.
  for (int c = 0; c < 12; ++c) {
    const bool expect_collect = (shard.collector().cycle_count() + 1) % 4 == 0;
    m.cycle(Watts{100.0}, nodes, scheduler,
            Seconds{static_cast<double>(c)});
    const std::uint64_t delivered = shard.collector().samples_delivered();
    if (expect_collect) {
      EXPECT_EQ(delivered, delivered_before + n) << "cycle " << c;
    } else {
      EXPECT_EQ(delivered, delivered_before) << "cycle " << c;
    }
    delivered_before = delivered;
  }

  // Yellow cycles collect regardless of stride position: drive the meter
  // above provision for three consecutive cycles (none on a stride mark
  // boundary-aligned with the quiet pattern above) and expect a sweep on
  // every one of them.
  for (int c = 12; c < 15; ++c) {
    m.cycle(Watts{2500.0}, nodes, scheduler,
            Seconds{static_cast<double>(c)});
    const std::uint64_t delivered = shard.collector().samples_delivered();
    EXPECT_EQ(delivered, delivered_before + n) << "yellow cycle " << c;
    delivered_before = delivered;
  }
}

}  // namespace
}  // namespace pcap
