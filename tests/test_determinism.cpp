// Tier-1 determinism: a cluster run must be bit-identical for every
// worker-thread count. The per-tick sweeps draw all randomness from
// per-node streams and perform every reduction serially in index order,
// so the pool is an implementation detail the results cannot see.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "hw/node_spec.hpp"
#include "metrics/trace_recorder.hpp"
#include "power/policy_registry.hpp"
#include "power/zone_manager.hpp"

namespace pcap {
namespace {

struct RunResult {
  std::vector<metrics::CyclePoint> points;
  std::vector<metrics::JobRecord> finished;
  double total_energy_j = 0.0;
};

RunResult run_cluster(std::size_t worker_threads) {
  cluster::ClusterConfig cfg;
  cfg.num_nodes = 200;
  cfg.spec = hw::tianhe1a_node_spec();
  cfg.tick = Seconds{1.0};
  cfg.control_period = Seconds{4.0};
  cfg.seed = 20260806;
  cfg.scheduler.max_procs_per_node = 3;
  cfg.worker_threads = worker_threads;
  // Force the parallel machinery on even for this small population and
  // make chunks small, so many workers genuinely interleave.
  cfg.parallel_node_threshold = 1;
  cfg.parallel_grain = 16;
  cluster::Cluster cl(cfg);

  power::CappingManagerParams p;
  p.thresholds.provision = cl.theoretical_peak() * 0.9;
  p.thresholds.training_cycles = 0;
  p.thresholds.freeze_at_provision = true;
  p.cycle_period = cfg.control_period;
  p.collector.parallel_threshold = 16;
  p.collector.parallel_grain = 16;
  p.collector.transport.loss_rate = 0.05;  // exercises per-node loss draws
  auto mgr = std::make_unique<power::ZoneTreeManager>(
      power::ZoneTreeParams{}, p, [] { return power::make_policy("mpc"); },
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
  return out;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const metrics::CyclePoint& pa = a.points[i];
    const metrics::CyclePoint& pb = b.points[i];
    EXPECT_EQ(pa.time_s, pb.time_s) << "tick " << i;
    EXPECT_EQ(pa.power_w, pb.power_w) << "tick " << i;
    EXPECT_EQ(pa.p_low_w, pb.p_low_w) << "tick " << i;
    EXPECT_EQ(pa.p_high_w, pb.p_high_w) << "tick " << i;
    EXPECT_EQ(pa.state, pb.state) << "tick " << i;
    EXPECT_EQ(pa.running_jobs, pb.running_jobs) << "tick " << i;
    EXPECT_EQ(pa.targets, pb.targets) << "tick " << i;
    EXPECT_EQ(pa.transitions, pb.transitions) << "tick " << i;
  }
  ASSERT_EQ(a.finished.size(), b.finished.size());
  for (std::size_t i = 0; i < a.finished.size(); ++i) {
    const metrics::JobRecord& ra = a.finished[i];
    const metrics::JobRecord& rb = b.finished[i];
    EXPECT_EQ(ra.id, rb.id) << "job " << i;
    EXPECT_EQ(ra.app, rb.app) << "job " << i;
    EXPECT_EQ(ra.nprocs, rb.nprocs) << "job " << i;
    EXPECT_EQ(ra.actual_s, rb.actual_s) << "job " << i;
    EXPECT_EQ(ra.energy_j, rb.energy_j) << "job " << i;
  }
  EXPECT_EQ(a.total_energy_j, b.total_energy_j);
}

TEST(Determinism, ParallelRunBitIdenticalToSerial) {
  const RunResult serial = run_cluster(1);
  ASSERT_GT(serial.points.size(), 400u);
  ASSERT_GT(serial.finished.size(), 0u) << "run too short to finish a job";

  const RunResult four = run_cluster(4);
  expect_identical(serial, four);

  // Hardware concurrency too, in case it differs from both.
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  if (hw != 1 && hw != 4) {
    const RunResult native = run_cluster(hw);
    expect_identical(serial, native);
  }
}

TEST(Determinism, RepeatedParallelRunsAgree) {
  const RunResult a = run_cluster(4);
  const RunResult b = run_cluster(4);
  expect_identical(a, b);
}

// -- degraded, lossy-actuation bit-identity -----------------------------------
//
// The sharded context assembly defers all reconciler mutation to the
// serial merge; this run makes that machinery earn its keep on every
// cycle: a provision tight enough to keep the engine in yellow/red (so
// A_degraded stays populated and the context is built every control
// cycle), a faulty telemetry plane (loss + delay + dropout + corruption +
// crashes → stale views, fallbacks, rejected samples), and a lossy
// actuation plane (command loss, delays, failed and partial transitions,
// reboots → retries, divergences, heals, unresponsive nodes). Every one
// of those paths must still be bit-identical across worker counts.
RunResult run_degraded_cluster(std::size_t worker_threads) {
  cluster::ClusterConfig cfg;
  cfg.num_nodes = 200;
  cfg.spec = hw::tianhe1a_node_spec();
  cfg.tick = Seconds{1.0};
  cfg.control_period = Seconds{4.0};
  cfg.seed = 30270807;
  cfg.scheduler.max_procs_per_node = 3;
  cfg.worker_threads = worker_threads;
  cfg.parallel_node_threshold = 1;
  cfg.parallel_grain = 16;
  cluster::Cluster cl(cfg);

  power::CappingManagerParams p;
  // Tight enough that yellow recurs for the whole run: the degraded set
  // never drains, so the manager cannot take the green fast path.
  p.thresholds.provision = cl.theoretical_peak() * 0.70;
  p.thresholds.training_cycles = 0;
  p.thresholds.freeze_at_provision = true;
  p.cycle_period = cfg.control_period;
  p.collector.parallel_threshold = 16;
  p.collector.parallel_grain = 16;
  p.collector.transport.loss_rate = 0.05;
  p.collector.transport.delay_cycles = 1;
  p.collector.faults.agent_dropout_rate = 0.02;
  p.collector.faults.agent_recovery_rate = 0.25;
  p.collector.faults.crash_rate = 0.005;
  p.collector.faults.corruption_rate = 0.02;
  p.actuation.command_loss_rate = 0.15;
  p.actuation.delivery_delay_cycles = 1;
  p.actuation.transition_failure_rate = 0.05;
  p.actuation.partial_transition_rate = 0.20;
  p.actuation.reboot_rate = 0.002;
  auto mgr = std::make_unique<power::ZoneTreeManager>(
      power::ZoneTreeParams{}, p, [] { return power::make_policy("mpc-c"); },
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
  return out;
}

TEST(Determinism, DegradedLossyRunBitIdenticalToSerial) {
  const RunResult serial = run_degraded_cluster(1);

  // The scenario must actually exercise the degraded machinery, or this
  // test silently decays into the healthy-path one above.
  std::uint64_t non_green = 0;
  std::uint64_t targets = 0;
  for (const metrics::CyclePoint& pt : serial.points) {
    if (pt.state != static_cast<int>(power::PowerState::kGreen)) ++non_green;
    targets += pt.targets;
  }
  ASSERT_GT(non_green, 20u) << "provision not tight enough";
  ASSERT_GT(targets, 50u) << "policy never selected anything";

  const RunResult four = run_degraded_cluster(4);
  expect_identical(serial, four);
}

// -- event-driven vs full-sweep A/B -------------------------------------------
//
// The event-driven due set (staircase grid + wake events, quiescent
// blocks skipped whole) and the reference full scan must agree on every
// per-node predicate — which makes the two modes bit-identical, meter
// readings and job energies included. Noise is disabled so nodes really
// do quiesce, and a mid-run burst of DVFS pokes force-wakes quiescent
// nodes through the changed-slot drain (the wake path a fault/actuation
// event takes).
struct AbResult {
  RunResult run;
  std::uint64_t node_refreshes = 0;
};

AbResult run_quiescent_cluster(std::uint64_t seed, bool event_driven,
                               std::size_t worker_threads) {
  cluster::ClusterConfig cfg;
  cfg.num_nodes = 200;
  cfg.spec = hw::tianhe1a_node_spec();
  cfg.tick = Seconds{1.0};
  cfg.control_period = Seconds{4.0};
  cfg.seed = seed;
  cfg.scheduler.max_procs_per_node = 3;
  cfg.worker_threads = worker_threads;
  cfg.parallel_node_threshold = 1;
  cfg.parallel_grain = 16;
  cfg.utilization_noise_sigma = 0.0;  // allow true quiescence
  cfg.event_driven_ticks = event_driven;
  cluster::Cluster cl(cfg);

  power::CappingManagerParams p;
  p.thresholds.provision = cl.theoretical_peak() * 0.9;
  p.thresholds.training_cycles = 0;
  p.thresholds.freeze_at_provision = true;
  p.cycle_period = cfg.control_period;
  auto mgr = std::make_unique<power::ZoneTreeManager>(
      power::ZoneTreeParams{}, p, [] { return power::make_policy("mpc"); },
      common::Rng(seed ^ 0x9d2c5680u));
  mgr->set_candidate_set(cl.controllable_nodes());
  cl.set_manager(std::move(mgr));

  cl.start_recording();
  cl.run(Seconds{150.0});
  // Fault injection: knock a spread of nodes down a level mid-run. By now
  // long-phase nodes have converged and quiesced; the pokes must wake
  // them (power re-evaluation + thermal fast-forward) in both modes.
  for (std::size_t i = 0; i < cl.nodes().size(); i += 17) {
    hw::Node& n = cl.nodes()[i];
    n.set_level(static_cast<hw::Level>(n.level() - 1));
  }
  cl.run(Seconds{100.0});
  for (std::size_t i = 0; i < cl.nodes().size(); i += 17) {
    hw::Node& n = cl.nodes()[i];
    n.set_level(n.spec().ladder.highest());
  }
  cl.run(Seconds{300.0});

  AbResult out;
  out.run.points = cl.recorder().points();
  out.run.finished = cl.finished_records();
  for (const metrics::JobRecord& r : out.run.finished) {
    out.run.total_energy_j += r.energy_j;
  }
  out.node_refreshes =
      cl.metrics().counter_value("pcap_cluster_node_refreshes_total").value();
  return out;
}

TEST(Determinism, EventDrivenBitIdenticalToFullSweep) {
  for (const std::uint64_t seed : {20260806ull, 20260807ull, 20260808ull}) {
    const AbResult on = run_quiescent_cluster(seed, true, 1);
    const AbResult off = run_quiescent_cluster(seed, false, 1);
    ASSERT_GT(on.run.points.size(), 300u);
    ASSERT_GT(on.run.finished.size(), 0u) << "seed " << seed;
    expect_identical(on.run, off.run);
    // Identical due sets, not merely identical results: both modes must
    // have refreshed exactly the same number of node-slots.
    EXPECT_EQ(on.node_refreshes, off.node_refreshes) << "seed " << seed;
    // And quiescence must actually engage, or this A/B tests nothing:
    // a full per-tick refresh would cost points * num_nodes slots.
    const std::uint64_t full_cost =
        static_cast<std::uint64_t>(on.run.points.size()) * 200u;
    EXPECT_LT(on.node_refreshes, full_cost / 4) << "seed " << seed;
  }
}

TEST(Determinism, EventDrivenParallelBitIdenticalToSerial) {
  const AbResult serial = run_quiescent_cluster(44444ull, true, 1);
  const AbResult four = run_quiescent_cluster(44444ull, true, 4);
  expect_identical(serial.run, four.run);
  EXPECT_EQ(serial.node_refreshes, four.node_refreshes);
}

// -- policy-selection goldens -------------------------------------------------
//
// The control-plane rework (sharded context assembly, persistent job
// index, allocation-free selection scratch) must not change a single
// selection. These aggregates were recorded from the pre-change tree on a
// fixed-seed yellow-heavy sweep; any drift in context assembly order,
// job aggregation order, or policy tie-breaking shows up here.

struct SelectionGolden {
  const char* policy;
  std::uint64_t targets;
  std::uint64_t transitions;
  std::uint64_t yellow_points;
  std::uint64_t red_points;
  double power_sum_w;  // exact: bit-for-bit reproducible
};

SelectionGolden run_selection_sweep(const char* policy) {
  cluster::ClusterConfig cfg;
  cfg.num_nodes = 200;
  cfg.spec = hw::tianhe1a_node_spec();
  cfg.tick = Seconds{1.0};
  cfg.control_period = Seconds{4.0};
  cfg.seed = 771177;
  cfg.scheduler.max_procs_per_node = 3;
  cfg.worker_threads = 1;
  cluster::Cluster cl(cfg);

  power::CappingManagerParams p;
  // A tight provision keeps the run in yellow/red most of the time, so
  // the policy is consulted on nearly every control cycle.
  p.thresholds.provision = cl.theoretical_peak() * 0.80;
  p.thresholds.training_cycles = 0;
  p.thresholds.freeze_at_provision = true;
  p.cycle_period = cfg.control_period;
  auto mgr = std::make_unique<power::ZoneTreeManager>(
      power::ZoneTreeParams{}, p,
      [policy] { return power::make_policy(policy); },
      common::Rng(cfg.seed ^ 0x9d2c5680u));
  mgr->set_candidate_set(cl.controllable_nodes());
  cl.set_manager(std::move(mgr));

  cl.start_recording();
  cl.run(Seconds{400.0});

  SelectionGolden g{policy, 0, 0, 0, 0, 0.0};
  for (const metrics::CyclePoint& pt : cl.recorder().points()) {
    g.targets += pt.targets;
    g.transitions += pt.transitions;
    if (pt.state == static_cast<int>(power::PowerState::kYellow)) {
      ++g.yellow_points;
    }
    if (pt.state == static_cast<int>(power::PowerState::kRed)) {
      ++g.red_points;
    }
    g.power_sum_w += pt.power_w;
  }
  return g;
}

TEST(Determinism, SelectionGoldensUnchanged) {
  // Recorded from the serial tick path at the quiescence defaults
  // (util_refresh_ticks = 16, green_collect_stride = 16, OU noise on busy
  // nodes only) — each of those moves the fixed-seed trajectory, so the
  // goldens were re-pinned when the defaults landed. Any *further* drift
  // is a regression. mpc/mpc-c/hri/hri-c coincide here: the
  // fixed-seed workload keeps one dominant wide job ahead on both power
  // and rate, so every variant keeps picking it — the bit-exact
  // power_sum_w still pins the whole command trajectory for each. The
  // predictive rows run without a predictor here, so pi-c and pred-c take
  // their reactive fallback and also coincide with mpc-c.
  const SelectionGolden goldens[] = {
      {"mpc", 516, 516, 12, 0, 0x1.383b3a10638b6p+24},
      {"mpc-c", 516, 516, 12, 0, 0x1.383b3a10638b6p+24},
      {"lpc", 308, 308, 56, 0, 0x1.3b0e5db7605bfp+24},
      {"lpc-c", 476, 476, 12, 0, 0x1.399af08343ed8p+24},
      {"bfp", 516, 516, 12, 0, 0x1.39a168f058faep+24},
      {"hri", 516, 516, 12, 0, 0x1.383b3a10638b6p+24},
      {"hri-c", 516, 516, 12, 0, 0x1.383b3a10638b6p+24},
      {"ht", 326, 326, 32, 0, 0x1.3a1dcdd575db7p+24},
      {"ht-c", 582, 582, 12, 0, 0x1.37c2c7f4370a8p+24},
      {"pi-c", 516, 516, 12, 0, 0x1.383b3a10638b6p+24},
      {"pred-c", 516, 516, 12, 0, 0x1.383b3a10638b6p+24},
      {"uniform", 1164, 1164, 12, 0, 0x1.32861482d3aep+24},
      {"sla", 516, 516, 12, 0, 0x1.39a168f058faep+24},
  };
  for (const SelectionGolden& want : goldens) {
    const SelectionGolden got = run_selection_sweep(want.policy);
    EXPECT_EQ(got.targets, want.targets) << want.policy;
    EXPECT_EQ(got.transitions, want.transitions) << want.policy;
    EXPECT_EQ(got.yellow_points, want.yellow_points) << want.policy;
    EXPECT_EQ(got.red_points, want.red_points) << want.policy;
    EXPECT_EQ(got.power_sum_w, want.power_sum_w)
        << want.policy << " power_sum_w (hex): " << std::hexfloat
        << got.power_sum_w << std::defaultfloat;
  }
}

}  // namespace
}  // namespace pcap
