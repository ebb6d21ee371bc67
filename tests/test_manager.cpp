#include "power/manager.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "hw/node_spec.hpp"
#include "power/policy_registry.hpp"
#include "workload/npb.hpp"

namespace pcap::power {
namespace {

struct Rig {
  std::vector<hw::Node> nodes;
  sched::Scheduler scheduler;

  explicit Rig(int n)
      : scheduler(std::vector<int>(static_cast<std::size_t>(n), 12), {},
                  common::Rng(3)) {
    for (int i = 0; i < n; ++i) {
      nodes.emplace_back(static_cast<hw::NodeId>(i),
                         hw::tianhe1a_node_spec());
    }
  }

  void load(double utilization) {
    for (auto& n : nodes) {
      hw::OperatingPoint op;
      op.cpu_utilization = utilization;
      op.mem_used = n.spec().mem_total * 0.4;
      op.mem_total = n.spec().mem_total;
      op.tau = Seconds{1.0};
      op.nic_bandwidth = n.spec().nic_bandwidth;
      n.set_operating_point(op);
      n.set_busy(true);
    }
  }

  void run_job(workload::JobId id, int nprocs) {
    scheduler.submit(workload::Job(
        id, workload::npb_by_name("lu", workload::NpbClass::kC), nprocs,
        Seconds{0.0}));
    scheduler.try_launch(Seconds{0.0});
  }
};

CappingManagerParams fast_params() {
  CappingManagerParams p;
  p.thresholds.provision = Watts{2000.0};
  p.thresholds.training_cycles = 2;
  p.thresholds.adjust_period_cycles = 100;
  p.capping.steady_green_cycles = 3;
  p.collector.agent.utilization_noise = 0.0;
  p.collector.agent.nic_noise = 0.0;
  // Unit tests poke single cycles and inspect the context; collect every
  // cycle so one green cycle is enough to populate it. The stride itself
  // has a dedicated test (test_quiescence.cpp,
  // GreenCollectStrideSkipsQuietCyclesOnly).
  p.green_collect_stride = 1;
  return p;
}

TEST(CappingManager, NameIncludesPolicy) {
  CappingManager m(fast_params(), make_policy("mpc"), common::Rng(1));
  EXPECT_EQ(m.name(), "capping:mpc");
}

TEST(CappingManager, NullPolicyThrows) {
  EXPECT_THROW(CappingManager(fast_params(), nullptr, common::Rng(1)),
               std::invalid_argument);
}

TEST(CappingManager, TrainingCyclesDoNotThrottle) {
  Rig rig(4);
  rig.load(0.9);
  rig.run_job(1, 48);
  CappingManager m(fast_params(), make_policy("mpc"), common::Rng(1));
  m.set_candidate_set({0, 1, 2, 3});
  // Extremely high reading; still training -> no commands.
  const auto r1 =
      m.cycle(Watts{1e6}, rig.nodes, rig.scheduler, Seconds{1.0});
  EXPECT_TRUE(r1.training);
  EXPECT_EQ(r1.targets, 0u);
  for (const auto& n : rig.nodes) EXPECT_TRUE(n.at_highest());
}

TEST(CappingManager, YellowCycleThrottlesJobNodes) {
  Rig rig(4);
  rig.load(0.9);
  rig.run_job(1, 24);  // nodes 0, 1
  CappingManagerParams p = fast_params();
  p.thresholds.training_cycles = 0;
  p.thresholds.adjust_period_cycles = 1000;
  CappingManager m(p, make_policy("mpc"), common::Rng(1));
  m.set_candidate_set({0, 1, 2, 3});

  // Thresholds from provision 2000: P_L = 1680, P_H = 1860.
  const auto r =
      m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler, Seconds{1.0});
  EXPECT_FALSE(r.training);
  EXPECT_EQ(r.state, PowerState::kYellow);
  EXPECT_EQ(r.targets, 2u);
  EXPECT_EQ(r.transitions, 2u);
  EXPECT_EQ(rig.nodes[0].level(), 8);
  EXPECT_EQ(rig.nodes[1].level(), 8);
  EXPECT_EQ(rig.nodes[2].level(), 9);  // not part of the job
}

TEST(CappingManager, RedCycleFloorsCandidates) {
  Rig rig(4);
  rig.load(0.9);
  rig.run_job(1, 24);
  CappingManagerParams p = fast_params();
  p.thresholds.training_cycles = 0;
  CappingManager m(p, make_policy("mpc"), common::Rng(1));
  m.set_candidate_set({0, 1, 2});  // node 3 stays unmanaged

  const auto r =
      m.cycle(Watts{1900.0}, rig.nodes, rig.scheduler, Seconds{1.0});
  EXPECT_EQ(r.state, PowerState::kRed);
  EXPECT_EQ(rig.nodes[0].level(), 0);
  EXPECT_EQ(rig.nodes[1].level(), 0);
  EXPECT_EQ(rig.nodes[2].level(), 0);
  EXPECT_EQ(rig.nodes[3].level(), 9);  // outside A_candidate
}

TEST(CappingManager, SteadyGreenRestores) {
  Rig rig(2);
  rig.load(0.9);
  rig.run_job(1, 24);
  CappingManagerParams p = fast_params();
  p.thresholds.training_cycles = 0;
  p.capping.steady_green_cycles = 2;
  CappingManager m(p, make_policy("mpc"), common::Rng(1));
  m.set_candidate_set({0, 1});

  m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler, Seconds{1.0});  // yellow
  EXPECT_EQ(rig.nodes[0].level(), 8);
  m.cycle(Watts{100.0}, rig.nodes, rig.scheduler, Seconds{2.0});  // green 1
  EXPECT_EQ(rig.nodes[0].level(), 8);
  m.cycle(Watts{100.0}, rig.nodes, rig.scheduler, Seconds{3.0});  // green 2
  EXPECT_EQ(rig.nodes[0].level(), 9);
  EXPECT_TRUE(m.engine().degraded().empty());
}

TEST(CappingManager, BuildContextMapsJobsToCandidates) {
  Rig rig(4);
  rig.load(0.8);
  rig.run_job(1, 24);  // nodes 0,1
  rig.run_job(2, 12);  // node 2
  CappingManagerParams p = fast_params();
  p.thresholds.training_cycles = 0;
  CappingManager m(p, make_policy("mpc"), common::Rng(1));
  m.set_candidate_set({0, 1});  // only job 1's nodes monitored

  m.cycle(Watts{100.0}, rig.nodes, rig.scheduler, Seconds{1.0});
  PolicyContext ctx;
  m.build_context_into(ctx, Watts{100.0}, rig.nodes, rig.scheduler);
  EXPECT_EQ(ctx.nodes.size(), 2u);
  ASSERT_EQ(ctx.jobs.size(), 1u);  // job 2 invisible: no candidate nodes
  EXPECT_EQ(ctx.jobs[0].id, 1u);
  EXPECT_EQ(ctx.jobs[0].nodes.size(), 2u);
  EXPECT_GT(ctx.jobs[0].power, Watts{0.0});
  EXPECT_GT(ctx.jobs[0].saving_one_level, Watts{0.0});
}

TEST(CappingManager, ContextRateNeedsTwoCycles) {
  Rig rig(2);
  rig.load(0.8);
  rig.run_job(1, 24);
  CappingManagerParams p = fast_params();
  p.thresholds.training_cycles = 0;
  CappingManager m(p, make_policy("hri"), common::Rng(1));
  m.set_candidate_set({0, 1});

  m.cycle(Watts{100.0}, rig.nodes, rig.scheduler, Seconds{1.0});
  PolicyContext ctx;
  m.build_context_into(ctx, Watts{100.0}, rig.nodes, rig.scheduler);
  EXPECT_DOUBLE_EQ(ctx.jobs[0].rate_of_increase(), 0.0);  // no history yet

  m.cycle(Watts{100.0}, rig.nodes, rig.scheduler, Seconds{2.0});
  m.build_context_into(ctx, Watts{100.0}, rig.nodes, rig.scheduler);
  EXPECT_GT(ctx.jobs[0].power_prev, Watts{0.0});
}

TEST(CappingManager, ThresholdsLearnFromPeak) {
  Rig rig(2);
  rig.load(0.5);
  CappingManagerParams p = fast_params();
  p.thresholds.training_cycles = 2;
  CappingManager m(p, make_policy("mpc"), common::Rng(1));
  m.set_candidate_set({0, 1});

  m.cycle(Watts{1500.0}, rig.nodes, rig.scheduler, Seconds{1.0});
  m.cycle(Watts{1200.0}, rig.nodes, rig.scheduler, Seconds{2.0});
  EXPECT_FALSE(m.root().thresholds().training());
  EXPECT_EQ(m.root().thresholds().p_peak(), Watts{1500.0});
}

TEST(CappingManager, UncontrollableNodesNeverChange) {
  Rig rig(2);
  rig.nodes[1] = hw::Node(1, hw::uncontrollable_node_spec());
  rig.load(0.9);
  rig.run_job(1, 24);
  CappingManagerParams p = fast_params();
  p.thresholds.training_cycles = 0;
  CappingManager m(p, make_policy("mpc"), common::Rng(1));
  m.set_candidate_set({0, 1});

  m.cycle(Watts{1900.0}, rig.nodes, rig.scheduler, Seconds{1.0});  // red
  EXPECT_EQ(rig.nodes[0].level(), 0);
  EXPECT_TRUE(rig.nodes[1].at_highest());  // no DVFS facility
}

TEST(NodeController, AppliesAndCounts) {
  Rig rig(3);
  NodeController ctl;
  const std::vector<LevelCommand> cmds = {{0, 5}, {1, 9}, {2, 0}};
  // Node 1 is already at 9: received but not applied.
  EXPECT_EQ(ctl.apply(cmds, rig.nodes), 2u);
  EXPECT_EQ(ctl.commands_received(), 3u);
  EXPECT_EQ(ctl.transitions_applied(), 2u);
  EXPECT_EQ(ctl.commands_ignored(), 1u);
  EXPECT_EQ(rig.nodes[0].level(), 5);
  EXPECT_EQ(rig.nodes[2].level(), 0);
}

TEST(NodeController, ClampsOutOfRangeLevels) {
  Rig rig(1);
  NodeController ctl;
  ctl.apply({{0, 99}}, rig.nodes);
  EXPECT_EQ(rig.nodes[0].level(), 9);
  ctl.apply({{0, -5}}, rig.nodes);
  EXPECT_EQ(rig.nodes[0].level(), 0);
}

TEST(NodeController, UnknownNodeThrows) {
  Rig rig(1);
  NodeController ctl;
  EXPECT_THROW(ctl.apply({{7, 3}}, rig.nodes), std::out_of_range);
}

TEST(NodeController, ResetCounters) {
  Rig rig(1);
  NodeController ctl;
  ctl.apply({{0, 3}}, rig.nodes);
  ctl.reset_counters();
  EXPECT_EQ(ctl.commands_received(), 0u);
  EXPECT_EQ(ctl.transitions_applied(), 0u);
}

TEST(NoCappingManager, DoesNothing) {
  Rig rig(2);
  rig.load(0.9);
  NoCappingManager m;
  EXPECT_EQ(m.name(), "none");
  const auto r =
      m.cycle(Watts{9999.0}, rig.nodes, rig.scheduler, Seconds{1.0});
  EXPECT_EQ(r.targets, 0u);
  EXPECT_EQ(r.transitions, 0u);
  for (const auto& n : rig.nodes) EXPECT_TRUE(n.at_highest());
}

TEST(CappingManager, DynamicSelectorExcludesPrivilegedJob) {
  Rig rig(4);
  rig.load(0.9);
  // Privileged job on nodes 0-1, normal job on nodes 2-3.
  rig.scheduler.submit(workload::Job(
      1, workload::npb_by_name("ep", workload::NpbClass::kC), 24,
      Seconds{0.0}, workload::JobPriority::kPrivileged));
  rig.scheduler.try_launch(Seconds{0.0});
  rig.run_job(2, 24);

  CappingManagerParams p = fast_params();
  p.thresholds.training_cycles = 0;
  p.selector = CandidateSelectorParams{};
  CappingManager m(p, make_policy("mpc"), common::Rng(1));
  // No explicit set_candidate_set: the selector populates it.

  // Red reading floors every candidate — but never the privileged nodes.
  m.cycle(Watts{1900.0}, rig.nodes, rig.scheduler, Seconds{1.0});
  EXPECT_EQ(m.candidate_set(), (std::vector<hw::NodeId>{2, 3}));
  EXPECT_TRUE(rig.nodes[0].at_highest());
  EXPECT_TRUE(rig.nodes[1].at_highest());
  EXPECT_EQ(rig.nodes[2].level(), 0);
  EXPECT_EQ(rig.nodes[3].level(), 0);
}

TEST(CappingManager, DynamicSelectorRespectsMaxCandidates) {
  Rig rig(8);
  rig.load(0.5);
  CappingManagerParams p = fast_params();
  CandidateSelectorParams sel;
  sel.max_candidates = 3;
  p.selector = sel;
  CappingManager m(p, make_policy("mpc"), common::Rng(1));
  m.cycle(Watts{500.0}, rig.nodes, rig.scheduler, Seconds{1.0});
  EXPECT_EQ(m.candidate_set().size(), 3u);
}

/// A spec whose power table is all-zero: every sample legitimately reads
/// 0.0 W. Used to pin down sentinel-vs-flag bugs around "no previous
/// sample".
hw::NodeSpecPtr zero_power_spec() {
  hw::DvfsLadder ladder = hw::DvfsLadder::xeon_x5670();
  hw::DevicePowerTable table;
  const auto n = static_cast<std::size_t>(ladder.num_levels());
  table.idle.assign(n, Watts{0.0});
  table.cpu_dyn.assign(n, Watts{0.0});
  table.mem_dyn.assign(n, Watts{0.0});
  table.nic_dyn.assign(n, Watts{0.0});
  auto s = std::make_shared<hw::NodeSpec>(hw::NodeSpec{
      .name = "zero_power",
      .sockets = 2,
      .cores_per_socket = 6,
      .mem_total = Bytes{48.0 * 1024 * 1024 * 1024},
      .nic_bandwidth = 5e9,
      .ladder = std::move(ladder),
      .power_model = hw::PowerModel{std::move(table)},
      .thermal = hw::ThermalParams{},
      .controllable = true,
  });
  s->validate();
  return s;
}

// Regression: build_context_into used `power_prev > 0` as its "have a
// previous sample" test, so a node legitimately reporting 0.0 W zeroed
// the whole job's power_prev — and with it the rate-of-increase signal
// the change-based policies run on.
TEST(CappingManager, ZeroWattPreviousSampleStillCountsAsHistory) {
  Rig rig(2);
  rig.nodes[0] = hw::Node(0, zero_power_spec());
  rig.load(0.9);
  rig.run_job(1, 24);  // spans nodes 0 (0 W) and 1 (real watts)
  CappingManagerParams p = fast_params();
  p.thresholds.training_cycles = 0;
  CappingManager m(p, make_policy("hri"), common::Rng(1));
  m.set_candidate_set({0, 1});

  m.cycle(Watts{100.0}, rig.nodes, rig.scheduler, Seconds{1.0});
  m.cycle(Watts{100.0}, rig.nodes, rig.scheduler, Seconds{2.0});
  PolicyContext ctx;
  m.build_context_into(ctx, Watts{100.0}, rig.nodes, rig.scheduler);
  ASSERT_EQ(ctx.jobs.size(), 1u);
  const NodeView* zero = ctx.node(0);
  ASSERT_NE(zero, nullptr);
  EXPECT_TRUE(zero->has_prev);
  EXPECT_EQ(zero->power_prev, Watts{0.0});
  // Node 1's real previous-cycle watts survive into the job aggregate.
  EXPECT_GT(ctx.jobs[0].power_prev, Watts{0.0});
}

TEST(CappingManager, DelayedTelemetryGoesStaleAndGetsFallback) {
  Rig rig(2);
  rig.load(0.9);
  rig.run_job(1, 24);
  CappingManagerParams p = fast_params();
  p.thresholds.training_cycles = 0;
  // Every report arrives 3 cycles late but the manager only trusts views
  // up to 2 cycles old: every view it ever sees is stale.
  p.collector.transport.delay_cycles = 3;
  p.max_sample_age_cycles = 2;
  p.stale_power_margin = 0.25;
  CappingManager m(p, make_policy("mpc"), common::Rng(1));
  m.set_candidate_set({0, 1});

  ManagerReport r;
  for (int c = 1; c <= 6; ++c) {
    r = m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler,
                Seconds{static_cast<double>(c)});
  }
  // Yellow pressure, but both views are stale: counted, substituted, and
  // excluded from selection — no node was throttled blind.
  EXPECT_EQ(r.state, PowerState::kYellow);
  EXPECT_EQ(r.stale_nodes, 2u);
  EXPECT_EQ(r.fallback_nodes, 2u);
  EXPECT_EQ(r.targets, 0u);
  for (const auto& n : rig.nodes) EXPECT_TRUE(n.at_highest());

  PolicyContext ctx;
  m.build_context_into(ctx, Watts{1700.0}, rig.nodes, rig.scheduler);
  ASSERT_EQ(ctx.nodes.size(), 2u);
  for (const NodeView& nv : ctx.nodes) {
    EXPECT_TRUE(nv.stale);
    // The fallback is the delivered estimate inflated by the margin.
    const auto hist = m.collector().history(nv.id);
    ASSERT_TRUE(hist.has_value());
    EXPECT_NEAR(nv.power.value(), hist->back().estimated_power.value() * 1.25,
                1e-9);
  }
}

TEST(CappingManager, CorruptSamplesAreRejectedNotActedOn) {
  Rig rig(2);
  rig.load(0.9);
  rig.run_job(1, 24);
  CappingManagerParams p = fast_params();
  p.thresholds.training_cycles = 0;
  p.collector.faults.corruption_rate = 1.0;  // every delivery is garbage
  CappingManager m(p, make_policy("mpc"), common::Rng(1));
  m.set_candidate_set({0, 1});

  ManagerReport r;
  for (int c = 1; c <= 3; ++c) {
    r = m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler,
                Seconds{static_cast<double>(c)});
  }
  // Nothing plausible ever arrived: both candidates are missing, the
  // implausible samples were counted, and no command was issued off a
  // garbage estimate.
  EXPECT_EQ(r.missing_nodes, 2u);
  EXPECT_GT(r.rejected_samples, 0u);
  EXPECT_GT(r.samples_corrupted, 0u);
  EXPECT_EQ(r.targets, 0u);
  for (const auto& n : rig.nodes) EXPECT_TRUE(n.at_highest());
}

// Regression: context assembly priced every node's one-level-down
// hypothetical as estimated_power_at(level - 1), indexing off the bottom
// of the DVFS table for a node already at the ladder floor. A floored
// candidate must contribute exactly 0 W of saving_one_level — there is no
// level below to price.
TEST(CappingManager, FlooredCandidateContributesNoSavingOneLevelDown) {
  Rig rig(2);
  rig.load(0.9);
  rig.run_job(1, 24);  // nodes 0, 1
  CappingManagerParams p = fast_params();
  p.thresholds.training_cycles = 0;
  CappingManager m(p, make_policy("mpc"), common::Rng(1));
  m.set_candidate_set({0, 1});

  rig.nodes[0].set_level(0);  // already at the ladder floor
  m.cycle(Watts{100.0}, rig.nodes, rig.scheduler, Seconds{1.0});
  PolicyContext ctx;
  m.build_context_into(ctx, Watts{100.0}, rig.nodes, rig.scheduler);
  const NodeView* floored = ctx.node(0);
  ASSERT_NE(floored, nullptr);
  EXPECT_TRUE(floored->at_lowest);
  // The hypothetical clamps to the current draw: zero incremental saving.
  EXPECT_EQ(floored->power_one_level_down, floored->power);
  const NodeView* live = ctx.node(1);
  ASSERT_NE(live, nullptr);
  EXPECT_LT(live->power_one_level_down, live->power);
  // The job aggregate only carries node 1's headroom.
  ASSERT_EQ(ctx.jobs.size(), 1u);
  EXPECT_NEAR(ctx.jobs[0].saving_one_level.value(),
              (live->power - live->power_one_level_down).value(), 1e-9);
}

// Regression: cycle() evaluated the five-clause context gate twice — once
// before channel_.begin_cycle() (the collect decision) and once after
// (the context decision). begin_cycle can only shrink the gate's inputs
// (it drains due deliveries), so the two could disagree in exactly one
// direction: telemetry collected, context skipped. Any divergence sitting
// in that cycle's fresh samples went unobserved.
//
// Reaching the discriminating state — in-flight commands with nothing
// pending, nothing unresponsive, nothing degraded, green power — takes a
// specific sequence: abandon (max_retries = 0) strips the pending record
// while the delayed command stays queued, readmission clears the
// unresponsive flag, and a candidate-set shrink drains A_degraded without
// issuing restore commands.
TEST(CappingManager, DeliveryDrainCycleStillObservesDivergence) {
  Rig rig(3);
  rig.load(0.9);
  rig.run_job(1, 24);  // nodes 0, 1
  CappingManagerParams p = fast_params();
  p.thresholds.training_cycles = 0;
  p.thresholds.adjust_period_cycles = 1000;
  p.capping.steady_green_cycles = 100;       // no green restores
  p.actuation.delivery_delay_cycles = 4;     // c1's commands land at c5
  p.reconciliation.max_retries = 0;          // abandon at first due check
  p.reconciliation.retry_backoff_base_cycles = 1;
  CappingManager m(p, make_policy("mpc"), common::Rng(1));
  m.set_candidate_set({0, 1, 2});

  // c1 (yellow): throttle commands for nodes 0, 1 are queued for c5;
  // both nodes become pending and degraded.
  const auto r1 =
      m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler, Seconds{1.0});
  EXPECT_EQ(r1.state, PowerState::kYellow);
  EXPECT_EQ(r1.commands_in_flight, 2u);
  EXPECT_TRUE(rig.nodes[0].at_highest());  // delayed, nothing applied yet

  // c2 (green): the unacked commands come due and the zero-retry budget
  // abandons both nodes — pending cleared, commands still queued.
  const auto r2 =
      m.cycle(Watts{100.0}, rig.nodes, rig.scheduler, Seconds{2.0});
  EXPECT_EQ(r2.commands_abandoned, 2u);
  EXPECT_EQ(m.reconciler().unresponsive_count(), 2u);

  // c3 (green): fresh telemetry readmits both abandoned nodes.
  m.cycle(Watts{100.0}, rig.nodes, rig.scheduler, Seconds{3.0});
  EXPECT_EQ(m.reconciler().unresponsive_count(), 0u);

  // Shrink A_candidate: nodes 0, 1 leave the context, so the next engine
  // cycle drains A_degraded without restore commands. Their queued
  // throttles stay in flight.
  m.set_candidate_set({2});
  m.cycle(Watts{100.0}, rig.nodes, rig.scheduler, Seconds{4.0});  // c4
  EXPECT_TRUE(m.engine().degraded().empty());
  EXPECT_EQ(m.actuation_channel().in_flight_count(), 2u);
  EXPECT_EQ(m.reconciler().pending_count(), 0u);
  EXPECT_EQ(m.reconciler().unresponsive_count(), 0u);

  // c5: the only gate clause left is in_flight > 0, and begin_cycle
  // delivers both queued commands — the post-drain re-evaluation used to
  // come up all-clear and skip the context. The externally diverged node
  // 2 (believed 9, observed 5) must still be seen and healed this cycle.
  rig.nodes[2].set_level(5);
  const auto r5 =
      m.cycle(Watts{100.0}, rig.nodes, rig.scheduler, Seconds{5.0});
  EXPECT_EQ(r5.divergences, 1u);
  EXPECT_EQ(r5.heals, 1u);
  EXPECT_EQ(rig.nodes[0].level(), 8);  // c1's throttles landed this cycle
  EXPECT_EQ(rig.nodes[1].level(), 8);
}

// Regression: a read-only context build between control cycles refilled
// the persisted per-slot records without the reconciler (an abandoned
// node read as plain missing, not missing-and-unresponsive) yet left the
// persisted context marked valid, so the next incremental build retracted
// its health tallies from the wrong records: missing_nodes wrapped below
// zero and unresponsive_nodes double-counted, cycle after cycle.
std::vector<ManagerReport> run_abandon_sequence(bool read_only_build) {
  Rig rig(3);
  rig.load(0.9);
  rig.run_job(1, 24);  // nodes 0, 1
  CappingManagerParams p = fast_params();
  p.thresholds.training_cycles = 0;
  p.thresholds.adjust_period_cycles = 1000;
  p.collector.transport.delay_cycles = 3;
  p.max_sample_age_cycles = 10;
  p.actuation.delivery_delay_cycles = 4;
  p.reconciliation.max_retries = 0;  // abandon at the first due check
  p.reconciliation.retry_backoff_base_cycles = 1;
  CappingManager m(p, make_policy("mpc"), common::Rng(1));
  m.set_candidate_set({0, 1, 2});

  double now = 1.0;
  const auto step = [&](double watts) {
    const ManagerReport r =
        m.cycle(Watts{watts}, rig.nodes, rig.scheduler, Seconds{now});
    now += 1.0;
    return r;
  };
  for (int c = 0; c < 5; ++c) step(100.0);
  EXPECT_EQ(step(1700.0).state, PowerState::kYellow);  // throttles 0, 1
  step(100.0);  // their unacked commands come due: both abandoned
  m.set_candidate_set({2});
  m.set_candidate_set({0, 1, 2});
  step(100.0);
  if (read_only_build) {
    PolicyContext ctx;
    m.build_context_into(ctx, Watts{100.0}, rig.nodes, rig.scheduler);
  }
  std::vector<ManagerReport> after;
  for (int c = 0; c < 3; ++c) after.push_back(step(100.0));
  return after;
}

TEST(CappingManager, ReadOnlyBuildDoesNotCorruptTheNextCycle) {
  const std::vector<ManagerReport> plain = run_abandon_sequence(false);
  const std::vector<ManagerReport> probed = run_abandon_sequence(true);
  ASSERT_EQ(plain.size(), probed.size());
  EXPECT_EQ(plain[0].missing_nodes, 0u);
  EXPECT_EQ(plain[0].unresponsive_nodes, 2u);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(probed[i].missing_nodes, plain[i].missing_nodes) << i;
    EXPECT_EQ(probed[i].unresponsive_nodes, plain[i].unresponsive_nodes) << i;
    EXPECT_EQ(probed[i].stale_nodes, plain[i].stale_nodes) << i;
    EXPECT_EQ(probed[i].fallback_nodes, plain[i].fallback_nodes) << i;
    EXPECT_EQ(probed[i].rejected_samples, plain[i].rejected_samples) << i;
    EXPECT_EQ(probed[i].targets, plain[i].targets) << i;
    EXPECT_EQ(probed[i].transitions, plain[i].transitions) << i;
  }
}

TEST(CappingManager, ManagerUtilizationReported) {
  Rig rig(8);
  rig.load(0.5);
  CappingManager m(fast_params(), make_policy("mpc"), common::Rng(1));
  m.set_candidate_set({0, 1, 2, 3, 4, 5, 6, 7});
  const auto r =
      m.cycle(Watts{500.0}, rig.nodes, rig.scheduler, Seconds{1.0});
  EXPECT_GT(r.manager_utilization, 0.0);
}

}  // namespace
}  // namespace pcap::power
