#include "power/manager.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include "hw/node_spec.hpp"
#include "hw/watchdog.hpp"
#include "power/policy_registry.hpp"
#include "support.hpp"
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
  common::Rng rng(1);
  const CappingManager shard(fast_params(), make_policy("mpc"), rng);
  EXPECT_EQ(shard.name(), "capping:mpc");
  EXPECT_EQ(test::one_zone(fast_params()).name(), "zonetree(1):capping:mpc");
}

TEST(CappingManager, NullPolicyThrows) {
  common::Rng rng(1);
  EXPECT_THROW(CappingManager(fast_params(), nullptr, rng),
               std::invalid_argument);
}

TEST(CappingManager, TrainingCyclesDoNotThrottle) {
  Rig rig(4);
  rig.load(0.9);
  rig.run_job(1, 48);
  ZoneTreeManager m = test::one_zone(fast_params(), "mpc");
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
  ZoneTreeManager m = test::one_zone(p, "mpc");
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
  ZoneTreeManager m = test::one_zone(p, "mpc");
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
  ZoneTreeManager m = test::one_zone(p, "mpc");
  m.set_candidate_set({0, 1});

  m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler, Seconds{1.0});  // yellow
  EXPECT_EQ(rig.nodes[0].level(), 8);
  m.cycle(Watts{100.0}, rig.nodes, rig.scheduler, Seconds{2.0});  // green 1
  EXPECT_EQ(rig.nodes[0].level(), 8);
  m.cycle(Watts{100.0}, rig.nodes, rig.scheduler, Seconds{3.0});  // green 2
  EXPECT_EQ(rig.nodes[0].level(), 9);
  EXPECT_TRUE(m.zone(0).engine().degraded().empty());
}

TEST(CappingManager, BuildContextMapsJobsToCandidates) {
  Rig rig(4);
  rig.load(0.8);
  rig.run_job(1, 24);  // nodes 0,1
  rig.run_job(2, 12);  // node 2
  CappingManagerParams p = fast_params();
  p.thresholds.training_cycles = 0;
  ZoneTreeManager m = test::one_zone(p, "mpc");
  m.set_candidate_set({0, 1});  // only job 1's nodes monitored

  m.cycle(Watts{100.0}, rig.nodes, rig.scheduler, Seconds{1.0});
  PolicyContext ctx;
  m.zone(0).build_context_into(ctx, rig.nodes, rig.scheduler);
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
  ZoneTreeManager m = test::one_zone(p, "hri");
  m.set_candidate_set({0, 1});

  m.cycle(Watts{100.0}, rig.nodes, rig.scheduler, Seconds{1.0});
  PolicyContext ctx;
  m.zone(0).build_context_into(ctx, rig.nodes, rig.scheduler);
  EXPECT_DOUBLE_EQ(ctx.jobs[0].rate_of_increase(), 0.0);  // no history yet

  m.cycle(Watts{100.0}, rig.nodes, rig.scheduler, Seconds{2.0});
  m.zone(0).build_context_into(ctx, rig.nodes, rig.scheduler);
  EXPECT_GT(ctx.jobs[0].power_prev, Watts{0.0});
}

TEST(CappingManager, ThresholdsLearnFromPeak) {
  Rig rig(2);
  rig.load(0.5);
  CappingManagerParams p = fast_params();
  p.thresholds.training_cycles = 2;
  ZoneTreeManager m = test::one_zone(p, "mpc");
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
  ZoneTreeManager m = test::one_zone(p, "mpc");
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
  ZoneTreeManager m = test::one_zone(p, "mpc");
  // No explicit set_candidate_set: the selector populates it.

  // Red reading floors every candidate — but never the privileged nodes.
  m.cycle(Watts{1900.0}, rig.nodes, rig.scheduler, Seconds{1.0});
  EXPECT_EQ(m.zone(0).candidate_set(), (std::vector<hw::NodeId>{2, 3}));
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
  ZoneTreeManager m = test::one_zone(p, "mpc");
  m.cycle(Watts{500.0}, rig.nodes, rig.scheduler, Seconds{1.0});
  EXPECT_EQ(m.zone(0).candidate_set().size(), 3u);
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
  ZoneTreeManager m = test::one_zone(p, "hri");
  m.set_candidate_set({0, 1});

  m.cycle(Watts{100.0}, rig.nodes, rig.scheduler, Seconds{1.0});
  m.cycle(Watts{100.0}, rig.nodes, rig.scheduler, Seconds{2.0});
  PolicyContext ctx;
  m.zone(0).build_context_into(ctx, rig.nodes, rig.scheduler);
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
  ZoneTreeManager m = test::one_zone(p, "mpc");
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
  m.zone(0).build_context_into(ctx, rig.nodes, rig.scheduler);
  ASSERT_EQ(ctx.nodes.size(), 2u);
  for (const NodeView& nv : ctx.nodes) {
    EXPECT_TRUE(nv.stale);
    // The fallback is the delivered estimate inflated by the margin.
    const auto hist = m.zone(0).collector().history(nv.id);
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
  ZoneTreeManager m = test::one_zone(p, "mpc");
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
  ZoneTreeManager m = test::one_zone(p, "mpc");
  m.set_candidate_set({0, 1});

  rig.nodes[0].set_level(0);  // already at the ladder floor
  m.cycle(Watts{100.0}, rig.nodes, rig.scheduler, Seconds{1.0});
  PolicyContext ctx;
  m.zone(0).build_context_into(ctx, rig.nodes, rig.scheduler);
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
  ZoneTreeManager m = test::one_zone(p, "mpc");
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
  EXPECT_EQ(m.zone(0).reconciler().unresponsive_count(), 2u);

  // c3 (green): fresh telemetry readmits both abandoned nodes.
  m.cycle(Watts{100.0}, rig.nodes, rig.scheduler, Seconds{3.0});
  EXPECT_EQ(m.zone(0).reconciler().unresponsive_count(), 0u);

  // Shrink A_candidate: nodes 0, 1 leave the context, so the next engine
  // cycle drains A_degraded without restore commands. Their queued
  // throttles stay in flight.
  m.set_candidate_set({2});
  m.cycle(Watts{100.0}, rig.nodes, rig.scheduler, Seconds{4.0});  // c4
  EXPECT_TRUE(m.zone(0).engine().degraded().empty());
  EXPECT_EQ(m.zone(0).actuation_channel().in_flight_count(), 2u);
  EXPECT_EQ(m.zone(0).reconciler().pending_count(), 0u);
  EXPECT_EQ(m.zone(0).reconciler().unresponsive_count(), 0u);

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
  ZoneTreeManager m = test::one_zone(p, "mpc");
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
    m.zone(0).build_context_into(ctx, rig.nodes, rig.scheduler);
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
  ZoneTreeManager m = test::one_zone(fast_params(), "mpc");
  m.set_candidate_set({0, 1, 2, 3, 4, 5, 6, 7});
  const auto r =
      m.cycle(Watts{500.0}, rig.nodes, rig.scheduler, Seconds{1.0});
  EXPECT_GT(r.manager_utilization, 0.0);
}

/// A seeded noisy run of `cycles` cycles over 16 nodes under the given
/// telemetry faults, metered at the nodes' real draw against a provision
/// of 85 % of the uncapped draw (so the manager throttles and restores).
/// After every cycle `check` gets the manager and a read-only context.
template <typename Check>
void run_windowed(const telemetry::CollectorParams& collector, int cycles,
                  Check check) {
  constexpr int kNodes = 16;
  Rig rig(kNodes);
  rig.load(0.9);
  rig.run_job(1, 12 * kNodes);
  const auto draw = [&rig] {
    Watts total{0.0};
    for (const hw::Node& n : rig.nodes) total += n.estimated_power();
    return total;
  };
  CappingManagerParams p = fast_params();
  p.collector = collector;
  p.thresholds.provision = draw() * 0.85;
  p.thresholds.training_cycles = 0;
  ZoneTreeManager m = test::one_zone(
      p, "mpc", common::Rng(test::fault_seed(11)).fork("window"));
  std::vector<hw::NodeId> ids(kNodes);
  for (int i = 0; i < kNodes; ++i) ids[i] = static_cast<hw::NodeId>(i);
  m.set_candidate_set(ids);

  PolicyContext ctx;
  for (int c = 1; c <= cycles; ++c) {
    m.cycle(draw(), rig.nodes, rig.scheduler, Seconds{static_cast<double>(c)});
    m.zone(0).build_context_into(ctx, rig.nodes, rig.scheduler);
    check(m.zone(0), ctx, rig.nodes, c);
  }
}

/// Loss, delay, dropout and crashes with agent noise on, no corruption.
telemetry::CollectorParams lossy_uncorrupted() {
  telemetry::CollectorParams p;
  p.transport.loss_rate = 0.2;
  p.transport.delay_cycles = 2;
  p.faults.agent_dropout_rate = 0.05;
  p.faults.crash_rate = 0.02;
  p.faults.crash_duration_cycles = 4;
  return p;
}

// Without corruption every delivered sample is plausible, so the view the
// manager builds is exactly the collector's newest sample and the one
// before it — which is why the collector holds only those two.
TEST(TelemetryWindow, ViewsReadNewestTwoSamplesWithoutCorruption) {
  std::size_t fresh_views = 0;
  std::size_t with_prev = 0;
  const auto check = [&](const CappingManager& m, const PolicyContext& ctx,
                         const std::vector<hw::Node>&, int c) {
    const telemetry::Collector& col = m.collector();
    EXPECT_EQ(ctx.rejected_samples, 0u) << "cycle " << c;
    // Every fallback is a stale view: nothing was substituted for an
    // implausible newer sample.
    EXPECT_EQ(ctx.fallback_nodes, ctx.stale_nodes) << "cycle " << c;
    for (const hw::NodeId id : col.candidate_set()) {
      ASSERT_EQ(col.history(id)->capacity(), 2u);
    }
    for (const NodeView& nv : ctx.nodes) {
      const auto latest = col.latest(nv.id);
      ASSERT_TRUE(latest.has_value());
      if (!nv.stale) {
        ++fresh_views;
        EXPECT_EQ(nv.power.value(), latest->estimated_power.value())
            << "cycle " << c << " node " << nv.id;
      }
      const auto prev = col.previous(nv.id);
      ASSERT_EQ(nv.has_prev, prev.has_value())
          << "cycle " << c << " node " << nv.id;
      if (prev) {
        ++with_prev;
        EXPECT_EQ(nv.power_prev.value(), prev->estimated_power.value())
            << "cycle " << c << " node " << nv.id;
      }
    }
  };
  run_windowed(lossy_uncorrupted(), 300, check);
  // The faults must not have blinded the whole run.
  EXPECT_GT(fresh_views, 1000u);
  EXPECT_GT(with_prev, 1000u);
}

// With corruption configured the collector keeps history_depth samples,
// and a corrupt newest entry is skipped for the newest plausible one.
TEST(TelemetryWindow, CorruptionKeepsDeepWindowAndSkipsCorruptNewest) {
  telemetry::CollectorParams p = lossy_uncorrupted();
  p.faults.corruption_rate = 0.2;
  std::size_t skipped_newest = 0;
  const auto check = [&](const CappingManager& m, const PolicyContext& ctx,
                         const std::vector<hw::Node>& nodes, int c) {
    for (const NodeView& nv : ctx.nodes) {
      const telemetry::SampleHistoryView h = *m.collector().history(nv.id);
      ASSERT_EQ(h.capacity(), p.history_depth);
      // The manager's sanity bound: finite, non-negative, at most 1.5x the
      // board's theoretical maximum.
      const double ceiling =
          nodes[nv.id].spec().power_model.theoretical_max().value() * 1.5;
      std::size_t k = h.size();
      while (k > 0) {
        const double w = h[k - 1].estimated_power.value();
        if (std::isfinite(w) && w >= 0.0 && w <= ceiling) break;
        --k;
      }
      ASSERT_GT(k, 0u) << "a view needs a plausible sample";
      if (k != h.size()) ++skipped_newest;
      if (!nv.stale) {
        EXPECT_EQ(nv.power.value(), h[k - 1].estimated_power.value())
            << "cycle " << c << " node " << nv.id;
      }
    }
  };
  run_windowed(p, 300, check);
  EXPECT_GT(skipped_newest, 0u);
}

/// Checks a built context against the collector it was built from: the
/// views are compacted in candidate order and are exactly the candidates
/// that have one this build — a sample in the window, and not stale while
/// the reconciler held the node unresponsive (`unresponsive[id]`, as of
/// the start of the build; all false for a read-only build) — and each
/// reads this cycle's newest two samples (no corruption is configured). A
/// read-only build (`reconciled` false) marks no command in flight.
/// Appends the candidates without a view to `holes`.
void check_compacted(const CappingManager& m, const PolicyContext& ctx,
                     bool reconciled, const std::vector<bool>& unresponsive,
                     std::uint64_t max_age, int c,
                     std::vector<hw::NodeId>& holes) {
  const telemetry::Collector& col = m.collector();
  const std::vector<hw::NodeId>& candidates = col.candidate_set();
  for (std::size_t k = 1; k < ctx.nodes.size(); ++k) {
    ASSERT_LT(ctx.nodes[k - 1].id, ctx.nodes[k].id) << "cycle " << c;
  }
  EXPECT_EQ(ctx.nodes.size(), candidates.size() - ctx.missing_nodes -
                                  ctx.unresponsive_nodes)
      << "cycle " << c;
  std::size_t k = 0;
  for (const hw::NodeId id : candidates) {
    const auto latest = col.latest(id);
    const bool stale =
        latest.has_value() && col.cycle_count() - latest->cycle > max_age;
    if (!latest.has_value() || (unresponsive[id] && stale)) {
      holes.push_back(id);
      EXPECT_EQ(ctx.node(id), nullptr) << "cycle " << c << " node " << id;
      continue;
    }
    ASSERT_LT(k, ctx.nodes.size()) << "cycle " << c << " node " << id;
    const NodeView& nv = ctx.nodes[k++];
    ASSERT_EQ(nv.id, id) << "cycle " << c;
    ASSERT_EQ(ctx.node(id), &nv) << "cycle " << c << " node " << id;
    EXPECT_EQ(nv.stale, stale) << "cycle " << c << " node " << id;
    EXPECT_EQ(nv.level, latest->level) << "cycle " << c << " node " << id;
    EXPECT_EQ(nv.busy, latest->busy) << "cycle " << c << " node " << id;
    EXPECT_EQ(nv.temperature.value(), latest->temperature.value())
        << "cycle " << c << " node " << id;
    const auto prev = col.previous(id);
    ASSERT_EQ(nv.has_prev, prev.has_value()) << "cycle " << c << " node " << id;
    if (prev) {
      EXPECT_EQ(nv.power_prev.value(), prev->estimated_power.value())
          << "cycle " << c << " node " << id;
    }
    if (!reconciled) {
      EXPECT_FALSE(nv.command_in_flight) << "cycle " << c << " node " << id;
    }
    if (!stale && !nv.command_in_flight) {
      EXPECT_EQ(nv.power.value(), latest->estimated_power.value())
          << "cycle " << c << " node " << id;
    }
  }
  EXPECT_EQ(k, ctx.nodes.size()) << "cycle " << c;
}

// The context build writes each slot's view in place and compacts the
// kept ones forward over slots without a view: never-sampled candidates
// (missing) and abandoned nodes gone stale (excluded). Agent dropout with
// a zero retry budget keeps abandoning nodes and readmitting them as their
// agents recover, so the holes move from build to build; both the
// manager's own context and a read-only one reused every cycle must carry
// exactly this build's views, none left over from an earlier one.
TEST(ContextCompaction, ViewsCompactForwardAroundMissingAndExcludedSlots) {
  constexpr int kNodes = 24;
  constexpr hw::NodeId kLateJoiner = 11;
  Rig rig(kNodes);
  rig.load(0.9);
  rig.run_job(1, 12 * kNodes);
  CappingManagerParams p = fast_params();
  p.thresholds.training_cycles = 0;
  p.thresholds.adjust_period_cycles = 1000;
  p.max_sample_age_cycles = 2;
  p.collector.faults.agent_dropout_rate = 0.1;
  p.collector.faults.agent_recovery_rate = 0.3;
  p.reconciliation.max_retries = 0;  // abandon at the first due check
  p.reconciliation.retry_backoff_base_cycles = 1;
  const auto max_age = static_cast<std::uint64_t>(p.max_sample_age_cycles);
  ZoneTreeManager m = test::one_zone(
      p, "mpc", common::Rng(test::fault_seed(11)).fork("compaction"));
  const CappingManager& shard = m.zone(0);
  std::vector<hw::NodeId> all(kNodes);
  for (int i = 0; i < kNodes; ++i) all[i] = static_cast<hw::NodeId>(i);
  std::vector<hw::NodeId> early;
  for (const hw::NodeId id : all) {
    if (id != kLateJoiner) early.push_back(id);
  }
  m.set_candidate_set(early);

  const std::vector<bool> read_only(kNodes, false);
  PolicyContext ro;  // reused every cycle: a leftover view would show
  std::vector<hw::NodeId> holes;
  std::vector<hw::NodeId> prev_holes;
  std::size_t excluded_between = 0;  // excluded slots with kept ones around
  std::size_t moved = 0;
  bool never_sampled_hole = false;
  for (int c = 1; c <= 200; ++c) {
    if (c == 20) {
      m.set_candidate_set(all);
      shard.build_context_into(ro, rig.nodes, rig.scheduler);
      holes.clear();
      check_compacted(shard, ro, false, read_only, max_age, c, holes);
      never_sampled_hole =
          std::find(holes.begin(), holes.end(), kLateJoiner) != holes.end();
    }
    // Red every fifth cycle floors the candidates; the green cycles in
    // between restore them, so commands keep meeting down agents.
    const bool red = c % 5 == 0;
    std::vector<bool> unresponsive(kNodes);
    for (const hw::NodeId id : all) {
      unresponsive[id] = shard.reconciler().unresponsive(id);
    }
    const bool builds = red || shard.context_gate(PowerState::kGreen);
    const ManagerReport r = m.cycle(red ? Watts{1e9} : Watts{0.0}, rig.nodes,
                                    rig.scheduler,
                                    Seconds{static_cast<double>(c)});
    ASSERT_EQ(r.state, red ? PowerState::kRed : PowerState::kGreen);
    if (builds) {
      holes.clear();
      const PolicyContext& ctx = shard.context();
      check_compacted(shard, ctx, true, unresponsive, max_age, c, holes);
      for (const hw::NodeId id : holes) {
        // A hole with a sample is an excluded slot, not a missing one.
        if (shard.collector().latest(id).has_value() && !ctx.nodes.empty() &&
            ctx.nodes.front().id < id && id < ctx.nodes.back().id) {
          ++excluded_between;
        }
      }
      if (holes != prev_holes) ++moved;
      prev_holes = holes;
    }
    shard.build_context_into(ro, rig.nodes, rig.scheduler);
    holes.clear();
    check_compacted(shard, ro, false, read_only, max_age, c, holes);
  }
  EXPECT_TRUE(never_sampled_hole);
  EXPECT_GT(excluded_between, 0u);
  EXPECT_GT(moved, 5u);
}

// -- wait cycles -----------------------------------------------------------

// Green cycles that only wait out T_g build no context under exact
// telemetry; the reconciler still sees every candidate's newest sample.
CappingManagerParams wait_rig_params() {
  CappingManagerParams p = fast_params();
  p.thresholds.training_cycles = 0;
  p.thresholds.adjust_period_cycles = 1000;  // P_L = 1680, P_H = 1860
  p.capping.steady_green_cycles = 4;
  return p;
}

TEST(WaitPass, WaitCyclesAckAndHealWithoutBuilding) {
  Rig rig(2);
  rig.load(0.9);
  rig.run_job(1, 24);  // nodes 0, 1
  CappingManagerParams p = wait_rig_params();
  p.capping.steady_green_cycles = 6;
  const std::int64_t tg = p.capping.steady_green_cycles;
  ZoneTreeManager m = test::one_zone(p, "mpc");
  m.set_candidate_set({0, 1});
  const CappingManager& shard = m.zone(0);
  const auto builds = [&] { return shard.incremental_stats().full_builds; };

  ManagerReport r = m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler,
                            Seconds{1.0});  // yellow: throttles the job
  ASSERT_EQ(r.state, PowerState::kYellow);
  ASSERT_EQ(rig.nodes[0].level(), 8);
  ASSERT_EQ(shard.engine().degraded().size(), 2u);
  EXPECT_EQ(builds(), 1u);

  // Green 1: the gate fires (the throttles are pending), the throttles ack.
  ASSERT_TRUE(shard.context_gate(PowerState::kGreen));
  r = m.cycle(Watts{100.0}, rig.nodes, rig.scheduler, Seconds{2.0});
  EXPECT_EQ(r.acks, 2u);
  EXPECT_EQ(builds(), 1u);

  // An external reset lands on an idle cycle. Nothing reads telemetry
  // until the forced sweep of the cycle before restoration: the reset is
  // seen there, within T_g - 2 cycles, and healed on that cycle.
  ASSERT_FALSE(shard.context_gate(PowerState::kGreen));
  rig.nodes[0].set_level(9);
  int seen_after = 0;
  double t = 2.0;
  do {
    ASSERT_LT(seen_after, tg - 2) << "the reset was never seen";
    ++seen_after;
    r = m.cycle(Watts{100.0}, rig.nodes, rig.scheduler, Seconds{++t});
    ASSERT_EQ(r.state, PowerState::kGreen);
    EXPECT_EQ(r.targets, 0u);
    EXPECT_EQ(builds(), 1u);
  } while (r.divergences == 0);
  EXPECT_EQ(seen_after, tg - 2);
  EXPECT_EQ(shard.engine().green_timer() + 1, tg);
  EXPECT_EQ(r.divergences, 1u);
  EXPECT_EQ(r.heals, 1u);
  EXPECT_EQ(rig.nodes[0].level(), 8);

  // Green T_g: the heal acks, and Algorithm 1 restores, so this cycle
  // builds.
  r = m.cycle(Watts{100.0}, rig.nodes, rig.scheduler, Seconds{++t});
  EXPECT_EQ(r.acks, 1u);
  EXPECT_EQ(builds(), 2u);
  EXPECT_EQ(r.targets, 2u);
  EXPECT_EQ(rig.nodes[0].level(), 9);
  EXPECT_EQ(rig.nodes[1].level(), 9);
  EXPECT_TRUE(shard.engine().degraded().empty());
}

// The wait pass needs exact telemetry. With agent dropout, transport loss
// or transport delay, every gated cycle builds; the exact twin skips.
TEST(WaitPass, InexactTelemetryBuildsOnEveryGatedCycle) {
  struct Case {
    const char* name;
    void (*apply)(CappingManagerParams&);
  };
  const Case cases[] = {
      {"exact", [](CappingManagerParams&) {}},
      {"dropout",
       [](CappingManagerParams& p) {
         p.collector.faults.agent_dropout_rate = 0.2;
       }},
      {"loss",
       [](CappingManagerParams& p) {
         p.collector.transport.loss_rate = 0.2;
       }},
      {"delay",
       [](CappingManagerParams& p) {
         p.collector.transport.delay_cycles = 1;
       }},
  };
  for (const Case& tc : cases) {
    Rig rig(4);
    rig.load(0.9);
    rig.run_job(1, 48);  // every node
    CappingManagerParams p = wait_rig_params();
    tc.apply(p);
    ZoneTreeManager m = test::one_zone(p, "mpc", common::Rng(5));
    m.set_candidate_set({0, 1, 2, 3});
    const CappingManager& shard = m.zone(0);
    std::uint64_t gated = 0;
    std::uint64_t gated_green = 0;
    for (int c = 1; c <= 40; ++c) {
      // Yellow every tenth cycle from the third on; green elsewhere.
      const bool yellow = c >= 3 && c % 10 == 3;
      const bool gate = yellow || shard.context_gate(PowerState::kGreen);
      gated += gate ? 1 : 0;
      gated_green += gate && !yellow ? 1 : 0;
      m.cycle(yellow ? Watts{1700.0} : Watts{100.0}, rig.nodes,
              rig.scheduler, Seconds{static_cast<double>(c)});
    }
    ASSERT_GT(gated_green, 8u) << tc.name;
    if (std::string(tc.name) == "exact") {
      EXPECT_LT(shard.incremental_stats().full_builds, gated) << tc.name;
    } else {
      EXPECT_EQ(shard.incremental_stats().full_builds, gated) << tc.name;
    }
  }
}

// At Z = 2 a zone that waited still reports the power a build would have
// folded: pcap_zone_power_watts is the sum over a fresh read-only build.
// With T_g = 4 the first green cycle waits (the floor commands are
// pending), the second is idle and the third is the cycle before
// restoration, which waits again.
TEST(WaitPass, ZoneTreeWaitCycleReportsTheBuildsZonePower) {
  Rig rig(4);
  rig.load(0.9);
  rig.run_job(1, 48);
  ZoneTreeParams zp;
  zp.zone_count = 2;
  ZoneTreeManager m(zp, wait_rig_params(), [] { return make_policy("mpc"); },
                    common::Rng(1));
  m.set_candidate_set({0, 1, 2, 3});
  obs::Registry reg;
  m.bind_metrics(reg);
  const auto zone_power = [&](std::size_t z) {
    const std::string series =
        "pcap_zone_power_watts{zone=\"" + std::to_string(z) + "\"}";
    return reg.value(*reg.find_gauge(series));
  };

  m.cycle(Watts{1900.0}, rig.nodes, rig.scheduler, Seconds{1.0});  // red
  const double red_power[2] = {zone_power(0), zone_power(1)};
  std::uint64_t red_builds[2];
  for (std::size_t z = 0; z < 2; ++z) {
    red_builds[z] = m.zone(z).incremental_stats().full_builds;
    ASSERT_FALSE(m.zone(z).engine().degraded().empty());
  }
  for (int c = 2; c <= 4; ++c) {
    const ManagerReport r =
        m.cycle(Watts{100.0}, rig.nodes, rig.scheduler,
                Seconds{static_cast<double>(c)});
    ASSERT_EQ(r.state, PowerState::kGreen);
    if (c == 3) {  // idle
      ASSERT_EQ(m.zones_active_last_cycle(), 0u);
      continue;
    }
    ASSERT_EQ(m.zones_active_last_cycle(), 2u) << "cycle " << c;
    for (std::size_t z = 0; z < 2; ++z) {
      EXPECT_EQ(m.zone(z).incremental_stats().full_builds, red_builds[z]);
      PolicyContext ctx;
      m.zone(z).build_context_into(ctx, rig.nodes, rig.scheduler);
      ASSERT_EQ(ctx.nodes.size(), 2u);
      Watts sum{0.0};
      for (const NodeView& nv : ctx.nodes) sum += nv.power;
      EXPECT_EQ(zone_power(z), sum.value()) << "cycle " << c << " zone " << z;
      EXPECT_LT(zone_power(z), red_power[z]);  // floored since the red cycle
    }
  }
}

// -- idle cycles -----------------------------------------------------------

// An idle green cycle (CappingManager::context_gate) neither sweeps nor
// runs a context phase. These rigs reach one: a yellow cycle throttles
// the job, the first green cycle acks the throttles, and with T_g = 6 the
// green cycles at timer 1..3 are idle unless something forces them. The
// collect stride is long, so only a gated cycle sweeps.
CappingManagerParams idle_rig_params() {
  CappingManagerParams p = wait_rig_params();
  p.capping.steady_green_cycles = 6;
  p.green_collect_stride = 1000;
  return p;
}

/// The one-zone tree over a two-node job, driven one cycle at a time.
struct IdleRig {
  Rig rig{2};
  ZoneTreeManager m;
  double t = 0.0;

  explicit IdleRig(const CappingManagerParams& p,
                   common::Rng rng = common::Rng(1))
      : m(test::one_zone(p, "mpc", rng)) {
    rig.load(0.9);
    rig.run_job(1, 24);  // nodes 0, 1
    m.set_candidate_set({0, 1});
  }
  [[nodiscard]] const CappingManager& shard() const { return m.zone(0); }
  [[nodiscard]] std::uint64_t delivered() const {
    return shard().collector().samples_delivered();
  }
  ManagerReport cycle(Watts measured) {
    t += 1.0;
    return m.cycle(measured, rig.nodes, rig.scheduler, Seconds{t});
  }
  ManagerReport yellow() { return cycle(Watts{1700.0}); }
  ManagerReport green() { return cycle(Watts{100.0}); }
  /// Runs a green cycle; true when it swept both candidates.
  bool green_swept() {
    const std::uint64_t before = delivered();
    green();
    return delivered() == before + 2;
  }
};

/// Everything the idle rule asks of a green cycle except exact telemetry,
/// exact actuation and an unchanged candidate set.
bool idle_but_for_the_planes(const CappingManager& s) {
  return !s.engine().degraded().empty() &&
         s.reconciler().pending_count() == 0 &&
         s.reconciler().unresponsive_count() == 0 &&
         s.actuation_channel().in_flight_count() == 0 &&
         !s.watchdog_pending() &&
         s.engine().green_timer() + 2 <
             s.engine().params().steady_green_cycles;
}

TEST(IdleCycle, PendingCommandForcesTheSweep) {
  IdleRig r(idle_rig_params());
  r.yellow();
  ASSERT_EQ(r.shard().reconciler().pending_count(), 2u);
  EXPECT_TRUE(r.green_swept());  // the throttles ack
  ASSERT_EQ(r.shard().reconciler().pending_count(), 0u);
  EXPECT_FALSE(r.green_swept());  // idle
}

TEST(IdleCycle, UnresponsiveNodeForcesTheSweep) {
  CappingManagerParams p = idle_rig_params();
  p.reconciliation.max_retries = 0;  // abandon at the first due check
  p.reconciliation.retry_backoff_base_cycles = 1;
  IdleRig r(p);
  r.yellow();
  r.rig.nodes[0].set_level(9);  // node 0's throttle never shows
  r.green();
  ASSERT_EQ(r.shard().reconciler().unresponsive_count(), 1u);
  ASSERT_EQ(r.shard().reconciler().pending_count(), 0u);
  EXPECT_TRUE(r.green_swept());  // and readmits node 0
  ASSERT_EQ(r.shard().reconciler().unresponsive_count(), 0u);
  EXPECT_FALSE(r.green_swept());
}

// A command can only be in flight when deliveries are delayed, so the
// enabled actuation model forces this sweep too. Both throttles are
// abandoned while queued and the nodes readmitted, so nothing is pending
// or unresponsive while the delayed commands are still on the wire.
TEST(IdleCycle, CommandInFlightForcesTheSweep) {
  CappingManagerParams p = idle_rig_params();
  p.actuation.delivery_delay_cycles = 3;
  p.reconciliation.max_retries = 0;
  p.reconciliation.retry_backoff_base_cycles = 1;
  IdleRig r(p);
  r.yellow();
  r.green();  // the throttles are still queued: abandoned
  ASSERT_EQ(r.shard().reconciler().unresponsive_count(), 2u);
  r.green();  // readmitted
  const CappingManager& s = r.shard();
  ASSERT_EQ(s.reconciler().unresponsive_count(), 0u);
  ASSERT_EQ(s.reconciler().pending_count(), 0u);
  ASSERT_EQ(s.actuation_channel().in_flight_count(), 2u);
  ASSERT_FALSE(s.engine().degraded().empty());
  ASSERT_LT(s.engine().green_timer() + 2,
            s.engine().params().steady_green_cycles);
  EXPECT_TRUE(s.context_gate(PowerState::kGreen));
  EXPECT_TRUE(r.green_swept());
}

TEST(IdleCycle, WatchdogAdoptionForcesTheSweep) {
  hw::FailsafeWatchdog wd({.timeout_cycles = 1, .safe_level = 2});
  IdleRig r(idle_rig_params());
  r.m.set_watchdog(&wd);
  r.yellow();
  wd.tick(r.rig.nodes);
  r.green();  // the throttles ack
  wd.tick(r.rig.nodes);
  // A control period the controller missed: the failsafe steps both
  // nodes down behind the reconciler's back.
  ASSERT_EQ(wd.tick(r.rig.nodes), 2u);
  const CappingManager& s = r.shard();
  ASSERT_TRUE(s.watchdog_pending());
  ASSERT_FALSE(s.engine().degraded().empty());
  ASSERT_EQ(s.reconciler().pending_count(), 0u);
  ASSERT_LT(s.engine().green_timer() + 2,
            s.engine().params().steady_green_cycles);
  const std::uint64_t before = r.delivered();
  const ManagerReport rep = r.green();
  EXPECT_EQ(r.delivered(), before + 2);
  EXPECT_EQ(rep.watchdog_adoptions, 2u);
  EXPECT_FALSE(s.watchdog_pending());
}

TEST(IdleCycle, CandidateSetChangeForcesTheSweep) {
  IdleRig r(idle_rig_params());
  r.yellow();
  r.green();
  ASSERT_TRUE(idle_but_for_the_planes(r.shard()));
  ASSERT_FALSE(r.shard().context_gate(PowerState::kGreen));
  r.m.set_candidate_set({0, 1});  // same members, re-partitioned
  const std::uint64_t builds = r.shard().incremental_stats().full_builds;
  EXPECT_TRUE(r.green_swept());
  EXPECT_EQ(r.shard().incremental_stats().full_builds, builds + 1);
  EXPECT_FALSE(r.green_swept());
}

/// Drives `p` through green runs broken by a yellow cycle every twelfth
/// cycle, and counts the green cycles the idle rule would take but for the
/// planes: how many of them gated, and how many swept (a build, or under
/// exact telemetry a full delivery).
struct IdleProbe {
  int candidates = 0;  ///< green cycles idle_but_for_the_planes
  int gated = 0;
  int swept = 0;
};
IdleProbe probe_idle(const CappingManagerParams& p, std::uint64_t seed) {
  IdleRig r(p, common::Rng(seed).fork("idle"));
  const CappingManager& s = r.shard();
  const bool exact = s.exact_telemetry();
  IdleProbe out;
  for (int c = 1; c <= 72; ++c) {
    if (c % 12 == 1) {
      r.yellow();
      continue;
    }
    const bool candidate = idle_but_for_the_planes(s);
    const bool gate = s.context_gate(PowerState::kGreen);
    const std::uint64_t delivered = r.delivered();
    const std::uint64_t builds = s.incremental_stats().full_builds;
    r.green();
    if (!candidate) continue;
    ++out.candidates;
    out.gated += gate ? 1 : 0;
    const bool swept = exact ? r.delivered() == delivered + 2
                             : s.incremental_stats().full_builds == builds + 1;
    out.swept += swept ? 1 : 0;
  }
  return out;
}

// Faulted planes never go idle: a lossy, delayed or faulty telemetry
// plane gates (and builds on) every green cycle with A_degraded
// non-empty. The exact twin goes idle on each such cycle.
TEST(IdleCycle, InexactTelemetryForcesTheSweep) {
  struct Case {
    const char* name;
    void (*apply)(CappingManagerParams&);
  };
  const Case cases[] = {
      {"exact", [](CappingManagerParams&) {}},
      {"loss",
       [](CappingManagerParams& p) { p.collector.transport.loss_rate = 0.2; }},
      // Sweeping every cycle: a delayed report from a strided sweep lands
      // past the sample-age bound, and stale views throttle nothing.
      {"delay",
       [](CappingManagerParams& p) {
         p.collector.transport.delay_cycles = 1;
         p.green_collect_stride = 1;
       }},
      {"dropout",
       [](CappingManagerParams& p) {
         p.collector.faults.agent_dropout_rate = 0.2;
       }},
      {"crash",
       [](CappingManagerParams& p) {
         p.collector.faults.crash_rate = 0.05;
         p.collector.faults.crash_duration_cycles = 3;
       }},
      {"corruption",
       [](CappingManagerParams& p) {
         p.collector.faults.corruption_rate = 0.2;
       }},
  };
  for (const Case& tc : cases) {
    CappingManagerParams p = idle_rig_params();
    tc.apply(p);
    const IdleProbe got = probe_idle(p, test::fault_seed(21));
    ASSERT_GT(got.candidates, 0) << tc.name;
    if (std::string(tc.name) == "exact") {
      EXPECT_EQ(got.gated, 0) << tc.name;
      EXPECT_EQ(got.swept, 0) << tc.name;
    } else {
      EXPECT_EQ(got.gated, got.candidates) << tc.name;
      EXPECT_EQ(got.swept, got.candidates) << tc.name;
    }
  }
}

// An enabled actuation fault model can move a level unseen (a reboot, a
// failed or partial transition, a lost command), so such a plane never
// goes idle either, even on cycles with nothing pending or in flight.
TEST(IdleCycle, EnabledActuationFaultModelForcesTheSweep) {
  struct Case {
    const char* name;
    void (*apply)(CappingManagerParams&);
  };
  const Case cases[] = {
      {"loss",
       [](CappingManagerParams& p) { p.actuation.command_loss_rate = 0.1; }},
      {"delay",
       [](CappingManagerParams& p) { p.actuation.delivery_delay_cycles = 1; }},
      {"failure",
       [](CappingManagerParams& p) {
         p.actuation.transition_failure_rate = 0.1;
       }},
      {"partial",
       [](CappingManagerParams& p) {
         p.actuation.partial_transition_rate = 0.1;
       }},
      {"reboot",
       [](CappingManagerParams& p) {
         p.actuation.reboot_rate = 0.01;
         p.actuation.reboot_duration_cycles = 2;
       }},
  };
  for (const Case& tc : cases) {
    CappingManagerParams p = idle_rig_params();
    tc.apply(p);
    const IdleProbe got = probe_idle(p, test::fault_seed(22));
    ASSERT_GT(got.candidates, 0) << tc.name;
    EXPECT_EQ(got.gated, got.candidates) << tc.name;
    EXPECT_EQ(got.swept, got.candidates) << tc.name;
  }
}

// The cycle before restoration still sweeps, so the restoration build's
// views read last cycle's sample as power_prev, as without the idle rule.
TEST(IdleCycle, RestorationBuildReadsTheCycleBeforesSample) {
  const CappingManagerParams p = idle_rig_params();
  const std::int64_t tg = p.capping.steady_green_cycles;
  IdleRig r(p);
  r.yellow();
  int idle = 0;
  for (std::int64_t timer = 0; timer + 1 < tg; ++timer) {
    idle += r.green_swept() ? 0 : 1;
  }
  ASSERT_EQ(idle, tg - 3);  // timers 1 .. T_g - 3
  const ManagerReport rep = r.green();
  ASSERT_EQ(rep.targets, 2u);  // restores
  const CappingManager& s = r.shard();
  const telemetry::Collector& col = s.collector();
  ASSERT_EQ(s.context().nodes.size(), 2u);
  for (const NodeView& nv : s.context().nodes) {
    const auto latest = col.latest(nv.id);
    const auto previous = col.previous(nv.id);
    ASSERT_TRUE(previous.has_value()) << "node " << nv.id;
    EXPECT_EQ(latest->cycle, col.cycle_count());
    EXPECT_EQ(previous->cycle + 1, latest->cycle) << "node " << nv.id;
    EXPECT_TRUE(nv.has_prev) << "node " << nv.id;
    EXPECT_EQ(nv.power_prev, previous->estimated_power) << "node " << nv.id;
  }
}

}  // namespace
}  // namespace pcap::power
