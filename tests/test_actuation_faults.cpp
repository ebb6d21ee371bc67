// Actuation-plane fault tolerance: the lossy manager->node command path
// (ActuationChannel) and the manager-side ack/retry/divergence machinery
// (ActuationReconciler) that closes the loop around it — unit level,
// manager level, and whole-cluster runs that must stay bit-identical
// across worker-thread counts.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/experiment.hpp"
#include "cluster/scenario.hpp"
#include "hw/node_spec.hpp"
#include "metrics/trace_recorder.hpp"
#include "power/actuation_channel.hpp"
#include "power/policy_registry.hpp"
#include "power/reconciler.hpp"
#include "power/zone_manager.hpp"
#include "support.hpp"
#include "workload/npb.hpp"

namespace pcap {
namespace {

using power::ActuationChannel;
using power::ActuationFaultParams;
using power::ActuationReconciler;
using power::LevelCommand;
using power::ReconcilerParams;

std::vector<hw::Node> make_nodes(std::size_t n) {
  std::vector<hw::Node> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.emplace_back(static_cast<hw::NodeId>(i), hw::tianhe1a_node_spec());
  }
  return nodes;
}

// -- params validation ---------------------------------------------------

TEST(ActuationFaultParams, DisabledByDefault) {
  const ActuationFaultParams p;
  EXPECT_FALSE(p.enabled());
  p.validate();  // defaults are valid
}

TEST(ActuationFaultParams, AnyActiveChannelEnables) {
  ActuationFaultParams p;
  p.command_loss_rate = 0.1;
  EXPECT_TRUE(p.enabled());
  p = ActuationFaultParams{};
  p.delivery_delay_cycles = 1;
  EXPECT_TRUE(p.enabled());
  p = ActuationFaultParams{};
  p.transition_failure_rate = 0.1;
  EXPECT_TRUE(p.enabled());
  p = ActuationFaultParams{};
  p.partial_transition_rate = 0.1;
  EXPECT_TRUE(p.enabled());
  p = ActuationFaultParams{};
  p.reboot_rate = 0.1;
  EXPECT_TRUE(p.enabled());
}

TEST(ActuationFaultParams, BadValuesThrow) {
  ActuationFaultParams p;
  p.command_loss_rate = 1.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = ActuationFaultParams{};
  p.partial_transition_rate = -0.1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = ActuationFaultParams{};
  p.delivery_delay_cycles = -1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = ActuationFaultParams{};
  p.reboot_rate = 0.1;
  p.reboot_duration_cycles = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(ReconcilerParams, BadValuesThrow) {
  ReconcilerParams p;
  p.max_retries = -1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = ReconcilerParams{};
  p.retry_backoff_base_cycles = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = ReconcilerParams{};
  p.retry_backoff_cap_cycles = p.retry_backoff_base_cycles - 1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

// -- channel -------------------------------------------------------------

TEST(ActuationChannel, DisabledChannelPassesCommandsThrough) {
  ActuationChannel ch(ActuationFaultParams{}, common::Rng(1));
  auto nodes = make_nodes(3);
  ch.ensure_nodes({0, 1, 2});
  std::vector<LevelCommand> delivered;
  ch.begin_cycle(nodes, delivered);
  EXPECT_TRUE(delivered.empty());
  const std::vector<LevelCommand> cmds = {{0, 5}, {1, 0}, {2, 8}};
  ch.send(cmds, nodes, delivered);
  ASSERT_EQ(delivered.size(), 3u);
  for (std::size_t i = 0; i < cmds.size(); ++i) {
    EXPECT_EQ(delivered[i].node, cmds[i].node);
    EXPECT_EQ(delivered[i].level, cmds[i].level);
  }
  EXPECT_EQ(ch.commands_lost(), 0u);
  EXPECT_EQ(ch.transitions_failed(), 0u);
  EXPECT_EQ(ch.in_flight_count(), 0u);
}

TEST(ActuationChannel, LossIsCountedAndSeedDeterministic) {
  ActuationFaultParams p;
  p.command_loss_rate = 0.5;
  ActuationChannel a(p, common::Rng(test::fault_seed(9)));
  ActuationChannel b(p, common::Rng(test::fault_seed(9)));
  auto nodes = make_nodes(4);
  a.ensure_nodes({0, 1, 2, 3});
  b.ensure_nodes({0, 1, 2, 3});

  std::vector<LevelCommand> da;
  std::vector<LevelCommand> db;
  std::size_t sent = 0;
  for (int c = 0; c < 100; ++c) {
    a.begin_cycle(nodes, da);
    b.begin_cycle(nodes, db);
    for (hw::NodeId id = 0; id < 4; ++id) {
      a.send({{id, 3}}, nodes, da);
      b.send({{id, 3}}, nodes, db);
      ++sent;
    }
  }
  EXPECT_GT(a.commands_lost(), 0u);
  EXPECT_EQ(a.commands_lost() + da.size(), sent);
  // Same seed, same traffic: bit-identical outcome.
  EXPECT_EQ(a.commands_lost(), b.commands_lost());
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i].node, db[i].node);
    EXPECT_EQ(da[i].level, db[i].level);
  }
}

TEST(ActuationChannel, DelayedDeliveryLandsExactlyAfterDelay) {
  ActuationFaultParams p;
  p.delivery_delay_cycles = 2;
  ActuationChannel ch(p, common::Rng(2));
  auto nodes = make_nodes(1);
  ch.ensure_nodes({0});

  std::vector<LevelCommand> delivered;
  ch.begin_cycle(nodes, delivered);  // cycle 1
  ch.send({{0, 4}}, nodes, delivered);
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(ch.in_flight_count(), 1u);

  ch.begin_cycle(nodes, delivered);  // cycle 2: still in the pipe
  EXPECT_TRUE(delivered.empty());

  ch.begin_cycle(nodes, delivered);  // cycle 3: lands
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].node, 0u);
  EXPECT_EQ(delivered[0].level, 4);
  EXPECT_EQ(ch.in_flight_count(), 0u);
}

TEST(ActuationChannel, TransitionFailureEatsTheCommand) {
  ActuationFaultParams p;
  p.transition_failure_rate = 1.0;
  ActuationChannel ch(p, common::Rng(3));
  auto nodes = make_nodes(1);
  ch.ensure_nodes({0});
  std::vector<LevelCommand> delivered;
  ch.begin_cycle(nodes, delivered);
  ch.send({{0, 4}}, nodes, delivered);
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(ch.transitions_failed(), 1u);
}

TEST(ActuationChannel, PartialTransitionStopsOneStepIn) {
  ActuationFaultParams p;
  p.partial_transition_rate = 1.0;
  ActuationChannel ch(p, common::Rng(4));
  auto nodes = make_nodes(1);
  ch.ensure_nodes({0});
  std::vector<LevelCommand> delivered;
  ch.begin_cycle(nodes, delivered);

  // A multi-level drop (red floor: 9 -> 0) stalls one step in.
  ch.send({{0, 0}}, nodes, delivered);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].level, 8);
  EXPECT_EQ(ch.transitions_partial(), 1u);

  // Single-step commands cannot land part-way.
  delivered.clear();
  ch.send({{0, 8}}, nodes, delivered);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].level, 8);
  EXPECT_EQ(ch.transitions_partial(), 1u);
}

TEST(ActuationChannel, RebootResetsNodeFlushesQueueThenRecovers) {
  ActuationFaultParams p;
  p.delivery_delay_cycles = 2;
  p.reboot_rate = 1.0;  // reboots on the first draw
  p.reboot_duration_cycles = 3;
  ActuationChannel ch(p, common::Rng(5));
  auto nodes = make_nodes(1);
  nodes[0].set_level(2);  // mid-degradation
  ch.ensure_nodes({0});

  std::vector<LevelCommand> delivered;
  ch.send({{0, 4}}, nodes, delivered);  // queued for later delivery
  EXPECT_EQ(ch.in_flight_count(), 1u);

  ch.begin_cycle(nodes, delivered);  // reboot fires
  EXPECT_EQ(ch.reboot_events(), 1u);
  EXPECT_TRUE(ch.rebooting(0));
  // Firmware default: the node comes back at its highest level, and the
  // queued command died with the old kernel.
  EXPECT_TRUE(nodes[0].at_highest());
  EXPECT_EQ(ch.in_flight_count(), 0u);
  EXPECT_EQ(ch.commands_dropped_rebooting(), 1u);

  // Unreachable for the whole window...
  ch.send({{0, 4}}, nodes, delivered);
  EXPECT_EQ(ch.commands_dropped_rebooting(), 2u);
  ch.begin_cycle(nodes, delivered);
  ch.begin_cycle(nodes, delivered);
  EXPECT_TRUE(ch.rebooting(0));
  ch.begin_cycle(nodes, delivered);  // window expires
  EXPECT_FALSE(ch.rebooting(0));
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(ch.reboot_events(), 1u);
}

TEST(ActuationChannel, StreamsAreRegistrationOrderIndependent) {
  ActuationFaultParams p;
  p.command_loss_rate = 0.4;
  p.transition_failure_rate = 0.2;
  const std::uint64_t seed = test::fault_seed(7);
  ActuationChannel a(p, common::Rng(seed));
  ActuationChannel b(p, common::Rng(seed));
  auto nodes = make_nodes(4);
  a.ensure_nodes({0, 1, 2, 3});
  b.ensure_nodes({3, 2});
  b.ensure_nodes({1, 0});

  std::vector<LevelCommand> da;
  std::vector<LevelCommand> db;
  for (int c = 0; c < 200; ++c) {
    a.begin_cycle(nodes, da);
    b.begin_cycle(nodes, db);
    const std::vector<LevelCommand> cmds = {{0, 3}, {1, 3}, {2, 3}, {3, 3}};
    a.send(cmds, nodes, da);
    b.send(cmds, nodes, db);
  }
  // Per-node draws depend only on (channel seed, node id, per-node draw
  // index) — never on who was registered first.
  EXPECT_EQ(a.commands_lost(), b.commands_lost());
  EXPECT_EQ(a.transitions_failed(), b.transitions_failed());
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i].node, db[i].node);
    EXPECT_EQ(da[i].level, db[i].level);
  }
}

TEST(ActuationChannel, FaultStatePersistsAcrossCandidateChurn) {
  ActuationFaultParams p;
  p.reboot_rate = 1.0;
  p.reboot_duration_cycles = 10;
  ActuationChannel ch(p, common::Rng(6));
  auto nodes = make_nodes(2);
  ch.ensure_nodes({0});
  std::vector<LevelCommand> delivered;
  ch.begin_cycle(nodes, delivered);  // node 0 reboots
  EXPECT_TRUE(ch.rebooting(0));
  // The node leaves and re-enters the candidate set mid-window: it is
  // still the same rebooting machine.
  ch.ensure_nodes({0, 1});
  EXPECT_TRUE(ch.rebooting(0));
  EXPECT_FALSE(ch.rebooting(1));
}

// -- reconciler ----------------------------------------------------------

TEST(Reconciler, AckRequiresSampleStrictlyNewerThanIssue) {
  ActuationReconciler rec(ReconcilerParams{});
  ActuationReconciler::CycleWork work;

  rec.admit({{0, 5}}, /*cycle=*/10, work);
  ASSERT_EQ(work.commands.size(), 1u);
  EXPECT_TRUE(rec.in_flight(0));
  ASSERT_TRUE(rec.pending_target(0).has_value());
  EXPECT_EQ(*rec.pending_target(0), 5);

  // A sample stamped the issue cycle was collected before the command
  // went out — showing level 5 there is a coincidence, not an ack.
  rec.observe_node(0, 5, /*sample=*/10, /*now=*/10, work);
  EXPECT_TRUE(rec.in_flight(0));
  EXPECT_EQ(work.acks, 0u);

  // The old level showing afterwards is not an ack either.
  rec.observe_node(0, 9, /*sample=*/11, /*now=*/11, work);
  EXPECT_TRUE(rec.in_flight(0));

  // Target level, sampled after issue: confirmed.
  rec.observe_node(0, 5, /*sample=*/12, /*now=*/12, work);
  EXPECT_FALSE(rec.in_flight(0));
  EXPECT_EQ(work.acks, 1u);
  EXPECT_EQ(rec.believed(0, -1), 5);
  EXPECT_EQ(rec.total_acks(), 1u);
}

TEST(Reconciler, RetryScheduleHonorsBackoffAndCapThenAbandons) {
  ReconcilerParams p;
  p.max_retries = 3;
  p.retry_backoff_base_cycles = 2;
  p.retry_backoff_cap_cycles = 8;
  ActuationReconciler rec(p);
  ActuationReconciler::CycleWork work;
  rec.admit({{0, 5}}, /*cycle=*/0, work);

  std::vector<std::uint64_t> retry_cycles;
  for (std::uint64_t c = 1; c <= 30 && !rec.unresponsive(0); ++c) {
    work.clear();
    rec.finish_observation(c, work);
    if (work.retries > 0) {
      retry_cycles.push_back(c);
      ASSERT_EQ(work.commands.size(), 1u);
      EXPECT_EQ(work.commands[0].level, 5);
    }
  }
  // Issue at 0, base 2, cap 8: retries at 2, 2+4=6, 6+8=14 (doubling
  // clipped at the cap), abandonment due at 14+8=22.
  EXPECT_EQ(retry_cycles,
            (std::vector<std::uint64_t>{2, 6, 14}));
  EXPECT_TRUE(rec.unresponsive(0));
  EXPECT_FALSE(rec.in_flight(0));
  EXPECT_EQ(rec.total_retries(), 3u);
  EXPECT_EQ(rec.total_abandoned(), 1u);
  EXPECT_EQ(rec.unresponsive_count(), 1u);
}

TEST(Reconciler, BackoffArithmeticIsExactOutToMaxRetries) {
  // The doubling schedule must clip at the cap — including far past the
  // point where `base << retries` would overflow (the implementation
  // guards the shift at 30 doublings). 40 retries with base 1/cap 4:
  // gaps 1, 2, 4, 4, 4, ... and abandonment exactly one cap after the
  // last retry.
  ReconcilerParams p;
  p.max_retries = 40;
  p.retry_backoff_base_cycles = 1;
  p.retry_backoff_cap_cycles = 4;
  ActuationReconciler rec(p);
  ActuationReconciler::CycleWork work;
  rec.admit({{0, 5}}, /*cycle=*/0, work);

  std::vector<std::uint64_t> retry_cycles;
  std::uint64_t abandoned_at = 0;
  for (std::uint64_t c = 1; c <= 400 && !rec.unresponsive(0); ++c) {
    work.clear();
    rec.finish_observation(c, work);
    if (work.retries > 0) retry_cycles.push_back(c);
    if (work.abandoned > 0) abandoned_at = c;
  }
  ASSERT_EQ(retry_cycles.size(), 40u);
  EXPECT_EQ(retry_cycles[0], 1u);       // issue + base
  EXPECT_EQ(retry_cycles[1], 3u);       // + base*2
  EXPECT_EQ(retry_cycles[2], 7u);       // + base*4 == cap
  for (std::size_t i = 3; i < retry_cycles.size(); ++i) {
    EXPECT_EQ(retry_cycles[i] - retry_cycles[i - 1], 4u)
        << "retry " << i << " missed the cap";
  }
  EXPECT_TRUE(rec.unresponsive(0));
  EXPECT_EQ(abandoned_at, retry_cycles.back() + 4u);
  EXPECT_EQ(rec.total_retries(), 40u);
  EXPECT_EQ(rec.total_abandoned(), 1u);
}

TEST(Reconciler, AbandonReadmitAcrossARebootWindow) {
  // The full arc of a node that reboots mid-command: the throttle is
  // retried into the void, abandoned, and when the rebooted node
  // resurfaces at full power the reconciler readmits it — believed adopts
  // the post-reboot level — and a fresh throttle flows and acks.
  ReconcilerParams p;
  p.max_retries = 2;
  p.retry_backoff_base_cycles = 1;
  p.retry_backoff_cap_cycles = 2;
  ActuationReconciler rec(p);
  ActuationReconciler::CycleWork work;

  rec.observe_node(0, 5, /*sample=*/1, /*now=*/1, work);  // believed: 5
  rec.admit({{0, 3}}, /*cycle=*/1, work);  // throttle as the reboot starts
  // Cycles 2..6: the node is down — no telemetry, only the retry ladder
  // (issue+1, +1*2, then abandonment one cap later).
  for (std::uint64_t c = 2; c <= 6; ++c) {
    work.clear();
    rec.finish_observation(c, work);
  }
  EXPECT_TRUE(rec.unresponsive(0));
  EXPECT_EQ(rec.total_abandoned(), 1u);
  work.clear();
  rec.admit({{0, 3}}, /*cycle=*/7, work);  // policy still wants it: dropped
  EXPECT_TRUE(work.commands.empty());
  EXPECT_EQ(work.suppressed, 1u);

  // Reboot window ends: the node reports in at its reset (highest) level.
  // Readmission adopts reality instead of resurrecting the dead intent.
  work.clear();
  rec.observe_node(0, 9, /*sample=*/8, /*now=*/8, work);
  EXPECT_FALSE(rec.unresponsive(0));
  EXPECT_EQ(work.readmitted, 1u);
  EXPECT_EQ(work.divergences, 0u) << "readmission must not warn";
  EXPECT_EQ(rec.believed(0, -1), 9);

  // The next decision cycle re-issues the throttle and it acks normally.
  work.clear();
  rec.admit({{0, 3}}, /*cycle=*/9, work);
  ASSERT_EQ(work.commands.size(), 1u);
  rec.observe_node(0, 3, /*sample=*/10, /*now=*/10, work);
  EXPECT_EQ(work.acks, 1u);
  EXPECT_EQ(rec.believed(0, -1), 3);
  EXPECT_EQ(rec.unresponsive_count(), 0u);
}

TEST(Reconciler, UnresponsiveNodeSuppressesCommandsUntilReadmitted) {
  ReconcilerParams p;
  p.max_retries = 0;  // abandon on the first missed ack
  p.retry_backoff_base_cycles = 1;
  p.retry_backoff_cap_cycles = 1;
  ActuationReconciler rec(p);
  ActuationReconciler::CycleWork work;
  rec.admit({{0, 5}}, /*cycle=*/0, work);
  rec.finish_observation(/*cycle=*/1, work);
  EXPECT_EQ(work.abandoned, 1u);
  EXPECT_TRUE(rec.unresponsive(0));

  // Dead nodes get no more commands — not from the policy, not heals.
  work.clear();
  rec.admit({{0, 7}}, /*cycle=*/2, work);
  EXPECT_TRUE(work.commands.empty());
  EXPECT_EQ(work.suppressed, 1u);

  // A fresh sample earns readmission: believed adopts reality (the node
  // runs at whatever level it actually has; our abandoned intent is gone).
  rec.observe_node(0, 3, /*sample=*/5, /*now=*/5, work);
  EXPECT_FALSE(rec.unresponsive(0));
  EXPECT_EQ(work.readmitted, 1u);
  EXPECT_EQ(rec.believed(0, -1), 3);

  // ...and commands flow again.
  work.clear();
  rec.admit({{0, 7}}, /*cycle=*/6, work);
  EXPECT_EQ(work.commands.size(), 1u);
}

TEST(Reconciler, DivergenceHealsBackToBelievedLevel) {
  ActuationReconciler rec(ReconcilerParams{});
  ActuationReconciler::CycleWork work;

  rec.observe_node(0, 4, /*sample=*/1, /*now=*/1, work);  // first sight
  EXPECT_EQ(rec.believed(0, -1), 4);

  // The node resurfaces at its highest level with nothing in flight: a
  // reboot reset it under us. Heal back to what we believe it should be.
  rec.observe_node(0, 9, /*sample=*/2, /*now=*/2, work);
  EXPECT_EQ(work.divergences, 1u);
  EXPECT_EQ(work.heals, 1u);
  ASSERT_EQ(work.commands.size(), 1u);
  EXPECT_EQ(work.commands[0].node, 0u);
  EXPECT_EQ(work.commands[0].level, 4);
  EXPECT_TRUE(rec.in_flight(0));

  // The heal acks like any command.
  rec.observe_node(0, 4, /*sample=*/3, /*now=*/3, work);
  EXPECT_FALSE(rec.in_flight(0));
  EXPECT_EQ(work.acks, 1u);
}

TEST(Reconciler, ResurfacedOldSampleDoesNotFakeADivergence) {
  ActuationReconciler rec(ReconcilerParams{});
  ActuationReconciler::CycleWork work;
  rec.observe_node(0, 4, /*sample=*/5, /*now=*/5, work);
  // An older sample resurfaces (the freshest plausible view can move
  // backwards when newer deliveries are corrupt): not a level change.
  rec.observe_node(0, 9, /*sample=*/4, /*now=*/6, work);
  EXPECT_EQ(work.divergences, 0u);
  EXPECT_TRUE(work.commands.empty());
  EXPECT_EQ(rec.believed(0, -1), 4);
}

TEST(Reconciler, NewTargetSupersedesPendingAndResetsRetryBudget) {
  ReconcilerParams p;
  p.max_retries = 1;
  p.retry_backoff_base_cycles = 2;
  p.retry_backoff_cap_cycles = 4;
  ActuationReconciler rec(p);
  ActuationReconciler::CycleWork work;

  rec.admit({{0, 5}}, /*cycle=*/0, work);
  rec.finish_observation(/*cycle=*/2, work);  // retry 1 of 1 spent
  EXPECT_EQ(work.retries, 1u);

  // Re-deciding the same target is a no-op: the retry machinery owns it.
  work.clear();
  rec.admit({{0, 5}}, /*cycle=*/3, work);
  EXPECT_TRUE(work.commands.empty());

  // A different target replaces the pending command with a fresh budget.
  rec.admit({{0, 2}}, /*cycle=*/3, work);
  ASSERT_EQ(work.commands.size(), 1u);
  EXPECT_EQ(work.commands[0].level, 2);
  ASSERT_TRUE(rec.pending_target(0).has_value());
  EXPECT_EQ(*rec.pending_target(0), 2);

  // The fresh budget really is fresh: another retry fires instead of an
  // immediate abandonment.
  work.clear();
  rec.finish_observation(/*cycle=*/5, work);
  EXPECT_EQ(work.retries, 1u);
  EXPECT_EQ(work.abandoned, 0u);
  EXPECT_FALSE(rec.unresponsive(0));
}

// -- manager integration -------------------------------------------------

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

power::CappingManagerParams yellow_rig_params() {
  power::CappingManagerParams p;
  p.thresholds.provision = Watts{2000.0};  // P_L = 1680, P_H = 1860
  p.thresholds.training_cycles = 0;
  p.thresholds.adjust_period_cycles = 1000;
  p.capping.steady_green_cycles = 3;
  p.collector.agent.utilization_noise = 0.0;
  p.collector.agent.nic_noise = 0.0;
  return p;
}

TEST(CappingManager, RebootChurnAbandonsAndReadmitsUnderTheRealChannel) {
  // Manager-level version of the arc above: real reboot windows from the
  // channel, real telemetry. With aggressive reboot churn and a tiny
  // retry budget, some commands must get abandoned; every abandoned node
  // must later readmit (the rig ends with nobody unresponsive for long).
  Rig rig(4);
  rig.load(0.9);
  rig.run_job(1, 48);
  power::CappingManagerParams p = yellow_rig_params();
  p.actuation.reboot_rate = 0.08;
  p.actuation.reboot_duration_cycles = 5;
  p.reconciliation.max_retries = 1;
  p.reconciliation.retry_backoff_base_cycles = 1;
  p.reconciliation.retry_backoff_cap_cycles = 2;
  power::ZoneTreeManager m = test::one_zone(p, "mpc", common::Rng(11));
  m.set_candidate_set({0, 1, 2, 3});

  for (int c = 1; c <= 120; ++c) {
    m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler,
            Seconds{static_cast<double>(c)});
  }
  EXPECT_GT(m.zone(0).actuation_channel().reboot_events(), 0u);
  EXPECT_GT(m.zone(0).reconciler().total_abandoned(), 0u);
  EXPECT_GT(m.zone(0).reconciler().total_readmitted(), 0u);
  // Readmission is not a dead letter: every abandonment eventually came
  // back once the node's telemetry resurfaced.
  EXPECT_GE(m.zone(0).reconciler().total_readmitted(),
            m.zone(0).reconciler().total_abandoned() -
                m.zone(0).reconciler().unresponsive_count());
}

TEST(CappingManager, DeadActuatorIsRetriedThenAbandonedWithoutThrottling) {
  Rig rig(4);
  rig.load(0.9);
  rig.run_job(1, 24);  // nodes 0, 1
  power::CappingManagerParams p = yellow_rig_params();
  // Every delivered transition fails: the actuator is permanently dead.
  p.actuation.transition_failure_rate = 1.0;
  p.reconciliation.max_retries = 2;
  p.reconciliation.retry_backoff_base_cycles = 1;
  p.reconciliation.retry_backoff_cap_cycles = 4;
  power::ZoneTreeManager m = test::one_zone(p, "mpc", common::Rng(1));
  m.set_candidate_set({0, 1, 2, 3});

  std::size_t retries = 0;
  std::uint64_t max_abandoned = 0;
  power::ManagerReport r;
  for (int c = 1; c <= 20; ++c) {
    r = m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler,
                Seconds{static_cast<double>(c)});
    retries += r.retries;
    max_abandoned = std::max(max_abandoned, r.commands_abandoned);
  }
  // Sustained yellow pressure, but not a single level ever changed: the
  // channel ate everything, visibly.
  for (const auto& n : rig.nodes) EXPECT_TRUE(n.at_highest());
  EXPECT_GT(m.zone(0).actuation_channel().transitions_failed(), 0u);
  EXPECT_GT(retries, 0u);
  // The retry budget ran out at least once per targeted node; abandoned
  // nodes are readmitted as soon as their (healthy) telemetry resurfaces,
  // so we assert the cumulative count, not a persistent unresponsive set.
  EXPECT_GE(max_abandoned, 2u);
  EXPECT_EQ(r.transitions_failed,
            m.zone(0).actuation_channel().transitions_failed());
}

TEST(CappingManager, ExternalLevelChangeIsHealedBack) {
  Rig rig(2);
  rig.load(0.9);
  rig.run_job(1, 24);
  power::CappingManagerParams p = yellow_rig_params();
  // Perfect channel: this test isolates the divergence/heal machinery.
  power::ZoneTreeManager m = test::one_zone(p, "mpc", common::Rng(1));
  m.set_candidate_set({0, 1});

  m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler, Seconds{1.0});  // yellow
  EXPECT_EQ(rig.nodes[0].level(), 8);
  // A green cycle acks the throttle and leaves nothing pending (sustained
  // yellow would re-throttle every cycle, and a disagreeing observation
  // with a command in flight is "keep waiting", not a divergence).
  auto r = m.cycle(Watts{100.0}, rig.nodes, rig.scheduler, Seconds{2.0});
  EXPECT_GT(r.acks, 0u);  // the throttle confirmed via telemetry

  // An operator (or firmware reset) yanks node 0 back to full power
  // behind the manager's back.
  rig.nodes[0].set_level(9);
  r = m.cycle(Watts{100.0}, rig.nodes, rig.scheduler, Seconds{3.0});
  EXPECT_EQ(r.divergences, 1u);
  EXPECT_EQ(r.heals, 1u);
  // The healing command went out through the (perfect) channel this same
  // cycle and restored the believed level.
  EXPECT_EQ(rig.nodes[0].level(), 8);
}

// -- whole-cluster runs --------------------------------------------------

struct RunResult {
  std::vector<metrics::CyclePoint> points;
  std::vector<metrics::JobRecord> finished;
  double total_energy_j = 0.0;
  power::ManagerReport last;
};

/// A degraded-actuation cluster run: command loss AND delivery delay AND
/// failed/partial transitions AND reboot churn, on top of lossy/delayed
/// telemetry, with the parallel node sweeps forced on.
RunResult run_degraded_actuation_cluster(std::size_t worker_threads) {
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
  // Collect every cycle: this rig wants maximum divergence-detection
  // density, not the steady-green stride economy.
  p.green_collect_stride = 1;
  p.collector.transport.loss_rate = 0.05;
  p.collector.transport.delay_cycles = 1;
  p.max_sample_age_cycles = 3;
  p.actuation.command_loss_rate = 0.10;
  p.actuation.delivery_delay_cycles = 1;
  p.actuation.transition_failure_rate = 0.02;
  p.actuation.partial_transition_rate = 0.05;
  p.actuation.reboot_rate = 1e-3;
  p.actuation.reboot_duration_cycles = 20;
  p.reconciliation.max_retries = 4;
  p.reconciliation.retry_backoff_base_cycles = 2;
  p.reconciliation.retry_backoff_cap_cycles = 16;
  p.selector = power::CandidateSelectorParams{};
  p.selector->reselect_period_cycles = 5;
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
  out.last = cl.last_report();
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
    EXPECT_EQ(pa.targets, pb.targets) << "tick " << i;
    EXPECT_EQ(pa.transitions, pb.transitions) << "tick " << i;
    EXPECT_EQ(pa.retries, pb.retries) << "tick " << i;
    EXPECT_EQ(pa.divergences, pb.divergences) << "tick " << i;
    EXPECT_EQ(pa.heals, pb.heals) << "tick " << i;
  }
  ASSERT_EQ(a.finished.size(), b.finished.size());
  for (std::size_t i = 0; i < a.finished.size(); ++i) {
    EXPECT_EQ(a.finished[i].id, b.finished[i].id) << "job " << i;
    EXPECT_EQ(a.finished[i].energy_j, b.finished[i].energy_j) << "job " << i;
  }
  EXPECT_EQ(a.total_energy_j, b.total_energy_j);
  EXPECT_EQ(a.last.commands_lost, b.last.commands_lost);
  EXPECT_EQ(a.last.reboot_events, b.last.reboot_events);
  EXPECT_EQ(a.last.transitions_failed, b.last.transitions_failed);
  EXPECT_EQ(a.last.transitions_partial, b.last.transitions_partial);
  EXPECT_EQ(a.last.commands_abandoned, b.last.commands_abandoned);
}

TEST(ActuationFaultTolerance, DegradedRunSurvivesAndStaysDeterministic) {
  const RunResult serial = run_degraded_actuation_cluster(1);
  ASSERT_GT(serial.points.size(), 400u);
  ASSERT_TRUE(test::capped_and_commanded(serial.points));

  // The actuation fault machinery really fired...
  EXPECT_GT(serial.last.commands_lost, 0u);
  EXPECT_GT(serial.last.reboot_events, 0u);
  std::size_t retries = 0;
  std::size_t heals = 0;
  for (const metrics::CyclePoint& p : serial.points) {
    retries += p.retries;
    heals += p.heals;
  }
  EXPECT_GT(retries, 0u) << "no command was ever retried";
  EXPECT_GT(heals, 0u) << "no divergence was ever healed";

  // ...and the run is still bit-identical under parallel sweeps: the
  // channel and reconciler run serially inside the manager cycle, so
  // worker-thread count must not perturb a single draw.
  const RunResult four = run_degraded_actuation_cluster(4);
  expect_identical(serial, four);
}

TEST(ActuationFaultTolerance, LossyScenarioStaysCappedAndCountsItsWounds) {
  cluster::ExperimentConfig cfg = cluster::lossy_actuation_scenario(31);
  // Bench-sized windows; reboots made frequent enough that a short run is
  // guaranteed to see divergences (a reboot mid-degradation is the classic
  // believed-level violation).
  cfg.calibration_duration = Seconds{900.0};
  cfg.training = Seconds{900.0};
  cfg.measured = Seconds{1800.0};
  cfg.actuation.reboot_rate = 1e-3;

  const cluster::ExperimentResult r = cluster::run_experiment(cfg);

  EXPECT_LE(r.p_max, r.provision) << "capping lost control of the actuator";
  EXPECT_GT(r.command_retries, 0u);
  EXPECT_GT(r.divergences, 0u);
  EXPECT_GT(r.heals, 0u);
  EXPECT_GT(r.commands_lost, 0u);
  EXPECT_GT(r.reboot_events, 0u);
  EXPECT_GT(r.transitions_partial + r.transitions_failed, 0u);
  // Jobs kept finishing: reconciliation must not starve the cluster by
  // retrying throttles forever.
  EXPECT_GT(r.perf.finished_jobs, 0u);
}

}  // namespace
}  // namespace pcap
