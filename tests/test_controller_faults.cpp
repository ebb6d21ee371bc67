// The controller itself as a failure domain: outage/stall injection, the
// node-local failsafe watchdog (fail-to-cap + adoption handshake),
// checkpoint/warm-restart, orphan-zone accounting under the zone tree,
// and whole-cluster chaos runs that stay bit-identical across worker
// threads.
#include "power/control_fault_injector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/experiment.hpp"
#include "hw/node_spec.hpp"
#include "hw/watchdog.hpp"
#include "metrics/trace_recorder.hpp"
#include "power/checkpoint.hpp"
#include "power/manager.hpp"
#include "power/policy_registry.hpp"
#include "power/zone_manager.hpp"
#include "support.hpp"
#include "workload/npb.hpp"

namespace pcap::power {
namespace {

std::vector<hw::Node> make_nodes(int n) {
  std::vector<hw::Node> nodes;
  for (int i = 0; i < n; ++i) {
    nodes.emplace_back(static_cast<hw::NodeId>(i), hw::tianhe1a_node_spec());
  }
  return nodes;
}

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

/// Instant-capping params: P_L = 1680, P_H = 1860, no training, noise-free
/// telemetry, perfect actuation — the only faults are the ones a test
/// injects, so every assertion is exact.
CappingManagerParams quiet_params() {
  CappingManagerParams p;
  p.thresholds.provision = Watts{2000.0};
  p.thresholds.training_cycles = 0;
  p.thresholds.adjust_period_cycles = 1000;
  p.capping.steady_green_cycles = 3;
  p.collector.agent.utilization_noise = 0.0;
  p.collector.agent.nic_noise = 0.0;
  p.green_collect_stride = 1;
  return p;
}

ZoneTreeManager make_manager(CappingManagerParams p = quiet_params(),
                             std::uint64_t seed = 5) {
  return test::one_zone(p, "mpc", common::Rng(seed));
}

ZoneTreeManager make_tree(std::size_t zones,
                          CappingManagerParams p = quiet_params()) {
  ZoneTreeParams zp;
  zp.zone_count = zones;
  return ZoneTreeManager(
      zp, p, [] { return make_policy("mpc"); }, common::Rng(1));
}

// -- fault-model parameters ----------------------------------------------

TEST(ControlFaultParams, DefaultsAreDisabledAndValid) {
  ControlFaultParams p;
  EXPECT_FALSE(p.enabled());
  EXPECT_NO_THROW(p.validate());
  p.outage_rate = 0.01;
  EXPECT_TRUE(p.enabled());
  p = ControlFaultParams{};
  p.zone_outage_rate = 0.01;
  EXPECT_TRUE(p.enabled());
  p = ControlFaultParams{};
  p.delay_rate = 0.01;
  EXPECT_TRUE(p.enabled());
}

TEST(ControlFaultParams, ValidationRejectsNonsense) {
  ControlFaultParams p;
  p.outage_rate = -0.1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = ControlFaultParams{};
  p.zone_outage_rate = 1.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = ControlFaultParams{};
  p.outage_duration_cycles = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = ControlFaultParams{};
  p.zone_outage_duration_cycles = -3;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = ControlFaultParams{};
  p.delay_max_cycles = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

// -- the injector itself -------------------------------------------------

TEST(ControlFaultInjector, DisabledInjectorIsAlwaysUp) {
  ControlFaultInjector inj(ControlFaultParams{}, common::Rng(7));
  inj.ensure_zones(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(inj.begin_cycle());
    EXPECT_EQ(inj.zones_down(), 0u);
  }
  EXPECT_EQ(inj.outages_started(), 0u);
  EXPECT_EQ(inj.outage_cycles(), 0u);
  EXPECT_EQ(inj.delayed_cycles(), 0u);
  EXPECT_EQ(inj.zone_outage_cycles(), 0u);
}

TEST(ControlFaultInjector, CertainOutageProducesBackToBackWindows) {
  ControlFaultParams p;
  p.outage_rate = 1.0;
  p.outage_duration_cycles = 5;
  ControlFaultInjector inj(p, common::Rng(7));
  for (int i = 0; i < 25; ++i) {
    EXPECT_TRUE(inj.begin_cycle()) << "cycle " << i;
    EXPECT_TRUE(inj.root_down());
  }
  // 25 down cycles = five full 5-cycle windows, each counted once.
  EXPECT_EQ(inj.outages_started(), 5u);
  EXPECT_EQ(inj.outage_cycles(), 25u);
  EXPECT_EQ(inj.delayed_cycles(), 0u);
}

TEST(ControlFaultInjector, StallsAreCountedSeparatelyFromOutages) {
  ControlFaultParams p;
  p.delay_rate = 1.0;
  p.delay_max_cycles = 1;
  ControlFaultInjector inj(p, common::Rng(7));
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(inj.begin_cycle());
  }
  EXPECT_EQ(inj.delayed_cycles(), 10u);
  EXPECT_EQ(inj.outages_started(), 0u);
  EXPECT_EQ(inj.outage_cycles(), 0u);
}

TEST(ControlFaultInjector, SameSeedSameSchedule) {
  ControlFaultParams p;
  p.outage_rate = 0.05;
  p.outage_duration_cycles = 4;
  p.zone_outage_rate = 0.05;
  p.zone_outage_duration_cycles = 3;
  ControlFaultInjector a(p, common::Rng(11));
  ControlFaultInjector b(p, common::Rng(11));
  ControlFaultInjector c(p, common::Rng(12));
  a.ensure_zones(2);
  b.ensure_zones(2);
  c.ensure_zones(2);
  bool any_down = false;
  bool c_differs = false;
  for (int i = 0; i < 500; ++i) {
    const bool da = a.begin_cycle();
    const bool db = b.begin_cycle();
    const bool dc = c.begin_cycle();
    EXPECT_EQ(da, db) << "cycle " << i;
    EXPECT_EQ(a.zone_down(0), b.zone_down(0)) << "cycle " << i;
    EXPECT_EQ(a.zone_down(1), b.zone_down(1)) << "cycle " << i;
    any_down = any_down || da || a.zones_down() > 0;
    c_differs = c_differs || da != dc || a.zone_down(0) != c.zone_down(0);
  }
  EXPECT_TRUE(any_down) << "rates never fired in 500 cycles";
  EXPECT_TRUE(c_differs) << "different seeds produced identical schedules";
}

TEST(ControlFaultInjector, ZoneScheduleIndependentOfZoneCount) {
  // Zone z draws from its own stream: its crash windows depend on
  // (seed, z) only — resharding from 1 to 6 zones must not move zone 0's
  // schedule.
  ControlFaultParams p;
  p.zone_outage_rate = 0.05;
  p.zone_outage_duration_cycles = 3;
  ControlFaultInjector narrow(p, common::Rng(21));
  ControlFaultInjector wide(p, common::Rng(21));
  narrow.ensure_zones(1);
  wide.ensure_zones(6);
  for (int i = 0; i < 300; ++i) {
    narrow.begin_cycle();
    wide.begin_cycle();
    EXPECT_EQ(narrow.zone_down(0), wide.zone_down(0)) << "cycle " << i;
  }
}

TEST(ControlFaultInjector, InjectedWindowsAreExactAndDrawFree) {
  // Forced drills work with every rate at zero and draw nothing.
  ControlFaultInjector inj(ControlFaultParams{}, common::Rng(7));
  inj.ensure_zones(2);
  EXPECT_THROW(inj.inject_outage(0), std::invalid_argument);
  EXPECT_THROW(inj.inject_zone_outage(0, -1), std::invalid_argument);
  inj.inject_outage(3);
  inj.inject_zone_outage(1, 2);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(inj.begin_cycle()) << "cycle " << i;
    EXPECT_EQ(inj.zone_down(1), i < 2) << "cycle " << i;
    EXPECT_FALSE(inj.zone_down(0));
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(inj.begin_cycle());
    EXPECT_EQ(inj.zones_down(), 0u);
  }
  EXPECT_EQ(inj.outages_started(), 1u);
  EXPECT_EQ(inj.outage_cycles(), 3u);
  EXPECT_EQ(inj.zone_outages_started(), 1u);
  EXPECT_EQ(inj.zone_outage_cycles(), 2u);
}

// -- the failsafe watchdog -----------------------------------------------

TEST(Watchdog, ParamsValidate) {
  hw::WatchdogParams p;
  EXPECT_FALSE(p.enabled());
  EXPECT_NO_THROW(p.validate());
  p.timeout_cycles = -1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = hw::WatchdogParams{};
  p.safe_level = -2;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = hw::WatchdogParams{};
  p.timeout_cycles = 4;
  EXPECT_TRUE(p.enabled());
}

TEST(Watchdog, EngagesExactlyAtTimeoutAndFailsToCap) {
  auto nodes = make_nodes(2);
  hw::FailsafeWatchdog wd({.timeout_cycles = 3, .safe_level = 2});
  wd.set_groups({{0, 1}});
  // Silence for timeout-1 cycles: nothing happens.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(wd.tick(nodes), 0u) << "tick " << i;
    EXPECT_EQ(wd.engaged_count(), 0u);
  }
  for (const auto& n : nodes) EXPECT_TRUE(n.at_highest());
  // The 4th silent tick crosses the threshold: both nodes step to safe.
  EXPECT_EQ(wd.tick(nodes), 2u);
  EXPECT_EQ(wd.engaged_count(), 2u);
  EXPECT_EQ(wd.engagements(), 2u);
  EXPECT_EQ(wd.failsafe_transitions(), 2u);
  EXPECT_EQ(wd.pending_count(), 2u);
  EXPECT_TRUE(wd.adoption_pending(0));
  EXPECT_TRUE(wd.adoption_pending(1));
  EXPECT_TRUE(wd.adoption_pending_in_group(0));
  for (const auto& n : nodes) EXPECT_EQ(n.level(), 2);
  // Staying silent re-asserts but does not re-count the episode.
  wd.tick(nodes);
  EXPECT_EQ(wd.engagements(), 2u);
  EXPECT_EQ(wd.failsafe_transitions(), 2u);
}

TEST(Watchdog, HeartbeatAndPerNodeContactDeferTheTimeout) {
  auto nodes = make_nodes(2);
  hw::FailsafeWatchdog wd({.timeout_cycles = 2, .safe_level = 0});
  wd.set_groups({{0, 1}});
  for (int i = 0; i < 10; ++i) {
    wd.heartbeat(0);
    EXPECT_EQ(wd.tick(nodes), 0u) << "tick " << i;
  }
  EXPECT_EQ(wd.engaged_count(), 0u);
  // Group heartbeat stops; node 0 keeps getting command deliveries. Only
  // node 1 times out.
  for (int i = 0; i < 4; ++i) {
    wd.contact(0);
    wd.tick(nodes);
  }
  EXPECT_FALSE(wd.adoption_pending(0));
  EXPECT_TRUE(wd.adoption_pending(1));
  EXPECT_TRUE(nodes[0].at_highest());
  EXPECT_EQ(nodes[1].level(), 0);
}

TEST(Watchdog, NeverRaisesALevel) {
  auto nodes = make_nodes(1);
  nodes[0].set_level(1);  // already below the safe point
  hw::FailsafeWatchdog wd({.timeout_cycles = 1, .safe_level = 2});
  wd.set_groups({{0}});
  for (int i = 0; i < 5; ++i) wd.tick(nodes);
  EXPECT_EQ(nodes[0].level(), 1);  // a failsafe must not add power
  EXPECT_EQ(wd.failsafe_transitions(), 0u);
  EXPECT_EQ(wd.pending_count(), 0u);  // nothing changed, nothing to adopt
  EXPECT_EQ(wd.engaged_count(), 1u);  // but the node is being watched
}

TEST(Watchdog, ReassertsAfterMidOutageReboot) {
  auto nodes = make_nodes(1);
  hw::FailsafeWatchdog wd({.timeout_cycles = 1, .safe_level = 2});
  wd.set_groups({{0}});
  wd.tick(nodes);
  wd.tick(nodes);
  ASSERT_EQ(nodes[0].level(), 2);
  EXPECT_EQ(wd.failsafe_transitions(), 1u);
  // Firmware reboot resets the node to full power mid-outage; the next
  // silent cycle re-caps it within one tick, same engagement episode.
  nodes[0].set_level(nodes[0].spec().ladder.highest());
  wd.tick(nodes);
  EXPECT_EQ(nodes[0].level(), 2);
  EXPECT_EQ(wd.failsafe_transitions(), 2u);
  EXPECT_EQ(wd.engagements(), 1u);
}

TEST(Watchdog, ReleaseOnHeartbeatKeepsPendingUntilAdoption) {
  auto nodes = make_nodes(1);
  hw::FailsafeWatchdog wd({.timeout_cycles = 1, .safe_level = 2});
  wd.set_groups({{0}});
  wd.tick(nodes);
  wd.tick(nodes);
  ASSERT_EQ(wd.engaged_count(), 1u);
  // The controller comes back: engagement releases, but the level change
  // stays pending until the reconciler explicitly adopts it.
  wd.heartbeat(0);
  wd.tick(nodes);
  EXPECT_EQ(wd.engaged_count(), 0u);
  EXPECT_EQ(wd.pending_count(), 1u);
  EXPECT_TRUE(wd.adoption_pending_in_group(0));
  wd.resolve_adoption(0);
  EXPECT_EQ(wd.pending_count(), 0u);
  EXPECT_FALSE(wd.adoption_pending(0));
  // Resolving twice is harmless.
  wd.resolve_adoption(0);
  EXPECT_EQ(wd.pending_count(), 0u);
}

TEST(Watchdog, RegroupingNeverManufacturesInstantTimeouts) {
  auto nodes = make_nodes(4);
  hw::FailsafeWatchdog wd({.timeout_cycles = 3, .safe_level = 0});
  wd.set_groups({{0, 1}, {2, 3}});
  wd.tick(nodes);
  wd.tick(nodes);  // one tick short of timing out
  wd.set_groups({{0, 1, 2, 3}});  // repartition stamps heartbeats "now"
  wd.tick(nodes);
  wd.tick(nodes);
  EXPECT_EQ(wd.engaged_count(), 0u);
  for (const auto& n : nodes) EXPECT_TRUE(n.at_highest());
}

// -- one-zone integration: outage, failsafe, adoption --------------------

TEST(ControllerOutage, DeadCyclesDecideNothingAndWatchdogCaps) {
  Rig rig(4);
  rig.load(0.9);
  rig.run_job(1, 48);
  ZoneTreeManager m = make_manager();
  m.set_candidate_set({0, 1, 2, 3});
  hw::FailsafeWatchdog wd({.timeout_cycles = 2, .safe_level = 1});
  m.set_watchdog(&wd);

  // Two healthy yellow cycles: commands flow, believed levels settle,
  // heartbeats keep the watchdog quiet.
  for (int i = 0; i < 2; ++i) {
    const auto r =
        m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler, Seconds{1.0 + i});
    EXPECT_FALSE(r.controller_down);
    wd.tick(rig.nodes);
  }
  EXPECT_EQ(wd.engaged_count(), 0u);

  // The controller blacks out for six cycles. Dead cycles decide nothing;
  // after two silent cycles the local agents step every node to level 1.
  m.root().control_faults().inject_outage(6);
  for (int i = 0; i < 6; ++i) {
    const auto r =
        m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler, Seconds{3.0 + i});
    EXPECT_TRUE(r.controller_down) << "cycle " << i;
    EXPECT_EQ(r.targets, 0u) << "cycle " << i;
    wd.tick(rig.nodes);
  }
  EXPECT_GT(wd.engagements(), 0u);
  EXPECT_GT(wd.pending_count(), 0u);
  for (const auto& n : rig.nodes) EXPECT_EQ(n.level(), 1);

  // Recovery cycle: the reconciler adopts every watchdog-imposed level —
  // zero divergence warnings, zero healing commands raising what the
  // failsafe lowered.
  const auto r =
      m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler, Seconds{9.0});
  wd.tick(rig.nodes);
  EXPECT_FALSE(r.controller_down);
  EXPECT_EQ(r.divergences, 0u);
  EXPECT_EQ(r.heals, 0u);
  EXPECT_GT(r.watchdog_adoptions, 0u);
  EXPECT_EQ(wd.pending_count(), 0u);
  EXPECT_EQ(m.zone(0).reconciler().total_adopted(), r.watchdog_adoptions);
  // Adopted nodes entered A_degraded: steady green restores them the
  // usual one-level-per-T_g way instead of leaving them throttled forever.
  EXPECT_FALSE(m.zone(0).engine().degraded().empty());
  for (int i = 0; i < 120; ++i) {
    m.cycle(Watts{100.0}, rig.nodes, rig.scheduler, Seconds{10.0 + i});
    wd.tick(rig.nodes);
  }
  for (const auto& n : rig.nodes) {
    EXPECT_TRUE(n.at_highest()) << "node " << n.id() << " never restored";
  }
}

TEST(ControllerOutage, ManagerHeartbeatsKeepWatchdogQuietWhenHealthy) {
  Rig rig(4);
  rig.load(0.5);
  ZoneTreeManager m = make_manager();
  m.set_candidate_set({0, 1, 2, 3});
  hw::FailsafeWatchdog wd({.timeout_cycles = 1, .safe_level = 0});
  m.set_watchdog(&wd);
  for (int i = 0; i < 20; ++i) {
    m.cycle(Watts{100.0}, rig.nodes, rig.scheduler, Seconds{1.0 + i});
    wd.tick(rig.nodes);
  }
  EXPECT_EQ(wd.engagements(), 0u);
  for (const auto& n : rig.nodes) EXPECT_TRUE(n.at_highest());
}

// -- zone tree: orphan adoption and root blackouts -----------------------

TEST(ZoneOutage, OrphanZoneInflatesSiblingShares) {
  Rig rig(4);
  rig.load(0.9);
  rig.run_job(1, 24);  // zone 0: nodes 0, 1
  rig.run_job(2, 24);  // zone 1: nodes 2, 3
  ZoneTreeManager m = make_tree(2);
  m.set_candidate_set({0, 1, 2, 3});

  // Healthy yellow cycle: both zones measured, deficit split evenly.
  auto r = m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler, Seconds{1.0});
  ASSERT_EQ(r.state, PowerState::kYellow);
  EXPECT_EQ(r.zones_down, 0u);
  const Watts orphan_power = m.zone_power(1);
  ASSERT_GT(orphan_power.value(), 0.0);

  // Zone 1's shard crashes. Its nodes keep their levels (no commands can
  // reach them), and zone 0 inherits the whole deficit inflated by the
  // orphan margin on zone 1's last-known power.
  m.root().control_faults().inject_zone_outage(1, 2);
  const auto levels_before = std::vector<hw::Level>{rig.nodes[2].level(),
                                                    rig.nodes[3].level()};
  r = m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler, Seconds{2.0});
  EXPECT_EQ(r.zones_down, 1u);
  EXPECT_FALSE(r.controller_down);
  EXPECT_GT(r.ctrl_zone_outage_cycles, 0u);
  EXPECT_EQ(rig.nodes[2].level(), levels_before[0]);
  EXPECT_EQ(rig.nodes[3].level(), levels_before[1]);
  const double deficit = 1700.0 - r.p_low.value();
  ASSERT_GT(deficit, 0.0);
  EXPECT_EQ(m.zone_share(1).value(), 0.0);
  // stale_power_margin (0.10) × last-known orphan power on top of the
  // whole deficit, all on the single surviving zone.
  EXPECT_NEAR(m.zone_share(0).value(), deficit + 0.1 * orphan_power.value(),
              1e-9);

  // Window drains: the shard comes back and both zones share again.
  m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler, Seconds{3.0});
  r = m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler, Seconds{4.0});
  EXPECT_EQ(r.zones_down, 0u);
  EXPECT_GT(m.zone_share(1).value(), 0.0);
}

TEST(ZoneOutage, NeverMeasuredOrphanIsAccountedAtWorstCase) {
  Rig rig(4);
  rig.load(0.9);
  rig.run_job(1, 24);
  rig.run_job(2, 24);
  ZoneTreeManager m = make_tree(2);
  m.set_candidate_set({0, 1, 2, 3});

  // Zone 1 is down from the very first non-training cycle: the root has
  // never seen it, so it is accounted at its members' theoretical max.
  m.root().control_faults().inject_zone_outage(1, 1);
  const auto r =
      m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler, Seconds{1.0});
  ASSERT_EQ(r.state, PowerState::kYellow);
  const double deficit = 1700.0 - r.p_low.value();
  double worst_case = 0.0;
  for (const hw::NodeId id : m.zone_members(1)) {
    worst_case += rig.nodes[id].spec().power_model.theoretical_max().value();
  }
  EXPECT_NEAR(m.zone_share(0).value(), deficit + 0.1 * worst_case, 1e-9);
}

TEST(ZoneOutage, RootBlackoutSilencesTheWholeTree) {
  Rig rig(4);
  rig.load(0.9);
  rig.run_job(1, 48);
  ZoneTreeManager m = make_tree(2);
  m.set_candidate_set({0, 1, 2, 3});
  auto r = m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler, Seconds{1.0});
  const double p_low_before = r.p_low.value();

  m.root().control_faults().inject_outage(2);
  for (int i = 0; i < 2; ++i) {
    r = m.cycle(Watts{1900.0}, rig.nodes, rig.scheduler, Seconds{2.0 + i});
    EXPECT_TRUE(r.controller_down) << "cycle " << i;
    EXPECT_EQ(r.targets, 0u) << "cycle " << i;
    EXPECT_EQ(m.zones_active_last_cycle(), 0u) << "cycle " << i;
    // A dead root cannot learn: thresholds stay frozen at their last
    // live values even though the meter reads higher now.
    EXPECT_EQ(r.p_low.value(), p_low_before) << "cycle " << i;
  }
  r = m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler, Seconds{5.0});
  EXPECT_FALSE(r.controller_down);
  EXPECT_GT(m.zones_active_last_cycle(), 0u);
  EXPECT_EQ(r.ctrl_outages, 1u);
  EXPECT_EQ(r.ctrl_outage_cycles, 2u);
}

// -- checkpoint / warm restart -------------------------------------------

// The one-zone image: the root's learner and one shard body.
TEST(Checkpoint, ShardCodecRoundTripsBitExact) {
  Rig rig(4);
  rig.load(0.9);
  rig.run_job(1, 48);
  ZoneTreeManager m = make_manager();
  m.set_candidate_set({0, 1, 2, 3});
  for (int i = 0; i < 3; ++i) {
    m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler, Seconds{1.0 + i});
  }
  const TreeCheckpoint cp = m.checkpoint();
  ASSERT_EQ(cp.shards.size(), 1u);
  EXPECT_FALSE(cp.shards[0].reconciler.slots.empty());  // believed levels
  const std::string text = encode_checkpoint(cp);
  const TreeCheckpoint decoded = decode_tree_checkpoint(text);
  // decode ∘ encode is the identity on the wire image: hexfloats survive
  // to the last ulp.
  EXPECT_EQ(encode_checkpoint(decoded), text);
}

TEST(Checkpoint, MalformedImagesThrow) {
  EXPECT_THROW(decode_tree_checkpoint(""), std::runtime_error);
  EXPECT_THROW(decode_tree_checkpoint("not a checkpoint"),
               std::runtime_error);
  EXPECT_THROW(decode_tree_checkpoint("pcap-shard-checkpoint v2\n"),
               std::runtime_error);  // wrong kind
  EXPECT_THROW(decode_tree_checkpoint("pcap-tree-checkpoint v1\n"),
               std::runtime_error);
  ZoneTreeManager m = make_manager();
  const std::string text = encode_checkpoint(m.checkpoint());
  EXPECT_THROW(decode_tree_checkpoint(text.substr(0, text.size() / 2)),
               std::runtime_error);
}

// A v2 image carries a learner and a predictor line in every shard body.
// This build reads v5 only and says so, instead of failing on the first
// unexpected token.
TEST(Checkpoint, V2TreeImageIsRejectedByVersion) {
  const std::string v2 =
      "pcap-tree-checkpoint v2\n"
      "learner 0x1p+11 0x0p+0 0x0p+0 0 0 0 0 1\n"
      "predictor 0\n"
      "state 0 0\n"
      "zones 1\n"
      "zone 0\n"
      "learner 0x0p+0 0x0p+0 0x0p+0 0 0 0 0 0\n"
      "engine 0 0\n"
      "recon 0\n"
      "collector 0\n"
      "predictor 0\n"
      "policy 0\n"
      "hint 0 0x0p+0 0x0p+0 0 0\n";
  try {
    (void)decode_tree_checkpoint(v2);
    FAIL() << "a v2 image was accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'v2'"), std::string::npos) << what;
    EXPECT_NE(what.find("v5"), std::string::npos) << what;
  }
  // The current writer's header names the policy.
  const std::string v5 = encode_checkpoint(make_manager().checkpoint());
  EXPECT_EQ(v5.rfind("pcap-tree-checkpoint v5 mpc\n", 0), 0u);
}

// A v3 image names no policy, so nothing could tell whose policy state it
// carries; a v4 image names it but still carries the root "state" line and
// the per-zone quiescence hints. Both are rejected by version, with the
// existing message.
TEST(Checkpoint, V3TreeImageIsRejectedByVersion) {
  const std::string v3 =
      "pcap-tree-checkpoint v3\n"
      "learner 0x1p+11 0x0p+0 0x0p+0 0 0 0 0 1\n"
      "predictor 0\n"
      "state 0 0\n"
      "zones 1\n"
      "zone 0\n"
      "engine 0 0\n"
      "recon 0\n"
      "collector 0\n"
      "policy 0\n"
      "hint 0 0x0p+0 0x0p+0 0 0\n";
  try {
    (void)decode_tree_checkpoint(v3);
    FAIL() << "a v3 image was accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'v3'"), std::string::npos) << what;
    EXPECT_NE(what.find("reads v5 only"), std::string::npos) << what;
  }
  // The same body under a v4 header with a policy name is a v4 image.
  std::string v4 = v3;
  v4.replace(0, std::string("pcap-tree-checkpoint v3").size(),
             "pcap-tree-checkpoint v4 mpc");
  try {
    (void)decode_tree_checkpoint(v4);
    FAIL() << "a v4 image was accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'v4'"), std::string::npos) << what;
    EXPECT_NE(what.find("reads v5 only"), std::string::npos) << what;
  }
  // v5 drops the state line and keeps each zone's orphan accounting.
  const std::string v5 =
      "pcap-tree-checkpoint v5 mpc\n"
      "learner 0x1p+11 0x0p+0 0x0p+0 0 0 0 0 1\n"
      "predictor 0\n"
      "zones 1\n"
      "zone 0\n"
      "engine 0 0\n"
      "recon 0\n"
      "collector 0\n"
      "policy 0\n"
      "orphan 0x1.9p+10 1\n";
  const TreeCheckpoint decoded = decode_tree_checkpoint(v5);
  EXPECT_EQ(decoded.policy, "mpc");
  ASSERT_EQ(decoded.zones.size(), 1u);
  EXPECT_EQ(decoded.zones[0].power, 1600.0);
  EXPECT_TRUE(decoded.zones[0].ever_measured);
  EXPECT_EQ(encode_checkpoint(decoded), v5);
}

TEST(Checkpoint, PolicyNameMustBeOneToken) {
  TreeCheckpoint cp;
  for (const char* bad : {"", "mpc c", "mpc\n"}) {
    cp.policy = bad;
    EXPECT_THROW((void)encode_checkpoint(cp), std::runtime_error) << bad;
  }
}

// The shards' policy state belongs to the policy that wrote the image: a
// PI-C integral restored into an MPC-C tree would be dropped, and an MPC-C
// image restored into a PI-C tree would leave the integral at 0. Either
// way the restore throws and the tree keeps its own state.
TEST(Checkpoint, RestoreRejectsAnotherPolicysImage) {
  Rig rig(4);
  rig.load(0.9);
  rig.run_job(1, 48);
  const auto tree = [](const char* policy) {
    return test::one_zone(quiet_params(), policy, common::Rng(5));
  };
  ZoneTreeManager pi = tree("pi-c");
  ZoneTreeManager mpc = tree("mpc-c");
  pi.set_candidate_set({0, 1, 2, 3});
  mpc.set_candidate_set({0, 1, 2, 3});
  for (int i = 0; i < 4; ++i) {
    pi.cycle(Watts{1700.0}, rig.nodes, rig.scheduler, Seconds{1.0 + i});
    mpc.cycle(Watts{1700.0}, rig.nodes, rig.scheduler, Seconds{1.0 + i});
  }
  const TreeCheckpoint pi_image =
      decode_tree_checkpoint(encode_checkpoint(pi.checkpoint()));
  const TreeCheckpoint mpc_image =
      decode_tree_checkpoint(encode_checkpoint(mpc.checkpoint()));
  EXPECT_EQ(pi_image.policy, "pi-c");
  EXPECT_EQ(mpc_image.policy, "mpc-c");

  ZoneTreeManager mpc_restart = tree("mpc-c");
  mpc_restart.set_candidate_set({0, 1, 2, 3});
  EXPECT_THROW(mpc_restart.restore(pi_image), std::invalid_argument);
  ZoneTreeManager pi_restart = tree("pi-c");
  pi_restart.set_candidate_set({0, 1, 2, 3});
  EXPECT_THROW(pi_restart.restore(mpc_image), std::invalid_argument);

  // Each image still restores into a tree of its own policy.
  EXPECT_NO_THROW(pi_restart.restore(pi_image));
  EXPECT_NO_THROW(mpc_restart.restore(mpc_image));
}

TEST(Checkpoint, WarmRestartContinuesExactlyWhereTheOldControllerStopped) {
  // Twin rigs: A runs 4 cycles and checkpoints; C runs 8 uninterrupted.
  // B = fresh manager + restore must replay C's cycles 5..8 exactly —
  // same believed levels, no spurious divergences, no retraining.
  Rig rig_a(4);
  rig_a.load(0.9);
  rig_a.run_job(1, 48);
  Rig rig_c(4);
  rig_c.load(0.9);
  rig_c.run_job(1, 48);

  ZoneTreeManager a = make_manager();
  a.set_candidate_set({0, 1, 2, 3});
  ZoneTreeManager c = make_manager();
  c.set_candidate_set({0, 1, 2, 3});
  for (int i = 0; i < 4; ++i) {
    a.cycle(Watts{1700.0}, rig_a.nodes, rig_a.scheduler, Seconds{1.0 + i});
    c.cycle(Watts{1700.0}, rig_c.nodes, rig_c.scheduler, Seconds{1.0 + i});
  }
  const std::string image = encode_checkpoint(a.checkpoint());

  ZoneTreeManager b = make_manager();
  b.set_candidate_set({0, 1, 2, 3});
  b.restore(decode_tree_checkpoint(image));
  EXPECT_FALSE(b.root().thresholds().training());
  EXPECT_EQ(b.root().thresholds().p_low().value(),
            a.root().thresholds().p_low().value());

  for (int i = 0; i < 4; ++i) {
    const auto rb =
        b.cycle(Watts{1700.0}, rig_a.nodes, rig_a.scheduler, Seconds{5.0 + i});
    const auto rc =
        c.cycle(Watts{1700.0}, rig_c.nodes, rig_c.scheduler, Seconds{5.0 + i});
    EXPECT_EQ(rb.state, rc.state) << "cycle " << i;
    EXPECT_EQ(rb.targets, rc.targets) << "cycle " << i;
    EXPECT_EQ(rb.transitions, rc.transitions) << "cycle " << i;
    EXPECT_EQ(rb.divergences, rc.divergences) << "cycle " << i;
    EXPECT_EQ(rb.heals, rc.heals) << "cycle " << i;
    EXPECT_EQ(rb.acks, rc.acks) << "cycle " << i;
    EXPECT_EQ(rb.p_low.value(), rc.p_low.value()) << "cycle " << i;
    EXPECT_EQ(rb.divergences, 0u) << "restored shadow tables diverged";
  }
  for (std::size_t i = 0; i < rig_a.nodes.size(); ++i) {
    EXPECT_EQ(rig_a.nodes[i].level(), rig_c.nodes[i].level()) << "node " << i;
  }
}

TEST(Checkpoint, ColdRestartRetrainsButWarmRestartResumesCapped) {
  CappingManagerParams p = quiet_params();
  p.thresholds.training_cycles = 3;
  Rig rig(4);
  rig.load(0.9);
  rig.run_job(1, 48);
  ZoneTreeManager a = make_manager(p);
  a.set_candidate_set({0, 1, 2, 3});
  for (int i = 0; i < 5; ++i) {
    a.cycle(Watts{1700.0}, rig.nodes, rig.scheduler, Seconds{1.0 + i});
  }
  ASSERT_FALSE(a.root().thresholds().training());
  const std::string image = encode_checkpoint(a.checkpoint());

  // Training observed a 1700 W peak, so the learned thresholds are
  // P_L = 0.84 × 1700 = 1428 and P_H = 0.93 × 1700 = 1581: a 1500 W
  // reading is yellow for a controller that remembers its training.

  // Cold restart: a whole training period uncapped.
  ZoneTreeManager cold = make_manager(p);
  cold.set_candidate_set({0, 1, 2, 3});
  const auto r_cold =
      cold.cycle(Watts{1500.0}, rig.nodes, rig.scheduler, Seconds{6.0});
  EXPECT_TRUE(r_cold.training);
  EXPECT_EQ(r_cold.targets, 0u);

  // Warm restart: capped on the very first cycle.
  ZoneTreeManager warm = make_manager(p);
  warm.set_candidate_set({0, 1, 2, 3});
  warm.restore(decode_tree_checkpoint(image));
  const auto r_warm =
      warm.cycle(Watts{1500.0}, rig.nodes, rig.scheduler, Seconds{6.0});
  EXPECT_FALSE(r_warm.training);
  EXPECT_EQ(r_warm.state, PowerState::kYellow);
}

TEST(Checkpoint, TreeCodecRoundTripsAndValidatesZoneCount) {
  Rig rig(4);
  rig.load(0.9);
  rig.run_job(1, 48);
  ZoneTreeManager m = make_tree(2);
  m.set_candidate_set({0, 1, 2, 3});
  for (int i = 0; i < 3; ++i) {
    m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler, Seconds{1.0 + i});
  }
  const TreeCheckpoint cp = m.checkpoint();
  ASSERT_EQ(cp.shards.size(), 2u);
  ASSERT_EQ(cp.zones.size(), 2u);
  const std::string text = encode_checkpoint(cp);
  const TreeCheckpoint decoded = decode_tree_checkpoint(text);
  EXPECT_EQ(encode_checkpoint(decoded), text);

  ZoneTreeManager fresh = make_tree(2);
  fresh.set_candidate_set({0, 1, 2, 3});
  fresh.restore(decoded);
  EXPECT_EQ(fresh.root().thresholds().p_low().value(),
            m.root().thresholds().p_low().value());
  // Each zone keeps its last-known power and its measured history, so the
  // restored tree writes the same image back.
  for (std::size_t z = 0; z < 2; ++z) {
    EXPECT_GT(m.zone_power(z).value(), 0.0) << "zone " << z;
    EXPECT_EQ(fresh.zone_power(z).value(), m.zone_power(z).value())
        << "zone " << z;
    EXPECT_TRUE(cp.zones[z].ever_measured) << "zone " << z;
  }
  EXPECT_EQ(encode_checkpoint(fresh.checkpoint()), text);
  // A zone that crashes on the restored tree's first cycle is an orphan
  // charged at its last-known power, not at its members' worst case.
  const Watts orphan_power = fresh.zone_power(1);
  fresh.root().control_faults().inject_zone_outage(1, 1);
  const ManagerReport r =
      fresh.cycle(Watts{1700.0}, rig.nodes, rig.scheduler, Seconds{4.0});
  ASSERT_EQ(r.state, PowerState::kYellow);
  ASSERT_EQ(r.zones_down, 1u);
  EXPECT_NEAR(fresh.zone_share(0).value(),
              1700.0 - r.p_low.value() + 0.1 * orphan_power.value(), 1e-9);

  // A v4 image of the same tree is rejected by version.
  std::string v4 = text;
  v4.replace(0, std::string("pcap-tree-checkpoint v5").size(),
             "pcap-tree-checkpoint v4");
  try {
    (void)decode_tree_checkpoint(v4);
    FAIL() << "a v4 image was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'v4' is not readable"),
              std::string::npos)
        << e.what();
  }

  ZoneTreeManager wrong_shape = make_tree(3);
  wrong_shape.set_candidate_set({0, 1, 2, 3});
  EXPECT_THROW(wrong_shape.restore(decoded), std::invalid_argument);
}

// -- whole-cluster chaos: blackout, failsafe envelope, warm restart ------

struct ChaosResult {
  std::vector<metrics::CyclePoint> points;
  std::vector<metrics::JobRecord> finished;
  power::ManagerReport pre_restart;  ///< end of phase 2 — the warm restart
                                     ///< starts the lifetime counters over
  power::ManagerReport last;
  std::uint64_t watchdog_engagements = 0;
  std::uint64_t watchdog_transitions = 0;
  std::size_t watchdog_pending_at_end = 0;
};

/// A full-stack controller-chaos run: random root/zone outage windows and
/// stalls on top of lossy telemetry and actuation, a mid-run forced
/// blackout long enough to trip every node's failsafe, and a warm restart
/// from a checkpoint two thirds in.
ChaosResult run_controller_chaos_cluster(std::size_t worker_threads) {
  cluster::ClusterConfig cfg;
  cfg.num_nodes = 120;
  cfg.spec = hw::tianhe1a_node_spec();
  cfg.tick = Seconds{1.0};
  cfg.control_period = Seconds{4.0};
  cfg.seed = test::fault_seed(20260808);
  cfg.scheduler.max_procs_per_node = 3;
  cfg.worker_threads = worker_threads;
  cfg.parallel_node_threshold = 1;
  cfg.parallel_grain = 16;
  cfg.privileged_job_fraction = 0.3;
  cfg.watchdog.timeout_cycles = 5;
  cfg.watchdog.safe_level = 2;
  cluster::Cluster cl(cfg);

  CappingManagerParams p;
  // Capped on every swept seed: the provision comes from this rig's own
  // uncapped probe over the whole run (0.75 of the theoretical peak left
  // most seeds green throughout, so nothing ever sat above P_H).
  p.thresholds.provision =
      cluster::probe_uncapped_peak(cfg, Seconds{360.0}) * 0.9;
  p.thresholds.training_cycles = 0;
  p.thresholds.freeze_at_provision = true;
  p.cycle_period = cfg.control_period;
  p.green_collect_stride = 1;
  p.collector.transport.loss_rate = 0.02;
  p.max_sample_age_cycles = 3;
  p.actuation.command_loss_rate = 0.05;
  p.reconciliation.max_retries = 4;
  p.control.outage_rate = 5e-3;
  p.control.outage_duration_cycles = 8;
  p.control.zone_outage_rate = 5e-3;
  p.control.zone_outage_duration_cycles = 6;
  p.control.delay_rate = 0.01;
  p.control.delay_max_cycles = 2;
  ZoneTreeParams zp;
  zp.zone_count = 2;
  const auto make_mgr = [&] {
    auto mgr = std::make_unique<ZoneTreeManager>(
        zp, p, [] { return make_policy("mpc"); },
        common::Rng(cfg.seed ^ 0x9d2c5680u));
    mgr->set_candidate_set(cl.controllable_nodes());
    return mgr;
  };
  cl.set_manager(make_mgr());
  cl.start_recording();

  // Phase 1: background chaos from the random windows.
  cl.run(Seconds{120.0});
  // Phase 2: a forced 10-cycle blackout — twice the watchdog timeout, so
  // every node's failsafe must trip — plus a zone-shard drill.
  auto& tree = dynamic_cast<ZoneTreeManager&>(cl.manager());
  tree.root().control_faults().inject_outage(10);
  tree.root().control_faults().inject_zone_outage(0, 6);
  cl.run(Seconds{120.0});
  const power::ManagerReport pre_restart = cl.last_report();
  // Phase 3: warm restart — encode/decode through the wire image, restore
  // into a freshly built controller, swap it in mid-run.
  const std::string image =
      encode_checkpoint(dynamic_cast<ZoneTreeManager&>(cl.manager())
                            .checkpoint());
  auto restarted = make_mgr();
  restarted->restore(decode_tree_checkpoint(image));
  cl.set_manager(std::move(restarted));
  cl.run(Seconds{120.0});

  ChaosResult out;
  out.points = cl.recorder().points();
  out.finished = cl.finished_records();
  out.pre_restart = pre_restart;
  out.last = cl.last_report();
  out.watchdog_engagements = cl.watchdog().engagements();
  out.watchdog_transitions = cl.watchdog().failsafe_transitions();
  out.watchdog_pending_at_end = cl.watchdog().pending_count();
  return out;
}

void expect_identical(const ChaosResult& a, const ChaosResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].power_w, b.points[i].power_w) << "tick " << i;
    EXPECT_EQ(a.points[i].state, b.points[i].state) << "tick " << i;
    EXPECT_EQ(a.points[i].targets, b.points[i].targets) << "tick " << i;
    EXPECT_EQ(a.points[i].transitions, b.points[i].transitions)
        << "tick " << i;
    EXPECT_EQ(a.points[i].divergences, b.points[i].divergences)
        << "tick " << i;
    EXPECT_EQ(a.points[i].heals, b.points[i].heals) << "tick " << i;
  }
  ASSERT_EQ(a.finished.size(), b.finished.size());
  for (std::size_t i = 0; i < a.finished.size(); ++i) {
    EXPECT_EQ(a.finished[i].id, b.finished[i].id) << "job " << i;
    EXPECT_EQ(a.finished[i].energy_j, b.finished[i].energy_j) << "job " << i;
  }
  EXPECT_EQ(a.watchdog_engagements, b.watchdog_engagements);
  EXPECT_EQ(a.watchdog_transitions, b.watchdog_transitions);
  EXPECT_EQ(a.pre_restart.ctrl_outage_cycles, b.pre_restart.ctrl_outage_cycles);
  EXPECT_EQ(a.pre_restart.ctrl_zone_outage_cycles,
            b.pre_restart.ctrl_zone_outage_cycles);
}

TEST(ControllerChaos, FailsafeBoundsOverPowerAndRunStaysDeterministic) {
  const ChaosResult serial = run_controller_chaos_cluster(1);
  ASSERT_GT(serial.points.size(), 300u);
  ASSERT_TRUE(test::capped_and_commanded(serial.points));

  // The chaos actually happened: the forced blackout outlived the
  // watchdog timeout, so failsafes engaged and were later adopted. (The
  // warm restart deliberately starts lifetime counters over, so the
  // phase-2 report is the one that witnessed the blackout.)
  EXPECT_GT(serial.pre_restart.ctrl_outage_cycles, 0u);
  EXPECT_GT(serial.pre_restart.ctrl_zone_outage_cycles, 0u);
  EXPECT_GT(serial.watchdog_engagements, 0u);
  EXPECT_GT(serial.watchdog_transitions, 0u);
  // The run ends healthy: every failsafe level was adopted back.
  EXPECT_EQ(serial.watchdog_pending_at_end, 0u);

  // The acceptance invariant: with the controller dead, accounted power
  // may sit above P_H only until the watchdog trips — never for longer
  // than the timeout plus actuation slack. (Ticks, not control cycles:
  // control_period / tick = 4 ticks per cycle; timeout 5 cycles + 3
  // cycles of delivery/thermal slack.)
  const std::size_t ticks_per_cycle = 4;
  const std::size_t bound = (5 + 3) * ticks_per_cycle;
  std::size_t over = 0;
  std::size_t worst = 0;
  for (const metrics::CyclePoint& pt : serial.points) {
    if (pt.p_high_w > 0.0 && pt.power_w > pt.p_high_w) {
      ++over;
      worst = std::max(worst, over);
    } else {
      over = 0;
    }
  }
  EXPECT_LE(worst, bound)
      << "power sat above P_H for " << worst
      << " consecutive ticks despite the failsafe watchdog";

  // Bit-identical under parallel sweeps — outage windows, watchdog
  // stepping, adoption and the warm restart are all serial state.
  const ChaosResult four = run_controller_chaos_cluster(4);
  expect_identical(serial, four);
}

}  // namespace
}  // namespace pcap::power
