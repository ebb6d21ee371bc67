// The hierarchical zone-sharded control plane: partitioning, per-zone
// selection against root-computed deficit shares, yellow/red quiescence,
// flat-vs-zoned fidelity on the experiment scenarios, and bit-identical
// determinism across worker-thread counts under a degraded management
// plane.
#include "power/zone_manager.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/uniform_policy.hpp"
#include "cluster/cluster.hpp"
#include "cluster/experiment.hpp"
#include "cluster/scenario.hpp"
#include "common/thread_pool.hpp"
#include "hw/node_spec.hpp"
#include "metrics/trace_recorder.hpp"
#include "obs/registry.hpp"
#include "power/checkpoint.hpp"
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
    for (auto& n : nodes) set_util(n, utilization);
  }

  void set_util(hw::Node& n, double utilization) {
    hw::OperatingPoint op;
    op.cpu_utilization = utilization;
    op.mem_used = n.spec().mem_total * 0.4;
    op.mem_total = n.spec().mem_total;
    op.tau = Seconds{1.0};
    op.nic_bandwidth = n.spec().nic_bandwidth;
    n.set_operating_point(op);
    n.set_busy(true);
  }

  void run_job(workload::JobId id, int nprocs) {
    scheduler.submit(workload::Job(
        id, workload::npb_by_name("lu", workload::NpbClass::kC), nprocs,
        Seconds{0.0}));
    scheduler.try_launch(Seconds{0.0});
  }
};

CappingManagerParams shard_params() {
  CappingManagerParams p;
  p.thresholds.provision = Watts{2000.0};  // P_L = 1680, P_H = 1860
  p.thresholds.training_cycles = 0;
  p.thresholds.adjust_period_cycles = 1000;
  p.capping.steady_green_cycles = 3;
  p.collector.agent.utilization_noise = 0.0;
  p.collector.agent.nic_noise = 0.0;
  p.green_collect_stride = 1;
  return p;
}

ZoneTreeParams zone_params(std::size_t zones) {
  ZoneTreeParams zp;
  zp.zone_count = zones;
  return zp;
}

ZoneTreeManager make_tree(std::size_t zones,
                          CappingManagerParams p = shard_params(),
                          ZoneTreeParams zp = ZoneTreeParams{}) {
  zp.zone_count = zones;
  return ZoneTreeManager(
      zp, p, [] { return make_policy("mpc"); }, common::Rng(1));
}

TEST(ZoneTree, NameIncludesZoneCountAndPolicy) {
  const ZoneTreeManager m = make_tree(4);
  EXPECT_EQ(m.name(), "zonetree(4):capping:mpc");
}

TEST(ZoneTree, ConstructorValidation) {
  EXPECT_THROW(make_tree(0), std::invalid_argument);
  EXPECT_THROW(ZoneTreeManager(zone_params(2), shard_params(), nullptr,
                               common::Rng(1)),
               std::invalid_argument);
  CappingManagerParams with_selector = shard_params();
  with_selector.selector = CandidateSelectorParams{};
  EXPECT_THROW(make_tree(2, with_selector), std::invalid_argument);
}

TEST(ZoneTree, ParseHelpers) {
  EXPECT_EQ(parse_zone_assignment("block"),
            ZoneTreeParams::Assignment::kBlock);
  EXPECT_EQ(parse_zone_assignment("stride"),
            ZoneTreeParams::Assignment::kStride);
  EXPECT_THROW(parse_zone_assignment("diagonal"), std::invalid_argument);
  EXPECT_EQ(parse_zone_redistribution("uniform"),
            ZoneTreeParams::Redistribution::kUniform);
  EXPECT_EQ(parse_zone_redistribution("proportional"),
            ZoneTreeParams::Redistribution::kProportional);
  EXPECT_THROW(parse_zone_redistribution("greedy"), std::invalid_argument);
}

TEST(ZoneTree, BlockPartitionIsBalancedAndContiguous) {
  ZoneTreeManager m = make_tree(4);
  // Unsorted with a duplicate: the partition is a pure function of the
  // de-duplicated id set.
  m.set_candidate_set({9, 3, 0, 7, 1, 4, 2, 8, 5, 6, 3});
  EXPECT_EQ(m.zone_members(0), (std::vector<hw::NodeId>{0, 1, 2}));
  EXPECT_EQ(m.zone_members(1), (std::vector<hw::NodeId>{3, 4, 5}));
  EXPECT_EQ(m.zone_members(2), (std::vector<hw::NodeId>{6, 7}));
  EXPECT_EQ(m.zone_members(3), (std::vector<hw::NodeId>{8, 9}));
}

TEST(ZoneTree, StridePartitionRoundRobins) {
  ZoneTreeParams zp;
  zp.assignment = ZoneTreeParams::Assignment::kStride;
  ZoneTreeManager m = make_tree(4, shard_params(), zp);
  m.set_candidate_set({0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  EXPECT_EQ(m.zone_members(0), (std::vector<hw::NodeId>{0, 4, 8}));
  EXPECT_EQ(m.zone_members(1), (std::vector<hw::NodeId>{1, 5, 9}));
  EXPECT_EQ(m.zone_members(2), (std::vector<hw::NodeId>{2, 6}));
  EXPECT_EQ(m.zone_members(3), (std::vector<hw::NodeId>{3, 7}));
}

TEST(ZoneTree, MoreZonesThanCandidatesLeavesEmptyShardsInert) {
  // zones.count is an operator knob: configuring more zones than there
  // are controllable nodes must leave the surplus shards empty and
  // harmless — no division by the empty-zone count, no spurious
  // quiescence, no commands from nowhere.
  Rig rig(2);
  rig.load(0.9);
  rig.run_job(1, 24);
  ZoneTreeManager m = make_tree(4);
  m.set_candidate_set({0, 1});
  EXPECT_EQ(m.zone_members(0), (std::vector<hw::NodeId>{0}));
  EXPECT_EQ(m.zone_members(1), (std::vector<hw::NodeId>{1}));
  EXPECT_TRUE(m.zone_members(2).empty());
  EXPECT_TRUE(m.zone_members(3).empty());

  // Yellow: the deficit lands entirely on the populated zones.
  auto r = m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler, Seconds{1.0});
  EXPECT_EQ(r.state, PowerState::kYellow);
  EXPECT_EQ(m.zone_share(2).value(), 0.0);
  EXPECT_EQ(m.zone_share(3).value(), 0.0);
  EXPECT_GT(m.zone_share(0).value() + m.zone_share(1).value(), 0.0);

  // Once hinted, an empty zone is quiescent (nothing to shed) — it stops
  // burning active cycles without wedging the populated zones.
  r = m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler, Seconds{2.0});
  EXPECT_LE(m.zones_active_last_cycle(), 2u);

  // Red and green cycles cross the empty shards without incident too.
  r = m.cycle(Watts{1900.0}, rig.nodes, rig.scheduler, Seconds{3.0});
  EXPECT_EQ(r.state, PowerState::kRed);
  r = m.cycle(Watts{100.0}, rig.nodes, rig.scheduler, Seconds{4.0});
  EXPECT_EQ(r.state, PowerState::kGreen);
}

TEST(ZoneTree, EmptyShardsAreInertUnderProportionalRedistribution) {
  // Proportional shares divide by the eligible zones' summed power: empty
  // zones contribute nothing and must not poison the denominator.
  Rig rig(2);
  rig.load(0.9);
  rig.run_job(1, 24);
  ZoneTreeParams zp;
  zp.redistribution = ZoneTreeParams::Redistribution::kProportional;
  ZoneTreeManager m = make_tree(3, shard_params(), zp);
  m.set_candidate_set({0, 1});
  for (int c = 1; c <= 4; ++c) {
    const auto r = m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler,
                           Seconds{static_cast<double>(c)});
    EXPECT_EQ(r.state, PowerState::kYellow) << "cycle " << c;
    EXPECT_EQ(m.zone_share(2).value(), 0.0) << "cycle " << c;
  }
}

TEST(ZoneTree, TrainingCyclesDoNotThrottle) {
  Rig rig(4);
  rig.load(0.9);
  rig.run_job(1, 48);
  CappingManagerParams p = shard_params();
  p.thresholds.training_cycles = 2;
  ZoneTreeManager m = make_tree(2, p);
  m.set_candidate_set({0, 1, 2, 3});
  const auto r = m.cycle(Watts{1e6}, rig.nodes, rig.scheduler, Seconds{1.0});
  EXPECT_TRUE(r.training);
  EXPECT_EQ(r.targets, 0u);
  for (const auto& n : rig.nodes) EXPECT_TRUE(n.at_highest());
}

TEST(ZoneTree, YellowCycleSplitsDeficitAcrossZones) {
  Rig rig(4);
  rig.load(0.9);
  rig.run_job(1, 24);  // zone 0: nodes 0, 1
  rig.run_job(2, 24);  // zone 1: nodes 2, 3
  ZoneTreeManager m = make_tree(2);
  m.set_candidate_set({0, 1, 2, 3});

  const auto r = m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler,
                         Seconds{1.0});
  EXPECT_EQ(r.state, PowerState::kYellow);
  // Both zones can shed: the 20 W deficit splits 10/10 and each zone
  // throttles within its own membership.
  EXPECT_DOUBLE_EQ(m.zone_share(0).value(), 10.0);
  EXPECT_DOUBLE_EQ(m.zone_share(1).value(), 10.0);
  EXPECT_GT(r.targets, 0u);
  EXPECT_EQ(r.transitions, r.targets);
  EXPECT_TRUE(rig.nodes[0].level() < 9 || rig.nodes[1].level() < 9);
  EXPECT_TRUE(rig.nodes[2].level() < 9 || rig.nodes[3].level() < 9);
}

TEST(ZoneTree, ProportionalRedistributionFollowsZonePower) {
  Rig rig(4);
  rig.load(0.9);
  rig.run_job(1, 24);
  rig.run_job(2, 24);
  // Zone 1's nodes idle along at a fraction of zone 0's draw.
  rig.set_util(rig.nodes[2], 0.2);
  rig.set_util(rig.nodes[3], 0.2);
  ZoneTreeParams zp;
  zp.redistribution = ZoneTreeParams::Redistribution::kProportional;
  ZoneTreeManager m = make_tree(2, shard_params(), zp);
  m.set_candidate_set({0, 1, 2, 3});

  const auto r = m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler,
                         Seconds{1.0});
  EXPECT_EQ(r.state, PowerState::kYellow);
  const double s0 = m.zone_share(0).value();
  const double s1 = m.zone_share(1).value();
  EXPECT_NEAR(s0 + s1, 20.0, 1e-9);  // shares partition the deficit
  EXPECT_GT(s0, s1);                 // the hungrier zone owes more
  EXPECT_NEAR(s0 / s1, m.zone_power(0).value() / m.zone_power(1).value(),
              1e-9);
}

TEST(ZoneTree, RedCycleFloorsEveryZone) {
  Rig rig(4);
  rig.load(0.9);
  rig.run_job(1, 48);
  ZoneTreeManager m = make_tree(2);
  m.set_candidate_set({0, 1, 2});  // node 3 stays unmanaged

  const auto r = m.cycle(Watts{1900.0}, rig.nodes, rig.scheduler,
                         Seconds{1.0});
  EXPECT_EQ(r.state, PowerState::kRed);
  EXPECT_EQ(rig.nodes[0].level(), 0);
  EXPECT_EQ(rig.nodes[1].level(), 0);
  EXPECT_EQ(rig.nodes[2].level(), 0);
  EXPECT_EQ(rig.nodes[3].level(), 9);  // outside A_candidate
}

TEST(ZoneTree, SteadyGreenRestoresAcrossZones) {
  Rig rig(4);
  rig.load(0.9);
  rig.run_job(1, 48);
  CappingManagerParams p = shard_params();
  p.capping.steady_green_cycles = 2;
  ZoneTreeManager m = make_tree(2, p);
  m.set_candidate_set({0, 1, 2, 3});

  m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler, Seconds{1.0});  // yellow
  EXPECT_TRUE(rig.nodes[0].level() < 9 || rig.nodes[1].level() < 9);
  for (int c = 2; c <= 12; ++c) {
    m.cycle(Watts{100.0}, rig.nodes, rig.scheduler,
            Seconds{static_cast<double>(c)});
  }
  for (const auto& n : rig.nodes) EXPECT_TRUE(n.at_highest());
  for (std::size_t z = 0; z < m.zone_count(); ++z) {
    EXPECT_TRUE(m.zone(z).engine().degraded().empty()) << "zone " << z;
  }
}

// The tentpole's scaling property: a zone whose last clean context shows
// nothing left to shed stops collecting/building/selecting entirely while
// the global state is pinned, and re-arms the moment the scheduler moves.
TEST(ZoneTree, PinnedYellowDrainsToZeroActiveZones) {
  Rig rig(4);
  rig.load(0.9);
  rig.run_job(1, 24);  // only zone 0 has job capacity
  ZoneTreeManager m = make_tree(2);
  m.set_candidate_set({0, 1, 2, 3});
  obs::Registry reg;
  m.bind_metrics(reg);

  const auto r1 = m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler,
                          Seconds{1.0});
  EXPECT_EQ(r1.state, PowerState::kYellow);
  EXPECT_EQ(m.zones_active_last_cycle(), 2u);  // no hints yet: all active

  // Zone 1 published a clean nothing-to-shed hint on cycle 1 and drops
  // out immediately; zone 0 keeps shedding until its job nodes floor and
  // its last commands ack, then goes quiescent too.
  std::size_t drained_at = 0;
  for (int c = 2; c <= 40; ++c) {
    m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler,
            Seconds{static_cast<double>(c)});
    EXPECT_LE(m.zones_active_last_cycle(), 1u) << "cycle " << c;
    if (m.zones_active_last_cycle() == 0) {
      drained_at = static_cast<std::size_t>(c);
      break;
    }
  }
  ASSERT_GT(drained_at, 0u) << "yellow never went fully quiescent";
  EXPECT_EQ(rig.nodes[0].level(), 0);
  EXPECT_EQ(rig.nodes[1].level(), 0);

  // Pinned and drained: every further cycle runs zero zone sweeps.
  for (int c = 0; c < 5; ++c) {
    m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler,
            Seconds{static_cast<double>(41 + c)});
    EXPECT_EQ(m.zones_active_last_cycle(), 0u);
  }
  const auto z0 = reg.counter_value("pcap_zone_active_cycles_total{zone=\"0\"}");
  const auto z1 = reg.counter_value("pcap_zone_active_cycles_total{zone=\"1\"}");
  ASSERT_TRUE(z0.has_value());
  ASSERT_TRUE(z1.has_value());
  EXPECT_GT(*z0, *z1);  // zone 1 dropped out on cycle 2, zone 0 much later
  EXPECT_EQ(*z1, 1u);

  // A job landing on zone 1's nodes is a root dirty trigger: both zones
  // re-arm, and the new capacity starts absorbing the deficit.
  rig.run_job(2, 24);  // nodes 2, 3
  m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler, Seconds{50.0});
  EXPECT_EQ(m.zones_active_last_cycle(), 2u);
  const auto r_new = m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler,
                             Seconds{51.0});
  EXPECT_EQ(r_new.state, PowerState::kYellow);
  EXPECT_TRUE(rig.nodes[2].level() < 9 || rig.nodes[3].level() < 9);
}

TEST(ZoneTree, MetricsUseFlatManagerSchema) {
  Rig rig(4);
  rig.load(0.9);
  rig.run_job(1, 48);
  ZoneTreeManager m = make_tree(2);
  m.set_candidate_set({0, 1, 2, 3});
  obs::Registry reg;
  m.bind_metrics(reg);
  m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler, Seconds{1.0});
  // The root publishes the same series names the flat manager does, so
  // experiment extraction is agnostic to which control plane ran.
  EXPECT_EQ(reg.counter_value("pcap_manager_cycles_total{state=\"yellow\"}")
                .value_or(0),
            1u);
  EXPECT_GT(
      reg.counter_value("pcap_manager_transitions_total").value_or(0), 0u);
  EXPECT_TRUE(reg.find_gauge("pcap_zone_power_watts{zone=\"1\"}").has_value());
}

// --- End-to-end fidelity and determinism -------------------------------

std::uint64_t fault_seed(std::uint64_t fallback) {
  const char* env = std::getenv("PCAP_FAULT_SEED");
  if (env == nullptr || *env == '\0') return fallback;
  return std::strtoull(env, nullptr, 10);
}

cluster::ExperimentConfig quick_config(std::uint64_t seed = 7) {
  cluster::ExperimentConfig cfg = cluster::small_scenario(seed);
  cfg.cluster.num_nodes = 12;
  cfg.calibration_duration = Seconds{900.0};
  cfg.training = Seconds{900.0};
  cfg.measured = Seconds{2700.0};
  return cfg;
}

// A Z=4 tree must deliver the flat controller's fidelity on the paper
// scenarios: capped peak, comparable overspend suppression, comparable
// job performance. Bit-parity with the flat run is NOT expected — the
// zones select against deficit shares, not the global context — so the
// comparison is by tolerance.
TEST(ZoneTree, ZonedExperimentMatchesFlatFidelity) {
  cluster::ExperimentConfig cfg = quick_config();
  cfg.manager = "mpc";
  const cluster::ExperimentResult flat = cluster::run_experiment(cfg);
  cfg.zone_count = 4;
  const cluster::ExperimentResult zoned = cluster::run_experiment(cfg);

  EXPECT_GT(zoned.yellow_cycles, 0u);
  // Peak control matches flat to within 2% (neither plane can pre-empt a
  // between-cycle spike, so the absolute peak briefly overshoots the
  // provision in this quick scenario — identically for both).
  EXPECT_LE(zoned.p_max.value(), flat.p_max.value() * 1.02);
  // Overspend suppression within 50% of flat (both are near zero; the
  // uncapped baseline is far above either).
  cfg.zone_count = 1;
  cfg.manager = "none";
  const cluster::ExperimentResult none = cluster::run_experiment(cfg);
  EXPECT_LT(zoned.delta_pxt, none.delta_pxt * 0.5);
  EXPECT_LE(zoned.delta_pxt, flat.delta_pxt * 1.5 + 1e-3);
  EXPECT_NEAR(zoned.perf.performance, flat.perf.performance, 0.05);
  EXPECT_GT(zoned.perf.finished_jobs, 0u);
}

TEST(ZoneTree, StrideZonesAlsoStayCapped) {
  cluster::ExperimentConfig cfg = quick_config(11);
  cfg.manager = "mpc";
  cfg.zone_count = 4;
  cfg.zone_assignment = "stride";
  cfg.zone_redistribution = "proportional";
  const cluster::ExperimentResult r = cluster::run_experiment(cfg);
  cfg.zone_count = 1;
  const cluster::ExperimentResult flat = cluster::run_experiment(cfg);
  EXPECT_LE(r.p_max.value(), flat.p_max.value() * 1.02);
  EXPECT_GT(r.yellow_cycles, 0u);
  EXPECT_GT(r.perf.finished_jobs, 0u);
}

TEST(ZoneTree, ExperimentWiringRejectsInvalidCombinations) {
  cluster::ExperimentConfig cfg = quick_config();
  cfg.zone_count = 2;
  cfg.provision = Watts{3000.0};  // skip calibration
  for (const char* manager : {"none", "budget", "feedback"}) {
    cfg.manager = manager;
    EXPECT_THROW(cluster::run_experiment(cfg), std::invalid_argument)
        << manager;
  }
  cfg.manager = "mpc";
  cfg.dynamic_candidates = true;
  EXPECT_THROW(cluster::run_experiment(cfg), std::invalid_argument);
  cfg.dynamic_candidates = false;
  const cluster::ExperimentResult r = cluster::run_experiment(cfg);
  EXPECT_GT(r.perf.finished_jobs, 0u);
}

struct RunResult {
  std::vector<metrics::CyclePoint> points;
  std::vector<metrics::JobRecord> finished;
  double total_energy_j = 0.0;
  std::uint64_t samples_lost = 0;
  std::uint64_t commands_lost = 0;
  /// Context-build paths summed over the zones, and the dirty-slot bound
  /// Σ_z delta_builds_z × |zone z| (every slot dirty on every delta build).
  CappingManager::IncrementalStats stats;
  std::uint64_t delta_slot_capacity = 0;
};

/// A degraded-management-plane cluster run under the Z=3 zone tree:
/// telemetry loss/delay/dropout/crash/corruption AND a lossy, delayed,
/// reboot-prone actuation plane, with the zone fan-out forced parallel.
/// With `clean_slots`, agent noise and transport delay are zeroed: a
/// quiet node's sample then repeats bit for bit, so most slots stay clean
/// and the delta builds re-derive only the slots the faults touch.
RunResult run_degraded_zone_cluster(std::size_t worker_threads,
                                    bool incremental = true,
                                    bool clean_slots = false) {
  cluster::ClusterConfig cfg;
  cfg.num_nodes = 200;
  cfg.spec = hw::tianhe1a_node_spec();
  cfg.tick = Seconds{1.0};
  cfg.control_period = Seconds{4.0};
  cfg.seed = fault_seed(20260808);
  cfg.scheduler.max_procs_per_node = 3;
  cfg.worker_threads = worker_threads;
  cfg.parallel_node_threshold = 1;
  cfg.parallel_grain = 16;
  cluster::Cluster cl(cfg);

  CappingManagerParams p;
  // The clean-slot variant runs under a tighter provision: at 0.75 some
  // swept seeds never leave quiet green and build no context at all.
  p.thresholds.provision = cl.theoretical_peak() * (clean_slots ? 0.5 : 0.75);
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
  p.max_sample_age_cycles = 3;
  p.actuation.command_loss_rate = 0.05;
  p.actuation.delivery_delay_cycles = 1;
  p.actuation.partial_transition_rate = 0.05;
  p.actuation.reboot_rate = 1e-3;
  p.actuation.reboot_duration_cycles = 10;
  p.incremental_context = incremental;
  if (clean_slots) {
    p.collector.agent.utilization_noise = 0.0;
    p.collector.agent.nic_noise = 0.0;
    p.collector.transport.delay_cycles = 0;
  }

  ZoneTreeParams zp;
  zp.zone_count = 3;
  zp.redistribution = ZoneTreeParams::Redistribution::kProportional;
  auto mgr = std::make_unique<ZoneTreeManager>(
      zp, p, [] { return PolicyPtr(new baselines::UniformAllNodesPolicy()); },
      common::Rng(cfg.seed ^ 0x9d2c5680u));
  mgr->set_candidate_set(cl.controllable_nodes());
  const ZoneTreeManager& tree = *mgr;
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
  out.commands_lost = cl.last_report().commands_lost;
  for (std::size_t z = 0; z < tree.zone_count(); ++z) {
    const CappingManager::IncrementalStats& st =
        tree.zone(z).incremental_stats();
    out.stats.full_builds += st.full_builds;
    out.stats.delta_builds += st.delta_builds;
    out.stats.noop_builds += st.noop_builds;
    out.stats.dirty_slots += st.dirty_slots;
    out.delta_slot_capacity +=
        st.delta_builds * tree.zone(z).candidate_set().size();
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
  EXPECT_EQ(a.commands_lost, b.commands_lost);
}

TEST(ZoneTree, DegradedZonedRunIsBitIdenticalAcrossWorkerCounts) {
  const RunResult serial = run_degraded_zone_cluster(1);
  ASSERT_GT(serial.points.size(), 400u);
  EXPECT_GT(serial.samples_lost, 0u);
  EXPECT_GT(serial.commands_lost, 0u);

  const RunResult four = run_degraded_zone_cluster(4);
  expect_identical(serial, four);
}

// -- incremental context plane: the delta path must be invisible ---------

// Degraded telemetry + lossy actuation: loss and delay disarm the sample
// dedup (draws must stay aligned) but the delta-maintained contexts stay
// on, with most slots dirtied by lagging confirmations every cycle —
// exactly the regime where a missed invalidation would surface. Together
// with DegradedZonedRunIsBitIdenticalAcrossWorkerCounts (incremental,
// 1 vs 4 workers) this closes the {incremental, rebuild} x {1, 4} matrix.
TEST(ZoneTree, IncrementalMatchesRebuildUnderDegradedPlane) {
  const RunResult inc = run_degraded_zone_cluster(1, true);
  ASSERT_GT(inc.points.size(), 400u);
  const RunResult reb = run_degraded_zone_cluster(1, false);
  expect_identical(inc, reb);
  const RunResult reb4 = run_degraded_zone_cluster(4, false);
  expect_identical(inc, reb4);
}

// The degraded rig above dirties every slot every cycle (agent noise and
// the two-cycle transport delay), so it only compares the all-dirty delta
// build with the full one. With noise and delay zeroed, quiet slots stay
// clean and the selective path — in-place merge, CSR job refresh, presence
// flips — meets the stale, rejected and abandoned views the faults make.
TEST(ZoneTree, IncrementalMatchesRebuildWithCleanSlotsUnderFaults) {
  const RunResult inc = run_degraded_zone_cluster(1, true, true);
  ASSERT_GT(inc.points.size(), 400u);
  EXPECT_GT(inc.samples_lost, 0u);
  EXPECT_GT(inc.stats.full_builds, 0u);
  EXPECT_GT(inc.stats.delta_builds, 0u);
  EXPECT_LT(inc.stats.dirty_slots, inc.delta_slot_capacity);
  const RunResult reb = run_degraded_zone_cluster(1, false, true);
  EXPECT_EQ(reb.stats.delta_builds, 0u);
  expect_identical(inc, reb);
  const RunResult inc4 = run_degraded_zone_cluster(4, true, true);
  expect_identical(inc, inc4);
}

/// Everything a spike episode externally produces: a per-cycle report
/// trace, the final DVFS levels, and the full Prometheus export with the
/// wall-clock phase spans (the only legitimately nondeterministic series)
/// stripped.
struct EpisodeResult {
  std::vector<std::string> trace;
  std::vector<hw::Level> levels;
  std::string prom;
  CappingManager::IncrementalStats stats;
};

std::string strip_spans(const std::string& text) {
  std::string out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string_view line(text.data() + pos, eol - pos);
    if (line.find("phase_seconds") == std::string_view::npos) {
      out.append(line);
      out.push_back('\n');
    }
    pos = eol + 1;
  }
  return out;
}

/// A clean-plane (exact transport) Z=4 spike episode: shed leg, T_g-paced
/// restore leg, full quiescence — optionally with candidate churn and a
/// mid-episode warm restart folded in. Every externally visible output is
/// captured for exact comparison across {incremental, rebuild} x threads.
EpisodeResult run_spike_episode(const char* policy, bool incremental,
                                std::size_t threads, bool churn,
                                bool warm_restart) {
  Rig rig(64);
  for (std::size_t i = 0; i < rig.nodes.size(); ++i) {
    rig.set_util(rig.nodes[i],
                 0.70 + 0.25 * static_cast<double>(i % 16) / 16.0);
  }
  for (int j = 0; j < 8; ++j) rig.run_job(j + 1, 8 * 12);
  const auto draw = [&] {
    Watts total{0.0};
    for (const hw::Node& n : rig.nodes) total += n.estimated_power();
    return total;
  };

  CappingManagerParams p;
  p.thresholds.provision = draw() * 2.0;
  p.thresholds.training_cycles = 0;
  p.thresholds.freeze_at_provision = true;
  p.thresholds.adjust_period_cycles = 1'000'000;
  p.capping.steady_green_cycles = 3;
  p.collector.agent.utilization_noise = 0.0;
  p.collector.agent.nic_noise = 0.0;
  p.collector.parallel_threshold = 8;
  p.collector.parallel_grain = 4;
  p.green_collect_stride = 1;
  p.incremental_context = incremental;
  ZoneTreeParams zp;
  zp.zone_count = 4;
  zp.redistribution = ZoneTreeParams::Redistribution::kProportional;
  const auto make_mgr = [&] {
    return std::make_unique<ZoneTreeManager>(
        zp, p, [policy] { return make_policy(policy); }, common::Rng(42));
  };
  auto mgr = make_mgr();
  std::unique_ptr<common::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<common::ThreadPool>(threads);
  mgr->set_thread_pool(pool.get());

  std::vector<hw::NodeId> all_ids;
  for (hw::NodeId i = 0; i < 64; ++i) all_ids.push_back(i);
  std::vector<hw::NodeId> shrunk = all_ids;
  for (const hw::NodeId id : {5, 17, 33}) {
    shrunk.erase(std::find(shrunk.begin(), shrunk.end(), id));
  }
  mgr->set_candidate_set(all_ids);
  obs::Registry reg;
  if (!warm_restart) mgr->bind_metrics(reg);

  EpisodeResult out;
  double now = 1.0;
  for (int i = 0; i < 4; ++i) {  // fill histories in green
    mgr->cycle(draw(), rig.nodes, rig.scheduler, Seconds{now});
    now += 1.0;
  }
  const Watts offset = p.thresholds.provision * 0.86 - draw();
  bool spiked = true;
  for (int c = 0; c < 48; ++c) {
    if (churn && c == 6) mgr->set_candidate_set(shrunk);
    if (churn && c == 12) mgr->set_candidate_set(all_ids);
    if (warm_restart && c == 9) {
      // Encode through the wire image, restore into a freshly built
      // controller, swap it in mid-episode — the paper's controller
      // replacement. Metrics bind to the replacement only (the lifetime
      // counters restart, identically for both modes).
      const std::string image = encode_checkpoint(mgr->checkpoint());
      auto restarted = make_mgr();
      restarted->set_thread_pool(pool.get());
      restarted->set_candidate_set(all_ids);
      restarted->restore(decode_tree_checkpoint(image));
      mgr = std::move(restarted);
      mgr->bind_metrics(reg);
    }
    const Watts measured = (spiked ? offset : Watts{0.0}) + draw();
    const ManagerReport r =
        mgr->cycle(measured, rig.nodes, rig.scheduler, Seconds{now});
    now += 1.0;
    if (spiked && r.state == PowerState::kGreen) spiked = false;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "s=%d tg=%zu tr=%zu ack=%zu fl=%zu st=%zu fb=%zu sk=%zu "
                  "df=%zu un=%zu az=%zu",
                  static_cast<int>(r.state), r.targets, r.transitions, r.acks,
                  r.commands_in_flight, r.stale_nodes, r.fallback_nodes,
                  r.skipped_targets, r.deferred_targets, r.unresponsive_nodes,
                  mgr->zones_active_last_cycle());
    out.trace.emplace_back(line);
  }
  for (const hw::Node& n : rig.nodes) out.levels.push_back(n.level());
  out.prom = strip_spans(reg.prometheus_text());
  for (std::size_t z = 0; z < mgr->zone_count(); ++z) {
    const CappingManager::IncrementalStats& st =
        mgr->zone(z).incremental_stats();
    out.stats.full_builds += st.full_builds;
    out.stats.delta_builds += st.delta_builds;
    out.stats.noop_builds += st.noop_builds;
    out.stats.dirty_slots += st.dirty_slots;
  }
  return out;
}

void expect_episode_identical(const EpisodeResult& a, const EpisodeResult& b) {
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i], b.trace[i]) << "cycle " << i;
  }
  EXPECT_EQ(a.levels, b.levels);
  EXPECT_EQ(a.prom, b.prom);
}

TEST(ZoneTree, IncrementalEpisodeMatchesRebuildBitForBit) {
  const EpisodeResult inc = run_spike_episode("mpc-c", true, 1, false, false);
  // The delta plane actually engaged: quiet cycles resolved as no-ops and
  // delta builds dominate the full assemblies.
  EXPECT_GT(inc.stats.noop_builds, 0u);
  EXPECT_GT(inc.stats.delta_builds, inc.stats.full_builds);
  const EpisodeResult reb = run_spike_episode("mpc-c", false, 1, false, false);
  EXPECT_EQ(reb.stats.delta_builds, 0u);
  expect_episode_identical(inc, reb);
  // Worker count must not leak into the merge: the same episode, sharded
  // four ways, in both modes.
  const EpisodeResult inc4 = run_spike_episode("mpc-c", true, 4, false, false);
  expect_episode_identical(inc, inc4);
  const EpisodeResult reb4 = run_spike_episode("mpc-c", false, 4, false, false);
  expect_episode_identical(inc, reb4);
}

// Thermal policies read board temperature, which drifts with sim-time
// without ever passing a pool mutator — the one field the state-epoch
// fast path cannot vouch for. ht-c must still be bit-identical.
TEST(ZoneTree, ThermalPolicyEpisodeMatchesRebuild) {
  const EpisodeResult inc = run_spike_episode("ht-c", true, 1, false, false);
  const EpisodeResult reb = run_spike_episode("ht-c", false, 1, false, false);
  expect_episode_identical(inc, reb);
}

// Candidate churn mid-episode: slots move, appear and vanish under the
// persistent contexts (the presence-flip path falls back to a full
// merge); the change-tracking state has to travel with the histories.
TEST(ZoneTree, CandidateChurnEpisodeMatchesRebuild) {
  const EpisodeResult inc = run_spike_episode("mpc-c", true, 1, true, false);
  const EpisodeResult reb = run_spike_episode("mpc-c", false, 1, true, false);
  expect_episode_identical(inc, reb);
  const EpisodeResult inc4 = run_spike_episode("mpc-c", true, 4, true, false);
  expect_episode_identical(inc, inc4);
}

// A warm restart replaces the controller mid-episode: the replacement
// starts with cold persistent contexts and must rebuild, then re-enter
// the delta path, without its decisions drifting from the rebuild plane.
TEST(ZoneTree, WarmRestartEpisodeMatchesRebuild) {
  const EpisodeResult inc = run_spike_episode("mpc-c", true, 1, false, true);
  const EpisodeResult reb = run_spike_episode("mpc-c", false, 1, false, true);
  expect_episode_identical(inc, reb);
}

// The drain-length regression the bench gates on wall clock, pinned down
// functionally at 8k nodes: a demand step must reach all-zones-quiescent
// in bounded cycles on the delta path, and a second, context-warm episode
// must take exactly as long (the persistent contexts do not accumulate
// state that changes decisions).
TEST(ZoneTree, DemandStepDrainsInBoundedCyclesOnTheDeltaPath) {
  Rig rig(8192);
  for (std::size_t i = 0; i < rig.nodes.size(); ++i) {
    rig.set_util(rig.nodes[i],
                 0.70 + 0.25 * static_cast<double>(i % 16) / 16.0);
  }
  for (int j = 0; j < 64; ++j) rig.run_job(j + 1, 128 * 12);
  const auto draw = [&] {
    Watts total{0.0};
    for (const hw::Node& n : rig.nodes) total += n.estimated_power();
    return total;
  };
  CappingManagerParams p;
  p.thresholds.provision = draw() * 2.0;
  p.thresholds.training_cycles = 0;
  p.thresholds.freeze_at_provision = true;
  p.thresholds.adjust_period_cycles = 1'000'000;
  p.collector.agent.utilization_noise = 0.0;
  p.collector.agent.nic_noise = 0.0;
  p.green_collect_stride = 1;
  p.incremental_context = true;
  ZoneTreeParams zp;
  zp.zone_count = 8;
  zp.redistribution = ZoneTreeParams::Redistribution::kProportional;
  ZoneTreeManager mgr(
      zp, p, [] { return make_policy("mpc-c"); }, common::Rng(42));
  std::vector<hw::NodeId> ids;
  for (hw::NodeId i = 0; i < 8192; ++i) ids.push_back(i);
  mgr.set_candidate_set(ids);

  double now = 1.0;
  for (int i = 0; i < 4; ++i) {
    mgr.cycle(draw(), rig.nodes, rig.scheduler, Seconds{now});
    now += 1.0;
  }
  const auto episode = [&] {
    const Watts offset = p.thresholds.provision * 0.845 - draw();
    bool spiked = true;
    int cycles = 0;
    while (cycles < 64) {
      const Watts measured = (spiked ? offset : Watts{0.0}) + draw();
      const ManagerReport r =
          mgr.cycle(measured, rig.nodes, rig.scheduler, Seconds{now});
      now += 1.0;
      ++cycles;
      if (spiked && r.state == PowerState::kGreen) spiked = false;
      if (!spiked && mgr.zones_active_last_cycle() == 0) break;
    }
    return cycles;
  };
  const int cold = episode();
  EXPECT_LT(cold, 64) << "demand step never reached quiescence";
  const int warm = episode();
  EXPECT_EQ(cold, warm);
  CappingManager::IncrementalStats total;
  for (std::size_t z = 0; z < mgr.zone_count(); ++z) {
    const CappingManager::IncrementalStats& st =
        mgr.zone(z).incremental_stats();
    total.full_builds += st.full_builds;
    total.delta_builds += st.delta_builds;
    total.noop_builds += st.noop_builds;
    total.dirty_slots += st.dirty_slots;
  }
  // The episodes ran on the delta path: quiet drain cycles resolved as
  // no-ops, and the dirty waves touched only the shed cohort — not the
  // whole candidate set every active cycle.
  EXPECT_GT(total.noop_builds, 0u);
  EXPECT_GT(total.delta_builds, total.full_builds);
  EXPECT_LT(total.dirty_slots,
            static_cast<std::uint64_t>(cold + warm) * 8192u / 2u);
}

}  // namespace
}  // namespace pcap::power
