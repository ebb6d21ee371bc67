// The persistent job -> candidate-node index that feeds the manager's
// context assembly: it must mirror the scheduler's running set exactly
// through job churn, and its filtered node lists must track candidate-set
// churn — including the cases where that changes what the policies see
// (a job finishing mid-degradation, a job losing its last candidate node,
// a node's level reset refreshing the cached per-job saving).
#include "power/job_index.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "hw/node_spec.hpp"
#include "power/manager.hpp"
#include "power/policy_registry.hpp"
#include "support.hpp"
#include "workload/npb.hpp"

namespace pcap::power {
namespace {

sched::Scheduler make_sched(int nodes) {
  return sched::Scheduler(std::vector<int>(static_cast<std::size_t>(nodes), 12),
                          {}, common::Rng(3));
}

workload::Job make_job(workload::JobId id, int nprocs) {
  return workload::Job(id,
                       workload::npb_by_name("lu", workload::NpbClass::kC),
                       nprocs, Seconds{0.0});
}

void finish_job(sched::Scheduler& s, workload::JobId id) {
  workload::Job* job = s.find(id);
  ASSERT_NE(job, nullptr);
  double t = 0.0;
  while (job->state() == workload::JobState::kRunning) {
    t += 600.0;
    job->advance(Seconds{600.0}, 1.0, Seconds{t});
  }
  s.on_job_finished(id);
}

std::vector<workload::JobId> entry_ids(const JobIndex& idx) {
  std::vector<workload::JobId> out;
  for (const JobIndex::Entry& e : idx.entries()) out.push_back(e.id);
  return out;
}

TEST(JobIndex, MirrorsRunningOrderThroughChurn) {
  sched::Scheduler s = make_sched(8);
  JobIndex idx;
  idx.set_candidate_set({0, 1, 2, 3, 4, 5, 6, 7});

  s.submit(make_job(1, 24));  // nodes 0,1
  s.submit(make_job(2, 12));  // node 2
  s.submit(make_job(3, 24));  // nodes 3,4
  s.try_launch(Seconds{0.0});
  idx.sync(s);
  EXPECT_EQ(entry_ids(idx), s.running_jobs());

  // Finishing the middle job must erase in place, keeping order — the
  // context's job views (and therefore stable-sort tie-breaking) follow
  // running order.
  finish_job(s, 2);
  idx.sync(s);
  EXPECT_EQ(entry_ids(idx), s.running_jobs());
  EXPECT_EQ(entry_ids(idx), (std::vector<workload::JobId>{1, 3}));

  // A new job reuses the freed capacity and appends at the back.
  s.submit(make_job(4, 12));
  s.try_launch(Seconds{1.0});
  idx.sync(s);
  EXPECT_EQ(entry_ids(idx), (std::vector<workload::JobId>{1, 3, 4}));
}

TEST(JobIndex, CandidateFilterPreservesJobNodeOrder) {
  sched::Scheduler s = make_sched(4);
  JobIndex idx;
  idx.set_candidate_set({1, 3});  // every other node monitored

  s.submit(make_job(1, 48));  // whole machine: nodes 0..3
  s.try_launch(Seconds{0.0});
  idx.sync(s);

  ASSERT_EQ(idx.entries().size(), 1u);
  const JobIndex::Entry& e = idx.entries()[0];
  EXPECT_EQ(e.id, 1u);
  // Intersection with A_candidate, in Nodes(J) order — the aggregation
  // order the context build sums per-job power in.
  EXPECT_EQ(e.candidate_nodes, (std::vector<hw::NodeId>{1, 3}));
}

TEST(JobIndex, CandidateChurnRefiltersExistingEntries) {
  sched::Scheduler s = make_sched(4);
  JobIndex idx;
  idx.set_candidate_set({0, 1, 2, 3});

  s.submit(make_job(1, 24));  // nodes 0,1
  s.try_launch(Seconds{0.0});
  idx.sync(s);
  EXPECT_EQ(idx.entries()[0].candidate_nodes,
            (std::vector<hw::NodeId>{0, 1}));

  // Shrink the candidate set under a running job: the entry refilters on
  // the next sync, down to empty when its last candidate node is gone.
  idx.set_candidate_set({1});
  idx.sync(s);
  EXPECT_EQ(idx.entries()[0].candidate_nodes, (std::vector<hw::NodeId>{1}));

  idx.set_candidate_set({2, 3});
  idx.sync(s);
  EXPECT_TRUE(idx.entries()[0].candidate_nodes.empty());

  // Membership is immutable: widening the set again recovers the job's
  // whole placement, read back from the scheduler.
  idx.set_candidate_set({0, 1, 2, 3});
  idx.sync(s);
  EXPECT_EQ(idx.entries()[0].candidate_nodes,
            (std::vector<hw::NodeId>{0, 1}));
}

TEST(JobIndex, SyncIsIdempotent) {
  sched::Scheduler s = make_sched(4);
  JobIndex idx;
  idx.set_candidate_set({0, 1, 2, 3});
  s.submit(make_job(1, 24));
  s.try_launch(Seconds{0.0});

  idx.sync(s);
  const std::size_t cursor = idx.event_cursor();
  idx.sync(s);
  EXPECT_EQ(idx.event_cursor(), cursor);
  EXPECT_EQ(idx.entries().size(), 1u);
}

// -- through the manager -------------------------------------------------
//
// The same invariants, observed where they matter: the PolicyContext the
// capping engine selects from.

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
    scheduler.submit(make_job(id, nprocs));
    scheduler.try_launch(Seconds{0.0});
  }
};

CappingManagerParams quiet_params() {
  CappingManagerParams p;
  p.thresholds.provision = Watts{2000.0};
  p.thresholds.training_cycles = 0;
  p.thresholds.adjust_period_cycles = 1000;
  p.collector.agent.utilization_noise = 0.0;
  p.collector.agent.nic_noise = 0.0;
  // These tests inspect build_context_into right after single green cycles;
  // collect every cycle so the context is always populated.
  p.green_collect_stride = 1;
  return p;
}

TEST(CappingManagerJobIndex, JobFinishingMidDegradationLeavesContext) {
  Rig rig(4);
  rig.load(0.9);
  rig.run_job(1, 24);  // nodes 0,1
  rig.run_job(2, 24);  // nodes 2,3
  ZoneTreeManager m = test::one_zone(quiet_params(), "mpc");
  m.set_candidate_set({0, 1, 2, 3});

  // Yellow cycle: the policy degrades the most power consuming job, so
  // A_degraded is populated when job 1 finishes.
  const auto r =
      m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler, Seconds{1.0});
  ASSERT_EQ(r.state, PowerState::kYellow);
  ASSERT_FALSE(m.zone(0).engine().degraded().empty());

  PolicyContext ctx;
  m.zone(0).build_context_into(ctx, rig.nodes, rig.scheduler);
  ASSERT_EQ(ctx.jobs.size(), 2u);

  finish_job(rig.scheduler, 1);
  m.cycle(Watts{1700.0}, rig.nodes, rig.scheduler, Seconds{2.0});
  m.zone(0).build_context_into(ctx, rig.nodes, rig.scheduler);
  ASSERT_EQ(ctx.jobs.size(), 1u);
  EXPECT_EQ(ctx.jobs[0].id, 2u);
}

TEST(CappingManagerJobIndex, CandidateChurnDropsJobFromContext) {
  Rig rig(4);
  rig.load(0.8);
  rig.run_job(1, 24);  // nodes 0,1
  rig.run_job(2, 24);  // nodes 2,3
  ZoneTreeManager m = test::one_zone(quiet_params(), "mpc");
  m.set_candidate_set({0, 1, 2, 3});

  m.cycle(Watts{100.0}, rig.nodes, rig.scheduler, Seconds{1.0});
  PolicyContext ctx;
  m.zone(0).build_context_into(ctx, rig.nodes, rig.scheduler);
  ASSERT_EQ(ctx.jobs.size(), 2u);

  // Remove job 1's nodes from A_candidate mid-run: the job must vanish
  // from the context even though it is still running.
  m.set_candidate_set({2, 3});
  m.cycle(Watts{100.0}, rig.nodes, rig.scheduler, Seconds{2.0});
  m.zone(0).build_context_into(ctx, rig.nodes, rig.scheduler);
  ASSERT_EQ(ctx.jobs.size(), 1u);
  EXPECT_EQ(ctx.jobs[0].id, 2u);
  EXPECT_EQ(ctx.jobs[0].nodes, (std::vector<hw::NodeId>{2, 3}));
}

TEST(CappingManagerJobIndex, LevelResetRefreshesPerJobSaving) {
  Rig rig(2);
  rig.load(0.8);
  rig.run_job(1, 24);  // nodes 0,1
  ZoneTreeManager m = test::one_zone(quiet_params(), "mpc");
  m.set_candidate_set({0, 1});

  m.cycle(Watts{100.0}, rig.nodes, rig.scheduler, Seconds{1.0});
  PolicyContext ctx;
  m.zone(0).build_context_into(ctx, rig.nodes, rig.scheduler);
  ASSERT_EQ(ctx.jobs.size(), 1u);
  const Watts saving_before = ctx.jobs[0].saving_one_level;
  ASSERT_GT(saving_before, Watts{0.0});

  // The node "reboots" to a throttled firmware state: its level drops
  // outside the manager's control. The next collected sample must flow
  // through the index into a refreshed per-job saving — nothing about the
  // old level may stick in a cache.
  rig.nodes[0].set_level(3);
  rig.nodes[1].set_level(3);
  m.cycle(Watts{100.0}, rig.nodes, rig.scheduler, Seconds{2.0});
  m.zone(0).build_context_into(ctx, rig.nodes, rig.scheduler);
  ASSERT_EQ(ctx.jobs.size(), 1u);
  EXPECT_NE(ctx.jobs[0].saving_one_level, saving_before);

  // Internal consistency: the job saving is exactly the sum over its
  // throttleable views at the *new* level.
  Watts expect{0.0};
  for (const hw::NodeId id : ctx.jobs[0].nodes) {
    const NodeView* nv = ctx.node(id);
    ASSERT_NE(nv, nullptr);
    EXPECT_EQ(nv->level, 3);
    expect += nv->power - nv->power_one_level_down;
  }
  EXPECT_EQ(ctx.jobs[0].saving_one_level, expect);
}

}  // namespace
}  // namespace pcap::power
