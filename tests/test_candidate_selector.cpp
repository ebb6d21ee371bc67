#include "power/candidate_selector.hpp"

#include <gtest/gtest.h>

#include "hw/node_spec.hpp"
#include "workload/job_generator.hpp"
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

  void run_job(workload::JobId id, int nprocs,
               workload::JobPriority prio = workload::JobPriority::kNormal) {
    scheduler.submit(workload::Job(
        id, workload::npb_by_name("ep", workload::NpbClass::kC), nprocs,
        Seconds{0.0}, prio));
    scheduler.try_launch(Seconds{0.0});
  }
};

TEST(CandidateSelector, AllControllableByDefault) {
  Rig rig(6);
  CandidateSelector sel(CandidateSelectorParams{});
  const auto ids = sel.select(rig.nodes, rig.scheduler);
  EXPECT_EQ(ids.size(), 6u);
}

TEST(CandidateSelector, SkipsUncontrollableNodes) {
  Rig rig(4);
  rig.nodes[1] = hw::Node(1, hw::uncontrollable_node_spec());
  rig.nodes[3] = hw::Node(3, hw::uncontrollable_node_spec());
  CandidateSelector sel(CandidateSelectorParams{});
  EXPECT_EQ(sel.select(rig.nodes, rig.scheduler),
            (std::vector<hw::NodeId>{0, 2}));
}

TEST(CandidateSelector, ExcludesPrivilegedJobNodes) {
  Rig rig(6);
  rig.run_job(1, 24, workload::JobPriority::kPrivileged);  // nodes 0, 1
  rig.run_job(2, 24);                                      // nodes 2, 3
  CandidateSelector sel(CandidateSelectorParams{});
  EXPECT_EQ(sel.select(rig.nodes, rig.scheduler),
            (std::vector<hw::NodeId>{2, 3, 4, 5}));
}

TEST(CandidateSelector, PrivilegedExclusionCanBeDisabled) {
  Rig rig(4);
  rig.run_job(1, 24, workload::JobPriority::kPrivileged);
  CandidateSelectorParams p;
  p.exclude_privileged = false;
  CandidateSelector sel(p);
  EXPECT_EQ(sel.select(rig.nodes, rig.scheduler).size(), 4u);
}

TEST(CandidateSelector, NodesReturnAfterPrivilegedJobFinishes) {
  Rig rig(4);
  rig.run_job(1, 24, workload::JobPriority::kPrivileged);
  CandidateSelector sel(CandidateSelectorParams{});
  EXPECT_EQ(sel.select(rig.nodes, rig.scheduler).size(), 2u);

  workload::Job* job = rig.scheduler.find(1);
  double t = 0.0;
  while (job->state() == workload::JobState::kRunning) {
    t += 600.0;
    job->advance(Seconds{600.0}, 1.0, Seconds{t});
  }
  rig.scheduler.on_job_finished(1);
  EXPECT_EQ(sel.select(rig.nodes, rig.scheduler).size(), 4u);
}

TEST(CandidateSelector, MaxCandidatesTruncatesLowestIdsFirst) {
  Rig rig(8);
  CandidateSelectorParams p;
  p.max_candidates = 3;
  CandidateSelector sel(p);
  EXPECT_EQ(sel.select(rig.nodes, rig.scheduler),
            (std::vector<hw::NodeId>{0, 1, 2}));
}

TEST(CandidateSelector, DueFiresImmediatelyThenPeriodically) {
  CandidateSelectorParams p;
  p.reselect_period_cycles = 3;
  CandidateSelector sel(p);
  EXPECT_TRUE(sel.due());   // first call always selects
  EXPECT_FALSE(sel.due());  // 1
  EXPECT_FALSE(sel.due());  // 2
  EXPECT_TRUE(sel.due());   // 3 -> due
  EXPECT_FALSE(sel.due());
}

TEST(CandidateSelector, BadPeriodThrows) {
  CandidateSelectorParams p;
  p.reselect_period_cycles = 0;
  EXPECT_THROW(CandidateSelector{p}, std::invalid_argument);
}

TEST(JobPriority, GeneratorHonoursFraction) {
  auto gen = workload::JobGenerator::paper_default(
      common::Rng(5), 0, workload::NpbClass::kC, 0.3);
  int privileged = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (gen.draw().priority == workload::JobPriority::kPrivileged) {
      ++privileged;
    }
  }
  EXPECT_NEAR(static_cast<double>(privileged) / n, 0.3, 0.02);
}

TEST(JobPriority, ZeroFractionNeverPrivileged) {
  auto gen = workload::JobGenerator::paper_default(
      common::Rng(5), 0, workload::NpbClass::kC, 0.0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(gen.draw().priority, workload::JobPriority::kNormal);
  }
}

TEST(JobPriority, BadFractionThrows) {
  EXPECT_THROW(workload::JobGenerator::paper_default(
                   common::Rng(1), 0, workload::NpbClass::kC, 1.5),
               std::invalid_argument);
}

}  // namespace
}  // namespace pcap::power
