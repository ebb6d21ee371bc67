#include "sched/scheduler.hpp"

#include <gtest/gtest.h>

#include "workload/npb.hpp"

namespace pcap::sched {
namespace {

using workload::Job;
using workload::JobState;

Scheduler make_sched(int nodes = 8, SchedulerOptions opts = {}) {
  return Scheduler(std::vector<int>(static_cast<std::size_t>(nodes), 12),
                   opts, common::Rng(1));
}

// Nodes no running job occupies.
std::size_t free_nodes(const Scheduler& s) {
  std::size_t free = 0;
  for (int n = 0; n < s.total_nodes(); ++n) {
    if (!s.job_on_node(static_cast<hw::NodeId>(n))) ++free;
  }
  return free;
}

Job make_job(workload::JobId id, int nprocs) {
  return Job(id, workload::npb_by_name("ep", workload::NpbClass::kC), nprocs,
             Seconds{0.0});
}

TEST(Scheduler, SubmitQueues) {
  Scheduler s = make_sched();
  s.submit(make_job(1, 12));
  EXPECT_EQ(s.queue_length(), 1u);
  EXPECT_EQ(s.running_count(), 0u);
  EXPECT_EQ(free_nodes(s), 8u);
}

TEST(Scheduler, LaunchAllocatesNodes) {
  Scheduler s = make_sched();
  s.submit(make_job(1, 24));
  const auto started = s.try_launch(Seconds{5.0});
  ASSERT_EQ(started.size(), 1u);
  EXPECT_EQ(s.running_count(), 1u);
  EXPECT_EQ(s.queue_length(), 0u);
  EXPECT_EQ(free_nodes(s), 6u);
  const Job* j = s.find(1);
  ASSERT_NE(j, nullptr);
  EXPECT_EQ(j->state(), JobState::kRunning);
  EXPECT_EQ(j->start_time(), Seconds{5.0});
}

TEST(Scheduler, LaunchGateCountsExactlyTheFreeNodes) {
  // Two of eight nodes taken leave six free. A job exactly six nodes wide
  // launches; one a node wider waits until the first job releases its two.
  Scheduler exact = make_sched(8);
  exact.submit(make_job(1, 24));
  exact.try_launch(Seconds{0.0});
  exact.submit(make_job(2, 6 * 12));
  EXPECT_EQ(exact.try_launch(Seconds{1.0}).size(), 1u);
  EXPECT_EQ(free_nodes(exact), 0u);

  Scheduler wide = make_sched(8);
  wide.submit(make_job(1, 24));
  wide.try_launch(Seconds{0.0});
  wide.submit(make_job(2, 6 * 12 + 1));
  EXPECT_TRUE(wide.try_launch(Seconds{1.0}).empty());
  Job* j = wide.find(1);
  double t = 0.0;
  while (j->state() == JobState::kRunning) {
    t += 60.0;
    j->advance(Seconds{60.0}, 1.0, Seconds{t});
  }
  wide.on_job_finished(1);
  const auto started = wide.try_launch(Seconds{t});
  ASSERT_EQ(started.size(), 1u);
  EXPECT_EQ(started[0], 2u);
  EXPECT_EQ(free_nodes(wide), 1u);
}

TEST(Scheduler, JobOnNodeTracksOwnership) {
  Scheduler s = make_sched();
  s.submit(make_job(1, 24));
  s.try_launch(Seconds{0.0});
  EXPECT_EQ(s.job_on_node(0), std::optional<workload::JobId>(1));
  EXPECT_EQ(s.job_on_node(1), std::optional<workload::JobId>(1));
  EXPECT_EQ(s.job_on_node(2), std::nullopt);
  EXPECT_EQ(s.job_on_node(99), std::nullopt);
}

TEST(Scheduler, FcfsBlocksBehindWideJob) {
  Scheduler s = make_sched(8);
  s.submit(make_job(1, 8 * 12));   // whole machine
  s.submit(make_job(2, 12));       // would fit, but FCFS blocks it
  s.try_launch(Seconds{0.0});
  EXPECT_EQ(s.running_count(), 1u);
  s.submit(make_job(3, 12));
  EXPECT_EQ(s.try_launch(Seconds{1.0}).size(), 0u);
  EXPECT_EQ(s.queue_length(), 2u);
}

TEST(Scheduler, BackfillJumpsBlockedHead) {
  SchedulerOptions opts;
  opts.backfill = true;
  Scheduler s = make_sched(8, opts);
  s.submit(make_job(1, 7 * 12));  // 7 nodes
  s.try_launch(Seconds{0.0});
  s.submit(make_job(2, 7 * 12));  // blocked: only 1 node free
  s.submit(make_job(3, 12));      // fits on the free node
  const auto started = s.try_launch(Seconds{1.0});
  ASSERT_EQ(started.size(), 1u);
  EXPECT_EQ(started[0], 3u);
}

TEST(Scheduler, FinishReleasesNodes) {
  Scheduler s = make_sched();
  s.submit(make_job(1, 24));
  s.try_launch(Seconds{0.0});
  Job* j = s.find(1);
  // Drive to completion.
  double t = 0.0;
  while (j->state() == JobState::kRunning) {
    t += 60.0;
    j->advance(Seconds{60.0}, 1.0, Seconds{t});
  }
  s.on_job_finished(1);
  EXPECT_EQ(s.running_count(), 0u);
  EXPECT_EQ(s.finished_count(), 1u);
  EXPECT_EQ(free_nodes(s), 8u);
  EXPECT_EQ(s.job_on_node(0), std::nullopt);
}

TEST(Scheduler, OnJobFinishedRequiresFinishedState) {
  Scheduler s = make_sched();
  s.submit(make_job(1, 12));
  s.try_launch(Seconds{0.0});
  EXPECT_THROW(s.on_job_finished(1), std::logic_error);
}

TEST(Scheduler, DuplicateIdThrows) {
  Scheduler s = make_sched();
  s.submit(make_job(1, 12));
  EXPECT_THROW(s.submit(make_job(1, 12)), std::invalid_argument);
}

TEST(Scheduler, TooWideJobThrows) {
  Scheduler s = make_sched(2);
  EXPECT_THROW(s.submit(make_job(1, 25)), std::invalid_argument);
}

TEST(Scheduler, TooWideUnderRankCapThrows) {
  SchedulerOptions opts;
  opts.max_procs_per_node = 2;
  Scheduler s = make_sched(4, opts);
  EXPECT_EQ(s.max_job_width(), 8);
  EXPECT_THROW(s.submit(make_job(1, 9)), std::invalid_argument);
  s.submit(make_job(2, 8));
  s.try_launch(Seconds{0.0});
  EXPECT_EQ(free_nodes(s), 0u);  // 8 procs spread 2 per node
}

TEST(Scheduler, TotalsAndWidth) {
  Scheduler s = make_sched(8);
  EXPECT_EQ(s.total_nodes(), 8);
  EXPECT_EQ(s.max_job_width(), 96);
}

TEST(Scheduler, FindUnknownReturnsNull) {
  Scheduler s = make_sched();
  EXPECT_EQ(s.find(99), nullptr);
}

TEST(Scheduler, EmptyClusterThrows) {
  EXPECT_THROW(Scheduler({}, {}, common::Rng(1)), std::invalid_argument);
  EXPECT_THROW(Scheduler({0}, {}, common::Rng(1)), std::invalid_argument);
}

TEST(Scheduler, ManyJobsLaunchInFcfsOrder) {
  Scheduler s = make_sched(8);
  for (workload::JobId id = 1; id <= 4; ++id) {
    s.submit(make_job(id, 24));  // 2 nodes each
  }
  const auto started = s.try_launch(Seconds{0.0});
  ASSERT_EQ(started.size(), 4u);
  EXPECT_EQ(started, (std::vector<workload::JobId>{1, 2, 3, 4}));
  EXPECT_EQ(free_nodes(s), 0u);
}

TEST(Scheduler, SubmittedNonQueuedJobThrows) {
  Scheduler s = make_sched();
  Job j = make_job(1, 12);
  j.start({0}, {12}, Seconds{0.0});
  EXPECT_THROW(s.submit(std::move(j)), std::invalid_argument);
}

// Conservation property: across a random submit/advance/finish workload,
// nodes owned by running jobs + free nodes always equals the machine.
class SchedulerConservation : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerConservation, NodeAccountingAlwaysConsistent) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31);
  Scheduler s = make_sched(16);
  workload::JobId next_id = 1;
  double t = 0.0;
  for (int step = 0; step < 300; ++step) {
    t += 30.0;
    if (s.queue_length() == 0) {
      const int nprocs = static_cast<int>(rng.uniform_int(1, 96));
      s.submit(make_job(next_id++, nprocs));
    }
    s.try_launch(Seconds{t});
    // Advance running jobs and retire finished ones.
    std::vector<workload::JobId> done;
    for (const auto id : s.running_jobs()) {
      if (s.find(id)->advance(Seconds{30.0}, 1.0, Seconds{t})) {
        done.push_back(id);
      }
    }
    for (const auto id : done) s.on_job_finished(id);

    // Invariant: every node is either free or owned by exactly one
    // running job.
    std::size_t owned = 0;
    for (int n = 0; n < s.total_nodes(); ++n) {
      const auto owner = s.job_on_node(static_cast<hw::NodeId>(n));
      if (!owner) continue;
      ++owned;
      const Job* j = s.find(*owner);
      ASSERT_NE(j, nullptr);
      ASSERT_EQ(j->state(), JobState::kRunning);
    }
    std::size_t placed = 0;
    for (const auto id : s.running_jobs()) placed += s.find(id)->nodes().size();
    ASSERT_EQ(owned, placed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerConservation, ::testing::Range(1, 7));

}  // namespace
}  // namespace pcap::sched
