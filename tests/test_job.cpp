#include "workload/job.hpp"

#include <gtest/gtest.h>

#include "workload/npb.hpp"

namespace pcap::workload {
namespace {

Job make_job(int nprocs = 24) {
  return Job(1, npb_by_name("lu", NpbClass::kC), nprocs, Seconds{100.0});
}

TEST(Job, StartsQueued) {
  const Job j = make_job();
  EXPECT_EQ(j.state(), JobState::kQueued);
  EXPECT_EQ(j.id(), 1u);
  EXPECT_EQ(j.nprocs(), 24);
  EXPECT_EQ(j.submit_time(), Seconds{100.0});
}

TEST(Job, BaselineDurationMatchesAppModel) {
  const Job j = make_job(64);
  EXPECT_DOUBLE_EQ(j.baseline_duration().value(),
                   npb_by_name("lu", NpbClass::kC).duration_at(64));
}

TEST(Job, RejectsNonPositiveProcs) {
  EXPECT_THROW(Job(1, npb_by_name("ep"), 0, Seconds{0.0}),
               std::invalid_argument);
}

TEST(Job, StartTransitionsToRunning) {
  Job j = make_job(24);
  j.start({0, 1}, {12, 12}, Seconds{150.0});
  EXPECT_EQ(j.state(), JobState::kRunning);
  EXPECT_EQ(j.start_time(), Seconds{150.0});
  EXPECT_EQ(j.nodes().size(), 2u);
  EXPECT_EQ(j.placement(), (std::vector<int>{12, 12}));
}

TEST(Job, StartValidatesPlacement) {
  Job j = make_job(24);
  EXPECT_THROW(j.start({}, {}, Seconds{0.0}), std::invalid_argument);
  EXPECT_THROW(j.start({0}, {12, 12}, Seconds{0.0}), std::invalid_argument);
  EXPECT_THROW(j.start({0, 1}, {12, 11}, Seconds{0.0}),
               std::invalid_argument);  // covers 23, not 24
  EXPECT_THROW(j.start({0, 1}, {24, 0}, Seconds{0.0}), std::invalid_argument);
}

TEST(Job, DoubleStartThrows) {
  Job j = make_job(12);
  j.start({0}, {12}, Seconds{0.0});
  EXPECT_THROW(j.start({1}, {12}, Seconds{1.0}), std::logic_error);
}

TEST(Job, AdvanceAccumulatesProgress) {
  Job j = make_job(12);
  j.start({0}, {12}, Seconds{0.0});
  EXPECT_FALSE(j.advance(Seconds{10.0}, 1.0, Seconds{10.0}));
  EXPECT_DOUBLE_EQ(j.progress_seconds(), 10.0);
  EXPECT_FALSE(j.advance(Seconds{10.0}, 0.5, Seconds{20.0}));
  EXPECT_DOUBLE_EQ(j.progress_seconds(), 15.0);
}

TEST(Job, AdvanceWithoutStartThrows) {
  Job j = make_job(12);
  EXPECT_THROW(j.advance(Seconds{1.0}, 1.0, Seconds{1.0}), std::logic_error);
}

TEST(Job, NegativeAdvanceThrows) {
  Job j = make_job(12);
  j.start({0}, {12}, Seconds{0.0});
  EXPECT_THROW(j.advance(Seconds{-1.0}, 1.0, Seconds{0.0}),
               std::invalid_argument);
  EXPECT_THROW(j.advance(Seconds{1.0}, -0.1, Seconds{1.0}),
               std::invalid_argument);
}

TEST(Job, FinishesExactlyAtFullSpeed) {
  Job j = make_job(12);
  const double dur = j.baseline_duration().value();
  j.start({0}, {12}, Seconds{0.0});
  double t = 0.0;
  bool done = false;
  while (!done) {
    t += 1.0;
    done = j.advance(Seconds{1.0}, 1.0, Seconds{t});
  }
  EXPECT_EQ(j.state(), JobState::kFinished);
  EXPECT_NEAR(j.actual_duration().value(), dur, 1.0 + 1e-9);
}

TEST(Job, FinishTimeInterpolatesWithinStep) {
  Job j = make_job(12);
  const double dur = j.baseline_duration().value();
  j.start({0}, {12}, Seconds{0.0});
  // One huge step: the interpolated finish time lands exactly at dur.
  EXPECT_TRUE(j.advance(Seconds{dur * 2.0}, 1.0, Seconds{dur * 2.0}));
  EXPECT_NEAR(j.finish_time().value(), dur, 1e-6);
  EXPECT_NEAR(j.actual_duration().value(), dur, 1e-6);
}

TEST(Job, ThrottledJobTakesLonger) {
  Job a = make_job(12);
  Job b = make_job(12);
  a.start({0}, {12}, Seconds{0.0});
  b.start({1}, {12}, Seconds{0.0});
  double t = 0.0;
  bool a_done = false;
  bool b_done = false;
  double a_finish = 0.0;
  double b_finish = 0.0;
  while (!a_done || !b_done) {
    t += 1.0;
    if (!a_done && a.advance(Seconds{1.0}, 1.0, Seconds{t})) {
      a_done = true;
      a_finish = a.finish_time().value();
    }
    if (!b_done && b.advance(Seconds{1.0}, 0.8, Seconds{t})) {
      b_done = true;
      b_finish = b.finish_time().value();
    }
  }
  EXPECT_GT(b_finish, a_finish);
  EXPECT_NEAR(b_finish / a_finish, 1.0 / 0.8, 0.01);
}

TEST(Job, CurrentPhaseFollowsProgress) {
  Job j(7, npb_by_name("lu", NpbClass::kD), 12, Seconds{0.0});
  j.start({0}, {12}, Seconds{0.0});
  EXPECT_EQ(j.current_phase().name, "setbv+setiv");  // prologue
  // Push through the prologue.
  j.advance(Seconds{95.0}, 1.0, Seconds{95.0});
  EXPECT_EQ(j.current_phase().name, "ssor-sweep");
}

TEST(Job, ActualDurationBeforeFinishThrows) {
  Job j = make_job(12);
  EXPECT_THROW((void)j.actual_duration(), std::logic_error);
  j.start({0}, {12}, Seconds{0.0});
  EXPECT_THROW((void)j.actual_duration(), std::logic_error);
}

}  // namespace
}  // namespace pcap::workload
