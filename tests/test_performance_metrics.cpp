#include "metrics/performance.hpp"

#include <gtest/gtest.h>

#include "workload/npb.hpp"

namespace pcap::metrics {
namespace {

JobRecord rec(double baseline, double actual) {
  JobRecord r;
  r.baseline_s = baseline;
  r.actual_s = actual;
  return r;
}

TEST(JobRecord, SpeedRatioAndSlowdown) {
  const JobRecord r = rec(100.0, 125.0);
  EXPECT_DOUBLE_EQ(r.speed_ratio(), 0.8);
  EXPECT_DOUBLE_EQ(r.slowdown_percent(), 25.0);
}

TEST(JobRecord, LosslessJobScoresOne) {
  const JobRecord r = rec(100.0, 100.0);
  EXPECT_DOUBLE_EQ(r.speed_ratio(), 1.0);
  EXPECT_DOUBLE_EQ(r.slowdown_percent(), 0.0);
}

TEST(MakeRecord, FromFinishedJob) {
  workload::Job j(7, workload::npb_by_name("ep", workload::NpbClass::kC), 12,
                  Seconds{0.0});
  j.start({0}, {12}, Seconds{10.0});
  j.advance(Seconds{1e9}, 1.0, Seconds{1e9 + 10.0});
  const JobRecord r = make_record(j);
  EXPECT_EQ(r.id, 7u);
  EXPECT_EQ(r.app, "EP");
  EXPECT_EQ(r.nprocs, 12);
  EXPECT_NEAR(r.actual_s, r.baseline_s, 1e-6);
}

TEST(MakeRecord, UnfinishedThrows) {
  workload::Job j(7, workload::npb_by_name("ep", workload::NpbClass::kC), 12,
                  Seconds{0.0});
  EXPECT_THROW(make_record(j), std::invalid_argument);
}

TEST(Summary, EmptyIsIdentity) {
  const PerformanceSummary s = summarize_performance({});
  EXPECT_EQ(s.finished_jobs, 0u);
  EXPECT_DOUBLE_EQ(s.performance, 1.0);
  EXPECT_EQ(s.lossless_jobs, 0u);
}

TEST(Summary, PaperFormula) {
  // Performance(cap) = mean of T_j / T_cap,j.
  const std::vector<JobRecord> jobs = {rec(100.0, 100.0), rec(100.0, 125.0)};
  const PerformanceSummary s = summarize_performance(jobs);
  EXPECT_DOUBLE_EQ(s.performance, (1.0 + 0.8) / 2.0);
  EXPECT_EQ(s.finished_jobs, 2u);
}

TEST(Summary, CpljCountsWithinTolerance) {
  const std::vector<JobRecord> jobs = {
      rec(100.0, 100.0),   // exact
      rec(100.0, 100.4),   // within default 0.5%
      rec(100.0, 101.0),   // outside
  };
  const PerformanceSummary s = summarize_performance(jobs);
  EXPECT_EQ(s.lossless_jobs, 2u);
  EXPECT_NEAR(s.lossless_fraction, 2.0 / 3.0, 1e-12);
}

TEST(Summary, CustomTolerance) {
  const std::vector<JobRecord> jobs = {rec(100.0, 101.0)};
  EXPECT_EQ(summarize_performance(jobs, 0.02).lossless_jobs, 1u);
  EXPECT_EQ(summarize_performance(jobs, 0.0).lossless_jobs, 0u);
}

TEST(Summary, NegativeToleranceThrows) {
  EXPECT_THROW(summarize_performance({}, -0.1), std::invalid_argument);
}

TEST(Summary, SlowdownStatistics) {
  const std::vector<JobRecord> jobs = {rec(100.0, 110.0), rec(100.0, 130.0)};
  const PerformanceSummary s = summarize_performance(jobs);
  EXPECT_DOUBLE_EQ(s.mean_slowdown_percent, 20.0);
  EXPECT_DOUBLE_EQ(s.worst_slowdown_percent, 30.0);
}

TEST(SummarizeByApp, GroupsAndAverages) {
  JobRecord a = rec(100.0, 110.0);
  a.app = "EP";
  a.energy_j = 200.0;
  JobRecord b = rec(100.0, 130.0);
  b.app = "EP";
  b.energy_j = 400.0;
  JobRecord c = rec(50.0, 50.0);
  c.app = "CG";
  c.energy_j = 100.0;

  const auto by_app = summarize_by_app({a, b, c});
  ASSERT_EQ(by_app.size(), 2u);
  // Sorted by name: CG first.
  EXPECT_EQ(by_app[0].app, "CG");
  EXPECT_EQ(by_app[0].jobs, 1u);
  EXPECT_DOUBLE_EQ(by_app[0].mean_energy_j, 100.0);
  EXPECT_EQ(by_app[1].app, "EP");
  EXPECT_EQ(by_app[1].jobs, 2u);
  EXPECT_DOUBLE_EQ(by_app[1].mean_energy_j, 300.0);
  EXPECT_DOUBLE_EQ(by_app[1].mean_duration_s, 120.0);
  EXPECT_DOUBLE_EQ(by_app[1].mean_slowdown_percent, 20.0);
}

TEST(SummarizeByApp, EmptyInput) {
  EXPECT_TRUE(summarize_by_app({}).empty());
}

TEST(Summary, ZeroDurationJobCountsAsLossless) {
  // Regression: a job whose capped duration interpolated to 0 within one
  // tick used to contribute speed_ratio() == 0, dragging Performance(cap)
  // toward 0 for a job that lost nothing. It now counts as ratio 1.
  const std::vector<JobRecord> jobs = {rec(100.0, 0.0), rec(100.0, 100.0)};
  const PerformanceSummary s = summarize_performance(jobs);
  EXPECT_DOUBLE_EQ(s.performance, 1.0);
  EXPECT_EQ(s.lossless_jobs, 2u);
  EXPECT_EQ(s.zero_duration_jobs, 1u);
  EXPECT_DOUBLE_EQ(s.mean_slowdown_percent, 0.0);
}

TEST(Summary, NegativeDurationTreatedAsZero) {
  const std::vector<JobRecord> jobs = {rec(100.0, -1.0)};
  const PerformanceSummary s = summarize_performance(jobs);
  EXPECT_DOUBLE_EQ(s.performance, 1.0);
  EXPECT_EQ(s.zero_duration_jobs, 1u);
}

TEST(SummarizeByApp, ZeroDurationJobDoesNotPoisonMeans) {
  // The by-app aggregation accumulates locally and divides once; a
  // degenerate record only affects its own contribution.
  JobRecord a = rec(100.0, 0.0);
  a.app = "EP";
  a.energy_j = 0.0;
  JobRecord b = rec(100.0, 100.0);
  b.app = "EP";
  b.energy_j = 300.0;
  const auto by_app = summarize_by_app({a, b});
  ASSERT_EQ(by_app.size(), 1u);
  EXPECT_EQ(by_app[0].jobs, 2u);
  EXPECT_DOUBLE_EQ(by_app[0].mean_energy_j, 150.0);
  EXPECT_DOUBLE_EQ(by_app[0].mean_duration_s, 50.0);
}

TEST(Summary, UncappedRunScoresPerfectly) {
  std::vector<JobRecord> jobs;
  for (int i = 0; i < 10; ++i) jobs.push_back(rec(50.0 + i, 50.0 + i));
  const PerformanceSummary s = summarize_performance(jobs);
  EXPECT_DOUBLE_EQ(s.performance, 1.0);
  EXPECT_EQ(s.lossless_jobs, 10u);
  EXPECT_DOUBLE_EQ(s.lossless_fraction, 1.0);
}

}  // namespace
}  // namespace pcap::metrics
