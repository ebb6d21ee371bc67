#include "workload/app_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace pcap::workload {
namespace {

AppModel two_phase_app() {
  AppModel m;
  m.name = "toy";
  m.iteration = {
      Phase{.name = "hot",
            .cpu_utilization = 0.9,
            .frequency_sensitivity = 0.8,
            .mem_fraction = 0.3,
            .comm_bytes_per_proc_per_s = 0.0,
            .seconds_per_iteration = 30.0},
      Phase{.name = "cold",
            .cpu_utilization = 0.3,
            .frequency_sensitivity = 0.2,
            .mem_fraction = 0.3,
            .comm_bytes_per_proc_per_s = 1e7,
            .seconds_per_iteration = 10.0},
  };
  m.reference_duration_s = 600.0;
  m.reference_nprocs = 64;
  m.scaling_alpha = 0.9;
  return m;
}

TEST(AppModel, IterationSeconds) {
  EXPECT_DOUBLE_EQ(two_phase_app().iteration_seconds(), 40.0);
}

TEST(AppModel, DurationAtReference) {
  EXPECT_DOUBLE_EQ(two_phase_app().duration_at(64), 600.0);
}

TEST(AppModel, StrongScalingShrinksWithProcs) {
  const AppModel m = two_phase_app();
  EXPECT_GT(m.duration_at(8), m.duration_at(64));
  EXPECT_GT(m.duration_at(64), m.duration_at(256));
  // alpha = 0.9: quadrupling procs gives 4^0.9 speedup.
  EXPECT_NEAR(m.duration_at(16) / m.duration_at(64), std::pow(4.0, 0.9),
              1e-9);
}

TEST(AppModel, DurationAtRejectsBadProcs) {
  EXPECT_THROW((void)two_phase_app().duration_at(0), std::invalid_argument);
  EXPECT_THROW((void)two_phase_app().duration_at(-8), std::invalid_argument);
}

TEST(AppModel, PhaseAtWalksTheIteration) {
  const AppModel m = two_phase_app();
  EXPECT_EQ(m.phase_at(0.0).name, "hot");
  EXPECT_EQ(m.phase_at(29.9).name, "hot");
  EXPECT_EQ(m.phase_at(30.0).name, "cold");
  EXPECT_EQ(m.phase_at(39.9).name, "cold");
}

TEST(AppModel, PhaseAtCycles) {
  const AppModel m = two_phase_app();
  EXPECT_EQ(m.phase_at(40.0).name, "hot");  // second iteration
  EXPECT_EQ(m.phase_at(75.0).name, "cold");
  EXPECT_EQ(m.phase_at(4000.0).name, m.phase_at(0.0).name);
}

TEST(AppModel, PhaseAtNegativeClampsToStart) {
  EXPECT_EQ(two_phase_app().phase_at(-5.0).name, "hot");
}

TEST(AppModel, PrologueRunsOnceThenIterates) {
  AppModel m = two_phase_app();
  m.prologue = {Phase{.name = "init",
                      .cpu_utilization = 0.2,
                      .frequency_sensitivity = 0.4,
                      .mem_fraction = 0.1,
                      .comm_bytes_per_proc_per_s = 0.0,
                      .seconds_per_iteration = 50.0}};
  EXPECT_EQ(m.phase_at(0.0).name, "init");
  EXPECT_EQ(m.phase_at(49.9).name, "init");
  EXPECT_EQ(m.phase_at(50.0).name, "hot");
  EXPECT_EQ(m.phase_at(80.0).name, "cold");
  EXPECT_EQ(m.phase_at(90.0).name, "hot");  // cycling excludes the prologue
}

TEST(AppModel, ValidateAcceptsGoodModel) {
  EXPECT_NO_THROW(two_phase_app().validate());
}

TEST(AppModel, ValidateRejectsBadModels) {
  AppModel m = two_phase_app();
  m.name = "";
  EXPECT_THROW(m.validate(), std::invalid_argument);

  m = two_phase_app();
  m.iteration.clear();
  EXPECT_THROW(m.validate(), std::invalid_argument);

  m = two_phase_app();
  m.reference_duration_s = 0.0;
  EXPECT_THROW(m.validate(), std::invalid_argument);

  m = two_phase_app();
  m.reference_nprocs = 0;
  EXPECT_THROW(m.validate(), std::invalid_argument);

  m = two_phase_app();
  m.scaling_alpha = 2.0;
  EXPECT_THROW(m.validate(), std::invalid_argument);

  m = two_phase_app();
  m.iteration[0].cpu_utilization = 3.0;
  EXPECT_THROW(m.validate(), std::invalid_argument);

  m = two_phase_app();
  Phase bad;
  bad.cpu_utilization = -1.0;
  m.prologue = {bad};
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(AppModel, PhaseAtWithNoPhasesThrows) {
  AppModel m;
  m.name = "empty";
  EXPECT_THROW((void)m.phase_at(0.0), std::logic_error);
}

}  // namespace
}  // namespace pcap::workload
