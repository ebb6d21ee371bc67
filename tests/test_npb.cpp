#include "workload/npb.hpp"

#include <gtest/gtest.h>

namespace pcap::workload {
namespace {

TEST(Npb, SuiteHasFiveBenchmarksInPaperOrder) {
  const auto suite = npb_suite();
  ASSERT_EQ(suite.size(), 5u);
  EXPECT_EQ(suite[0].name, "EP");
  EXPECT_EQ(suite[1].name, "CG");
  EXPECT_EQ(suite[2].name, "LU");
  EXPECT_EQ(suite[3].name, "BT");
  EXPECT_EQ(suite[4].name, "SP");
}

TEST(Npb, AllModelsValidate) {
  for (const auto& m : npb_suite(NpbClass::kD)) {
    EXPECT_NO_THROW(m.validate()) << m.name;
  }
  for (const auto& m : npb_suite(NpbClass::kC)) {
    EXPECT_NO_THROW(m.validate()) << m.name;
  }
}

TEST(Npb, NprocsChoicesMatchPaper) {
  EXPECT_EQ(npb_nprocs_choices(), (std::vector<int>{8, 16, 32, 64, 128, 256}));
}

TEST(Npb, ByNameCaseInsensitive) {
  EXPECT_EQ(npb_by_name("ep").name, "EP");
  EXPECT_EQ(npb_by_name("EP").name, "EP");
  EXPECT_EQ(npb_by_name("Cg").name, "CG");
  EXPECT_EQ(npb_by_name("LU").name, "LU");
  EXPECT_EQ(npb_by_name("bt").name, "BT");
  EXPECT_EQ(npb_by_name("sp").name, "SP");
}

TEST(Npb, ByNameUnknownThrows) {
  EXPECT_THROW(npb_by_name("dt"), std::invalid_argument);
  EXPECT_THROW(npb_by_name(""), std::invalid_argument);
}

TEST(Npb, ClassCIsSmallerThanClassD) {
  const AppModel d = make_lu(NpbClass::kD);
  const AppModel c = make_lu(NpbClass::kC);
  EXPECT_GT(d.reference_duration_s, c.reference_duration_s);
  EXPECT_NEAR(c.reference_duration_s / d.reference_duration_s, 1.0 / 16.0,
              1e-12);
}

TEST(Npb, EpIsMostFrequencySensitive) {
  // The compute-boundedness ordering that makes DVFS hurt EP most: the
  // dominant (longest) phase of EP has the highest sensitivity, CG the
  // lowest.
  const auto dominant = [](const AppModel& m) {
    const Phase* best = &m.iteration.front();
    for (const Phase& p : m.iteration) {
      if (p.seconds_per_iteration > best->seconds_per_iteration) best = &p;
    }
    return best->frequency_sensitivity;
  };
  const double ep = dominant(make_ep());
  const double lu = dominant(make_lu());
  const double bt = dominant(make_bt());
  const double sp = dominant(make_sp());
  const double cg = dominant(make_cg());
  EXPECT_GT(ep, lu);
  EXPECT_GT(lu, bt);
  EXPECT_GT(bt, sp);
  EXPECT_GT(sp, cg);
}

TEST(Npb, EpHasHighestMeanUtilization) {
  // Time-weighted CPU utilisation over one iteration.
  const auto mean_cpu = [](const AppModel& m) {
    double weighted = 0.0;
    for (const Phase& p : m.iteration) {
      weighted += p.cpu_utilization * p.seconds_per_iteration;
    }
    return weighted / m.iteration_seconds();
  };
  const double ep = mean_cpu(make_ep());
  for (const auto& m : {make_cg(), make_lu(), make_bt(), make_sp()}) {
    EXPECT_GT(ep, mean_cpu(m)) << m.name;
  }
}

TEST(Npb, CgIsMemoryHeavy) {
  const AppModel cg = make_cg();
  for (const Phase& p : cg.iteration) {
    EXPECT_GE(p.mem_fraction, 0.5);
  }
}

TEST(Npb, EpBarelyCommunicates) {
  const AppModel ep = make_ep();
  // The dominant compute phase of EP has negligible traffic.
  EXPECT_LT(ep.iteration[0].comm_bytes_per_proc_per_s, 1e5);
}

TEST(Npb, AllHavePrologues) {
  for (const auto& m : npb_suite()) {
    EXPECT_FALSE(m.prologue.empty()) << m.name;
    EXPECT_GT(m.prologue[0].seconds_per_iteration, 0.0) << m.name;
    // Start-up is cool: well below the dominant phase's utilisation.
    EXPECT_LT(m.prologue[0].cpu_utilization, 0.5) << m.name;
  }
}

TEST(Npb, ScalingAlphasAreSane) {
  for (const auto& m : npb_suite()) {
    EXPECT_GT(m.scaling_alpha, 0.5) << m.name;
    EXPECT_LE(m.scaling_alpha, 1.0) << m.name;
  }
  // EP scales best (embarrassingly parallel), CG worst.
  EXPECT_GT(make_ep().scaling_alpha, make_cg().scaling_alpha);
}

TEST(NpbExtended, SuiteAddsThreeKernels) {
  const auto suite = npb_extended_suite();
  ASSERT_EQ(suite.size(), 8u);
  EXPECT_EQ(suite[5].name, "MG");
  EXPECT_EQ(suite[6].name, "FT");
  EXPECT_EQ(suite[7].name, "IS");
  for (const auto& m : suite) EXPECT_NO_THROW(m.validate()) << m.name;
}

TEST(NpbExtended, ByNameResolvesExtendedKernels) {
  EXPECT_EQ(npb_by_name("mg").name, "MG");
  EXPECT_EQ(npb_by_name("FT").name, "FT");
  EXPECT_EQ(npb_by_name("is").name, "IS");
}

TEST(NpbExtended, FtTransposeIsNetworkBound) {
  const AppModel ft = make_ft();
  const Phase& transpose = ft.iteration[1];
  EXPECT_EQ(transpose.name, "all-to-all-transpose");
  EXPECT_LT(transpose.frequency_sensitivity, 0.2);
  EXPECT_GT(transpose.comm_bytes_per_proc_per_s, 1e8);
}

TEST(NpbExtended, IsIsShortest) {
  const AppModel is = make_is();
  for (const auto& m : npb_extended_suite()) {
    if (m.name == "IS") continue;
    EXPECT_LT(is.reference_duration_s, m.reference_duration_s) << m.name;
  }
}

TEST(NpbExtended, ExtendedKernelsScaleWorseThanEp) {
  // Communication-dominated kernels have lower scaling exponents.
  const double ep = make_ep().scaling_alpha;
  EXPECT_LT(make_mg().scaling_alpha, ep);
  EXPECT_LT(make_ft().scaling_alpha, ep);
  EXPECT_LT(make_is().scaling_alpha, ep);
}

// Property: durations are positive and strictly decreasing in NPROCS for
// every benchmark at every paper NPROCS step.
class NpbScaling : public ::testing::TestWithParam<int> {};

TEST_P(NpbScaling, DurationDecreasesWithProcs) {
  const AppModel m =
      npb_extended_suite()[static_cast<std::size_t>(GetParam())];
  double prev = 1e18;
  for (const int n : npb_nprocs_choices()) {
    const double d = m.duration_at(n);
    EXPECT_GT(d, 0.0);
    EXPECT_LT(d, prev);
    prev = d;
  }
}

INSTANTIATE_TEST_SUITE_P(Suite, NpbScaling, ::testing::Range(0, 8));

}  // namespace
}  // namespace pcap::workload
