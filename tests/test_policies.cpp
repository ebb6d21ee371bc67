#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include <set>

#include "common/rng.hpp"
#include "power/policy_registry.hpp"

namespace pcap::power {
namespace {

/// Context with three jobs of distinct power profiles:
///   job 0: nodes {0,1},   P = 600 (hot),   prev 590   (slow riser)
///   job 1: nodes {2},     P = 200 (cool),  prev 100   (fast riser)
///   job 2: nodes {3,4,5}, P = 450 (mid),   prev 445
/// Saving per node is 20 W. P - P_L = `gap`.
PolicyContext three_job_ctx(double gap = 30.0) {
  PolicyContext ctx;
  ctx.p_low = Watts{1000.0};
  ctx.system_power = Watts{1000.0 + gap};
  const double node_power[] = {300.0, 300.0, 200.0, 150.0, 150.0, 150.0};
  const double node_prev[] = {295.0, 295.0, 100.0, 148.0, 148.0, 149.0};
  for (int i = 0; i < 6; ++i) {
    NodeView nv;
    nv.id = static_cast<hw::NodeId>(i);
    nv.level = 9;
    nv.highest_level = 9;
    nv.at_lowest = false;
    nv.busy = true;
    nv.power = Watts{node_power[i]};
    nv.power_prev = Watts{node_prev[i]};
    nv.power_one_level_down = nv.power - Watts{20.0};
    ctx.nodes.push_back(nv);
  }
  ctx.index_nodes();
  const std::vector<std::vector<hw::NodeId>> groups = {{0, 1}, {2}, {3, 4, 5}};
  for (std::size_t j = 0; j < groups.size(); ++j) {
    JobView jv;
    jv.id = j;
    jv.nodes = groups[j];
    for (const hw::NodeId id : groups[j]) {
      jv.power += ctx.node(id)->power;
      jv.power_prev += ctx.node(id)->power_prev;
      jv.saving_one_level += Watts{20.0};
    }
    ctx.jobs.push_back(jv);
  }
  return ctx;
}

TEST(PolicyContext, RequiredSavingClampsAtZero) {
  PolicyContext ctx;
  ctx.system_power = Watts{100.0};
  ctx.p_low = Watts{200.0};
  EXPECT_EQ(ctx.required_saving(), Watts{0.0});
  ctx.system_power = Watts{250.0};
  EXPECT_EQ(ctx.required_saving(), Watts{50.0});
}

TEST(PolicyContext, NodeLookup) {
  const auto ctx = three_job_ctx();
  ASSERT_NE(ctx.node(3), nullptr);
  EXPECT_EQ(ctx.node(3)->id, 3u);
  EXPECT_EQ(ctx.node(99), nullptr);
}

TEST(JobView, RateOfIncrease) {
  const auto ctx = three_job_ctx();
  EXPECT_NEAR(ctx.jobs[1].rate_of_increase(), (200.0 - 100.0) / 100.0, 1e-9);
  JobView no_history;
  no_history.power = Watts{100.0};
  EXPECT_DOUBLE_EQ(no_history.rate_of_increase(), 0.0);
}

TEST(Mpc, PicksTheMostPowerConsumingJob) {
  const PolicyPtr p = make_policy("mpc");
  const auto targets = p->select(three_job_ctx());
  EXPECT_EQ(targets, (std::vector<hw::NodeId>{0, 1}));  // job 0: 600 W
}

TEST(Mpc, SkipsJobsWithNoThrottleableNodes) {
  auto ctx = three_job_ctx();
  // Floor job 0's nodes: MPC must fall through to job 2 (450 W).
  ctx.nodes[0].at_lowest = true;
  ctx.nodes[1].at_lowest = true;
  const PolicyPtr p = make_policy("mpc");
  const auto targets = p->select(ctx);
  EXPECT_EQ(targets, (std::vector<hw::NodeId>{3, 4, 5}));
}

TEST(Mpc, EmptyWhenNoJobs) {
  PolicyContext ctx;
  ctx.index_nodes();
  const PolicyPtr p = make_policy("mpc");
  EXPECT_TRUE(p->select(ctx).empty());
}

TEST(MpcC, StopsOnceSavingCoversGap) {
  const PolicyPtr p = make_policy("mpc-c");
  // Gap 30 W: job 0 alone saves 40 W >= 30 — only its nodes selected.
  const auto targets = p->select(three_job_ctx(30.0));
  EXPECT_EQ(targets, (std::vector<hw::NodeId>{0, 1}));
}

TEST(MpcC, AccumulatesJobsForLargerGap) {
  const PolicyPtr p = make_policy("mpc-c");
  // Gap 90 W: job 0 (40) + job 2 (60) = 100 >= 90. Jobs in descending
  // power order: 600, 450, 200.
  const auto targets = p->select(three_job_ctx(90.0));
  EXPECT_EQ(targets, (std::vector<hw::NodeId>{0, 1, 3, 4, 5}));
}

TEST(MpcC, TakesEverythingWhenGapIsHuge) {
  const PolicyPtr p = make_policy("mpc-c");
  const auto targets = p->select(three_job_ctx(1e6));
  EXPECT_EQ(targets.size(), 6u);
}

TEST(Lpc, PicksLeastPowerConsumingJob) {
  const PolicyPtr p = make_policy("lpc");
  const auto targets = p->select(three_job_ctx());
  EXPECT_EQ(targets, (std::vector<hw::NodeId>{2}));  // job 1: 200 W
}

TEST(LpcC, AccumulatesFromTheBottom) {
  const PolicyPtr p = make_policy("lpc-c");
  // Gap 50 W: job 1 saves 20, job 2 adds 60 -> 80 >= 50.
  const auto targets = p->select(three_job_ctx(50.0));
  EXPECT_EQ(targets, (std::vector<hw::NodeId>{2, 3, 4, 5}));
}

TEST(Bfp, PicksSmallestSavingAboveGap) {
  const PolicyPtr p = make_policy("bfp");
  // Gap 30: candidates with saving >= 30 are job 0 (40) and job 2 (60);
  // best fit is job 0.
  EXPECT_EQ(p->select(three_job_ctx(30.0)), (std::vector<hw::NodeId>{0, 1}));
  // Gap 50: only job 2 (60) covers it.
  EXPECT_EQ(p->select(three_job_ctx(50.0)), (std::vector<hw::NodeId>{3, 4, 5}));
}

TEST(Bfp, FallsBackToLargestSavingWhenNoneCovers) {
  const PolicyPtr p = make_policy("bfp");
  // Gap 100: no single job saves that much; take the largest (job 2, 60).
  EXPECT_EQ(p->select(three_job_ctx(100.0)),
            (std::vector<hw::NodeId>{3, 4, 5}));
}

TEST(Bfp, EmptyWhenNothingThrottleable) {
  // Every node at the floor: no job has a throttleable node, so BFP must
  // return empty instead of dereferencing a never-assigned "chosen" job
  // (it used to reach the dereference with no guard at all).
  auto ctx = three_job_ctx(30.0);
  for (NodeView& nv : ctx.nodes) nv.at_lowest = true;
  const PolicyPtr p = make_policy("bfp");
  EXPECT_TRUE(p->select(ctx).empty());

  PolicyContext empty;
  empty.index_nodes();
  EXPECT_TRUE(p->select(empty).empty());
}

TEST(Bfp, EqualSavingTieBreaksByJobOrder) {
  const PolicyPtr p = make_policy("bfp");
  // Jobs 0 and 2 both save exactly 40 W, both >= gap 30: the strict "<"
  // in the best-above scan must keep the first job in context order.
  auto ctx = three_job_ctx(30.0);
  ctx.nodes[5].busy = false;  // job 2's saving drops from 60 to 40
  EXPECT_EQ(p->select(ctx), (std::vector<hw::NodeId>{0, 1}));

  // Same tie below the gap: gap 100 is not coverable; jobs 0 and 2 tie
  // at 40 W of best-effort saving, and the first again wins.
  auto ctx2 = three_job_ctx(100.0);
  ctx2.nodes[5].busy = false;
  EXPECT_EQ(p->select(ctx2), (std::vector<hw::NodeId>{0, 1}));
}

TEST(PolicyContext, RequiredSavingTracksGapExactly) {
  PolicyContext ctx;
  ctx.system_power = Watts{1234.5};
  ctx.p_low = Watts{1234.5};
  EXPECT_EQ(ctx.required_saving(), Watts{0.0});  // boundary: gap == 0
  ctx.system_power = Watts{1234.5 + 0.25};
  EXPECT_EQ(ctx.required_saving(), Watts{0.25});
}

TEST(SelectionScratchTest, VisitDedupsPerRound) {
  SelectionScratch s;
  s.begin_visit();
  EXPECT_TRUE(s.visit(7));
  EXPECT_FALSE(s.visit(7));
  EXPECT_TRUE(s.visit(3));
  s.begin_visit();  // new round: stamps from the old round are stale
  EXPECT_TRUE(s.visit(7));
  EXPECT_TRUE(s.visit(3));
  EXPECT_FALSE(s.visit(3));
}

TEST(SelectionScratchTest, BuildGroupsThrottleableNodesByJob) {
  const auto ctx = three_job_ctx();
  SelectionScratch s;
  s.build(ctx);
  ASSERT_EQ(s.refs().size(), 3u);
  for (std::size_t j = 0; j < 3; ++j) {
    const SelectionScratch::Ref& r = s.refs()[j];
    EXPECT_EQ(r.job, &ctx.jobs[j]);
    const std::vector<hw::NodeId> nodes(
        s.node_buf().begin() + r.begin, s.node_buf().begin() + r.end);
    EXPECT_EQ(nodes, ctx.jobs[j].nodes);
    EXPECT_EQ(r.saving, Watts{20.0 * static_cast<double>(nodes.size())});
  }
  // Rebuilding after a node becomes unthrottleable shrinks that job's
  // range (and drops the job entirely when nothing is left).
  auto ctx2 = three_job_ctx();
  ctx2.nodes[2].command_in_flight = true;  // job 1's only node
  ctx2.nodes[3].stale = true;              // job 2 loses one of three
  s.build(ctx2);
  ASSERT_EQ(s.refs().size(), 2u);
  EXPECT_EQ(s.refs()[0].job, &ctx2.jobs[0]);
  EXPECT_EQ(s.refs()[1].job, &ctx2.jobs[2]);
  EXPECT_EQ(s.refs()[1].end - s.refs()[1].begin, 2u);
}

TEST(Hri, PicksFastestRisingJob) {
  const PolicyPtr p = make_policy("hri");
  // Job 1 doubled its power: rate 1.0 vs ~0.017 and ~0.011.
  EXPECT_EQ(p->select(three_job_ctx()), (std::vector<hw::NodeId>{2}));
}

TEST(Hri, NoHistoryMeansZeroRate) {
  auto ctx = three_job_ctx();
  for (auto& j : ctx.jobs) j.power_prev = Watts{0.0};
  const PolicyPtr p = make_policy("hri");
  // All rates are 0; max_element picks the first throttleable job.
  EXPECT_FALSE(p->select(ctx).empty());
}

TEST(HriC, AccumulatesByRate) {
  const PolicyPtr p = make_policy("hri-c");
  // Gap 50: job 1 (rate 1.0) saves 20, then job 0 (rate ~0.017) adds 40.
  const auto targets = p->select(three_job_ctx(50.0));
  EXPECT_EQ(targets, (std::vector<hw::NodeId>{2, 0, 1}));
}

TEST(Uniform, TakesEveryThrottleableBusyNode) {
  const PolicyPtr p = make_policy("uniform");
  auto ctx = three_job_ctx();
  ctx.nodes[4].at_lowest = true;
  ctx.nodes[5].busy = false;
  const auto targets = p->select(ctx);
  EXPECT_EQ(targets, (std::vector<hw::NodeId>{0, 1, 2, 3}));
}

TEST(Sla, ClassAssignmentIsDeterministicMix) {
  EXPECT_EQ(sla_class_of(0), SlaClass::kBronze);
  EXPECT_EQ(sla_class_of(2), SlaClass::kSilver);
  EXPECT_EQ(sla_class_of(4), SlaClass::kGold);
  EXPECT_EQ(sla_class_of(5), SlaClass::kBronze);
}

TEST(Sla, ThrottlesBronzeBeforeGold) {
  const PolicyPtr p = make_policy("sla");
  // Jobs 0,1 are bronze; job 2 silver. Small gap: bronze job with the
  // higher power (job 0, 600 W) goes first.
  const auto targets = p->select(three_job_ctx(30.0));
  ASSERT_GE(targets.size(), 2u);
  EXPECT_EQ(targets[0], 0u);
  EXPECT_EQ(targets[1], 1u);
}

TEST(Thermal, MeanJobTemperature) {
  auto ctx = three_job_ctx();
  ctx.nodes[0].temperature = Celsius{60.0};
  ctx.nodes[1].temperature = Celsius{70.0};
  EXPECT_DOUBLE_EQ(mean_job_temperature(ctx, ctx.jobs[0]), 65.0);
  JobView empty;
  EXPECT_DOUBLE_EQ(mean_job_temperature(ctx, empty), 0.0);
}

TEST(Thermal, HtPicksHottestJob) {
  auto ctx = three_job_ctx();
  // Job 2 (nodes 3-5) is the hottest on average despite lowest power.
  ctx.nodes[3].temperature = Celsius{78.0};
  ctx.nodes[4].temperature = Celsius{82.0};
  ctx.nodes[5].temperature = Celsius{80.0};
  ctx.nodes[0].temperature = Celsius{65.0};
  ctx.nodes[1].temperature = Celsius{66.0};
  ctx.nodes[2].temperature = Celsius{60.0};
  const PolicyPtr p = make_policy("ht");
  EXPECT_EQ(p->select(ctx), (std::vector<hw::NodeId>{3, 4, 5}));
}

TEST(Thermal, HtSkipsFlooredHotJob) {
  auto ctx = three_job_ctx();
  ctx.nodes[3].temperature = Celsius{90.0};
  ctx.nodes[4].temperature = Celsius{90.0};
  ctx.nodes[5].temperature = Celsius{90.0};
  ctx.nodes[3].at_lowest = true;
  ctx.nodes[4].at_lowest = true;
  ctx.nodes[5].at_lowest = true;
  ctx.nodes[0].temperature = Celsius{70.0};
  ctx.nodes[1].temperature = Celsius{70.0};
  const PolicyPtr p = make_policy("ht");
  EXPECT_EQ(p->select(ctx), (std::vector<hw::NodeId>{0, 1}));
}

TEST(Thermal, HtCAccumulatesHotJobsFirst) {
  auto ctx = three_job_ctx(50.0);  // gap 50 W; per-node saving 20 W
  ctx.nodes[2].temperature = Celsius{85.0};  // job 1 hottest (one node)
  ctx.nodes[0].temperature = Celsius{75.0};  // job 0 second
  ctx.nodes[1].temperature = Celsius{75.0};
  const PolicyPtr p = make_policy("ht-c");
  // Job 1 saves 20, then job 0 adds 40 -> 60 >= 50.
  EXPECT_EQ(p->select(ctx), (std::vector<hw::NodeId>{2, 0, 1}));
}

TEST(Registry, BuildsEveryRegisteredPolicy) {
  for (const std::string& name : policy_names()) {
    const PolicyPtr p = make_policy(name);
    ASSERT_NE(p, nullptr) << name;
    EXPECT_EQ(p->name(), name);
  }
}

TEST(Registry, CaseInsensitive) {
  EXPECT_EQ(make_policy("MPC")->name(), "mpc");
  EXPECT_EQ(make_policy("Hri-C")->name(), "hri-c");
}

TEST(Registry, UnknownThrows) {
  EXPECT_THROW(make_policy("nope"), std::invalid_argument);
  EXPECT_THROW(make_policy(""), std::invalid_argument);
}

TEST(Registry, HasElevenPolicies) {
  EXPECT_EQ(policy_names().size(), 13u);
}

// Property: every registered policy only ever returns
// busy, non-floored candidate nodes with no duplicates, on randomly
// generated contexts.
class PolicyValidity
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(PolicyValidity, TargetsAreAlwaysValid) {
  const auto& [name, seed] = GetParam();
  const PolicyPtr policy = make_policy(name);

  common::Rng rng(static_cast<std::uint64_t>(seed) * 7919);
  for (int trial = 0; trial < 60; ++trial) {
    PolicyContext ctx;
    ctx.p_low = Watts{1000.0};
    ctx.system_power = Watts{rng.uniform(1000.0, 1300.0)};
    const int n_nodes = static_cast<int>(rng.uniform_int(1, 12));
    for (int i = 0; i < n_nodes; ++i) {
      NodeView nv;
      nv.id = static_cast<hw::NodeId>(i);
      nv.highest_level = 9;
      nv.level = static_cast<hw::Level>(rng.uniform_int(0, 9));
      nv.at_lowest = nv.level == 0;
      nv.busy = rng.bernoulli(0.7);
      nv.power = Watts{rng.uniform(100.0, 400.0)};
      nv.power_prev = Watts{rng.uniform(80.0, 400.0)};
      nv.power_one_level_down = nv.power - Watts{rng.uniform(0.0, 30.0)};
      ctx.nodes.push_back(nv);
    }
    ctx.index_nodes();
    // Random disjoint jobs over the nodes.
    int next = 0;
    workload::JobId jid = 0;
    while (next < n_nodes) {
      const int width =
          static_cast<int>(rng.uniform_int(1, std::min(4, n_nodes - next)));
      JobView jv;
      jv.id = jid++;
      for (int k = 0; k < width; ++k) {
        const auto& nv = ctx.nodes[static_cast<std::size_t>(next + k)];
        jv.nodes.push_back(nv.id);
        jv.power += nv.power;
        jv.power_prev += nv.power_prev;
      }
      next += width;
      ctx.jobs.push_back(std::move(jv));
    }

    const auto targets = policy->select(ctx);
    std::set<hw::NodeId> seen;
    for (const hw::NodeId id : targets) {
      const NodeView* nv = ctx.node(id);
      ASSERT_NE(nv, nullptr) << name << ": unknown node";
      ASSERT_TRUE(nv->busy) << name << ": idle node targeted";
      ASSERT_FALSE(nv->at_lowest) << name << ": floored node targeted";
      ASSERT_TRUE(seen.insert(id).second) << name << ": duplicate target";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyValidity,
    ::testing::Combine(::testing::ValuesIn(policy_names()),
                       ::testing::Range(1, 4)));

}  // namespace
}  // namespace pcap::power
