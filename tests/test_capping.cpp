#include "power/capping.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "power/checkpoint.hpp"
#include "power/policy_registry.hpp"

namespace pcap::power {
namespace {

// A minimal deterministic policy for exercising Algorithm 1 in isolation.
class FixedPolicy final : public TargetSelectionPolicy {
 public:
  explicit FixedPolicy(std::vector<hw::NodeId> targets)
      : targets_(std::move(targets)) {}
  [[nodiscard]] std::string name() const override { return "fixed"; }
  std::vector<hw::NodeId> select(const PolicyContext& ctx) override {
    std::vector<hw::NodeId> valid;
    for (const hw::NodeId id : targets_) {
      const NodeView* nv = ctx.node(id);
      if (nv != nullptr && nv->busy && !nv->at_lowest) valid.push_back(id);
    }
    return valid;
  }

 private:
  std::vector<hw::NodeId> targets_;
};

/// Builds a context of `n` busy candidate nodes at the given level
/// (10-level ladder).
PolicyContext make_ctx(int n, hw::Level level, Watts power = Watts{1000.0},
                       Watts p_low = Watts{900.0}) {
  PolicyContext ctx;
  ctx.system_power = power;
  ctx.p_low = p_low;
  for (int i = 0; i < n; ++i) {
    NodeView nv;
    nv.id = static_cast<hw::NodeId>(i);
    nv.level = level;
    nv.highest_level = 9;
    nv.at_lowest = level == 0;
    nv.busy = true;
    nv.power = Watts{300.0};
    nv.power_one_level_down = Watts{285.0};
    ctx.nodes.push_back(nv);
  }
  ctx.index_nodes();
  return ctx;
}

/// A_degraded as a std::set, for whole-set comparisons.
std::set<hw::NodeId> members(const CappingEngine& e) {
  return {e.degraded().begin(), e.degraded().end()};
}

CappingParams tg(std::int64_t cycles) {
  CappingParams p;
  p.steady_green_cycles = cycles;
  return p;
}

TEST(Capping, GreenWithNothingDegradedDoesNothing) {
  CappingEngine e(tg(3));
  FixedPolicy policy({});
  const auto ctx = make_ctx(4, 9);
  const CycleDecision d = e.cycle(PowerState::kGreen, policy, ctx);
  EXPECT_EQ(d.state, PowerState::kGreen);
  EXPECT_TRUE(d.commands.empty());
  EXPECT_EQ(e.green_timer(), 1);
}

TEST(Capping, YellowDegradesPolicyTargetsByOneLevel) {
  CappingEngine e(tg(3));
  FixedPolicy policy({0, 2});
  const auto ctx = make_ctx(4, 9);
  const CycleDecision d = e.cycle(PowerState::kYellow, policy, ctx);
  EXPECT_EQ(d.state, PowerState::kYellow);
  ASSERT_EQ(d.commands.size(), 2u);
  EXPECT_EQ(d.commands[0], (LevelCommand{0, 8}));
  EXPECT_EQ(d.commands[1], (LevelCommand{2, 8}));
  EXPECT_EQ(members(e), (std::set<hw::NodeId>{0, 2}));
  EXPECT_EQ(e.green_timer(), 0);
}

TEST(Capping, RedFloorsEveryCandidate) {
  CappingEngine e(tg(3));
  FixedPolicy policy({});
  const auto ctx = make_ctx(5, 6);
  const CycleDecision d = e.cycle(PowerState::kRed, policy, ctx);
  EXPECT_EQ(d.state, PowerState::kRed);
  ASSERT_EQ(d.commands.size(), 5u);
  for (const LevelCommand& c : d.commands) EXPECT_EQ(c.level, 0);
  EXPECT_EQ(e.degraded().size(), 5u);  // A_degraded := A_candidate
}

TEST(Capping, GreenTimerMustReachTgBeforeRestore) {
  CappingEngine e(tg(3));
  FixedPolicy policy({0});
  auto ctx = make_ctx(2, 9);
  // One yellow cycle degrades node 0 to level 8.
  e.cycle(PowerState::kYellow, policy, ctx);
  ctx = make_ctx(2, 9);
  ctx.nodes[0].level = 8;

  // Two green cycles: timer 1, 2 — below T_g = 3, no restore.
  for (int i = 0; i < 2; ++i) {
    const auto d = e.cycle(PowerState::kGreen, policy, ctx);
    EXPECT_TRUE(d.commands.empty());
  }
  // Third green cycle: steady green, restore by one level.
  const auto d = e.cycle(PowerState::kGreen, policy, ctx);
  ASSERT_EQ(d.commands.size(), 1u);
  EXPECT_EQ(d.commands[0], (LevelCommand{0, 9}));
  // Node reached the top level: it leaves A_degraded.
  EXPECT_TRUE(e.degraded().empty());
}

TEST(Capping, RestoreContinuesEveryGreenCycleOnceSteady) {
  CappingEngine e(tg(2));
  FixedPolicy policy({0});
  // Degrade node 0 twice: level 9 -> 8 -> 7.
  auto ctx = make_ctx(1, 9);
  e.cycle(PowerState::kYellow, policy, ctx);
  ctx = make_ctx(1, 8);
  e.cycle(PowerState::kYellow, policy, ctx);
  ctx = make_ctx(1, 7);

  // Green cycles: restore fires at timer = 2 and every green cycle after.
  auto d = e.cycle(PowerState::kGreen, policy, ctx);
  EXPECT_TRUE(d.commands.empty());  // timer = 1
  d = e.cycle(PowerState::kGreen, policy, ctx);
  ASSERT_EQ(d.commands.size(), 1u);  // timer = 2: restore to 8
  EXPECT_EQ(d.commands[0].level, 8);
  EXPECT_FALSE(e.degraded().empty());  // not yet at the top

  ctx = make_ctx(1, 8);
  d = e.cycle(PowerState::kGreen, policy, ctx);
  ASSERT_EQ(d.commands.size(), 1u);  // restore to 9 and leave A_degraded
  EXPECT_EQ(d.commands[0].level, 9);
  EXPECT_TRUE(e.degraded().empty());
}

TEST(Capping, YellowResetsGreenTimer) {
  CappingEngine e(tg(3));
  FixedPolicy policy({0});
  auto ctx = make_ctx(1, 9);
  e.cycle(PowerState::kGreen, policy, ctx);
  EXPECT_EQ(e.green_timer(), 1);
  e.cycle(PowerState::kYellow, policy, ctx);
  EXPECT_EQ(e.green_timer(), 0);
}

TEST(Capping, RedResetsGreenTimer) {
  CappingEngine e(tg(3));
  FixedPolicy policy({});
  const auto ctx = make_ctx(1, 9);
  e.cycle(PowerState::kGreen, policy, ctx);
  e.cycle(PowerState::kRed, policy, ctx);
  EXPECT_EQ(e.green_timer(), 0);
}

TEST(Capping, DepartedCandidateLeavesDegradedSet) {
  CappingEngine e(tg(1));
  FixedPolicy policy({0, 1});
  auto ctx = make_ctx(2, 9);
  e.cycle(PowerState::kYellow, policy, ctx);
  EXPECT_EQ(e.degraded().size(), 2u);
  // Node 1 leaves the candidate set (e.g. now runs a privileged task).
  auto ctx_one = make_ctx(1, 8);
  e.cycle(PowerState::kGreen, policy, ctx_one);
  for (const hw::NodeId id : e.degraded()) EXPECT_NE(id, 1u);
}

// A policy that returns whatever ids it was built with, valid or not —
// standing in for selection that ran ahead of (or against) the telemetry.
class BlindPolicy final : public TargetSelectionPolicy {
 public:
  explicit BlindPolicy(std::vector<hw::NodeId> targets)
      : targets_(std::move(targets)) {}
  [[nodiscard]] std::string name() const override { return "blind"; }
  std::vector<hw::NodeId> select(const PolicyContext&) override {
    return targets_;
  }

 private:
  std::vector<hw::NodeId> targets_;
};

TEST(Capping, PolicyReturningIdleNodeIsSkippedNotFatal) {
  CappingEngine e(tg(3));
  BlindPolicy policy({0, 1});
  auto ctx = make_ctx(2, 9);
  ctx.nodes[0].busy = false;  // idle node must not be targeted (§III.B-4)
  const CycleDecision d = e.cycle(PowerState::kYellow, policy, ctx);
  // The invalid target is dropped; the valid one still lands.
  EXPECT_EQ(d.skipped, 1u);
  ASSERT_EQ(d.commands.size(), 1u);
  EXPECT_EQ(d.commands[0], (LevelCommand{1, 8}));
  EXPECT_EQ(e.skipped_targets(), 1u);
}

TEST(Capping, PolicyReturningFlooredNodeIsSkippedNotFatal) {
  CappingEngine e(tg(3));
  BlindPolicy policy({0});
  const auto ctx = make_ctx(1, 0);  // already at the lowest level
  const CycleDecision d = e.cycle(PowerState::kYellow, policy, ctx);
  EXPECT_EQ(d.skipped, 1u);
  EXPECT_TRUE(d.commands.empty());
  EXPECT_TRUE(e.degraded().empty());
}

TEST(Capping, PolicyReturningUnknownNodeIsSkippedNotFatal) {
  CappingEngine e(tg(3));
  BlindPolicy policy({7});  // not in the candidate set
  const auto ctx = make_ctx(2, 9);
  const CycleDecision d = e.cycle(PowerState::kYellow, policy, ctx);
  EXPECT_EQ(d.skipped, 1u);
  EXPECT_TRUE(d.commands.empty());
}

TEST(Capping, StaleTargetIsSkippedAndCounted) {
  CappingEngine e(tg(3));
  BlindPolicy policy({0, 1});
  auto ctx = make_ctx(2, 9);
  ctx.nodes[0].stale = true;  // the manager flagged node 0's view as stale
  const CycleDecision d = e.cycle(PowerState::kYellow, policy, ctx);
  EXPECT_EQ(d.skipped, 1u);
  ASSERT_EQ(d.commands.size(), 1u);
  EXPECT_EQ(d.commands[0].node, 1u);
  EXPECT_EQ(members(e), (std::set<hw::NodeId>{1}));
}

// Regression: red_cycle used to emit LevelCommand{id, 0} for *every*
// candidate — including nodes already at the floor — and marked them all
// degraded, so a repeated red state inflated target counts and "restored"
// nodes the engine had never lowered.
TEST(Capping, RedIsIdempotentAtTheFloor) {
  CappingEngine e(tg(3));
  FixedPolicy policy({});
  auto ctx = make_ctx(3, 6);
  auto d = e.cycle(PowerState::kRed, policy, ctx);
  EXPECT_EQ(d.commands.size(), 3u);

  // Actuated: everyone is at the floor now. A second red cycle must not
  // re-command anyone.
  ctx = make_ctx(3, 0);
  d = e.cycle(PowerState::kRed, policy, ctx);
  EXPECT_TRUE(d.commands.empty());
  EXPECT_EQ(e.degraded().size(), 3u);  // still tracked for restore
}

TEST(Capping, RedDoesNotAdoptNodesAlreadyAtTheFloor) {
  CappingEngine e(tg(3));
  FixedPolicy policy({});
  auto ctx = make_ctx(2, 6);
  ctx.nodes[1].level = 0;  // floored by someone else, not this engine
  ctx.nodes[1].at_lowest = true;
  const auto d = e.cycle(PowerState::kRed, policy, ctx);
  ASSERT_EQ(d.commands.size(), 1u);
  EXPECT_EQ(d.commands[0].node, 0u);
  // Node 1 never entered A_degraded: the engine will not later "restore"
  // it above a state it never set.
  EXPECT_EQ(members(e), (std::set<hw::NodeId>{0}));
}

TEST(Capping, SteadyGreenSkipsStaleNodesButKeepsThemDegraded) {
  CappingEngine e(tg(1));
  FixedPolicy policy({0, 1});
  auto ctx = make_ctx(2, 9);
  e.cycle(PowerState::kYellow, policy, ctx);
  EXPECT_EQ(e.degraded().size(), 2u);

  ctx = make_ctx(2, 8);
  ctx.nodes[0].stale = true;
  const auto d = e.cycle(PowerState::kGreen, policy, ctx);
  // Only the fresh node is restored; the stale one stays in A_degraded
  // until its telemetry comes back.
  ASSERT_EQ(d.commands.size(), 1u);
  EXPECT_EQ(d.commands[0], (LevelCommand{1, 9}));
  EXPECT_EQ(members(e), (std::set<hw::NodeId>{0}));
}

TEST(Capping, YellowSkipsNodeWithCommandInFlight) {
  CappingEngine e(tg(3));
  BlindPolicy policy({0, 1});
  auto ctx = make_ctx(2, 9);
  // Node 0 has an unacked command outstanding: throttling it again would
  // act on a level the manager only believes, not knows.
  ctx.nodes[0].command_in_flight = true;
  const CycleDecision d = e.cycle(PowerState::kYellow, policy, ctx);
  EXPECT_EQ(d.deferred_in_flight, 1u);
  EXPECT_EQ(d.skipped, 0u);  // a deferral is routine, not a bad target
  ASSERT_EQ(d.commands.size(), 1u);
  EXPECT_EQ(d.commands[0], (LevelCommand{1, 8}));
  EXPECT_EQ(members(e), (std::set<hw::NodeId>{1}));
}

TEST(Capping, SteadyGreenSkipsInFlightNodesButKeepsThemDegraded) {
  CappingEngine e(tg(1));
  FixedPolicy policy({0, 1});
  auto ctx = make_ctx(2, 9);
  e.cycle(PowerState::kYellow, policy, ctx);
  EXPECT_EQ(e.degraded().size(), 2u);

  ctx = make_ctx(2, 8);
  ctx.nodes[0].command_in_flight = true;
  const auto d = e.cycle(PowerState::kGreen, policy, ctx);
  // Only the settled node is restored; the one with a command in flight
  // stays in A_degraded until its actuation state is known again.
  ASSERT_EQ(d.commands.size(), 1u);
  EXPECT_EQ(d.commands[0], (LevelCommand{1, 9}));
  EXPECT_EQ(members(e), (std::set<hw::NodeId>{0}));
}

// Candidate churn mid-degradation: a throttled node that leaves the
// candidate set (privileged job, reselection) is pruned from A_degraded —
// and when it rejoins, still at its throttled level, steady green must
// NOT restore it: the engine only restores levels it remembers lowering,
// and the pruning deliberately forgot this one ("no longer ours").
TEST(Capping, RejoiningNodeIsNotRestoredAbovePreThrottleLevel) {
  CappingEngine e(tg(1));
  FixedPolicy policy({0, 1});
  auto ctx = make_ctx(2, 9);
  e.cycle(PowerState::kYellow, policy, ctx);
  EXPECT_EQ(members(e), (std::set<hw::NodeId>{0, 1}));

  // Node 1 leaves A_candidate while degraded (level 8); the yellow
  // pressure keeps node 0 degraded (8 -> 7) through the churn.
  auto ctx_one = make_ctx(1, 8);
  e.cycle(PowerState::kYellow, policy, ctx_one);
  EXPECT_EQ(members(e), (std::set<hw::NodeId>{0}));

  // Node 1 rejoins, still at its throttled level 8, and the system goes
  // green. Every restore pass may lift node 0 (which the engine still
  // owns) but must never command node 1 above the level it rejoined with.
  ctx = make_ctx(2, 9);
  ctx.nodes[0].level = 7;
  ctx.nodes[1].level = 8;
  for (int i = 0; i < 5; ++i) {
    const auto d = e.cycle(PowerState::kGreen, policy, ctx);
    for (const LevelCommand& c : d.commands) {
      EXPECT_NE(c.node, 1u);
      ctx.nodes[c.node].level = c.level;  // actuate
    }
  }
  EXPECT_EQ(ctx.nodes[0].level, 9);  // node 0 fully restored...
  EXPECT_EQ(ctx.nodes[1].level, 8);  // ...node 1 left where it rejoined
  EXPECT_TRUE(e.degraded().empty());
}

// A_degraded is an id membership: however the policy ordered its targets,
// steady green restores in ascending id order and the checkpoint lists the
// members ascending.
TEST(Capping, RestoreCommandsComeOutInAscendingIdOrder) {
  CappingEngine e(tg(1));
  BlindPolicy policy({5, 1, 3});
  const CycleDecision yellow =
      e.cycle(PowerState::kYellow, policy, make_ctx(6, 9));
  ASSERT_EQ(yellow.commands.size(), 3u);
  EXPECT_EQ(yellow.commands[0].node, 5u);  // policy order
  EXPECT_EQ(e.checkpoint().degraded, (std::vector<hw::NodeId>{1, 3, 5}));

  const CycleDecision green =
      e.cycle(PowerState::kGreen, policy, make_ctx(6, 8));
  EXPECT_EQ(green.commands,
            (std::vector<LevelCommand>{{1, 9}, {3, 9}, {5, 9}}));
  EXPECT_TRUE(e.degraded().empty());
}

// A wide span with few members (a stride shard covers every id in the
// cluster): iteration steps over whole zero words and still finds every
// member — at the span's ends, after gaps of every width from 1 to 20 ids,
// and in the sub-word tail.
TEST(Capping, SparseMembersOfAWideSpanIterateAscending) {
  CappingEngine e(tg(3));
  e.cover_ids(5, 1004);
  std::vector<hw::NodeId> ids{5};
  for (hw::NodeId gap = 1; gap <= 20; ++gap) ids.push_back(ids.back() + gap);
  ids.push_back(1001);
  ids.push_back(1004);
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) e.adopt_degraded(*it);
  EXPECT_EQ(e.degraded().size(), ids.size());
  EXPECT_EQ(e.checkpoint().degraded, ids);

  CappingEngine none(tg(3));
  none.cover_ids(0, 1000);
  EXPECT_EQ(none.degraded().begin(), none.degraded().end());
}

// Two contexts from two builds: the second lacks node 1's view, so node 1
// leaves A_degraded on the first cycle that runs against it.
TEST(Capping, NodeMissingFromARebuiltContextLeavesADegraded) {
  CappingEngine e(tg(3));
  FixedPolicy policy({0, 1});
  const PolicyContext built = make_ctx(2, 9);
  e.cycle(PowerState::kYellow, policy, built);
  ASSERT_EQ(members(e), (std::set<hw::NodeId>{0, 1}));

  const PolicyContext rebuilt = make_ctx(1, 8);
  ASSERT_NE(rebuilt.build_stamp(), built.build_stamp());
  e.cycle(PowerState::kGreen, policy, rebuilt);
  EXPECT_EQ(members(e), (std::set<hw::NodeId>{0}));
}

// Re-indexing a context in place gives it a fresh stamp, so the engine
// prunes against it again on the next cycle.
TEST(Capping, ReindexedContextIsPrunedAgain) {
  CappingEngine e(tg(3));
  FixedPolicy policy({0, 1, 2});
  PolicyContext ctx = make_ctx(3, 9);
  e.cycle(PowerState::kYellow, policy, ctx);
  ASSERT_EQ(e.degraded().size(), 3u);

  const std::uint64_t first = ctx.build_stamp();
  ctx.nodes.pop_back();  // node 2's view goes
  ctx.index_nodes();
  EXPECT_NE(ctx.build_stamp(), first);
  EXPECT_NE(ctx.build_stamp(), 0u);
  e.cycle(PowerState::kGreen, policy, ctx);
  EXPECT_EQ(members(e), (std::set<hw::NodeId>{0, 1}));

  ctx.nodes.pop_back();  // node 1's, in the same object
  ctx.index_nodes();
  e.cycle(PowerState::kGreen, policy, ctx);
  EXPECT_EQ(members(e), (std::set<hw::NodeId>{0}));
}

// The checkpoint image is (Time_g, A_degraded ascending); restoring it and
// checkpointing again gives the same image, and the restored engine
// restores the same nodes in the same order.
TEST(Capping, CheckpointRoundTripKeepsTheImage) {
  CappingEngine e(tg(2));
  BlindPolicy policy({7, 2, 4});
  e.cycle(PowerState::kYellow, policy, make_ctx(8, 9));
  e.cycle(PowerState::kGreen, policy, make_ctx(8, 8));
  const EngineCheckpoint image = e.checkpoint();
  EXPECT_EQ(image.time_g, 1);
  EXPECT_EQ(image.degraded, (std::vector<hw::NodeId>{2, 4, 7}));

  CappingEngine restored(tg(2));
  restored.restore(image);
  EXPECT_EQ(restored.checkpoint().time_g, image.time_g);
  EXPECT_EQ(restored.checkpoint().degraded, image.degraded);
  const auto ctx = make_ctx(8, 8);
  EXPECT_EQ(restored.cycle(PowerState::kGreen, policy, ctx).commands,
            e.cycle(PowerState::kGreen, policy, ctx).commands);
}

TEST(Capping, NonPositiveTgThrows) {
  EXPECT_THROW(CappingEngine(tg(0)), std::invalid_argument);
}

// Property: under random power sequences with the MPC policy, the engine
// never emits a command outside the candidate set, never emits a level
// below 0 or above the node's top, and A_degraded only contains
// candidates.
class CappingRandomWalk : public ::testing::TestWithParam<int> {};

TEST_P(CappingRandomWalk, CommandsAlwaysValid) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 131);
  CappingEngine e(tg(4));
  const PolicyPtr policy = make_policy("mpc");
  std::vector<hw::Level> levels(6, 9);

  for (int step = 0; step < 400; ++step) {
    PolicyContext ctx;
    ctx.system_power = Watts{rng.uniform(500.0, 1100.0)};
    ctx.p_low = Watts{900.0};
    for (int i = 0; i < 6; ++i) {
      NodeView nv;
      nv.id = static_cast<hw::NodeId>(i);
      nv.level = levels[static_cast<std::size_t>(i)];
      nv.highest_level = 9;
      nv.at_lowest = nv.level == 0;
      nv.busy = rng.bernoulli(0.8);
      nv.power = Watts{rng.uniform(150.0, 400.0)};
      nv.power_one_level_down = nv.power - Watts{15.0};
      ctx.nodes.push_back(nv);
    }
    ctx.index_nodes();
    // One job spanning nodes 0-2, another 3-5.
    for (int j = 0; j < 2; ++j) {
      JobView jv;
      jv.id = static_cast<workload::JobId>(j);
      for (int i = j * 3; i < j * 3 + 3; ++i) {
        jv.nodes.push_back(static_cast<hw::NodeId>(i));
        jv.power += ctx.nodes[static_cast<std::size_t>(i)].power;
      }
      ctx.jobs.push_back(jv);
    }

    const CycleDecision d = e.cycle(
        classify_power(ctx.system_power, Watts{900.0}, Watts{1000.0}),
        *policy, ctx);
    std::set<hw::NodeId> seen;
    for (const LevelCommand& c : d.commands) {
      ASSERT_LT(c.node, 6u);
      ASSERT_GE(c.level, 0);
      ASSERT_LE(c.level, 9);
      ASSERT_TRUE(seen.insert(c.node).second) << "duplicate command";
      levels[c.node] = c.level;  // actuate
    }
    for (const hw::NodeId id : e.degraded()) ASSERT_LT(id, 6u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CappingRandomWalk, ::testing::Range(1, 9));

}  // namespace
}  // namespace pcap::power
