#include "telemetry/collector.hpp"

#include <gtest/gtest.h>

#include "hw/node_spec.hpp"

namespace pcap::telemetry {
namespace {

std::vector<hw::Node> make_nodes(std::size_t n) {
  std::vector<hw::Node> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    hw::Node node(static_cast<hw::NodeId>(i), hw::tianhe1a_node_spec());
    hw::OperatingPoint op;
    op.cpu_utilization = 0.5;
    op.mem_used = node.spec().mem_total * 0.3;
    op.mem_total = node.spec().mem_total;
    op.tau = Seconds{1.0};
    op.nic_bandwidth = node.spec().nic_bandwidth;
    node.set_operating_point(op);
    node.set_busy(true);
    nodes.push_back(std::move(node));
  }
  return nodes;
}

CollectorParams quiet_params() {
  CollectorParams p;
  p.agent.utilization_noise = 0.0;
  p.agent.nic_noise = 0.0;
  return p;
}

TEST(Collector, CandidateSetSortedAndDeduplicated) {
  Collector c(quiet_params(), common::Rng(1));
  c.set_candidate_set({3, 1, 3, 2});
  EXPECT_EQ(c.candidate_set(), (std::vector<hw::NodeId>{1, 2, 3}));
  EXPECT_TRUE(c.is_candidate(1));
  EXPECT_FALSE(c.is_candidate(0));
}

TEST(Collector, CollectRecordsLatestSample) {
  Collector c(quiet_params(), common::Rng(2));
  c.set_candidate_set({0, 1});
  auto nodes = make_nodes(3);
  c.collect(nodes, Seconds{1.0}, 1);
  const auto s = c.latest(0);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->cycle, 1u);
  EXPECT_DOUBLE_EQ(s->estimated_power.value(),
                   nodes[0].estimated_power().value());
}

TEST(Collector, NonCandidateNotSampled) {
  Collector c(quiet_params(), common::Rng(3));
  c.set_candidate_set({0});
  auto nodes = make_nodes(3);
  c.collect(nodes, Seconds{1.0}, 1);
  EXPECT_FALSE(c.latest(2).has_value());
}

TEST(Collector, PreviousRequiresTwoSamples) {
  Collector c(quiet_params(), common::Rng(4));
  c.set_candidate_set({0});
  auto nodes = make_nodes(1);
  c.collect(nodes, Seconds{1.0}, 1);
  EXPECT_FALSE(c.previous(0).has_value());
  c.collect(nodes, Seconds{2.0}, 1);
  const auto prev = c.previous(0);
  ASSERT_TRUE(prev.has_value());
  EXPECT_EQ(prev->cycle, 1u);
  EXPECT_EQ(c.latest(0)->cycle, 2u);
}

TEST(Collector, HistoryRollsOver) {
  CollectorParams p = quiet_params();
  p.history_depth = 3;
  Collector c(p, common::Rng(5));
  c.set_candidate_set({0});
  auto nodes = make_nodes(1);
  for (int t = 1; t <= 10; ++t) {
    c.collect(nodes, Seconds{static_cast<double>(t)}, 1);
  }
  EXPECT_EQ(c.latest(0)->cycle, 10u);
  EXPECT_EQ(c.previous(0)->cycle, 9u);
}

TEST(Collector, RemovedCandidateDropsHistory) {
  Collector c(quiet_params(), common::Rng(6));
  c.set_candidate_set({0, 1});
  auto nodes = make_nodes(2);
  c.collect(nodes, Seconds{1.0}, 1);
  c.set_candidate_set({0});
  EXPECT_FALSE(c.latest(1).has_value());
  // Re-adding starts fresh.
  c.set_candidate_set({0, 1});
  EXPECT_FALSE(c.latest(1).has_value());
}

TEST(Collector, SurvivingCandidateKeepsHistoryAcrossSetChange) {
  Collector c(quiet_params(), common::Rng(7));
  c.set_candidate_set({0, 1});
  auto nodes = make_nodes(2);
  c.collect(nodes, Seconds{1.0}, 1);
  c.set_candidate_set({0});
  EXPECT_TRUE(c.latest(0).has_value());
}

TEST(Collector, OutOfRangeCandidateThrows) {
  Collector c(quiet_params(), common::Rng(9));
  c.set_candidate_set({5});
  auto nodes = make_nodes(2);
  EXPECT_THROW(c.collect(nodes, Seconds{1.0}, 1), std::out_of_range);
}

TEST(Collector, ManagerUtilizationGrowsWithCandidates) {
  auto nodes = make_nodes(64);
  Collector small(quiet_params(), common::Rng(10));
  small.set_candidate_set({0, 1, 2, 3});
  small.collect(nodes, Seconds{1.0}, 8);

  Collector large(quiet_params(), common::Rng(10));
  std::vector<hw::NodeId> all;
  for (hw::NodeId i = 0; i < 64; ++i) all.push_back(i);
  large.set_candidate_set(all);
  large.collect(nodes, Seconds{1.0}, 8);

  EXPECT_GT(large.last_cycle_manager_utilization(),
            small.last_cycle_manager_utilization());
}

TEST(Collector, TooShallowHistoryThrows) {
  CollectorParams p = quiet_params();
  p.history_depth = 1;
  EXPECT_THROW(Collector(p, common::Rng(1)), std::invalid_argument);
}

TEST(Collector, HistoryDepthBeyondStripeCursorThrows) {
  CollectorParams p = quiet_params();
  p.history_depth = std::size_t{0xffffffffu} + 1;
  EXPECT_THROW(Collector(p, common::Rng(1)), std::invalid_argument);
  p.faults.corruption_rate = 0.1;  // the depth would be used: same verdict
  EXPECT_THROW(Collector(p, common::Rng(1)), std::invalid_argument);
}

TEST(CollectorTransport, LossDropsSomeReports) {
  CollectorParams p = quiet_params();
  p.transport.loss_rate = 0.5;
  Collector c(p, common::Rng(21));
  c.set_candidate_set({0});
  auto nodes = make_nodes(1);
  for (int t = 1; t <= 400; ++t) {
    c.collect(nodes, Seconds{static_cast<double>(t)}, 1);
  }
  EXPECT_GT(c.samples_lost(), 100u);
  EXPECT_GT(c.samples_delivered(), 100u);
  EXPECT_EQ(c.samples_lost() + c.samples_delivered(), 400u);
}

TEST(CollectorTransport, LatestSurvivesLoss) {
  // Even under heavy loss the manager keeps acting on the freshest
  // delivered sample rather than failing.
  CollectorParams p = quiet_params();
  p.transport.loss_rate = 0.8;
  Collector c(p, common::Rng(22));
  c.set_candidate_set({0});
  auto nodes = make_nodes(1);
  for (int t = 1; t <= 200; ++t) {
    c.collect(nodes, Seconds{static_cast<double>(t)}, 1);
  }
  const auto s = c.latest(0);
  ASSERT_TRUE(s.has_value());
  EXPECT_GT(s->cycle, 0u);
  EXPECT_LE(s->cycle, 200u);
}

TEST(CollectorTransport, DelayShiftsDelivery) {
  CollectorParams p = quiet_params();
  p.transport.delay_cycles = 2;
  Collector c(p, common::Rng(23));
  c.set_candidate_set({0});
  auto nodes = make_nodes(1);
  c.collect(nodes, Seconds{1.0}, 1);
  EXPECT_FALSE(c.latest(0).has_value());  // still in flight
  c.collect(nodes, Seconds{2.0}, 1);
  EXPECT_FALSE(c.latest(0).has_value());
  c.collect(nodes, Seconds{3.0}, 1);
  const auto s = c.latest(0);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->cycle, 1u);  // the cycle-1 sample arrived
}

TEST(CollectorTransport, DelayedSamplesArriveInOrder) {
  CollectorParams p = quiet_params();
  p.transport.delay_cycles = 3;
  Collector c(p, common::Rng(24));
  c.set_candidate_set({0});
  auto nodes = make_nodes(1);
  for (int t = 1; t <= 10; ++t) {
    c.collect(nodes, Seconds{static_cast<double>(t)}, 1);
  }
  const auto latest = c.latest(0);
  const auto prev = c.previous(0);
  ASSERT_TRUE(latest && prev);
  EXPECT_EQ(latest->cycle, 7u);  // cycle 10 delivered cycle 7
  EXPECT_EQ(prev->cycle, 6u);
}

TEST(Collector, SamplesAreStampedWithTheCollectionCycle) {
  Collector c(quiet_params(), common::Rng(31));
  c.set_candidate_set({0});
  auto nodes = make_nodes(1);
  EXPECT_EQ(c.cycle_count(), 0u);
  c.collect(nodes, Seconds{1.0}, 1);
  c.collect(nodes, Seconds{2.0}, 1);
  EXPECT_EQ(c.cycle_count(), 2u);
  EXPECT_EQ(c.latest(0)->cycle, 2u);
  EXPECT_EQ(c.previous(0)->cycle, 1u);
}

TEST(CollectorTransport, DelayedSampleKeepsItsSamplingCycleStamp) {
  // The stamp records when the sample was *taken*, not when it arrived —
  // that difference is exactly the staleness the manager must see.
  CollectorParams p = quiet_params();
  p.transport.delay_cycles = 3;
  Collector c(p, common::Rng(32));
  c.set_candidate_set({0});
  auto nodes = make_nodes(1);
  for (int t = 1; t <= 5; ++t) {
    c.collect(nodes, Seconds{static_cast<double>(t)}, 1);
  }
  const auto s = c.latest(0);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->cycle, 2u);  // taken at cycle 2, delivered at cycle 5
  EXPECT_EQ(c.cycle_count() - s->cycle, 3u);
}

TEST(CollectorTransport, QueuedReportsWaitOutSkippedCyclesInSendOrder) {
  // A strided (skipped) cycle sweeps no agent, so nothing in flight can
  // arrive during it; the queued report lands on the next real sweep, in
  // the order it was sent and stamped with the cycle it was taken in.
  CollectorParams p = quiet_params();
  p.transport.delay_cycles = 2;
  Collector c(p, common::Rng(33));
  c.set_candidate_set({0});
  auto nodes = make_nodes(1);
  c.collect(nodes, Seconds{1.0}, 1);  // cycle 1: due at cycle 3
  for (int k = 0; k < 3; ++k) {
    c.skip_cycle(1);  // cycles 2, 3, 4
    EXPECT_FALSE(c.latest(0).has_value());
  }
  EXPECT_EQ(c.samples_delivered(), 0u);
  c.collect(nodes, Seconds{5.0}, 1);  // cycle 5: delivers cycle 1's report
  ASSERT_TRUE(c.latest(0).has_value());
  EXPECT_EQ(c.latest(0)->cycle, 1u);
  EXPECT_FALSE(c.previous(0).has_value());  // cycle 5's is still in flight
  EXPECT_EQ(c.samples_delivered(), 1u);
  c.collect(nodes, Seconds{6.0}, 1);  // cycle 6: nothing due yet
  EXPECT_EQ(c.latest(0)->cycle, 1u);
  c.collect(nodes, Seconds{7.0}, 1);  // cycle 7: cycle 5's report lands
  EXPECT_EQ(c.latest(0)->cycle, 5u);
  EXPECT_EQ(c.previous(0)->cycle, 1u);
  EXPECT_EQ(c.samples_delivered(), 2u);
}

TEST(CollectorTransport, InFlightReportsFollowTheirNodeAcrossSetChange) {
  // Reports in flight belong to their node: a retained node's still
  // arrive after the candidate set changes, a dropped node's are gone —
  // even when the node is re-added before they would have landed.
  CollectorParams p = quiet_params();
  p.transport.delay_cycles = 2;
  Collector c(p, common::Rng(34));
  c.set_candidate_set({0, 1});
  auto nodes = make_nodes(2);
  c.collect(nodes, Seconds{1.0}, 1);  // cycle 1: both due at cycle 3
  c.set_candidate_set({0});
  c.collect(nodes, Seconds{2.0}, 1);
  c.set_candidate_set({0, 1});
  c.collect(nodes, Seconds{3.0}, 1);  // cycle 3: node 0's cycle-1 report
  ASSERT_TRUE(c.latest(0).has_value());
  EXPECT_EQ(c.latest(0)->cycle, 1u);
  EXPECT_FALSE(c.latest(1).has_value());
  c.collect(nodes, Seconds{4.0}, 1);
  EXPECT_EQ(c.latest(0)->cycle, 2u);
  EXPECT_FALSE(c.latest(1).has_value());  // its first report is cycle 3's
  c.collect(nodes, Seconds{5.0}, 1);
  ASSERT_TRUE(c.latest(1).has_value());
  EXPECT_EQ(c.latest(1)->cycle, 3u);
  EXPECT_FALSE(c.previous(1).has_value());
  EXPECT_EQ(c.samples_delivered(), 4u);  // node 0: cycles 1-3; node 1: 3
}

// -- counter-keyed noise ------------------------------------------------------

/// Two collectors built from one seed, each over its own node table (a
/// sample fast-forwards the node's lazy thermal state, so the tables stay
/// separate), with agent noise on and, when `loss` > 0, a lossy transport.
struct TwinCollectors {
  explicit TwinCollectors(double loss = 0.0)
      : a(params(loss), common::Rng(77)),
        b(params(loss), common::Rng(77)),
        nodes_a(make_nodes(kNodes)),
        nodes_b(make_nodes(kNodes)) {
    std::vector<hw::NodeId> all(kNodes);
    for (std::size_t i = 0; i < kNodes; ++i) {
      all[i] = static_cast<hw::NodeId>(i);
    }
    a.set_candidate_set(all);
    b.set_candidate_set(all);
  }
  static CollectorParams params(double loss) {
    CollectorParams p;  // default agent noise
    p.transport.loss_rate = loss;
    return p;
  }
  /// Every node's newest sample agrees between the two collectors, and
  /// was taken at cycle `cycle` in both or in neither.
  void expect_same_newest(std::uint64_t cycle) const {
    for (std::size_t i = 0; i < kNodes; ++i) {
      const auto id = static_cast<hw::NodeId>(i);
      const auto sa = a.latest(id);
      const auto sb = b.latest(id);
      const bool fresh_a = sa.has_value() && sa->cycle == cycle;
      const bool fresh_b = sb.has_value() && sb->cycle == cycle;
      ASSERT_EQ(fresh_a, fresh_b) << "node " << id;
      if (!fresh_a) continue;
      EXPECT_EQ(sa->estimated_power, sb->estimated_power) << "node " << id;
    }
  }
  static constexpr std::size_t kNodes = 64;
  Collector a;
  Collector b;
  std::vector<hw::Node> nodes_a;
  std::vector<hw::Node> nodes_b;
};

TEST(CollectorNoise, SkippedCyclesDrawTheSameNoiseAfterward) {
  // Cycles 3..6 are skipped by b and swept by a; at cycle 7 both draw the
  // same noise (and, under loss, lose the same reports).
  for (const double loss : {0.0, 0.3}) {
    TwinCollectors t(loss);
    for (std::uint64_t cycle = 1; cycle <= 7; ++cycle) {
      const Seconds now{static_cast<double>(cycle)};
      t.a.collect(t.nodes_a, now, 1);
      if (cycle >= 3 && cycle <= 6) {
        t.b.skip_cycle(1);
      } else {
        t.b.collect(t.nodes_b, now, 1);
      }
    }
    t.expect_same_newest(7);
    if (loss > 0.0) {
      // The draw really is lossy: some of the 64 reports at cycle 7 fell.
      std::size_t fresh = 0;
      for (std::size_t i = 0; i < TwinCollectors::kNodes; ++i) {
        fresh += t.a.latest(static_cast<hw::NodeId>(i))->cycle == 7 ? 1 : 0;
      }
      EXPECT_LT(fresh, TwinCollectors::kNodes);
      EXPECT_GT(fresh, 0u);
    }
  }
}

TEST(CollectorNoise, RestoredCycleClockReplaysTheUninterruptedNoise) {
  // b is a warm restart at cycle 10: restored clock, empty histories. Its
  // first sweep (cycle 11) draws what the uninterrupted a draws there.
  TwinCollectors t;
  for (int cycle = 1; cycle <= 11; ++cycle) {
    t.a.collect(t.nodes_a, Seconds{static_cast<double>(cycle)}, 1);
  }
  t.b.restore_cycle_count(10);
  t.b.collect(t.nodes_b, Seconds{11.0}, 1);
  EXPECT_EQ(t.b.cycle_count(), 11u);
  t.expect_same_newest(11);
}

TEST(CollectorNoise, NodeThatLeftAndReenteredDrawsTheSameNoise) {
  // Node 5 leaves b's candidate set for cycles 3-4; from cycle 5 on it
  // draws what it draws in a, where it never left.
  TwinCollectors t;
  std::vector<hw::NodeId> without_5;
  for (hw::NodeId id = 0; id < TwinCollectors::kNodes; ++id) {
    if (id != 5) without_5.push_back(id);
  }
  const std::vector<hw::NodeId> all = t.a.candidate_set();
  for (int cycle = 1; cycle <= 6; ++cycle) {
    if (cycle == 3) t.b.set_candidate_set(without_5);
    if (cycle == 5) t.b.set_candidate_set(all);
    const Seconds now{static_cast<double>(cycle)};
    t.a.collect(t.nodes_a, now, 1);
    t.b.collect(t.nodes_b, now, 1);
    if (cycle >= 5) t.expect_same_newest(static_cast<std::uint64_t>(cycle));
  }
  EXPECT_EQ(t.b.history(5)->size(), 2u);  // cycles 5 and 6 only
}

TEST(CollectorTransport, BadParamsThrow) {
  CollectorParams p = quiet_params();
  p.transport.loss_rate = 1.0;
  EXPECT_THROW(Collector(p, common::Rng(1)), std::invalid_argument);
  p = quiet_params();
  p.transport.loss_rate = -0.1;
  EXPECT_THROW(Collector(p, common::Rng(1)), std::invalid_argument);
  p = quiet_params();
  p.transport.delay_cycles = -1;
  EXPECT_THROW(Collector(p, common::Rng(1)), std::invalid_argument);
}

}  // namespace
}  // namespace pcap::telemetry
