#include "sched/allocation.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

namespace pcap::sched {
namespace {

std::vector<hw::NodeId> free_ids(int n) {
  std::vector<hw::NodeId> ids(static_cast<std::size_t>(n));
  std::iota(ids.begin(), ids.end(), 0u);
  return ids;
}

TEST(Allocator, FirstFitTakesLowestIds) {
  Allocator a(AllocationStrategy::kFirstFit, common::Rng(1));
  const std::vector<int> cores(8, 12);
  const auto alloc = a.allocate(free_ids(8), cores, 30);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ(alloc->nodes, (std::vector<hw::NodeId>{0, 1, 2}));
  EXPECT_EQ(alloc->procs_per_node, (std::vector<int>{12, 12, 6}));
}

TEST(Allocator, ExactFit) {
  Allocator a(AllocationStrategy::kFirstFit, common::Rng(1));
  const std::vector<int> cores(4, 12);
  const auto alloc = a.allocate(free_ids(4), cores, 24);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ(alloc->nodes.size(), 2u);
  EXPECT_EQ(alloc->procs_per_node, (std::vector<int>{12, 12}));
}

TEST(Allocator, InsufficientCapacityReturnsNullopt) {
  Allocator a(AllocationStrategy::kFirstFit, common::Rng(1));
  const std::vector<int> cores(2, 12);
  EXPECT_FALSE(a.allocate(free_ids(2), cores, 25).has_value());
}

TEST(Allocator, EmptyFreeListReturnsNullopt) {
  Allocator a(AllocationStrategy::kFirstFit, common::Rng(1));
  const std::vector<int> cores(4, 12);
  EXPECT_FALSE(a.allocate({}, cores, 1).has_value());
}

TEST(Allocator, NonPositiveProcsThrows) {
  Allocator a(AllocationStrategy::kFirstFit, common::Rng(1));
  const std::vector<int> cores(2, 12);
  EXPECT_THROW(a.allocate(free_ids(2), cores, 0), std::invalid_argument);
}

TEST(Allocator, PerNodeCapWidensAllocation) {
  Allocator a(AllocationStrategy::kFirstFit, common::Rng(1));
  const std::vector<int> cores(16, 12);
  const auto alloc = a.allocate(free_ids(16), cores, 24, /*cap=*/3);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ(alloc->nodes.size(), 8u);  // 24 procs / 3 per node
  for (const int p : alloc->procs_per_node) EXPECT_LE(p, 3);
}

TEST(Allocator, CapLargerThanCoresIsHarmless) {
  Allocator a(AllocationStrategy::kFirstFit, common::Rng(1));
  const std::vector<int> cores(4, 12);
  const auto alloc = a.allocate(free_ids(4), cores, 24, /*cap=*/100);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ(alloc->nodes.size(), 2u);
}

TEST(Allocator, NegativeCapThrows) {
  Allocator a(AllocationStrategy::kFirstFit, common::Rng(1));
  const std::vector<int> cores(2, 12);
  EXPECT_THROW(a.allocate(free_ids(2), cores, 8, -1), std::invalid_argument);
}

TEST(Allocator, HeterogeneousCores) {
  Allocator a(AllocationStrategy::kFirstFit, common::Rng(1));
  const std::vector<int> cores = {12, 8, 12, 8};
  const auto alloc = a.allocate(free_ids(4), cores, 22);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ(alloc->nodes, (std::vector<hw::NodeId>{0, 1, 2}));
  EXPECT_EQ(alloc->procs_per_node, (std::vector<int>{12, 8, 2}));
}

TEST(Allocator, RandomStrategyStillCoversDemand) {
  Allocator a(AllocationStrategy::kRandom, common::Rng(42));
  const std::vector<int> cores(10, 12);
  const auto alloc = a.allocate(free_ids(10), cores, 50);
  ASSERT_TRUE(alloc.has_value());
  int total = 0;
  std::set<hw::NodeId> unique;
  for (std::size_t i = 0; i < alloc->nodes.size(); ++i) {
    total += alloc->procs_per_node[i];
    unique.insert(alloc->nodes[i]);
  }
  EXPECT_EQ(total, 50);
  EXPECT_EQ(unique.size(), alloc->nodes.size());  // no duplicates
}

TEST(Allocator, RandomStrategyVariesSelection) {
  Allocator a(AllocationStrategy::kRandom, common::Rng(7));
  const std::vector<int> cores(20, 12);
  std::set<std::vector<hw::NodeId>> selections;
  for (int i = 0; i < 10; ++i) {
    selections.insert(a.allocate(free_ids(20), cores, 12)->nodes);
  }
  EXPECT_GT(selections.size(), 1u);
}

}  // namespace
}  // namespace pcap::sched
