#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"

namespace pcap::sim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(Seconds{3.0}, [&] { order.push_back(3); });
  q.schedule(Seconds{1.0}, [&] { order.push_back(1); });
  q.schedule(Seconds{2.0}, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, StableAtEqualTimes) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(Seconds{5.0}, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue q;
  q.schedule(Seconds{7.0}, [] {});
  q.schedule(Seconds{2.0}, [] {});
  EXPECT_EQ(q.next_time(), Seconds{2.0});
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop(), std::logic_error);
  EXPECT_THROW((void)q.next_time(), std::logic_error);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  q.schedule(Seconds{1.0}, [] {});
  q.schedule(Seconds{2.0}, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.pop();
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_EQ(q.size(), 0u);
}

// Property: pops come out sorted by (time, insertion sequence) for random
// schedules.
class EventQueueOrdering : public ::testing::TestWithParam<int> {};

TEST_P(EventQueueOrdering, SortedUnderRandomLoad) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977);
  EventQueue q;
  for (int i = 0; i < 300; ++i) {
    // Whole-second times, so equal-time ties are common.
    q.schedule(Seconds{static_cast<double>(rng.uniform_int(0, 100))}, [] {});
  }
  Seconds last{-1.0};
  std::uint64_t last_seq = 0;
  bool first = true;
  while (!q.empty()) {
    const Event ev = q.pop();
    if (!first) {
      ASSERT_GE(ev.time, last);
      if (ev.time == last) {
        ASSERT_GT(ev.sequence, last_seq);
      }
    }
    last = ev.time;
    last_seq = ev.sequence;
    first = false;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueOrdering, ::testing::Range(1, 9));

}  // namespace
}  // namespace pcap::sim
