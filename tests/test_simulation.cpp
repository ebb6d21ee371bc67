#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace pcap::sim {
namespace {

TEST(Simulation, ClockStartsAtZero) {
  Simulation sim;
  EXPECT_EQ(sim.now(), Seconds{0.0});
}

TEST(Simulation, RunUntilAdvancesClockToEnd) {
  Simulation sim;
  sim.run_until(Seconds{10.0});
  EXPECT_EQ(sim.now(), Seconds{10.0});
}

TEST(Simulation, ScheduleInFiresAtRightTime) {
  Simulation sim;
  Seconds fired{-1.0};
  sim.schedule_at(sim.now() + Seconds{5.0}, [&] { fired = sim.now(); });
  sim.run_until(Seconds{10.0});
  EXPECT_EQ(fired, Seconds{5.0});
}

TEST(Simulation, ScheduleAtAbsoluteTime) {
  Simulation sim;
  sim.run_until(Seconds{2.0});
  Seconds fired{-1.0};
  sim.schedule_at(Seconds{7.0}, [&] { fired = sim.now(); });
  sim.run_until(Seconds{10.0});
  EXPECT_EQ(fired, Seconds{7.0});
}

TEST(Simulation, EventsBeyondEndDoNotFire) {
  Simulation sim;
  bool ran = false;
  sim.schedule_at(Seconds{5.0}, [&] { ran = true; });
  sim.run_until(Seconds{4.0});
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.now(), Seconds{4.0});
  sim.run_until(Seconds{5.0});
  EXPECT_TRUE(ran);
}

TEST(Simulation, PastAbsoluteTimeThrows) {
  Simulation sim;
  sim.run_until(Seconds{5.0});
  EXPECT_THROW(sim.schedule_at(Seconds{4.0}, [] {}), std::invalid_argument);
}

TEST(Simulation, PastEndThrows) {
  Simulation sim;
  sim.run_until(Seconds{5.0});
  EXPECT_THROW(sim.run_until(Seconds{4.0}), std::invalid_argument);
}

TEST(Simulation, EventsCanScheduleEvents) {
  Simulation sim;
  std::vector<double> times;
  sim.schedule_at(Seconds{1.0}, [&] {
    times.push_back(sim.now().value());
    sim.schedule_at(sim.now() + Seconds{1.0},
                    [&] { times.push_back(sim.now().value()); });
  });
  sim.run_until(Seconds{10.0});
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
}

TEST(Simulation, PeriodicFiresAtFixedCadence) {
  Simulation sim;
  std::vector<double> times;
  sim.every(Seconds{2.0}, Seconds{2.0},
            [&](Seconds t) { times.push_back(t.value()); });
  sim.run_until(Seconds{9.0});
  EXPECT_EQ(times, (std::vector<double>{2.0, 4.0, 6.0, 8.0}));
}

TEST(Simulation, PeriodicWithZeroOffsetFiresImmediately) {
  Simulation sim;
  int count = 0;
  sim.every(Seconds{1.0}, Seconds{0.0}, [&](Seconds) { ++count; });
  sim.run_until(Seconds{3.0});
  EXPECT_EQ(count, 4);  // t = 0, 1, 2, 3
}

TEST(Simulation, NonPositivePeriodThrows) {
  Simulation sim;
  EXPECT_THROW(sim.every(Seconds{0.0}, Seconds{0.0}, [](Seconds) {}),
               std::invalid_argument);
}

TEST(Simulation, EventsProcessedCounter) {
  Simulation sim;
  sim.every(Seconds{1.0}, Seconds{1.0}, [](Seconds) {});
  sim.run_until(Seconds{5.0});
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(Simulation, TwoPeriodicsStableOrderAtTies) {
  Simulation sim;
  std::vector<int> order;
  sim.every(Seconds{1.0}, Seconds{1.0}, [&](Seconds) { order.push_back(1); });
  sim.every(Seconds{1.0}, Seconds{1.0}, [&](Seconds) { order.push_back(2); });
  sim.run_until(Seconds{2.0});
  ASSERT_EQ(order.size(), 4u);
  // First-registered process fires first at every shared instant.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2}));
}

}  // namespace
}  // namespace pcap::sim
