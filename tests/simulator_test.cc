#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/expect.h"

namespace smartred::sim {
namespace {

TEST(SimulatorTest, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(SimulatorTest, ExecutesEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(SimulatorTest, SameTimestampIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorTest, NowAdvancesToEventTime) {
  Simulator sim;
  double seen = -1.0;
  sim.schedule(2.5, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 2.5);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  std::vector<double> times;
  std::function<void()> chain = [&] {
    times.push_back(sim.now());
    if (times.size() < 4) sim.schedule(1.0, chain);
  };
  sim.schedule(1.0, chain);
  sim.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
}

TEST(SimulatorTest, ScheduleInPastThrows) {
  Simulator sim;
  sim.schedule(1.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule(-0.5, [] {}), PreconditionError);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(SimulatorTest, CancelAfterFireReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule(1.0, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(SimulatorTest, DoubleCancelReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule(1.0, [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
}

TEST(SimulatorTest, CancelUnknownIdReturnsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(EventId{12345}));
}

TEST(SimulatorTest, PendingTracksOutstandingEvents) {
  Simulator sim;
  const EventId a = sim.schedule(1.0, [] {});
  sim.schedule(2.0, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorTest, StepExecutesBoundedNumberOfEvents) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 5; ++i) sim.schedule(1.0 + i, [&] { ++count; });
  EXPECT_EQ(sim.step(3), 3u);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.step(10), 2u);
  EXPECT_EQ(count, 5);
}

TEST(SimulatorTest, EventsExecutedCountsOnlyFired) {
  Simulator sim;
  sim.schedule(1.0, [] {});
  const EventId cancelled = sim.schedule(2.0, [] {});
  sim.cancel(cancelled);
  sim.run();
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(SimulatorTest, CancelledHeadDoesNotBlockQueue) {
  Simulator sim;
  bool fired = false;
  const EventId first = sim.schedule(1.0, [] {});
  sim.schedule(2.0, [&] { fired = true; });
  sim.cancel(first);
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(SimulatorTest, ManyEventsThroughput) {
  Simulator sim;
  std::uint64_t count = 0;
  for (int i = 0; i < 100'000; ++i) {
    sim.schedule(static_cast<double>(i % 1000), [&] { ++count; });
  }
  sim.run();
  EXPECT_EQ(count, 100'000u);
  EXPECT_EQ(sim.events_executed(), 100'000u);
}

}  // namespace
}  // namespace smartred::sim
