// Slot-arena internals of the DES kernel, observed through its public
// surface: generation-tagged handles (the ABA defences), exact pending()
// bookkeeping under heavy slot recycling, FIFO ordering among equal
// timestamps, a randomized schedule/cancel/fire fuzz against a naïve
// sorted-reference model, and the zero-allocation steady state (this binary
// links perfbench's counting operator new, perfbench/alloc_count.cc, to
// prove the schedule→fire path never touches the heap once the arena is
// warm).
//
// Run under SMARTRED_SANITIZE=address / =thread configurations, these tests
// double as the memory-safety net for the arena's slot reuse.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <vector>

#include "common/rng.h"
#include "perfbench/alloc_count.h"
#include "redundancy/types.h"

namespace smartred::sim {
namespace {

TEST(SimulatorArenaTest, CancelAfterFireFails) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.schedule(1.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  // The slot's generation moved on when the event fired; the stale handle
  // must not cancel anything (and must not disturb pending()).
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorArenaTest, CancelTwiceFails) {
  Simulator sim;
  const EventId id = sim.schedule(1.0, [] {});
  sim.schedule(2.0, [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(SimulatorArenaTest, StaleHandleToRecycledSlotFails) {
  Simulator sim;
  const EventId first = sim.schedule(1.0, [] {});
  ASSERT_TRUE(sim.cancel(first));
  // The freed slot is recycled for the next event; the generations differ.
  const EventId second = sim.schedule(1.0, [] {});
  ASSERT_EQ(second.slot, first.slot);
  EXPECT_NE(second.generation, first.generation);
  // The ABA case: the old handle names a live slot but a dead occupancy.
  EXPECT_FALSE(sim.cancel(first));
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_TRUE(sim.cancel(second));
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorArenaTest, ForgedAndDefaultHandlesFail) {
  Simulator sim;
  sim.schedule(1.0, [] {});
  EXPECT_FALSE(sim.cancel(EventId{}));  // never issued
  EXPECT_FALSE(sim.cancel(EventId{.slot = 12345, .generation = 1}));
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(SimulatorArenaTest, SlotReuseKeepsPendingExactAndSlotsBounded) {
  Simulator sim;
  std::uint64_t fired = 0;
  std::uint32_t max_slot = 0;
  std::size_t expected_pending = 0;
  // Each round schedules three, cancels one, fires one: the arena recycles
  // slots continuously while the backlog ratchets up by one per round.
  for (int round = 0; round < 1'000; ++round) {
    EventId cancel_me{};
    for (int j = 0; j < 3; ++j) {
      const EventId id =
          sim.schedule(1.0 + 0.001 * j, [&fired] { ++fired; });
      max_slot = std::max(max_slot, id.slot);
      ++expected_pending;
      if (j == 1) cancel_me = id;
    }
    ASSERT_TRUE(sim.cancel(cancel_me));
    --expected_pending;
    ASSERT_EQ(sim.step(1), 1u);
    --expected_pending;
    ASSERT_EQ(sim.pending(), expected_pending);
  }
  EXPECT_EQ(fired, 1'000u);
  EXPECT_EQ(sim.pending(), 1'000u);
  // Freed slots must actually be recycled: the arena never grows past the
  // peak number of simultaneously pending events, although 3000 events
  // were scheduled.
  EXPECT_LE(max_slot, 1'002u);
  sim.run();
  EXPECT_EQ(fired, 2'000u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorArenaTest, FifoAmongEqualTimestampsSurvivesCancels) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventId> ids;
  // 500 events at the same timestamp, scheduled after (and around) events
  // at a later timestamp, with every third one cancelled: survivors must
  // fire in exact schedule order, before any of the later events.
  for (int i = 0; i < 100; ++i) {
    sim.schedule(9.0, [&order, i] { order.push_back(1'000 + i); });
  }
  for (int i = 0; i < 500; ++i) {
    ids.push_back(sim.schedule(5.0, [&order, i] { order.push_back(i); }));
  }
  for (std::size_t i = 0; i < 500; i += 3) ASSERT_TRUE(sim.cancel(ids[i]));
  sim.run();
  std::vector<int> expected;
  for (int i = 0; i < 500; ++i) {
    if (i % 3 != 0) expected.push_back(i);
  }
  for (int i = 0; i < 100; ++i) expected.push_back(1'000 + i);
  EXPECT_EQ(order, expected);
}

// A naïve reference model: every live event in a flat vector, the next one
// found by scanning for min (when, sequence). Slow but obviously correct.
struct RefEvent {
  double when = 0.0;
  std::uint64_t sequence = 0;
  int id = 0;
  bool alive = false;
};

TEST(SimulatorArenaTest, RandomizedFuzzAgainstReferenceModel) {
  Simulator sim;
  std::mt19937 rng(0xC0FFEEu);
  std::uniform_real_distribution<double> delay(0.0, 10.0);
  std::uniform_int_distribution<int> op(0, 99);

  std::vector<RefEvent> ref;           // one entry per ever-scheduled event
  std::vector<EventId> handles;        // parallel to ref
  std::vector<int> fired;              // ids in firing order (the kernel's)
  std::vector<int> expected_fired;     // ids in firing order (the model's)
  std::uint64_t next_sequence = 0;
  double now = 0.0;

  const auto ref_pending = [&] {
    return static_cast<std::size_t>(
        std::count_if(ref.begin(), ref.end(),
                      [](const RefEvent& e) { return e.alive; }));
  };
  const auto ref_pop_next = [&]() -> RefEvent& {
    RefEvent* best = nullptr;
    for (RefEvent& e : ref) {
      if (!e.alive) continue;
      if (best == nullptr || e.when < best->when ||
          (e.when == best->when && e.sequence < best->sequence)) {
        best = &e;
      }
    }
    return *best;
  };

  for (int step = 0; step < 10'000; ++step) {
    const int r = op(rng);
    if (r < 55) {  // schedule
      const int id = static_cast<int>(ref.size());
      // Quantize delays so identical timestamps (the FIFO tie-break path)
      // actually occur.
      const double d = std::floor(delay(rng) * 4.0) / 4.0;
      handles.push_back(sim.schedule(d, [&fired, id] { fired.push_back(id); }));
      ref.push_back(RefEvent{now + d, next_sequence++, id, true});
    } else if (r < 80) {  // cancel a random handle, live or stale
      if (ref.empty()) continue;
      const std::size_t pick =
          std::uniform_int_distribution<std::size_t>(0, ref.size() - 1)(rng);
      const bool was_alive = ref[pick].alive;
      ASSERT_EQ(sim.cancel(handles[pick]), was_alive) << "event " << pick;
      ref[pick].alive = false;
    } else {  // fire the next event
      if (ref_pending() == 0) {
        ASSERT_EQ(sim.step(1), 0u);
        continue;
      }
      ASSERT_EQ(sim.step(1), 1u);
      RefEvent& next = ref_pop_next();
      next.alive = false;
      now = next.when;
      expected_fired.push_back(next.id);
      ASSERT_DOUBLE_EQ(sim.now(), next.when);
    }
    ASSERT_EQ(sim.pending(), ref_pending());
  }

  // Drain both queues completely and compare the full firing orders.
  sim.run();
  while (ref_pending() > 0) {
    RefEvent& next = ref_pop_next();
    next.alive = false;
    expected_fired.push_back(next.id);
  }
  EXPECT_EQ(fired, expected_fired);
}

TEST(SimulatorArenaTest, SteadyStateChurnMakesNoAllocations) {
  Simulator sim;
  constexpr int kBacklog = 512;
  std::uint64_t fired = 0;
  // Warm the arena and the heap vector up to the working backlog once.
  for (int i = 0; i < kBacklog; ++i) {
    sim.schedule(1.0 + 0.01 * i, [&fired] { ++fired; });
  }
  ASSERT_EQ(sim.step(kBacklog), static_cast<std::uint64_t>(kBacklog));

  const std::uint64_t before = perfbench::alloc::total_count();
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < kBacklog; ++i) {
      sim.schedule(1.0 + 0.01 * i, [&fired] { ++fired; });
    }
    if (sim.step(kBacklog) != static_cast<std::uint64_t>(kBacklog)) break;
  }
  const std::uint64_t after = perfbench::alloc::total_count();

  EXPECT_EQ(after - before, 0u)
      << "schedule→fire churn allocated on a warm arena";
  EXPECT_EQ(fired, static_cast<std::uint64_t>(kBacklog) * 201u);
}

TEST(SimulatorArenaTest, ScheduleBatchMakesNoAllocationsWhenWarm) {
  Simulator sim;
  constexpr std::size_t kBatch = 256;
  std::uint64_t fired = 0;
  std::array<double, kBatch> delays;
  std::array<EventId, kBatch> ids;
  for (std::size_t i = 0; i < kBatch; ++i) {
    delays[i] = 1.0 + 0.01 * static_cast<double>(i);
  }
  // One warm-up round grows the arena, the free list, and the heap vector
  // to the working set; after that bulk insertion must never allocate.
  sim.schedule_batch(delays, [&fired](std::size_t) {
    return [&fired] { ++fired; };
  });
  ASSERT_EQ(sim.step(kBatch), kBatch);

  const std::uint64_t before = perfbench::alloc::total_count();
  for (int round = 0; round < 100; ++round) {
    sim.schedule_batch(
        delays,
        [&fired](std::size_t) {
          return [&fired] { ++fired; };
        },
        ids.data());
    ASSERT_EQ(sim.step(kBatch), kBatch);
  }
  const std::uint64_t after = perfbench::alloc::total_count();

  EXPECT_EQ(after - before, 0u)
      << "bulk insertion allocated on a warm arena";
  EXPECT_EQ(fired, kBatch * 101u);
}

TEST(SimulatorArenaTest, ScheduleBatchInterleavesWithScalarSchedules) {
  // Pop order must be indistinguishable from the equivalent sequence of
  // one-at-a-time schedules: same timestamps fire in insertion order
  // whether they arrived staged or scalar.
  Simulator batched;
  Simulator scalar;
  std::vector<int> batched_order;
  std::vector<int> scalar_order;
  const std::array<double, 6> delays = {3.0, 1.0, 2.0, 1.0, 3.0, 2.0};
  scalar.schedule(2.0, [&scalar_order] { scalar_order.push_back(-1); });
  for (std::size_t i = 0; i < delays.size(); ++i) {
    scalar.schedule(delays[i], [&scalar_order, i] {
      scalar_order.push_back(static_cast<int>(i));
    });
  }
  batched.schedule(2.0, [&batched_order] { batched_order.push_back(-1); });
  batched.schedule_batch(delays, [&batched_order](std::size_t i) {
    return [&batched_order, i] {
      batched_order.push_back(static_cast<int>(i));
    };
  });
  scalar.run();
  batched.run();
  EXPECT_EQ(batched_order, scalar_order);
}

// The other two batched hot paths share this binary's counting allocator:
// both must run entirely on stack/inline storage.

TEST(SimulatorArenaTest, BernoulliBatchMakesNoAllocations) {
  rng::Stream stream(5);
  bool out[512];
  const std::uint64_t before = perfbench::alloc::total_count();
  for (int round = 0; round < 100; ++round) {
    stream.bernoulli_batch(0.7, 512, out);
    stream.uniform01_batch(0, nullptr);
  }
  const std::uint64_t after = perfbench::alloc::total_count();
  EXPECT_EQ(after - before, 0u) << "batched Bernoulli draws allocated";
  EXPECT_TRUE(out[0] || !out[0]);  // keep the buffer observable
}

TEST(SimulatorArenaTest, VoteFoldMakesNoAllocationsAtInlineWidth) {
  // A binary wave (two distinct values) of any length stays in the
  // tally's inline small-buffer; folding and ranking it must not touch
  // the heap.
  std::array<redundancy::Vote, 64> votes;
  for (std::size_t i = 0; i < votes.size(); ++i) {
    votes[i] = redundancy::Vote{static_cast<redundancy::NodeId>(i),
                                i % 3 == 0 ? 7 : 42, 0};
  }
  const std::uint64_t before = perfbench::alloc::total_count();
  int leader_count = 0;
  for (int round = 0; round < 100; ++round) {
    redundancy::VoteTally tally{votes};
    leader_count += tally.standing().leader_count;
  }
  const std::uint64_t after = perfbench::alloc::total_count();
  EXPECT_EQ(after - before, 0u) << "inline-width vote fold allocated";
  EXPECT_EQ(leader_count, 100 * 42);  // 42 of the 64 votes say 42
}

}  // namespace
}  // namespace smartred::sim
