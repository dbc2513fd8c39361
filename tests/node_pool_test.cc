#include "dca/node_pool.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>

#include "common/expect.h"
#include "common/rng.h"
#include "dca/assignment.h"

namespace smartred::dca {
namespace {

/// Claims a random idle node the way the dispatcher does: pick an id from
/// idle_ids(), then acquire() it. nullopt when no node is idle.
std::optional<redundancy::NodeId> acquire_idle(NodePool& pool,
                                               rng::Stream& rng) {
  const auto idle = pool.idle_ids();
  if (idle.empty()) return std::nullopt;
  const redundancy::NodeId node = idle[rng.index(idle.size())];
  pool.acquire(node);
  return node;
}

TEST(NodePoolTest, InitialPopulation) {
  NodePool pool(100);
  EXPECT_EQ(pool.live_count(), 100u);
  EXPECT_EQ(pool.idle_count(), 100u);
  EXPECT_EQ(pool.busy_count(), 0u);
}

TEST(NodePoolTest, AcquireMarksBusy) {
  NodePool pool(3);
  rng::Stream rng(1);
  const auto node = acquire_idle(pool, rng);
  ASSERT_TRUE(node.has_value());
  EXPECT_EQ(pool.idle_count(), 2u);
  EXPECT_EQ(pool.busy_count(), 1u);
}

TEST(NodePoolTest, ExhaustionReturnsNullopt) {
  NodePool pool(2);
  rng::Stream rng(1);
  EXPECT_TRUE(acquire_idle(pool, rng).has_value());
  EXPECT_TRUE(acquire_idle(pool, rng).has_value());
  EXPECT_FALSE(acquire_idle(pool, rng).has_value());
}

TEST(NodePoolTest, ReleaseReturnsToIdle) {
  NodePool pool(2);
  rng::Stream rng(1);
  const auto node = acquire_idle(pool, rng);
  pool.release(*node);
  EXPECT_EQ(pool.idle_count(), 2u);
  // The released node can be acquired again.
  std::set<redundancy::NodeId> seen;
  for (int i = 0; i < 50; ++i) {
    const auto again = acquire_idle(pool, rng);
    seen.insert(*again);
    pool.release(*again);
  }
  EXPECT_TRUE(seen.contains(*node));
}

// The paper's assignment model: every idle node is equally likely.
TEST(NodePoolTest, SelectionIsUniform) {
  NodePool pool(10);
  rng::Stream rng(7);
  const std::unique_ptr<AssignmentPolicy> policy = make_policy("uniform");
  policy->bind(pool);
  std::map<redundancy::NodeId, int> counts;
  constexpr int kDraws = 50'000;
  for (int i = 0; i < kDraws; ++i) {
    const auto node =
        policy->select(AssignContext{0, 1, pool.live_count()}, pool, rng);
    ASSERT_TRUE(node.has_value());
    ++counts[*node];
  }
  ASSERT_EQ(counts.size(), 10u);
  for (const auto& [node, count] : counts) {
    EXPECT_NEAR(count, kDraws / 10, kDraws / 10 / 5) << "node " << node;
  }
}

TEST(NodePoolTest, JoinAddsFreshIds) {
  NodePool pool(2);
  const auto id = pool.join();
  EXPECT_EQ(pool.live_count(), 3u);
  const auto id2 = pool.join();
  EXPECT_NE(id, id2);
}

TEST(NodePoolTest, LeaveIdleNodeShrinksPool) {
  NodePool pool(3);
  rng::Stream rng(1);
  const auto node = acquire_idle(pool, rng);
  pool.release(*node);
  EXPECT_FALSE(pool.leave(*node));  // was idle
  EXPECT_EQ(pool.live_count(), 2u);
  EXPECT_EQ(pool.idle_count(), 2u);
}

TEST(NodePoolTest, LeaveBusyNodeReportsBusy) {
  NodePool pool(2);
  rng::Stream rng(1);
  const auto node = acquire_idle(pool, rng);
  EXPECT_TRUE(pool.leave(*node));
  EXPECT_EQ(pool.live_count(), 1u);
  EXPECT_EQ(pool.busy_count(), 0u);
}

TEST(NodePoolTest, ReleaseAfterLeaveIsNoop) {
  NodePool pool(2);
  rng::Stream rng(1);
  const auto node = acquire_idle(pool, rng);
  pool.leave(*node);
  pool.release(*node);  // node left while busy; nothing to return
  EXPECT_EQ(pool.live_count(), 1u);
  EXPECT_EQ(pool.idle_count(), 1u);
}

TEST(NodePoolTest, LeaveUnknownNodeThrows) {
  NodePool pool(1);
  EXPECT_THROW((void)pool.leave(999), PreconditionError);
}

TEST(NodePoolTest, PickAnyCoversBusyAndIdle) {
  NodePool pool(4);
  rng::Stream rng(3);
  const auto busy = acquire_idle(pool, rng);
  std::set<redundancy::NodeId> seen;
  for (int i = 0; i < 400; ++i) seen.insert(*pool.pick_any(rng));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_TRUE(seen.contains(*busy));
}

TEST(NodePoolTest, PickAnyOnEmptyPool) {
  NodePool pool(1);
  rng::Stream rng(3);
  const auto node = pool.pick_any(rng);
  pool.leave(*node);
  EXPECT_FALSE(pool.pick_any(rng).has_value());
}

TEST(NodePoolTest, StrikesAccumulateAndClear) {
  NodePool pool(2);
  EXPECT_EQ(pool.add_strike(0), 1);
  EXPECT_EQ(pool.add_strike(0), 2);
  EXPECT_EQ(pool.add_strike(1), 1);  // per-node counters
  pool.clear_strikes(0);
  EXPECT_EQ(pool.add_strike(0), 1);
}

TEST(NodePoolTest, QuarantineRemovesIdleNodeFromRotation) {
  NodePool pool(2);
  rng::Stream rng(5);
  EXPECT_EQ(pool.quarantine(0), 1);
  EXPECT_TRUE(pool.is_quarantined(0));
  EXPECT_EQ(pool.quarantined_count(), 1u);
  EXPECT_EQ(pool.idle_count(), 1u);
  EXPECT_EQ(pool.live_count(), 2u);  // sidelined, not removed
  // Only the healthy node can be acquired.
  for (int i = 0; i < 20; ++i) {
    const auto node = acquire_idle(pool, rng);
    ASSERT_TRUE(node.has_value());
    EXPECT_EQ(*node, 1u);
    pool.release(*node);
  }
}

TEST(NodePoolTest, QuarantineBusyNodeFreesNoSlot) {
  NodePool pool(2);
  rng::Stream rng(5);
  const auto node = acquire_idle(pool, rng);
  EXPECT_EQ(pool.quarantine(*node), 1);
  EXPECT_EQ(pool.busy_count(), 0u);
  EXPECT_EQ(pool.quarantined_count(), 1u);
  // Its abandoned attempt is the caller's problem; releasing later is not
  // expected — re-admission is via readmit().
  EXPECT_TRUE(pool.readmit(*node));
  EXPECT_EQ(pool.idle_count(), 2u);
}

TEST(NodePoolTest, ReadmitReturnsNodeToRotation) {
  NodePool pool(1);
  rng::Stream rng(6);
  pool.quarantine(0);
  EXPECT_FALSE(acquire_idle(pool, rng).has_value());
  EXPECT_TRUE(pool.readmit(0));
  EXPECT_FALSE(pool.is_quarantined(0));
  EXPECT_EQ(pool.quarantined_count(), 0u);
  EXPECT_TRUE(acquire_idle(pool, rng).has_value());
}

TEST(NodePoolTest, QuarantineRoundsEscalate) {
  NodePool pool(1);
  pool.quarantine(0);
  pool.readmit(0);
  EXPECT_EQ(pool.quarantine(0), 2);  // second round drives longer backoff
  pool.readmit(0);
  EXPECT_EQ(pool.quarantine(0), 3);
}

TEST(NodePoolTest, ReadmitAfterChurnOutIsNoop) {
  NodePool pool(2);
  pool.quarantine(0);
  EXPECT_FALSE(pool.leave(0));  // quarantined counts as not busy
  EXPECT_EQ(pool.live_count(), 1u);
  EXPECT_EQ(pool.quarantined_count(), 0u);
  EXPECT_FALSE(pool.readmit(0));  // node is gone; nothing to re-admit
}

TEST(NodePoolTest, DoubleQuarantineThrows) {
  NodePool pool(1);
  pool.quarantine(0);
  EXPECT_THROW((void)pool.quarantine(0), PreconditionError);
}

TEST(NodePoolTest, PickAnyCoversQuarantinedNodes) {
  // Churn victims are drawn from all live nodes, quarantined included.
  NodePool pool(2);
  rng::Stream rng(8);
  pool.quarantine(0);
  std::set<redundancy::NodeId> seen;
  for (int i = 0; i < 200; ++i) seen.insert(*pool.pick_any(rng));
  EXPECT_TRUE(seen.contains(0));
  EXPECT_TRUE(seen.contains(1));
}

TEST(NodePoolTest, StressChurnKeepsInvariants) {
  NodePool pool(50);
  rng::Stream rng(11);
  std::set<redundancy::NodeId> busy;
  for (int step = 0; step < 10'000; ++step) {
    const auto action = rng.uniform_int(0, 3);
    if (action == 0) {
      const auto node = acquire_idle(pool, rng);
      if (node.has_value()) busy.insert(*node);
    } else if (action == 1 && !busy.empty()) {
      const auto node = *busy.begin();
      busy.erase(busy.begin());
      pool.release(node);
    } else if (action == 2) {
      pool.join();
    } else if (pool.live_count() > 0) {
      const auto victim = pool.pick_any(rng);
      pool.leave(*victim);
      busy.erase(*victim);
    }
    EXPECT_EQ(pool.busy_count(), busy.size());
    EXPECT_EQ(pool.idle_count() + pool.busy_count(), pool.live_count());
  }
}

}  // namespace
}  // namespace smartred::dca
