#include "redundancy/progressive.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/expect.h"
#include "common/rng.h"

namespace smartred::redundancy {
namespace {

std::vector<Vote> binary_votes(int correct, int wrong) {
  std::vector<Vote> votes;
  NodeId node = 0;
  for (int i = 0; i < correct; ++i) votes.push_back({node++, 1});
  for (int i = 0; i < wrong; ++i) votes.push_back({node++, 0});
  return votes;
}

TEST(ProgressiveTest, RejectsEvenOrNonPositiveK) {
  EXPECT_THROW(ProgressiveRedundancy(0), PreconditionError);
  EXPECT_THROW(ProgressiveRedundancy(6), PreconditionError);
  EXPECT_THROW(ProgressiveFactory(-1), PreconditionError);
}

TEST(ProgressiveTest, InitialWaveIsQuorum) {
  ProgressiveRedundancy strategy(19);
  EXPECT_EQ(strategy.quorum(), 10);
  const Decision decision = strategy.decide({});
  ASSERT_FALSE(decision.done());
  EXPECT_EQ(decision.jobs, 10);
}

TEST(ProgressiveTest, UnanimousFirstWaveCompletes) {
  ProgressiveRedundancy strategy(5);
  const auto votes = binary_votes(3, 0);
  const Decision decision = strategy.decide(votes);
  ASSERT_TRUE(decision.done());
  EXPECT_EQ(decision.value, 1);
  EXPECT_EQ(decision.reason, Decision::Reason::kQuorum);
}

TEST(ProgressiveTest, TopUpIsMinimumToReachQuorum) {
  // k = 5, quorum 3. First wave 2-1: one more matching vote would finish.
  ProgressiveRedundancy strategy(5);
  const auto votes = binary_votes(2, 1);
  const Decision decision = strategy.decide(votes);
  ASSERT_FALSE(decision.done());
  EXPECT_EQ(decision.jobs, 1);
}

TEST(ProgressiveTest, PaperWalkthroughK5) {
  // Quorum 3. Waves: 3 jobs -> 2-1 -> +1 -> 2-2 -> +1 -> 3-2 done.
  ProgressiveRedundancy strategy(5);
  EXPECT_EQ(strategy.decide({}).jobs, 3);
  EXPECT_EQ(strategy.decide(binary_votes(2, 1)).jobs, 1);
  EXPECT_EQ(strategy.decide(binary_votes(2, 2)).jobs, 1);
  const Decision decision = strategy.decide(binary_votes(3, 2));
  ASSERT_TRUE(decision.done());
  EXPECT_EQ(decision.value, 1);
}

TEST(ProgressiveTest, WrongConsensusAccepted) {
  ProgressiveRedundancy strategy(5);
  const Decision decision = strategy.decide(binary_votes(0, 3));
  ASSERT_TRUE(decision.done());
  EXPECT_EQ(decision.value, 0);
}

TEST(ProgressiveTest, BinaryTotalNeverExceedsK) {
  // Under binary votes, progressive redundancy reaches a consensus within k
  // jobs: simulate every adversarial vote sequence for small k.
  for (int k : {1, 3, 5, 7}) {
    ProgressiveRedundancy strategy(k);
    rng::Stream rng(99);
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<Vote> votes;
      Decision decision = strategy.decide(votes);
      while (!decision.done()) {
        for (int j = 0; j < decision.jobs; ++j) {
          votes.push_back(
              {static_cast<NodeId>(votes.size()),
               rng.bernoulli(0.5) ? ResultValue{1} : ResultValue{0}});
        }
        decision = strategy.decide(votes);
      }
      EXPECT_LE(static_cast<int>(votes.size()), k) << "k=" << k;
    }
  }
}

TEST(ProgressiveTest, WaveCountBounded) {
  // At most (k+1)/2 waves total under binary votes (the paper bounds the
  // top-up waves by (k−1)/2, plus the initial wave).
  const int k = 9;
  ProgressiveRedundancy strategy(k);
  rng::Stream rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<Vote> votes;
    int waves = 0;
    Decision decision = strategy.decide(votes);
    while (!decision.done()) {
      ++waves;
      for (int j = 0; j < decision.jobs; ++j) {
        votes.push_back({static_cast<NodeId>(votes.size()),
                         rng.bernoulli(0.5) ? ResultValue{1} : ResultValue{0}});
      }
      decision = strategy.decide(votes);
    }
    EXPECT_LE(waves, (k + 1) / 2);
  }
}

TEST(ProgressiveFactoryTest, NameAndProduct) {
  const ProgressiveFactory factory(7);
  EXPECT_EQ(factory.name(), "progressive(k=7)");
  EXPECT_EQ(factory.prototype().k(), 7);
  EXPECT_EQ(factory.make()->decide({}).jobs, 4);
}

}  // namespace
}  // namespace smartred::redundancy
