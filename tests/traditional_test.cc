#include "redundancy/traditional.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/expect.h"

namespace smartred::redundancy {
namespace {

std::vector<Vote> binary_votes(int correct, int wrong) {
  std::vector<Vote> votes;
  NodeId node = 0;
  for (int i = 0; i < correct; ++i) votes.push_back({node++, 1});
  for (int i = 0; i < wrong; ++i) votes.push_back({node++, 0});
  return votes;
}

TEST(TraditionalTest, RejectsEvenOrNonPositiveK) {
  EXPECT_THROW(TraditionalRedundancy(0), PreconditionError);
  EXPECT_THROW(TraditionalRedundancy(2), PreconditionError);
  EXPECT_THROW(TraditionalRedundancy(-3), PreconditionError);
  EXPECT_THROW(TraditionalFactory(4), PreconditionError);
}

TEST(TraditionalTest, InitialWaveIsK) {
  TraditionalRedundancy strategy(7);
  const Decision decision = strategy.decide({});
  ASSERT_FALSE(decision.done());
  EXPECT_EQ(decision.jobs, 7);
}

TEST(TraditionalTest, AcceptsMajorityAfterKVotes) {
  TraditionalRedundancy strategy(5);
  const auto votes = binary_votes(3, 2);
  const Decision decision = strategy.decide(votes);
  ASSERT_TRUE(decision.done());
  EXPECT_EQ(decision.value, 1);
  EXPECT_EQ(decision.reason, Decision::Reason::kMajority);
}

TEST(TraditionalTest, AcceptsWrongMajorityToo) {
  // The strategy has no oracle: a wrong majority wins.
  TraditionalRedundancy strategy(5);
  const auto votes = binary_votes(2, 3);
  const Decision decision = strategy.decide(votes);
  ASSERT_TRUE(decision.done());
  EXPECT_EQ(decision.value, 0);
}

TEST(TraditionalTest, TopsUpAfterLostJobs) {
  // A substrate that lost two jobs re-consults with k−2 votes; the strategy
  // re-dispatches exactly the shortfall.
  TraditionalRedundancy strategy(9);
  const auto votes = binary_votes(4, 3);
  const Decision decision = strategy.decide(votes);
  ASSERT_FALSE(decision.done());
  EXPECT_EQ(decision.jobs, 2);
}

TEST(TraditionalTest, KOneIsNoRedundancy) {
  TraditionalRedundancy strategy(1);
  EXPECT_EQ(strategy.decide({}).jobs, 1);
  const auto votes = binary_votes(1, 0);
  const Decision decision = strategy.decide(votes);
  ASSERT_TRUE(decision.done());
  EXPECT_EQ(decision.value, 1);
}

TEST(TraditionalTest, UsesExactlyKJobsNeverMore) {
  for (int k : {1, 3, 5, 7, 19}) {
    TraditionalRedundancy strategy(k);
    const auto votes = binary_votes((k + 1) / 2, k / 2);
    EXPECT_TRUE(strategy.decide(votes).done()) << "k=" << k;
  }
}

TEST(TraditionalTest, PluralityWinsWithNonBinaryResults) {
  TraditionalRedundancy strategy(5);
  // 2 votes for 7, and 1 each for 8, 9, 10: plurality (not majority) wins.
  const std::vector<Vote> votes{{0, 7}, {1, 7}, {2, 8}, {3, 9}, {4, 10}};
  const Decision decision = strategy.decide(votes);
  ASSERT_TRUE(decision.done());
  EXPECT_EQ(decision.value, 7);
}

TEST(TraditionalFactoryTest, NameAndProduct) {
  const TraditionalFactory factory(19);
  EXPECT_EQ(factory.name(), "traditional(k=19)");
  EXPECT_EQ(factory.prototype().k(), 19);
  auto strategy = factory.make();
  EXPECT_EQ(strategy->decide({}).jobs, 19);
}

}  // namespace
}  // namespace smartred::redundancy
