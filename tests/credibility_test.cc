#include "redundancy/credibility.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/expect.h"

namespace smartred::redundancy {
namespace {

TEST(ReputationBookTest, RejectsBadFaultFraction) {
  EXPECT_THROW(ReputationBook(0.0), PreconditionError);
  EXPECT_THROW(ReputationBook(1.0), PreconditionError);
}

TEST(ReputationBookTest, NewNodeStartsAtOneMinusF) {
  const ReputationBook book(0.3);
  EXPECT_DOUBLE_EQ(book.credibility(7), 0.7);
  EXPECT_FALSE(book.blacklisted(7));
}

TEST(ReputationBookTest, CredibilityGrowsWithSpotChecks) {
  ReputationBook book(0.3);
  double previous = book.credibility(1);
  for (int i = 0; i < 10; ++i) {
    book.record_spot_check(1, true);
    const double now = book.credibility(1);
    EXPECT_GT(now, previous);
    previous = now;
  }
  // 10 passed checks: 1 − 0.3/11.
  EXPECT_NEAR(previous, 1.0 - 0.3 / 11.0, 1e-12);
}

TEST(ReputationBookTest, FailedSpotCheckBlacklists) {
  ReputationBook book(0.2);
  book.record_spot_check(3, true);
  book.record_spot_check(3, false);
  EXPECT_TRUE(book.blacklisted(3));
  EXPECT_EQ(book.blacklisted_count(), 1u);
}

TEST(ReputationBookTest, ForgetSimulatesIdentityChurn) {
  ReputationBook book(0.2);
  book.record_spot_check(5, false);
  EXPECT_TRUE(book.blacklisted(5));
  book.forget(5);
  EXPECT_FALSE(book.blacklisted(5));
  EXPECT_DOUBLE_EQ(book.credibility(5), 0.8);
}

TEST(CredibilityStrategyTest, SingleHighCredibilityVoteAccepted) {
  auto book = std::make_shared<ReputationBook>(0.3);
  // 20 survived spot-checks: credibility 1 − 0.3/21 ≈ 0.986.
  for (int i = 0; i < 20; ++i) book->record_spot_check(1, true);
  CredibilityStrategy strategy(book, 0.95);
  const std::vector<Vote> votes{{1, 42}};
  const Decision decision = strategy.decide(votes);
  ASSERT_TRUE(decision.done());
  EXPECT_EQ(decision.value, 42);
}

TEST(CredibilityStrategyTest, SingleLowCredibilityVoteNotEnough) {
  auto book = std::make_shared<ReputationBook>(0.3);
  CredibilityStrategy strategy(book, 0.95);
  const std::vector<Vote> votes{{1, 42}};
  const Decision decision = strategy.decide(votes);
  ASSERT_FALSE(decision.done());
  EXPECT_EQ(decision.jobs, 1);
}

TEST(CredibilityStrategyTest, AgreementAccumulatesConfidence) {
  auto book = std::make_shared<ReputationBook>(0.3);
  CredibilityStrategy strategy(book, 0.95);
  // Three fresh nodes (credibility 0.7 each) agreeing: posterior
  // 0.7^3 / (0.7^3 + 0.3^3) ≈ 0.927 — still short of 0.95; four reach it.
  std::vector<Vote> votes{{1, 8}, {2, 8}, {3, 8}};
  EXPECT_FALSE(strategy.decide(votes).done());
  votes.push_back({4, 8});
  EXPECT_TRUE(strategy.decide(votes).done());
}

TEST(CredibilityStrategyTest, PosteriorMatchesHandComputation) {
  auto book = std::make_shared<ReputationBook>(0.3);
  const CredibilityStrategy strategy(book, 0.9);
  const std::vector<Vote> votes{{1, 5}, {2, 5}, {3, 6}};
  // All credibility 0.7: q = (0.7^2 * 0.3) / (0.7^2 * 0.3 + 0.3^2 * 0.7).
  const double expected = (0.49 * 0.3) / (0.49 * 0.3 + 0.09 * 0.7);
  EXPECT_NEAR(strategy.posterior(votes, 5), expected, 1e-12);
  EXPECT_NEAR(strategy.posterior(votes, 6), 1.0 - expected, 1e-12);
}

TEST(CredibilityStrategyTest, BlacklistedVotesIgnored) {
  auto book = std::make_shared<ReputationBook>(0.3);
  book->record_spot_check(9, false);  // node 9 blacklisted
  CredibilityStrategy strategy(book, 0.9);
  // Node 9's dissent does not dilute three agreeing fresh nodes + one more.
  std::vector<Vote> votes{{1, 5}, {2, 5}, {3, 5}, {4, 5}, {9, 6}};
  const Decision decision = strategy.decide(votes);
  ASSERT_TRUE(decision.done());
  EXPECT_EQ(decision.value, 5);
}

TEST(CredibilityStrategyTest, OnlyBlacklistedVotesDispatchesMore) {
  auto book = std::make_shared<ReputationBook>(0.3);
  book->record_spot_check(9, false);
  CredibilityStrategy strategy(book, 0.9);
  const std::vector<Vote> votes{{9, 5}};
  const Decision decision = strategy.decide(votes);
  ASSERT_FALSE(decision.done());
}

TEST(CredibilityStrategyTest, TrustedLiarDefeatsTheScheme) {
  // The §5.1 attack: a node earns credibility then lies. A single wrong
  // answer from a highly trusted node is accepted unchecked.
  auto book = std::make_shared<ReputationBook>(0.3);
  for (int i = 0; i < 50; ++i) book->record_spot_check(13, true);
  CredibilityStrategy strategy(book, 0.95);
  const std::vector<Vote> votes{{13, /*wrong answer*/ 666}};
  const Decision decision = strategy.decide(votes);
  ASSERT_TRUE(decision.done());
  EXPECT_EQ(decision.value, 666);
}

TEST(CredibilityFactoryTest, SharedBookAcrossTasks) {
  auto book = std::make_shared<ReputationBook>(0.25);
  const CredibilityFactory factory(book, 0.9);
  book->record_spot_check(2, true);
  auto strategy_a = factory.make();
  auto strategy_b = factory.make();
  EXPECT_NE(strategy_a.get(), strategy_b.get());
  EXPECT_EQ(factory.name(), "credibility(threshold=0.9)");
}

TEST(CredibilityStrategyTest, RejectsBadThreshold) {
  auto book = std::make_shared<ReputationBook>(0.3);
  EXPECT_THROW(CredibilityStrategy(book, 0.4), PreconditionError);
  EXPECT_THROW(CredibilityStrategy(book, 1.0), PreconditionError);
  EXPECT_THROW(CredibilityStrategy(nullptr, 0.9), PreconditionError);
}

}  // namespace
}  // namespace smartred::redundancy
