#include "redundancy/iterative.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/expect.h"
#include "common/rng.h"
#include "redundancy/iterative_naive.h"

namespace smartred::redundancy {
namespace {

std::vector<Vote> binary_votes(int correct, int wrong) {
  std::vector<Vote> votes;
  NodeId node = 0;
  for (int i = 0; i < correct; ++i) votes.push_back({node++, 1});
  for (int i = 0; i < wrong; ++i) votes.push_back({node++, 0});
  return votes;
}

TEST(IterativeTest, RejectsNonPositiveMargin) {
  EXPECT_THROW(IterativeRedundancy(0), PreconditionError);
  EXPECT_THROW(IterativeFactory(-2), PreconditionError);
}

TEST(IterativeTest, InitialWaveIsD) {
  IterativeRedundancy strategy(6);
  const Decision decision = strategy.decide({});
  ASSERT_FALSE(decision.done());
  EXPECT_EQ(decision.jobs, 6);
}

TEST(IterativeTest, UnanimousFirstWaveCompletes) {
  IterativeRedundancy strategy(4);
  const Decision decision = strategy.decide(binary_votes(4, 0));
  ASSERT_TRUE(decision.done());
  EXPECT_EQ(decision.value, 1);
  EXPECT_EQ(decision.reason, Decision::Reason::kConfidenceReached);
}

TEST(IterativeTest, PaperWalkthroughSixThenFourTwo) {
  // §3.3: seeking 6 unanimous results but getting 4-2 dispatches 4 more,
  // aiming for an 8-to-2 margin.
  IterativeRedundancy strategy(6);
  EXPECT_EQ(strategy.decide({}).jobs, 6);
  const Decision after = strategy.decide(binary_votes(4, 2));
  ASSERT_FALSE(after.done());
  EXPECT_EQ(after.jobs, 4);
  const Decision done = strategy.decide(binary_votes(8, 2));
  ASSERT_TRUE(done.done());
  EXPECT_EQ(done.value, 1);
}

TEST(IterativeTest, MarginSixEquals106To100) {
  // Theorem 1: a 106-100 split instills the same confidence as 6-0; both
  // terminate with margin d = 6.
  IterativeRedundancy strategy(6);
  EXPECT_TRUE(strategy.decide(binary_votes(6, 0)).done());
  EXPECT_TRUE(strategy.decide(binary_votes(106, 100)).done());
  EXPECT_FALSE(strategy.decide(binary_votes(105, 100)).done());
}

TEST(IterativeTest, DispatchEqualsMarginDeficit) {
  IterativeRedundancy strategy(5);
  EXPECT_EQ(strategy.decide(binary_votes(3, 2)).jobs, 4);
  EXPECT_EQ(strategy.decide(binary_votes(4, 2)).jobs, 3);
  EXPECT_EQ(strategy.decide(binary_votes(6, 2)).jobs, 1);
}

TEST(IterativeTest, WrongMajorityAcceptedAtMargin) {
  IterativeRedundancy strategy(3);
  const Decision decision = strategy.decide(binary_votes(0, 3));
  ASSERT_TRUE(decision.done());
  EXPECT_EQ(decision.value, 0);
}

TEST(IterativeTest, TerminatesExactlyAtMargin) {
  // The accepted tally's margin is exactly d — never above (waves cannot
  // overshoot, per the Figure 4 invariant).
  for (int d : {1, 2, 3, 5, 8}) {
    IterativeRedundancy strategy(d);
    rng::Stream rng(static_cast<std::uint64_t>(d) * 31 + 1);
    for (int trial = 0; trial < 300; ++trial) {
      std::vector<Vote> votes;
      Decision decision = strategy.decide(votes);
      while (!decision.done()) {
        for (int j = 0; j < decision.jobs; ++j) {
          votes.push_back({static_cast<NodeId>(votes.size()),
                           rng.bernoulli(0.7) ? ResultValue{1}
                                              : ResultValue{0}});
        }
        decision = strategy.decide(votes);
      }
      const VoteTally tally{votes};
      EXPECT_EQ(tally.margin(), d);
      EXPECT_EQ(tally.leader(), decision.value);
    }
  }
}

TEST(IterativeTest, JobCountIsAlwaysDPlusEvenNumber) {
  const int d = 4;
  IterativeRedundancy strategy(d);
  rng::Stream rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Vote> votes;
    Decision decision = strategy.decide(votes);
    while (!decision.done()) {
      for (int j = 0; j < decision.jobs; ++j) {
        votes.push_back({static_cast<NodeId>(votes.size()),
                         rng.bernoulli(0.6) ? ResultValue{1} : ResultValue{0}});
      }
      decision = strategy.decide(votes);
    }
    const int jobs = static_cast<int>(votes.size());
    EXPECT_GE(jobs, d);
    EXPECT_EQ((jobs - d) % 2, 0);
  }
}

TEST(IterativeTest, NonBinaryMarginUsesRunnerUp) {
  IterativeRedundancy strategy(3);
  // Leader 7 (4 votes), runner-up 8 (2): margin 2, dispatch 1 more.
  const std::vector<Vote> votes{{0, 7}, {1, 7}, {2, 7}, {3, 7},
                                {4, 8}, {5, 8}, {6, 9}};
  const Decision decision = strategy.decide(votes);
  ASSERT_FALSE(decision.done());
  EXPECT_EQ(decision.jobs, 1);
}

TEST(IterativeFactoryTest, NameAndProduct) {
  const IterativeFactory factory(6);
  EXPECT_EQ(factory.name(), "iterative(d=6)");
  EXPECT_EQ(factory.prototype().d(), 6);
  EXPECT_EQ(factory.make()->decide({}).jobs, 6);
}

TEST(IterativeNaiveTest, RejectsOutOfRangeParameters) {
  EXPECT_THROW(IterativeNaive(0.5, 0.9), PreconditionError);
  EXPECT_THROW(IterativeNaive(1.0, 0.9), PreconditionError);
  EXPECT_THROW(IterativeNaive(0.7, 0.4), PreconditionError);
  EXPECT_THROW(IterativeNaive(0.7, 1.0), PreconditionError);
}

TEST(IterativeNaiveTest, ConfidenceMatchesPaperExample) {
  // §3.3: at r = 0.7, one job gives confidence 0.7; four unanimous jobs
  // give 0.7^4 / (0.7^4 + 0.3^4) ≈ 0.9674.
  IterativeNaive strategy(0.7, 0.9);
  EXPECT_NEAR(strategy.confidence(1, 0), 0.7, 1e-12);
  EXPECT_NEAR(strategy.confidence(4, 0), 0.2401 / (0.2401 + 0.0081), 1e-12);
}

TEST(IterativeNaiveTest, ConfidenceAtEqualVotesIsHalf) {
  IterativeNaive strategy(0.8, 0.9);
  EXPECT_NEAR(strategy.confidence(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(strategy.confidence(5, 5), 0.5, 1e-12);
}

TEST(IterativeNaiveTest, RequiredMajorityShiftsWithMinority) {
  // Theorem 1 consequence: d(r, R, b) = b + d(r, R, 0).
  IterativeNaive strategy(0.7, 0.97);
  const int base = strategy.required_majority(0);
  for (int b : {1, 2, 5, 20}) {
    EXPECT_EQ(strategy.required_majority(b), b + base);
  }
}

TEST(IterativeNaiveTest, AcceptsWhenConfidenceReached) {
  IterativeNaive strategy(0.7, 0.9);
  // d(0.7, 0.9) = 3: ρ = 3/7, ρ^3 ≈ 0.0787 -> conf ≈ 0.927 >= 0.9.
  EXPECT_EQ(strategy.decide({}).jobs, 3);
  const Decision decision = strategy.decide(binary_votes(3, 0));
  EXPECT_TRUE(decision.done());
}

}  // namespace
}  // namespace smartred::redundancy
