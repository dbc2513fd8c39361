#include "redundancy/self_tuning.h"

#include <gtest/gtest.h>

#include "common/expect.h"
#include "redundancy/analysis.h"
#include "redundancy/montecarlo.h"

namespace smartred::redundancy {
namespace {

SelfTuningConfig config_for(double target) {
  SelfTuningConfig config;
  config.target_reliability = target;
  return config;
}

TEST(SelfTuningTest, RejectsBadConfig) {
  SelfTuningConfig config;
  config.target_reliability = 1.0;
  EXPECT_THROW(SelfTuningFactory{config}, PreconditionError);
  config = SelfTuningConfig{};
  config.initial_margin = 0;
  EXPECT_THROW(SelfTuningFactory{config}, PreconditionError);
  config = SelfTuningConfig{};
  config.max_margin = 1;  // below initial_margin (6)
  EXPECT_THROW(SelfTuningFactory{config}, PreconditionError);
  config = SelfTuningConfig{};
  config.min_usable_estimate = 0.5;
  EXPECT_THROW(SelfTuningFactory{config}, PreconditionError);
}

TEST(SelfTuningTest, ColdStartUsesInitialMargin) {
  const SelfTuningFactory factory(config_for(0.99));
  EXPECT_EQ(factory.prototype().margin(), SelfTuningConfig{}.initial_margin);
  auto strategy = factory.make();
  EXPECT_EQ(strategy->decide({}).jobs, SelfTuningConfig{}.initial_margin);
}

TEST(SelfTuningTest, WarmEstimatorDerivesMargin) {
  const SelfTuningFactory factory(config_for(0.99));
  // Enough votes to clear both the warmup and the Wilson lower bound.
  factory.prototype().estimator().observe_votes(90'000, 100'000);  // r̂ = 0.9
  const int expected = analysis::margin_for_confidence(0.9, 0.99);
  EXPECT_EQ(factory.prototype().margin(), expected);
}

TEST(SelfTuningTest, BelowWarmupKeepsInitialMargin) {
  SelfTuningConfig config = config_for(0.99);
  config.warmup_votes = 500;
  const SelfTuningFactory factory(config);
  factory.prototype().estimator().observe_votes(90, 100);  // only 100 votes
  EXPECT_EQ(factory.prototype().margin(), config.initial_margin);
}

TEST(SelfTuningTest, UnusableEstimateFallsBack) {
  const SelfTuningFactory factory(config_for(0.99));
  // r̂ = 0.52 <= floor
  factory.prototype().estimator().observe_votes(5'200, 10'000);
  EXPECT_EQ(factory.prototype().margin(),
            SelfTuningConfig{}.initial_margin);
}

TEST(SelfTuningTest, MarginCappedAtMaximum) {
  SelfTuningConfig config = config_for(0.9999);
  config.max_margin = 8;
  const SelfTuningFactory factory(config);
  // r̂ = 0.58 with a tight bound: the 0.9999 target wants a margin in the
  // thirties; the cap clamps it.
  factory.prototype().estimator().observe_votes(58'000, 100'000);
  EXPECT_EQ(factory.prototype().margin(), 8);
}

TEST(SelfTuningTest, AcceptanceFeedsFirstWaveExactlyOnce) {
  const SelfTuningFactory factory(config_for(0.9));
  auto strategy = factory.make();
  // Initial wave: 6 jobs (cold initial margin).
  ASSERT_EQ(strategy->decide({}).jobs, 6);
  const std::vector<Vote> votes{{0, 1}, {1, 1}, {2, 1},
                                {3, 1}, {4, 1}, {5, 1}};
  ASSERT_TRUE(strategy->decide(votes).done());
  // Exactly the first wave's 6 votes are recorded.
  EXPECT_EQ(factory.prototype().estimator().votes_observed(), 6u);
  // Re-consulting with the same final votes must not double-count.
  ASSERT_TRUE(strategy->decide(votes).done());
  EXPECT_EQ(factory.prototype().estimator().votes_observed(), 6u);
}

TEST(SelfTuningTest, OnlyFirstWaveVotesAreSampled) {
  // A task that needed three waves still contributes only its first wave:
  // later votes are adaptively sampled and would bias the estimate.
  const SelfTuningFactory factory(config_for(0.9));
  auto strategy = factory.make();
  ASSERT_EQ(strategy->decide({}).jobs, 6);
  // Wave 1 splits 4-2 (margin 2): dispatch 4 more.
  std::vector<Vote> votes{{0, 1}, {1, 1}, {2, 1}, {3, 1}, {4, 0}, {5, 0}};
  ASSERT_FALSE(strategy->decide(votes).done());
  for (int i = 6; i < 10; ++i) {
    votes.push_back({static_cast<NodeId>(i), 1});
  }
  ASSERT_TRUE(strategy->decide(votes).done());
  EXPECT_EQ(factory.prototype().estimator().votes_observed(), 6u);
  // 4 of the 6 first-wave votes agreed with the accepted value.
  EXPECT_NEAR(factory.prototype().estimator().estimate(), 4.0 / 6.0, 1e-12);
}

TEST(SelfTuningTest, ReachesTargetWithoutKnowingR) {
  // End to end: target 0.99 on a pool the strategy knows nothing about.
  const double true_r = 0.8;
  const SelfTuningFactory factory(config_for(0.99));
  MonteCarloConfig config;
  config.tasks = 40'000;
  config.seed = 21;
  const MonteCarloResult result = run_binary(factory, true_r, config);
  EXPECT_GE(result.reliability(), 0.987);
  // And it should not be wildly overshooting on cost: the converged margin
  // is the calibrated one.
  const int converged = factory.prototype().margin();
  EXPECT_EQ(converged, analysis::margin_for_confidence(true_r, 0.99));
  EXPECT_NEAR(factory.prototype().estimator().estimate(), true_r, 0.01);
}

TEST(SelfTuningTest, AdaptsMarginDownForReliablePools) {
  // r = 0.95 needs a much smaller margin than the conservative initial 6.
  const SelfTuningFactory factory(config_for(0.99));
  MonteCarloConfig config;
  config.tasks = 20'000;
  config.seed = 22;
  const MonteCarloResult result = run_binary(factory, 0.95, config);
  EXPECT_LT(factory.prototype().margin(), 6);
  EXPECT_GE(result.reliability(), 0.99 - 0.005);
  // Cost approaches the calibrated optimum, far below the cold-start cost.
  EXPECT_LT(result.cost_factor(),
            analysis::iterative_cost(6, 0.95) * 0.8);
}

TEST(SelfTuningTest, FactoryNameCarriesTarget) {
  const SelfTuningFactory factory(config_for(0.97));
  EXPECT_EQ(factory.name(), "self-tuning(R=0.97)");
}

}  // namespace
}  // namespace smartred::redundancy
