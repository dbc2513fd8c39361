#include "redundancy/weighted.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/expect.h"
#include "common/rng.h"
#include "redundancy/analysis.h"
#include "redundancy/iterative.h"
#include "redundancy/montecarlo.h"

namespace smartred::redundancy {
namespace {

ReliabilityLookup constant_lookup(double r) {
  return [r](NodeId) { return r; };
}

std::vector<Vote> binary_votes(int correct, int wrong) {
  std::vector<Vote> votes;
  NodeId node = 0;
  for (int i = 0; i < correct; ++i) votes.push_back({node++, 1});
  for (int i = 0; i < wrong; ++i) votes.push_back({node++, 0});
  return votes;
}

TEST(WeightedTest, RejectsBadParameters) {
  EXPECT_THROW(WeightedIterative(nullptr, 0.7, 0.9), PreconditionError);
  EXPECT_THROW(WeightedIterative(constant_lookup(0.7), 0.5, 0.9),
               PreconditionError);
  EXPECT_THROW(WeightedIterative(constant_lookup(0.7), 0.7, 1.0),
               PreconditionError);
}

TEST(WeightedTest, RejectsUselessLookupValues) {
  WeightedIterative strategy(constant_lookup(0.4), 0.7, 0.9);
  const auto votes = binary_votes(1, 0);
  EXPECT_THROW((void)strategy.decide(votes), PreconditionError);
}

TEST(WeightedTest, PosteriorMatchesUniformClosedForm) {
  // Uniform pool: posterior must equal q(r, a, b) of the paper.
  WeightedIterative strategy(constant_lookup(0.7), 0.7, 0.9);
  for (int a = 0; a <= 6; ++a) {
    for (int b = 0; b <= a; ++b) {
      const auto votes = binary_votes(a, b);
      if (votes.empty()) continue;
      EXPECT_NEAR(strategy.posterior(votes, 1),
                  analysis::confidence(0.7, a, b), 1e-12)
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(WeightedTest, UniformPoolReducesToMarginRule) {
  // Decision-for-decision equal to IterativeRedundancy with the calibrated
  // margin — the "generalizes, never contradicts" property.
  const double r = 0.7;
  const double target = 0.97;
  const int d = analysis::margin_for_confidence(r, target);
  rng::Stream rng(3);
  for (int trial = 0; trial < 300; ++trial) {
    WeightedIterative weighted(constant_lookup(r), r, target);
    IterativeRedundancy simple(d);
    std::vector<Vote> votes;
    while (true) {
      const Decision from_weighted = weighted.decide(votes);
      const Decision from_simple = simple.decide(votes);
      ASSERT_EQ(from_weighted.done(), from_simple.done());
      if (from_weighted.done()) {
        EXPECT_EQ(from_weighted.value, from_simple.value);
        break;
      }
      ASSERT_EQ(from_weighted.jobs, from_simple.jobs);
      for (int j = 0; j < from_weighted.jobs; ++j) {
        votes.push_back({static_cast<NodeId>(votes.size()),
                         rng.bernoulli(r) ? ResultValue{1} : ResultValue{0}});
      }
    }
  }
}

TEST(WeightedTest, StrongVotesCountMore) {
  // One vote from a 0.99 node clears a 0.95 threshold; one from a 0.6 node
  // does not.
  const ReliabilityLookup lookup = [](NodeId node) {
    return node == 0 ? 0.99 : 0.6;
  };
  WeightedIterative strategy(lookup, 0.7, 0.95);
  const std::vector<Vote> strong{{0, 7}};
  EXPECT_TRUE(strategy.decide(strong).done());
  const std::vector<Vote> weak{{1, 7}};
  EXPECT_FALSE(strategy.decide(weak).done());
}

TEST(WeightedTest, StrongDissentOutweighsWeakAgreement) {
  // Two weak agreeing votes vs one near-perfect dissenting vote: the
  // dissenter's answer leads the posterior even though it lost the count.
  const ReliabilityLookup lookup = [](NodeId node) {
    return node == 9 ? 0.999 : 0.55;
  };
  WeightedIterative strategy(lookup, 0.7, 0.9);
  const std::vector<Vote> votes{{1, 7}, {2, 7}, {9, 8}};
  EXPECT_GT(strategy.posterior(votes, 8), strategy.posterior(votes, 7));
}

TEST(WeightedTest, CheaperThanMarginRuleOnMixedPools) {
  // Two-point pool: knowing which nodes are the good ones lets the weighted
  // form stop earlier at equal achieved reliability.
  const double target = 0.99;
  const ReliabilityLookup lookup = [](NodeId node) {
    return node % 2 == 0 ? 0.95 : 0.55;
  };
  const double mean_r = (0.95 + 0.55) / 2.0;

  const VoteSource source = [](std::uint64_t /*task*/, int job,
                               rng::Stream& rng) {
    const auto node = static_cast<NodeId>(job);
    const double r = node % 2 == 0 ? 0.95 : 0.55;
    return Vote{node, rng.bernoulli(r) ? kCorrectValue : kWrongValue};
  };

  MonteCarloConfig config;
  config.tasks = 30'000;
  config.seed = 17;

  const WeightedIterativeFactory weighted(lookup, mean_r, target);
  const MonteCarloResult smart = run_custom(weighted, source, kCorrectValue,
                                            config);
  const IterativeFactory margin_rule(
      analysis::margin_for_confidence(mean_r, target));
  const MonteCarloResult plain = run_custom(margin_rule, source,
                                            kCorrectValue, config);

  EXPECT_GE(smart.reliability(), target - 0.005);
  EXPECT_GE(plain.reliability(), target - 0.005);
  EXPECT_LT(smart.cost_factor(), plain.cost_factor() * 0.9);
}

struct UniformSetup {
  double r;
  double target;
};

class WeightedUniformSweep : public testing::TestWithParam<UniformSetup> {};

TEST_P(WeightedUniformSweep, ReducesToMarginRuleEverywhere) {
  // The uniform-pool reduction must hold across the whole parameter grid,
  // not just one cell (the weighted form computes in LLR space; the margin
  // rule in counts — their integer searches must always agree).
  const auto [r, target] = GetParam();
  const int d = analysis::margin_for_confidence(r, target);
  rng::Stream rng(static_cast<std::uint64_t>(r * 1e4) +
                  static_cast<std::uint64_t>(d));
  for (int trial = 0; trial < 100; ++trial) {
    WeightedIterative weighted(constant_lookup(r), r, target);
    IterativeRedundancy simple(d);
    std::vector<Vote> votes;
    while (true) {
      const Decision a = weighted.decide(votes);
      const Decision b = simple.decide(votes);
      ASSERT_EQ(a.done(), b.done()) << "r=" << r << " R=" << target;
      if (a.done()) {
        EXPECT_EQ(a.value, b.value);
        break;
      }
      ASSERT_EQ(a.jobs, b.jobs) << "r=" << r << " R=" << target;
      for (int j = 0; j < a.jobs; ++j) {
        votes.push_back({static_cast<NodeId>(votes.size()),
                         rng.bernoulli(r) ? ResultValue{1} : ResultValue{0}});
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WeightedUniformSweep,
    testing::Values(UniformSetup{0.55, 0.9}, UniformSetup{0.6, 0.97},
                    UniformSetup{0.7, 0.9}, UniformSetup{0.7, 0.999},
                    UniformSetup{0.8, 0.95}, UniformSetup{0.9, 0.9},
                    UniformSetup{0.9, 0.9999}, UniformSetup{0.99, 0.97}),
    [](const testing::TestParamInfo<UniformSetup>& param_info) {
      std::string name = "r";
      name += std::to_string(static_cast<int>(param_info.param.r * 100));
      name += "_R";
      name += std::to_string(static_cast<int>(param_info.param.target * 1e4));
      return name;
    });

TEST(WeightedFactoryTest, NameAndProduct) {
  const WeightedIterativeFactory factory(constant_lookup(0.7), 0.7, 0.97);
  EXPECT_EQ(factory.name(), "weighted-iterative(R=0.97)");
  EXPECT_FALSE(factory.make()->decide({}).done());
}

}  // namespace
}  // namespace smartred::redundancy
