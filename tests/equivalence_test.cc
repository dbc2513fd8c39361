// Proof-by-test of the paper's simplifying insight (§3.3, Theorems 1 and 2):
// the simple margin-d algorithm deploys exactly the same number of jobs as
// the naïve confidence-threshold algorithm in every situation, so knowing
// the node reliability r buys nothing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "exp/parallel_runner.h"
#include "redundancy/analysis.h"
#include "redundancy/iterative.h"
#include "redundancy/iterative_naive.h"
#include "redundancy/montecarlo.h"
#include "redundancy/progressive.h"
#include "redundancy/traditional.h"

namespace smartred::redundancy {
namespace {

struct Setup {
  double r;
  double target;
};

class EquivalenceTest : public testing::TestWithParam<Setup> {};

TEST_P(EquivalenceTest, InitialWaveMatches) {
  const auto [r, target] = GetParam();
  IterativeNaive naive(r, target);
  const int d = analysis::margin_for_confidence(r, target);
  IterativeRedundancy simple(d);
  EXPECT_EQ(naive.decide({}).jobs, simple.decide({}).jobs);
}

TEST_P(EquivalenceTest, DecisionsMatchOnRandomVoteSequences) {
  const auto [r, target] = GetParam();
  const int d = analysis::margin_for_confidence(r, target);
  rng::Stream rng(static_cast<std::uint64_t>(d) * 1000 + 5);

  for (int trial = 0; trial < 400; ++trial) {
    IterativeNaive naive(r, target);
    IterativeRedundancy simple(d);
    std::vector<Vote> votes;
    while (true) {
      const Decision from_naive = naive.decide(votes);
      const Decision from_simple = simple.decide(votes);
      ASSERT_EQ(from_naive.done(), from_simple.done())
          << "divergence after " << votes.size() << " votes";
      if (from_naive.done()) {
        EXPECT_EQ(from_naive.value, from_simple.value);
        break;
      }
      ASSERT_EQ(from_naive.jobs, from_simple.jobs)
          << "different wave size after " << votes.size() << " votes";
      // Feed the actual reliability r — but also adversarial streaks below.
      for (int j = 0; j < from_naive.jobs; ++j) {
        votes.push_back({static_cast<NodeId>(votes.size()),
                         rng.bernoulli(r) ? ResultValue{1} : ResultValue{0}});
      }
    }
  }
}

TEST_P(EquivalenceTest, DecisionsMatchOnAdversarialAlternation) {
  // Alternating votes maximize disagreement and exercise deep waves.
  const auto [r, target] = GetParam();
  const int d = analysis::margin_for_confidence(r, target);
  IterativeNaive naive(r, target);
  IterativeRedundancy simple(d);
  std::vector<Vote> votes;
  for (int step = 0; step < 200; ++step) {
    const Decision from_naive = naive.decide(votes);
    const Decision from_simple = simple.decide(votes);
    ASSERT_EQ(from_naive.done(), from_simple.done());
    if (from_naive.done()) break;
    ASSERT_EQ(from_naive.jobs, from_simple.jobs);
    for (int j = 0; j < from_naive.jobs; ++j) {
      const ResultValue value = votes.size() % 2 == 0 ? 1 : 0;
      votes.push_back({static_cast<NodeId>(votes.size()), value});
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EquivalenceTest,
    testing::Values(Setup{0.55, 0.9}, Setup{0.6, 0.95}, Setup{0.7, 0.9},
                    Setup{0.7, 0.97}, Setup{0.7, 0.999}, Setup{0.8, 0.99},
                    Setup{0.86, 0.97}, Setup{0.9, 0.9999}, Setup{0.99, 0.95},
                    Setup{0.51, 0.75},
                    // Exact-boundary regression: R equals q at margin 1
                    // (q(1,0) = r), where differently rounded evaluations
                    // of the same confidence must not diverge.
                    Setup{0.9, 0.9}),
    [](const testing::TestParamInfo<Setup>& param_info) {
      const auto& s = param_info.param;
      std::string name = "r";
      name += std::to_string(static_cast<int>(s.r * 100));
      name += "_R";
      name += std::to_string(static_cast<int>(s.target * 10000));
      return name;
    });

TEST(TheoremOneTest, ConfidenceDependsOnlyOnMargin) {
  // q(r, a, b) = q(r, a + j, b + j) for all j.
  for (double r : {0.55, 0.7, 0.9}) {
    for (int a = 0; a <= 10; ++a) {
      for (int b = 0; b <= a; ++b) {
        const double base = analysis::confidence(r, a, b);
        for (int j : {1, 5, 50}) {
          EXPECT_NEAR(analysis::confidence(r, a + j, b + j), base, 1e-12)
              << "r=" << r << " a=" << a << " b=" << b << " j=" << j;
        }
      }
    }
  }
}

TEST(TheoremTwoTest, ConstantIndependentOfB) {
  // Out of 2b + d samples, b + d heads: P[coin biased to heads] is a
  // constant c(d) independent of b.
  for (double r : {0.6, 0.7, 0.85}) {
    for (int d = 1; d <= 8; ++d) {
      const double c = analysis::confidence(r, d, 0);
      for (int b : {1, 3, 10, 100}) {
        EXPECT_NEAR(analysis::confidence(r, b + d, b), c, 1e-12);
      }
    }
  }
}

TEST(TheoremTwoTest, MatchesClosedForm) {
  // c = P(X)^d / (P(X)^d + (1−P(X))^d), per the proof of Theorem 2.
  for (double r : {0.6, 0.75, 0.95}) {
    for (int d = 1; d <= 12; ++d) {
      const double expected = std::pow(r, d) /
                              (std::pow(r, d) + std::pow(1.0 - r, d));
      EXPECT_NEAR(analysis::confidence(r, d, 0), expected, 1e-12);
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized differential sweep: Monte-Carlo simulation vs. the closed
// forms of Equations (1)-(6) on ~200 random (r, d, k) configurations. Every
// bound is a 5-sigma gate from the closed-form variance (plus a few-counts
// absolute slack for the discreteness of 1/tasks), so a real formula or
// simulator defect trips it while statistical noise essentially never does.
// The configurations fan across exp::ParallelRunner workers; all assertions
// run on the main thread over the index-ordered results.

struct DifferentialConfig {
  double r = 0.7;
  int d = 1;  ///< iterative margin
  int k = 1;  ///< traditional/progressive parameter (odd)
};

struct DifferentialMeasurement {
  DifferentialConfig config;
  double tr_cost = 0.0;
  double tr_reliability = 0.0;
  double pr_cost = 0.0;
  double pr_reliability = 0.0;
  double ir_cost = 0.0;
  double ir_reliability = 0.0;
  std::uint64_t tasks = 0;
  bool jobs_consistent = false;
};

TEST(DifferentialSweepTest, MonteCarloMatchesClosedFormsOnRandomConfigs) {
  constexpr std::uint64_t kConfigs = 200;
  constexpr std::uint64_t kTasks = 2'000;

  // Config generation is itself seeded, so the sweep is reproducible.
  std::vector<DifferentialConfig> configs(kConfigs);
  rng::Stream gen(20'260'806);
  for (auto& config : configs) {
    config.r = gen.uniform(0.55, 0.95);
    config.d = static_cast<int>(gen.uniform_int(1, 6));
    config.k = 2 * static_cast<int>(gen.uniform_int(0, 7)) + 1;  // odd 1..15
  }

  exp::RunnerConfig plan;
  plan.replications = kConfigs;
  plan.master_seed = 515;
  exp::ParallelRunner runner(plan);
  const auto measurements =
      runner.run([&](std::uint64_t index, std::uint64_t seed) {
        const DifferentialConfig& config = configs[index];
        DifferentialMeasurement m;
        m.config = config;
        m.tasks = kTasks;
        MonteCarloConfig mc;
        mc.tasks = kTasks;

        mc.seed = rng::derive_seed(seed, 0);
        const auto tr =
            run_binary(TraditionalFactory(config.k), config.r, mc);
        m.tr_cost = tr.cost_factor();
        m.tr_reliability = tr.reliability();
        m.jobs_consistent =
            tr.jobs_total ==
            static_cast<std::uint64_t>(config.k) * kTasks;

        mc.seed = rng::derive_seed(seed, 1);
        const auto pr =
            run_binary(ProgressiveFactory(config.k), config.r, mc);
        m.pr_cost = pr.cost_factor();
        m.pr_reliability = pr.reliability();

        mc.seed = rng::derive_seed(seed, 2);
        const auto ir = run_binary(IterativeFactory(config.d), config.r, mc);
        m.ir_cost = ir.cost_factor();
        m.ir_reliability = ir.reliability();
        return m;
      });

  const double n = static_cast<double>(kTasks);
  const auto reliability_bound = [n](double p) {
    // 5-sigma binomial half-width plus three stray failures of slack.
    return 5.0 * std::sqrt(p * (1.0 - p) / n) + 3.0 / n;
  };
  const auto cost_bound = [n](double variance) {
    return 5.0 * std::sqrt(variance / n) + 5.0 / n;
  };

  ASSERT_EQ(measurements.size(), kConfigs);
  for (const DifferentialMeasurement& m : measurements) {
    const auto& [r, d, k] = m.config;
    SCOPED_TRACE(testing::Message() << "r=" << r << " d=" << d << " k=" << k);

    // Traditional redundancy: cost is exactly k — no randomness at all.
    EXPECT_TRUE(m.jobs_consistent);
    EXPECT_DOUBLE_EQ(m.tr_cost, analysis::traditional_cost(k));
    EXPECT_NEAR(m.tr_reliability, analysis::traditional_reliability(k, r),
                reliability_bound(analysis::traditional_reliability(k, r)));

    // Progressive: Equation (3) cost with its closed-form variance,
    // Equation (4) reliability (identical to traditional's by design).
    EXPECT_NEAR(m.pr_cost, analysis::progressive_cost(k, r),
                cost_bound(analysis::progressive_cost_variance(k, r)));
    EXPECT_NEAR(m.pr_reliability, analysis::progressive_reliability(k, r),
                reliability_bound(analysis::progressive_reliability(k, r)));

    // Iterative: Equation (5) cost with its closed-form variance,
    // Equation (6) reliability.
    EXPECT_NEAR(m.ir_cost, analysis::iterative_cost(d, r),
                cost_bound(analysis::iterative_cost_variance(d, r)));
    EXPECT_NEAR(m.ir_reliability, analysis::iterative_reliability(d, r),
                reliability_bound(analysis::iterative_reliability(d, r)));

    // Structural properties that hold for every configuration.
    EXPECT_GE(m.pr_cost, 1.0);
    EXPECT_LE(m.pr_cost, static_cast<double>(k) + 1e-9);
    EXPECT_GE(m.ir_cost, 1.0);
    EXPECT_GE(m.tr_reliability, 0.0);
    EXPECT_LE(m.tr_reliability, 1.0);
  }
}

TEST(DifferentialSweepTest, SweepIsThreadCountInvariant) {
  // The differential sweep itself obeys the runner contract: same master
  // seed, different thread counts, identical measurements.
  const auto sweep = [](unsigned threads) {
    exp::RunnerConfig plan;
    plan.replications = 12;
    plan.threads = threads;
    plan.master_seed = 99;
    exp::ParallelRunner runner(plan);
    return runner.run([](std::uint64_t index, std::uint64_t seed) {
      MonteCarloConfig mc;
      mc.tasks = 500;
      mc.seed = seed;
      const auto result = run_binary(
          IterativeFactory(1 + static_cast<int>(index % 5)), 0.7, mc);
      return std::pair<double, double>{result.cost_factor(),
                                       result.reliability()};
    });
  };
  const auto one = sweep(1);
  const auto eight = sweep(8);
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].first, eight[i].first);
    EXPECT_EQ(one[i].second, eight[i].second);
  }
}

}  // namespace
}  // namespace smartred::redundancy
