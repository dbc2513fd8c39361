// Parameterized property sweeps across the (technique, parameter, r) grid —
// the invariants behind the paper's claims, checked wholesale.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "redundancy/analysis.h"
#include "redundancy/iterative.h"
#include "redundancy/montecarlo.h"
#include "redundancy/progressive.h"
#include "redundancy/traditional.h"

namespace smartred::redundancy {
namespace {

std::string double_tag(double value) {
  return std::to_string(static_cast<int>(value * 1000));
}

// ---------------------------------------------------------------------------
// Analytical sweeps over (k, r).
// ---------------------------------------------------------------------------

// k is 64-bit so that KR has no padding. gtest prints a parameter that has
// no operator<< as its raw bytes, and ctest's discovered test names carry
// that print: a padding hole would put stale stack bytes into the names, so
// they would differ from one build to the next.
struct KR {
  std::int64_t k;
  double r;
};

class KGridTest : public testing::TestWithParam<KR> {};

TEST_P(KGridTest, EquationTwoMatchesMonteCarlo) {
  const int k = static_cast<int>(GetParam().k);
  const double r = GetParam().r;
  MonteCarloConfig config;
  config.tasks = 60'000;
  config.seed = static_cast<std::uint64_t>(k) * 7919 +
                static_cast<std::uint64_t>(r * 1000);
  const MonteCarloResult result =
      run_binary(TraditionalFactory(k), r, config);
  EXPECT_TRUE(result.reliability_interval(3.9).contains(
      analysis::traditional_reliability(k, r)))
      << "measured " << result.reliability() << " expected "
      << analysis::traditional_reliability(k, r);
}

TEST_P(KGridTest, EquationThreeMatchesMonteCarlo) {
  const int k = static_cast<int>(GetParam().k);
  const double r = GetParam().r;
  MonteCarloConfig config;
  config.tasks = 60'000;
  config.seed = static_cast<std::uint64_t>(k) * 104'729 +
                static_cast<std::uint64_t>(r * 1000);
  const MonteCarloResult result =
      run_binary(ProgressiveFactory(k), r, config);
  const double expected = analysis::progressive_cost(k, r);
  EXPECT_NEAR(result.cost_factor(), expected,
              std::max(0.02, expected * 0.01));
}

TEST_P(KGridTest, ProgressiveNeverCostsMoreThanTraditional) {
  const int k = static_cast<int>(GetParam().k);
  const double r = GetParam().r;
  EXPECT_LE(analysis::progressive_cost(k, r), analysis::traditional_cost(k));
}

TEST_P(KGridTest, ProgressiveWaveOneProbabilityIsUnanimity) {
  // P[exactly one wave] = r^q + (1−r)^q with q = (k+1)/2.
  const int k = static_cast<int>(GetParam().k);
  const double r = GetParam().r;
  const auto dist = analysis::progressive_wave_distribution(k, r);
  const int q = (k + 1) / 2;
  const double expected = std::pow(r, q) + std::pow(1.0 - r, q);
  ASSERT_FALSE(dist.empty());
  EXPECT_NEAR(dist[0], expected, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, KGridTest,
    testing::Values(KR{1, 0.7}, KR{3, 0.55}, KR{3, 0.7}, KR{5, 0.6},
                    KR{7, 0.7}, KR{9, 0.8}, KR{11, 0.7}, KR{19, 0.7},
                    KR{19, 0.9}, KR{5, 0.95}),
    [](const testing::TestParamInfo<KR>& param_info) {
      std::string name = "k";
      name += std::to_string(param_info.param.k);
      name += "_r";
      name += double_tag(param_info.param.r);
      return name;
    });

// ---------------------------------------------------------------------------
// Analytical sweeps over (d, r).
// ---------------------------------------------------------------------------

// 64-bit d for the same reason as KR::k.
struct DR {
  std::int64_t d;
  double r;
};

class DGridTest : public testing::TestWithParam<DR> {};

TEST_P(DGridTest, EquationFiveMatchesMonteCarlo) {
  const int d = static_cast<int>(GetParam().d);
  const double r = GetParam().r;
  MonteCarloConfig config;
  config.tasks = 60'000;
  config.seed = static_cast<std::uint64_t>(d) * 31 +
                static_cast<std::uint64_t>(r * 1000);
  const MonteCarloResult result = run_binary(IterativeFactory(d), r, config);
  const double expected = analysis::iterative_cost(d, r);
  EXPECT_NEAR(result.cost_factor(), expected,
              std::max(0.03, expected * 0.015));
}

TEST_P(DGridTest, EquationSixMatchesMonteCarlo) {
  const int d = static_cast<int>(GetParam().d);
  const double r = GetParam().r;
  MonteCarloConfig config;
  config.tasks = 60'000;
  config.seed = static_cast<std::uint64_t>(d) * 131 +
                static_cast<std::uint64_t>(r * 1000) + 17;
  const MonteCarloResult result = run_binary(IterativeFactory(d), r, config);
  EXPECT_TRUE(result.reliability_interval(3.9).contains(
      analysis::iterative_reliability(d, r)))
      << "measured " << result.reliability() << " expected "
      << analysis::iterative_reliability(d, r);
}

TEST_P(DGridTest, CostBelowApproximationBound) {
  const int d = static_cast<int>(GetParam().d);
  const double r = GetParam().r;
  if (r <= 0.5) return;
  EXPECT_LE(analysis::iterative_cost(d, r),
            analysis::iterative_cost_approx(d, r) + 1e-9);
}

TEST_P(DGridTest, WaveViewAgreesWithJobView) {
  const int d = static_cast<int>(GetParam().d);
  const double r = GetParam().r;
  const auto wave_dist = analysis::iterative_wave_distribution(d, r);
  double mass = 0.0;
  for (double p : wave_dist) mass += p;
  EXPECT_NEAR(mass, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DGridTest,
    testing::Values(DR{1, 0.7}, DR{2, 0.6}, DR{3, 0.7}, DR{4, 0.7},
                    DR{4, 0.86}, DR{5, 0.55}, DR{6, 0.7}, DR{6, 0.9},
                    DR{8, 0.8}, DR{10, 0.95}),
    [](const testing::TestParamInfo<DR>& param_info) {
      std::string name = "d";
      name += std::to_string(param_info.param.d);
      name += "_r";
      name += double_tag(param_info.param.r);
      return name;
    });

// ---------------------------------------------------------------------------
// Monotonicity sweeps in r.
// ---------------------------------------------------------------------------

class RSweepTest : public testing::TestWithParam<double> {};

TEST_P(RSweepTest, ReliabilityMonotoneInParameter) {
  const double r = GetParam();
  for (int k = 1; k <= 15; k += 2) {
    EXPECT_LE(analysis::traditional_reliability(k, r),
              analysis::traditional_reliability(k + 2, r) + 1e-12);
  }
  for (int d = 1; d <= 10; ++d) {
    EXPECT_LE(analysis::iterative_reliability(d, r),
              analysis::iterative_reliability(d + 1, r) + 1e-12);
  }
}

TEST_P(RSweepTest, CostMonotoneInParameter) {
  const double r = GetParam();
  for (int k = 1; k <= 15; k += 2) {
    EXPECT_LT(analysis::progressive_cost(k, r),
              analysis::progressive_cost(k + 2, r));
  }
  for (int d = 1; d <= 10; ++d) {
    EXPECT_LT(analysis::iterative_cost(d, r),
              analysis::iterative_cost(d + 1, r));
  }
}

TEST_P(RSweepTest, IterativeCostDecreasesWithReliability) {
  const double r = GetParam();
  if (r + 0.04 >= 1.0) return;
  EXPECT_GT(analysis::iterative_cost(5, r),
            analysis::iterative_cost(5, r + 0.04));
}

TEST_P(RSweepTest, ConfidenceIncreasesWithMargin) {
  const double r = GetParam();
  if (r <= 0.5) return;
  for (int d = 1; d <= 12; ++d) {
    EXPECT_GT(analysis::confidence_at_margin(r, d + 1),
              analysis::confidence_at_margin(r, d));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RSweepTest,
                         testing::Values(0.52, 0.6, 0.7, 0.8, 0.86, 0.9,
                                         0.95),
                         [](const testing::TestParamInfo<double>& param_info) {
                           std::string name = "r";
                           name += double_tag(param_info.param);
                           return name;
                         });

// ---------------------------------------------------------------------------
// Below-half reliability: voting amplifies the wrong answer.
// ---------------------------------------------------------------------------

TEST(DegenerateRegimeTest, RedundancyHurtsWhenNodesMostlyLie) {
  MonteCarloConfig config;
  config.tasks = 20'000;
  config.seed = 5;
  const MonteCarloResult weak =
      run_binary(IterativeFactory(1), 0.4, config);
  const MonteCarloResult strong =
      run_binary(IterativeFactory(6), 0.4, config);
  EXPECT_GT(weak.reliability(), strong.reliability());
  EXPECT_NEAR(strong.reliability(),
              analysis::iterative_reliability(6, 0.4), 0.01);
}

}  // namespace
}  // namespace smartred::redundancy
