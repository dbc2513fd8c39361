// Characterizes the estimator biases behind SelfTuningIterative (see
// redundancy/self_tuning.h). Two distinct optional-stopping effects exist:
//  1. Agreement over full margin-stopped tallies estimates
//     r + (2r−1)ρ^d/(1−ρ^d), ρ = (1−r)/r — agreement at the stopping point
//     is exactly (n+d)/2n.
//  2. Even a fixed-size first-wave sample is scored against the ACCEPTED
//     value, which those same votes helped determine; at d = 2 this
//     estimates exactly 1 − r(1−r).
// Both inflations decay like ρ^d, i.e. like the per-task failure odds — so
// the estimate is trustworthy precisely in the high-confidence regime that
// self-tuning's own margins maintain, and garbage outside it. These facts
// are pinned by measurement so the design reasoning cannot silently rot.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "redundancy/estimator.h"
#include "redundancy/iterative.h"
#include "redundancy/types.h"

namespace smartred::redundancy {
namespace {

struct BiasSample {
  double full_tally_estimate = 0.0;
  double first_wave_estimate = 0.0;
};

/// Runs `tasks` iterative-redundancy tasks at margin d over iid votes with
/// reliability r, feeding two estimators: one from full final tallies, one
/// from first-wave votes only.
BiasSample measure(double r, int d, int tasks, std::uint64_t seed) {
  ReliabilityEstimator full;
  ReliabilityEstimator first_wave;
  rng::Stream rng(seed);
  for (int task = 0; task < tasks; ++task) {
    IterativeRedundancy strategy(d);
    std::vector<Vote> votes;
    Decision decision = strategy.decide(votes);
    while (!decision.done()) {
      for (int j = 0; j < decision.jobs; ++j) {
        votes.push_back({static_cast<NodeId>(votes.size()),
                         rng.bernoulli(r) ? ResultValue{1} : ResultValue{0}});
      }
      decision = strategy.decide(votes);
    }
    const VoteTally tally{votes};
    full.observe_task(tally, decision.value);
    int agreeing = 0;
    const int sample = std::min<int>(d, tally.total());
    for (int i = 0; i < sample; ++i) {
      if (votes[static_cast<std::size_t>(i)].value == decision.value) {
        ++agreeing;
      }
    }
    first_wave.observe_votes(agreeing, sample);
  }
  return {full.estimate(), first_wave.estimate()};
}

/// The optional-stopping bias of the full-tally estimate, exactly:
/// agreement per task is (n+d)/2, so the pooled ratio tends to
/// (1 + d/E[n])/2 and E[n] is the two-barrier absorption time.
double predicted_stopped_bias(double r, int d) {
  const double rho = (1.0 - r) / r;
  const double rho_d = std::pow(rho, d);
  return (2.0 * r - 1.0) * rho_d / (1.0 - rho_d);
}

// d is 64-bit so that BiasSetup has no tail padding: gtest prints it as raw
// bytes into ctest's test names, and padding would carry stale stack bytes.
struct BiasSetup {
  double r;
  std::int64_t d;
};

class SamplingBiasTest : public testing::TestWithParam<BiasSetup> {};

TEST_P(SamplingBiasTest, StoppedTallyBiasMatchesClosedForm) {
  // Agreement over margin-stopped tallies estimates r + (2r−1)ρ^d/(1−ρ^d),
  // not r: at the stopping point agreement is exactly (n+d)/2n and short
  // (agreeing) runs dominate per vote. At small margins this inflation is
  // enormous (≈ +0.09 at r = 0.7, d = 2), which is what poisoned the
  // deployment-substrate estimate before first-wave sampling and the long
  // warmup were introduced.
  const double r = GetParam().r;
  const int d = static_cast<int>(GetParam().d);
  const BiasSample sample =
      measure(r, d, 60'000, static_cast<std::uint64_t>(r * 1e4) +
                                static_cast<std::uint64_t>(d));
  const double predicted = predicted_stopped_bias(r, d);
  EXPECT_NEAR(sample.full_tally_estimate, r + predicted, 0.004)
      << "stopped-tally bias should match the closed form";
  EXPECT_GT(sample.full_tally_estimate, r + predicted / 2.0);
}

TEST(SamplingBiasTest, FirstWaveAtMarginTwoEstimatesOneMinusRQ) {
  // The reference value (the accepted answer) is itself determined by the
  // votes, so "agreement with accepted" is not a clean Bernoulli(r) sample
  // either. The d = 2 case has an exact closed form: unanimous first waves
  // (probability r² + q²) agree 100% with themselves; split waves agree
  // 50% with whatever later votes decide — E = 1 − rq. Every estimator
  // built on agreement-with-accepted inherits a bias of this family; it
  // decays like ρ^d, which is why self-tuning only trusts the estimate in
  // the high-confidence regime its own margins maintain.
  const double r = 0.7;
  const BiasSample sample = measure(r, 2, 60'000, 99);
  EXPECT_NEAR(sample.first_wave_estimate, 1.0 - r * (1.0 - r), 0.004);
}
INSTANTIATE_TEST_SUITE_P(
    Grid, SamplingBiasTest,
    testing::Values(BiasSetup{0.6, 4}, BiasSetup{0.7, 2},
                    BiasSetup{0.7, 4}, BiasSetup{0.65, 5}),
    [](const testing::TestParamInfo<BiasSetup>& param_info) {
      std::string name = "r";
      name += std::to_string(static_cast<int>(param_info.param.r * 100));
      name += "_d";
      name += std::to_string(param_info.param.d);
      return name;
    });

TEST(SamplingBiasTest, HighConfidenceRegimeFirstWaveNearlyUnbiased) {
  // In the regime self-tuning actually operates in (high per-task
  // reliability), the first-wave estimate tracks r tightly.
  for (const BiasSetup setup : {BiasSetup{0.8, 6}, BiasSetup{0.7, 8}}) {
    const BiasSample sample =
        measure(setup.r, static_cast<int>(setup.d), 60'000,
                static_cast<std::uint64_t>(setup.d));
    EXPECT_NEAR(sample.first_wave_estimate, setup.r, 0.006)
        << "r=" << setup.r << " d=" << setup.d;
  }
}

TEST(SamplingBiasTest, StoppedBiasShrinksWithMargin) {
  // The closed form says the inflation decays like rho^d.
  EXPECT_GT(predicted_stopped_bias(0.7, 2), predicted_stopped_bias(0.7, 6));
  EXPECT_GT(predicted_stopped_bias(0.7, 6), predicted_stopped_bias(0.7, 10));
  const BiasSample small_d = measure(0.7, 2, 60'000, 7);
  const BiasSample large_d = measure(0.7, 10, 60'000, 8);
  EXPECT_GT(small_d.full_tally_estimate - 0.7,
            large_d.full_tally_estimate - 0.7);
}

}  // namespace
}  // namespace smartred::redundancy
