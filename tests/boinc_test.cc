#include "boinc/deployment.h"

#include <gtest/gtest.h>

#include <cmath>

#include "boinc/comparator.h"
#include "common/expect.h"
#include "dca/workload.h"
#include "exp/parallel_runner.h"
#include "redundancy/analysis.h"
#include "redundancy/iterative.h"
#include "redundancy/self_tuning.h"
#include "redundancy/traditional.h"
#include "sat/generator.h"
#include "sat/sat_workload.h"

namespace smartred::boinc {
namespace {

BoincConfig quick_config(std::uint64_t seed = 1) {
  BoincConfig config;
  config.seed = seed;
  return config;
}

TEST(ProfileTest, UniformPoolHasSeededReliability) {
  const auto profiles = uniform_profiles(50, 0.7);
  EXPECT_EQ(profiles.size(), 50u);
  EXPECT_DOUBLE_EQ(mean_effective_reliability(profiles), 0.7);
  for (const auto& profile : profiles) {
    EXPECT_DOUBLE_EQ(profile.unresponsive_prob, 0.0);
    EXPECT_DOUBLE_EQ(profile.speed, 1.0);
  }
}

TEST(ProfileTest, PlanetLabPoolLandsInPaperBand) {
  // The paper measured 0.64 < r < 0.67 with seeded r = 0.7 (§4.2).
  rng::Stream rng(3);
  const auto profiles = planetlab_profiles(200, rng);
  const double effective = mean_effective_reliability(profiles);
  EXPECT_GT(effective, 0.62);
  EXPECT_LT(effective, 0.69);
  // Speeds are heterogeneous.
  double lo = profiles.front().speed;
  double hi = lo;
  for (const auto& profile : profiles) {
    lo = std::min(lo, profile.speed);
    hi = std::max(hi, profile.speed);
  }
  EXPECT_LT(lo, 0.8);
  EXPECT_GT(hi, 1.3);
}

TEST(ProfileTest, RejectsBadArguments) {
  rng::Stream rng(3);
  EXPECT_THROW((void)planetlab_profiles(0, rng), PreconditionError);
  EXPECT_THROW((void)uniform_profiles(10, 0.0), PreconditionError);
  EXPECT_THROW((void)uniform_profiles(10, 1.5), PreconditionError);
}

TEST(ComparatorTest, ExactComparatorDistinguishesBits) {
  ExactComparator comparator;
  const auto a = comparator.classify(1.0);
  const auto b = comparator.classify(1.0 + 1e-15);
  const auto c = comparator.classify(1.0);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, c);
}

TEST(ComparatorTest, EpsilonComparatorGroupsNearbyValues) {
  EpsilonComparator comparator(1e-9);
  const auto a = comparator.classify(std::sqrt(2.0));
  const auto b = comparator.classify(std::sqrt(2.0) + 1e-12);
  const auto c = comparator.classify(1.5);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(comparator.class_count(), 2u);
}

TEST(ComparatorTest, EpsilonZeroIsExactOnReals) {
  EpsilonComparator comparator(0.0);
  EXPECT_EQ(comparator.classify(2.0), comparator.classify(2.0));
  EXPECT_NE(comparator.classify(2.0), comparator.classify(2.0000001));
}

TEST(DeploymentTest, UniformReliablePoolSolvesEverything) {
  sim::Simulator simulator;
  const redundancy::TraditionalFactory factory(3);
  const dca::SyntheticWorkload workload(140);
  Deployment deployment(simulator, quick_config(), uniform_profiles(50, 1.0),
                        factory, workload);
  const dca::RunMetrics& metrics = deployment.run();
  EXPECT_EQ(metrics.tasks_correct, 140u);
  EXPECT_DOUBLE_EQ(metrics.cost_factor(), 3.0);
  EXPECT_EQ(metrics.jobs_lost, 0u);
}

TEST(DeploymentTest, DeterministicGivenSeed) {
  const redundancy::IterativeFactory factory(4);
  const dca::SyntheticWorkload workload(100);
  dca::RunMetrics first;
  dca::RunMetrics second;
  for (dca::RunMetrics* out : {&first, &second}) {
    sim::Simulator simulator;
    rng::Stream rng(5);
    Deployment deployment(simulator, quick_config(9),
                          planetlab_profiles(60, rng), factory, workload);
    *out = deployment.run();
  }
  EXPECT_EQ(first.jobs_dispatched, second.jobs_dispatched);
  EXPECT_EQ(first.tasks_correct, second.tasks_correct);
  EXPECT_DOUBLE_EQ(first.makespan, second.makespan);
}

TEST(DeploymentTest, SeededFaultsDriveMeasuredReliability) {
  sim::Simulator simulator;
  const redundancy::IterativeFactory factory(4);
  const dca::SyntheticWorkload workload(2'000);
  Deployment deployment(simulator, quick_config(11),
                        uniform_profiles(200, 0.7), factory, workload);
  const dca::RunMetrics& metrics = deployment.run();
  // Clean pool at r = 0.7: empirical job reliability ≈ 0.7 and system
  // reliability near Equation (6).
  EXPECT_NEAR(metrics.empirical_node_reliability(), 0.7, 0.02);
  EXPECT_TRUE(metrics.reliability_interval(3.9).contains(
      redundancy::analysis::iterative_reliability(4, 0.7)))
      << metrics.reliability();
}

TEST(DeploymentTest, PlanetLabFaultsLowerEffectiveReliability) {
  // The §4.2 observation: unanticipated faults push the effective r below
  // the seeded 0.7, and the server can estimate it from vote agreement.
  sim::Simulator simulator;
  const redundancy::IterativeFactory factory(4);
  const dca::SyntheticWorkload workload(2'000);
  rng::Stream rng(13);
  Deployment deployment(simulator, quick_config(13),
                        planetlab_profiles(200, rng), factory, workload);
  const dca::RunMetrics& metrics = deployment.run();
  EXPECT_LT(metrics.empirical_node_reliability(), 0.69);
  EXPECT_GT(metrics.empirical_node_reliability(), 0.60);
  EXPECT_NEAR(metrics.empirical_node_reliability(),
              deployment.pool_effective_reliability(), 0.02);
}

TEST(DeploymentTest, UnresponsiveClientsForceReissues) {
  sim::Simulator simulator;
  const redundancy::TraditionalFactory factory(3);
  const dca::SyntheticWorkload workload(300);
  auto profiles = uniform_profiles(80, 1.0);
  for (auto& profile : profiles) profile.unresponsive_prob = 0.3;
  BoincConfig config = quick_config(17);
  config.report_deadline = 10.0;
  Deployment deployment(simulator, config, profiles, factory, workload);
  const dca::RunMetrics& metrics = deployment.run();
  EXPECT_GT(metrics.jobs_lost, 0u);
  EXPECT_EQ(metrics.tasks_correct, 300u);  // reliability unaffected
  EXPECT_GT(metrics.cost_factor(), 3.0);   // but cost includes re-issues
}

TEST(DeploymentTest, SatWorkloadEndToEnd) {
  // The paper's §4.1 setup in miniature: a planted satisfiable 3-SAT
  // instance decomposed into range-check tasks, solved by volunteers.
  rng::Stream rng(19);
  sat::Formula formula = sat::planted_formula(12, 51, 0b101001110001u, rng);
  const sat::SatWorkload workload(std::move(formula), 64);
  ASSERT_TRUE(workload.satisfiable());
  sim::Simulator simulator;
  const redundancy::IterativeFactory factory(5);
  Deployment deployment(simulator, quick_config(19),
                        uniform_profiles(100, 0.7), factory, workload);
  const dca::RunMetrics& metrics = deployment.run();
  EXPECT_GT(metrics.reliability(), 0.9);
  EXPECT_EQ(metrics.tasks_total, 64u);
}

// fig5b shares one const SatWorkload across parallel replications. Ground
// truth is solved at construction, so the workers only ever read it: the
// merged metrics match at any thread count, and the TSan tree sees no race.
TEST(DeploymentTest, SharedSatWorkloadIsThreadCountInvariant) {
  rng::Stream rng(37);
  sat::Formula formula = sat::planted_formula(12, 51, 0b011010010110u, rng);
  const sat::SatWorkload workload(std::move(formula), 64);
  const redundancy::IterativeFactory factory(4);
  const auto profiles = uniform_profiles(60, 0.7);
  const auto merged = [&](unsigned threads) {
    exp::RunnerConfig plan;
    plan.replications = 8;
    plan.threads = threads;
    plan.master_seed = 37;
    exp::ParallelRunner runner(plan);
    return runner.run_merged([&](std::uint64_t, std::uint64_t rep_seed) {
      sim::Simulator simulator;
      Deployment deployment(simulator, quick_config(rep_seed), profiles,
                            factory, workload);
      return dca::RunMetrics(deployment.run());
    });
  };
  const dca::RunMetrics serial = merged(1);
  const dca::RunMetrics parallel = merged(4);
  EXPECT_EQ(serial.tasks_total, 8U * 64U);
  EXPECT_EQ(serial.tasks_correct, parallel.tasks_correct);
  EXPECT_EQ(serial.tasks_aborted, parallel.tasks_aborted);
  EXPECT_EQ(serial.jobs_dispatched, parallel.jobs_dispatched);
  EXPECT_EQ(serial.jobs_completed, parallel.jobs_completed);
  EXPECT_EQ(serial.jobs_correct, parallel.jobs_correct);
  EXPECT_EQ(serial.jobs_lost, parallel.jobs_lost);
  EXPECT_EQ(serial.jobs_discarded, parallel.jobs_discarded);
  EXPECT_EQ(serial.jobs_unrun, parallel.jobs_unrun);
  EXPECT_EQ(serial.makespan, parallel.makespan);
  EXPECT_EQ(serial.response_time_hist, parallel.response_time_hist);
  EXPECT_EQ(serial.jobs_per_task_hist, parallel.jobs_per_task_hist);
}

TEST(DeploymentTest, OneResultPerClientPerTask) {
  // With exactly 3 clients and k = 3, every wave must use distinct clients;
  // the run completes because there are just enough.
  sim::Simulator simulator;
  const redundancy::TraditionalFactory factory(3);
  const dca::SyntheticWorkload workload(50);
  Deployment deployment(simulator, quick_config(23), uniform_profiles(3, 1.0),
                        factory, workload);
  const dca::RunMetrics& metrics = deployment.run();
  EXPECT_EQ(metrics.tasks_correct, 50u);
}

TEST(DeploymentTest, RuleWaivedWhenPoolExhausted) {
  // 2 clients but k = 3: the one-result-per-user rule must be waived or the
  // computation would starve.
  sim::Simulator simulator;
  const redundancy::TraditionalFactory factory(3);
  const dca::SyntheticWorkload workload(20);
  Deployment deployment(simulator, quick_config(29), uniform_profiles(2, 1.0),
                        factory, workload);
  const dca::RunMetrics& metrics = deployment.run();
  EXPECT_EQ(metrics.tasks_correct, 20u);
}

TEST(DeploymentTest, SelfTuningConvergesAcrossBatches) {
  // The stateful self-tuning factory shares its estimator across all tasks
  // of all computations it validates. Within a cold-start batch most task
  // trajectories lock in at the initial margin before the estimator warms
  // (early completions are also unanimity-skewed, which is why warmup is
  // deliberately long); by the second batch the margin has converged to
  // what the pool's (unknown) effective reliability requires.
  rng::Stream profile_rng(31);
  const auto profiles = planetlab_profiles(150, profile_rng);
  redundancy::SelfTuningConfig tuning;
  tuning.target_reliability = 0.99;
  const redundancy::SelfTuningFactory factory(tuning);
  const dca::SyntheticWorkload workload(3'000);

  dca::RunMetrics cold;
  dca::RunMetrics warmed;
  for (dca::RunMetrics* out : {&cold, &warmed}) {
    sim::Simulator simulator;
    BoincConfig config = quick_config(31);
    Deployment deployment(simulator, config, profiles, factory, workload);
    *out = deployment.run();
  }
  // Cold batch: at least the initial margin's guarantee at this pool's
  // effective r (~0.657): R_IR(6, r) ~ 0.978.
  EXPECT_GE(cold.reliability(), 0.97);
  // Warmed batch: the converged margin delivers the target.
  EXPECT_GE(warmed.reliability(), 0.985);
  EXPECT_GT(warmed.cost_factor(), cold.cost_factor());
  // The estimator tracked the pool despite first-wave-only sampling.
  EXPECT_NEAR(factory.prototype().estimator().estimate(),
              mean_effective_reliability(profiles), 0.02);
}

TEST(DeploymentTest, RejectsBadConfig) {
  sim::Simulator simulator;
  const redundancy::TraditionalFactory factory(3);
  const dca::SyntheticWorkload workload(5);
  BoincConfig config;
  config.report_deadline = 0.0;
  EXPECT_THROW(Deployment(simulator, config, uniform_profiles(5, 1.0),
                          factory, workload),
               PreconditionError);
}

}  // namespace
}  // namespace smartred::boinc
