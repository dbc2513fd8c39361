#include "fault/failure_model.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "common/expect.h"
#include "fault/reliability.h"

namespace smartred::fault {
namespace {

rng::Stream seed_stream() { return rng::Stream(42); }

TEST(ReliabilityDistTest, ConstantMeanAndSample) {
  const ReliabilityDistribution dist = ConstantReliability{0.7};
  EXPECT_DOUBLE_EQ(mean_reliability(dist), 0.7);
  rng::Stream rng = seed_stream();
  EXPECT_DOUBLE_EQ(sample_reliability(dist, rng), 0.7);
}

TEST(ReliabilityDistTest, UniformMeanAndRange) {
  const ReliabilityDistribution dist = UniformReliability{0.5, 0.9};
  EXPECT_DOUBLE_EQ(mean_reliability(dist), 0.7);
  rng::Stream rng = seed_stream();
  for (int i = 0; i < 1'000; ++i) {
    const double r = sample_reliability(dist, rng);
    EXPECT_GE(r, 0.5);
    EXPECT_LT(r, 0.9);
  }
}

TEST(ReliabilityDistTest, TwoPointMeanAndValues) {
  const ReliabilityDistribution dist = TwoPointReliability{0.8, 0.95, 0.2};
  EXPECT_NEAR(mean_reliability(dist), 0.8 * 0.95 + 0.2 * 0.2, 1e-12);
  rng::Stream rng = seed_stream();
  std::set<double> seen;
  for (int i = 0; i < 200; ++i) seen.insert(sample_reliability(dist, rng));
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_TRUE(seen.contains(0.95));
  EXPECT_TRUE(seen.contains(0.2));
}

TEST(ReliabilityAssignerTest, StablePerNode) {
  ReliabilityAssigner assigner(UniformReliability{0.5, 0.9}, seed_stream());
  const double first = assigner.reliability(17);
  EXPECT_DOUBLE_EQ(assigner.reliability(17), first);
}

TEST(ReliabilityAssignerTest, OrderIndependent) {
  ReliabilityAssigner forward(UniformReliability{0.5, 0.9}, seed_stream());
  ReliabilityAssigner backward(UniformReliability{0.5, 0.9}, seed_stream());
  const double f3 = forward.reliability(3);
  const double f9 = forward.reliability(9);
  const double b9 = backward.reliability(9);
  const double b3 = backward.reliability(3);
  EXPECT_DOUBLE_EQ(f3, b3);
  EXPECT_DOUBLE_EQ(f9, b9);
}

TEST(ByzantineCollusionTest, ReliableNodesReportCorrect) {
  ByzantineCollusion model(
      ReliabilityAssigner(ConstantReliability{1.0}, seed_stream()));
  rng::Stream rng = seed_stream();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(model.report(1, 0, 5, rng), 5);
  }
}

TEST(ByzantineCollusionTest, FailuresColludeOnOneWrongValue) {
  ByzantineCollusion model(
      ReliabilityAssigner(ConstantReliability{0.0}, seed_stream()));
  rng::Stream rng = seed_stream();
  std::set<redundancy::ResultValue> values;
  for (int i = 0; i < 100; ++i) values.insert(model.report(1, 0, 5, rng));
  ASSERT_EQ(values.size(), 1u);
  EXPECT_NE(*values.begin(), 5);
}

TEST(ByzantineCollusionTest, EmpiricalRateMatchesReliability) {
  ByzantineCollusion model(
      ReliabilityAssigner(ConstantReliability{0.7}, seed_stream()));
  rng::Stream rng = seed_stream();
  int correct = 0;
  constexpr int kSamples = 100'000;
  for (int i = 0; i < kSamples; ++i) {
    if (model.report(1, 0, 5, rng) == 5) ++correct;
  }
  EXPECT_NEAR(static_cast<double>(correct) / kSamples, 0.7, 0.01);
}

TEST(ScatteredWrongTest, WrongValuesSpread) {
  ScatteredWrong model(
      ReliabilityAssigner(ConstantReliability{0.0}, seed_stream()),
      /*spread=*/10);
  rng::Stream rng = seed_stream();
  std::set<redundancy::ResultValue> values;
  for (int i = 0; i < 2'000; ++i) values.insert(model.report(1, 0, 5, rng));
  EXPECT_EQ(values.size(), 10u);
  for (const redundancy::ResultValue value : values) {
    EXPECT_GE(value, 6);
    EXPECT_LE(value, 15);
  }
}

TEST(ScatteredWrongTest, SpreadOneReducesToCollusion) {
  ScatteredWrong model(
      ReliabilityAssigner(ConstantReliability{0.0}, seed_stream()),
      /*spread=*/1);
  rng::Stream rng = seed_stream();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(model.report(1, 0, 5, rng), 6);
}

TEST(ScatteredWrongTest, RejectsBadSpread) {
  EXPECT_THROW(
      ScatteredWrong(
          ReliabilityAssigner(ConstantReliability{0.5}, seed_stream()), 0),
      PreconditionError);
}

TEST(CorrelatedClustersTest, ClusterAssignmentIsRoundRobin) {
  CorrelatedClusters model(
      ReliabilityAssigner(ConstantReliability{0.9}, seed_stream()),
      /*clusters=*/4, /*cluster_failure_prob=*/0.1, seed_stream());
  EXPECT_EQ(model.cluster_of(0), 0);
  EXPECT_EQ(model.cluster_of(5), 1);
  EXPECT_EQ(model.cluster_of(7), 3);
}

TEST(CorrelatedClustersTest, ClusterEventIsSharedAndDeterministic) {
  CorrelatedClusters model(
      ReliabilityAssigner(ConstantReliability{1.0}, seed_stream()),
      /*clusters=*/2, /*cluster_failure_prob=*/0.5, seed_stream());
  rng::Stream rng = seed_stream();
  // With individual reliability 1, failures only come from cluster events;
  // two nodes of the same cluster must agree on every task.
  for (std::uint64_t task = 0; task < 200; ++task) {
    const auto a = model.report(0, task, 5, rng);  // cluster 0
    const auto b = model.report(2, task, 5, rng);  // cluster 0
    EXPECT_EQ(a, b) << "task " << task;
  }
}

TEST(CorrelatedClustersTest, EffectiveReliabilityComposesFactors) {
  CorrelatedClusters model(
      ReliabilityAssigner(ConstantReliability{0.8}, seed_stream()),
      /*clusters=*/3, /*cluster_failure_prob=*/0.1, seed_stream());
  EXPECT_NEAR(model.effective_reliability(), 0.9 * 0.8, 1e-12);
  rng::Stream rng = seed_stream();
  int correct = 0;
  constexpr int kSamples = 60'000;
  for (int i = 0; i < kSamples; ++i) {
    // Distinct tasks so cluster draws refresh.
    if (model.report(1, static_cast<std::uint64_t>(i), 5, rng) == 5) {
      ++correct;
    }
  }
  EXPECT_NEAR(static_cast<double>(correct) / kSamples, 0.72, 0.01);
}

TEST(CorrelatedClustersTest, WrongAnswerWrapsAtTheTopOfTheRange) {
  // Coded piece values span the full 32-bit range, so the colluding wrong
  // answer of INT32_MAX must wrap instead of overflowing: both the cluster
  // event and an independent failure report INT32_MIN.
  constexpr auto kTop = std::numeric_limits<redundancy::ResultValue>::max();
  constexpr auto kBottom = std::numeric_limits<redundancy::ResultValue>::min();
  rng::Stream rng = seed_stream();
  CorrelatedClusters cluster_fails(
      ReliabilityAssigner(ConstantReliability{1.0}, seed_stream()),
      /*clusters=*/2, /*cluster_failure_prob=*/1.0, seed_stream());
  EXPECT_EQ(cluster_fails.report(0, 0, kTop, rng), kBottom);
  CorrelatedClusters node_fails(
      ReliabilityAssigner(ConstantReliability{0.0}, seed_stream()),
      /*clusters=*/2, /*cluster_failure_prob=*/0.0, seed_stream());
  EXPECT_EQ(node_fails.report(0, 0, kTop, rng), kBottom);
}

TEST(CorrelatedClustersTest, RejectsBadParameters) {
  ReliabilityAssigner assigner(ConstantReliability{0.8}, seed_stream());
  EXPECT_THROW(CorrelatedClusters(assigner, 0, 0.1, seed_stream()),
               PreconditionError);
  EXPECT_THROW(CorrelatedClusters(assigner, 2, 1.5, seed_stream()),
               PreconditionError);
}

}  // namespace
}  // namespace smartred::fault
