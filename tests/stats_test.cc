#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/expect.h"
#include "common/rng.h"
#include "obs/histogram.h"

namespace smartred::stats {
namespace {

TEST(StreamingStatsTest, EmptyAccumulatorThrows) {
  StreamingStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_THROW((void)stats.mean(), PreconditionError);
  EXPECT_THROW((void)stats.min(), PreconditionError);
  EXPECT_THROW((void)stats.max(), PreconditionError);
}

TEST(StreamingStatsTest, SingleValue) {
  StreamingStats stats;
  stats.add(3.5);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.mean(), 3.5);
  EXPECT_DOUBLE_EQ(stats.min(), 3.5);
  EXPECT_DOUBLE_EQ(stats.max(), 3.5);
  EXPECT_THROW((void)stats.variance(), PreconditionError);
}

TEST(StreamingStatsTest, KnownMoments) {
  StreamingStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  // Sample variance of this classic data set is 32/7.
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(StreamingStatsTest, MergeMatchesSequential) {
  StreamingStats all;
  StreamingStats left;
  StreamingStats right;
  rng::Stream rng(21);
  for (int i = 0; i < 1'000; ++i) {
    const double x = rng.normal(10.0, 3.0);
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(StreamingStatsTest, MergeWithEmptySides) {
  StreamingStats empty;
  StreamingStats filled;
  filled.add(1.0);
  filled.add(2.0);
  StreamingStats target = filled;
  target.merge(empty);
  EXPECT_EQ(target.count(), 2u);
  StreamingStats other;
  other.merge(filled);
  EXPECT_EQ(other.count(), 2u);
  EXPECT_DOUBLE_EQ(other.mean(), 1.5);
}

TEST(StreamingStatsTest, CiHalfwidthShrinksWithSamples) {
  rng::Stream rng(22);
  StreamingStats small;
  StreamingStats large;
  for (int i = 0; i < 100; ++i) small.add(rng.uniform01());
  for (int i = 0; i < 10'000; ++i) large.add(rng.uniform01());
  EXPECT_GT(small.ci_halfwidth(), large.ci_halfwidth());
}

TEST(WilsonIntervalTest, CoversTrueProportion) {
  // 70 of 100: the 95% interval must contain 0.7 and be inside [0, 1].
  const Interval interval = wilson_interval(70, 100);
  EXPECT_TRUE(interval.contains(0.7));
  EXPECT_GE(interval.lo, 0.0);
  EXPECT_LE(interval.hi, 1.0);
  EXPECT_LT(interval.lo, interval.hi);
}

TEST(WilsonIntervalTest, DegenerateEndpointsStayInUnit) {
  const Interval zero = wilson_interval(0, 50);
  EXPECT_DOUBLE_EQ(zero.lo, 0.0);
  EXPECT_GT(zero.hi, 0.0);
  const Interval one = wilson_interval(50, 50);
  EXPECT_DOUBLE_EQ(one.hi, 1.0);
  EXPECT_LT(one.lo, 1.0);
}

TEST(WilsonIntervalTest, NarrowsWithMoreTrials) {
  const Interval small = wilson_interval(7, 10);
  const Interval large = wilson_interval(7'000, 10'000);
  EXPECT_LT(large.width(), small.width());
}

TEST(WilsonIntervalTest, RejectsBadInput) {
  EXPECT_THROW((void)wilson_interval(1, 0), PreconditionError);
  EXPECT_THROW((void)wilson_interval(5, 4), PreconditionError);
}

TEST(P2QuantileTest, RejectsDegenerateQuantile) {
  EXPECT_THROW(P2Quantile(0.0), PreconditionError);
  EXPECT_THROW(P2Quantile(1.0), PreconditionError);
  EXPECT_THROW(P2Quantile(-0.2), PreconditionError);
}

TEST(P2QuantileTest, EmptyEstimateThrows) {
  P2Quantile median(0.5);
  EXPECT_EQ(median.count(), 0u);
  EXPECT_THROW((void)median.estimate(), PreconditionError);
}

TEST(P2QuantileTest, ExactForFirstFiveObservations) {
  // Until the five markers exist the estimate is the exact sample quantile.
  P2Quantile median(0.5);
  median.add(9.0);
  EXPECT_DOUBLE_EQ(median.estimate(), 9.0);
  median.add(1.0);
  median.add(5.0);
  EXPECT_DOUBLE_EQ(median.estimate(), 5.0);  // median of {1, 5, 9}
}

TEST(P2QuantileTest, MedianOfUniformStreamConverges) {
  P2Quantile median(0.5);
  rng::Stream rng(31);
  for (int i = 0; i < 50'000; ++i) median.add(rng.uniform01());
  EXPECT_EQ(median.count(), 50'000u);
  EXPECT_NEAR(median.estimate(), 0.5, 0.01);
}

TEST(P2QuantileTest, TailQuantileOfExponentialConverges) {
  // p95 of Exp(1) is -ln(0.05) ~= 2.996 — a tail quantile on a skewed
  // stream, exactly the deadline estimator's use case.
  P2Quantile p95(0.95);
  rng::Stream rng(32);
  for (int i = 0; i < 100'000; ++i) p95.add(rng.exponential(1.0));
  EXPECT_NEAR(p95.estimate(), 2.996, 0.15);
}

TEST(P2QuantileTest, DeterministicForSameStream) {
  P2Quantile a(0.9);
  P2Quantile b(0.9);
  rng::Stream rng(33);
  for (int i = 0; i < 1'000; ++i) {
    const double x = rng.normal(5.0, 2.0);
    a.add(x);
    b.add(x);
  }
  EXPECT_DOUBLE_EQ(a.estimate(), b.estimate());
}

TEST(P2QuantileTest, ConstantStreamEstimatesTheConstant) {
  P2Quantile p90(0.9);
  for (int i = 0; i < 100; ++i) p90.add(7.25);
  EXPECT_DOUBLE_EQ(p90.estimate(), 7.25);
}

TEST(P2QuantileTest, AgreesWithLogHistogramOnSkewedStream) {
  // Two independent quantile estimators, two independent error models: the
  // streaming P² approximation and the histogram's bucketed exact ranks
  // must land within a few percent of each other on the same stream, or
  // one of them is broken.
  rng::Stream rng(34);
  for (const double q : {0.5, 0.9, 0.99}) {
    P2Quantile streaming(q);
    obs::LogHistogram histogram;
    rng::Stream stream(rng.uniform_int(1, 1 << 30));
    for (int i = 0; i < 100'000; ++i) {
      const double x = stream.exponential(1.0) + 0.01;
      streaming.add(x);
      histogram.add(x);
    }
    EXPECT_NEAR(histogram.quantile(q) / streaming.estimate(), 1.0, 0.10)
        << "q=" << q;
  }
}

}  // namespace
}  // namespace smartred::stats
