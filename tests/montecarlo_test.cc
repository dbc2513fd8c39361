// Monte-Carlo driver tests, including the empirical verification of
// Equations (1)–(6) that §4 of the paper performs by simulation.
#include "redundancy/montecarlo.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "common/expect.h"
#include "obs/trace.h"
#include "redundancy/analysis.h"
#include "redundancy/iterative.h"
#include "redundancy/progressive.h"
#include "redundancy/registry.h"
#include "redundancy/traditional.h"

namespace smartred::redundancy {
namespace {

MonteCarloConfig quick(std::uint64_t tasks, std::uint64_t seed = 1) {
  MonteCarloConfig config;
  config.tasks = tasks;
  config.seed = seed;
  return config;
}

TEST(MonteCarloTest, PerfectNodesAlwaysCorrect) {
  const TraditionalFactory factory(5);
  const MonteCarloResult result = run_binary(factory, 1.0, quick(1'000));
  EXPECT_EQ(result.tasks_correct, 1'000u);
  EXPECT_DOUBLE_EQ(result.reliability(), 1.0);
  EXPECT_DOUBLE_EQ(result.cost_factor(), 5.0);
  EXPECT_EQ(result.tasks_aborted, 0u);
}

TEST(MonteCarloTest, AlwaysWrongNodesAlwaysWrong) {
  const IterativeFactory factory(3);
  const MonteCarloResult result = run_binary(factory, 0.0, quick(500));
  EXPECT_EQ(result.tasks_correct, 0u);
  EXPECT_DOUBLE_EQ(result.cost_factor(), 3.0);  // unanimous wrong, one wave
}

TEST(MonteCarloTest, DeterministicGivenSeed) {
  const IterativeFactory factory(4);
  const MonteCarloResult a = run_binary(factory, 0.7, quick(2'000, 99));
  const MonteCarloResult b = run_binary(factory, 0.7, quick(2'000, 99));
  EXPECT_EQ(a.tasks_correct, b.tasks_correct);
  EXPECT_EQ(a.jobs_total, b.jobs_total);
  const MonteCarloResult c = run_binary(factory, 0.7, quick(2'000, 100));
  EXPECT_NE(a.jobs_total, c.jobs_total);
}

TEST(MonteCarloTest, TraditionalMatchesEquationsOneAndTwo) {
  const int k = 7;
  const double r = 0.7;
  const TraditionalFactory factory(k);
  const MonteCarloResult result = run_binary(factory, r, quick(100'000));
  EXPECT_DOUBLE_EQ(result.cost_factor(), analysis::traditional_cost(k));
  EXPECT_TRUE(result.reliability_interval(3.9).contains(
      analysis::traditional_reliability(k, r)))
      << result.reliability();
}

TEST(MonteCarloTest, ProgressiveMatchesEquationsThreeAndFour) {
  const int k = 9;
  const double r = 0.7;
  const ProgressiveFactory factory(k);
  const MonteCarloResult result = run_binary(factory, r, quick(100'000));
  EXPECT_NEAR(result.cost_factor(), analysis::progressive_cost(k, r), 0.03);
  EXPECT_TRUE(result.reliability_interval(3.9).contains(
      analysis::progressive_reliability(k, r)))
      << result.reliability();
}

TEST(MonteCarloTest, IterativeMatchesEquationsFiveAndSix) {
  const int d = 4;
  const double r = 0.7;
  const IterativeFactory factory(d);
  const MonteCarloResult result = run_binary(factory, r, quick(100'000));
  EXPECT_NEAR(result.cost_factor(), analysis::iterative_cost(d, r), 0.06);
  EXPECT_TRUE(result.reliability_interval(3.9).contains(
      analysis::iterative_reliability(d, r)))
      << result.reliability();
}

TEST(MonteCarloTest, IterativeJobCountsLieOnLattice) {
  const int d = 3;
  const IterativeFactory factory(d);
  const MonteCarloResult result = run_binary(factory, 0.6, quick(5'000));
  EXPECT_GE(result.max_jobs_single_task, d);
  EXPECT_EQ((result.max_jobs_single_task - d) % 2, 0);
  EXPECT_GE(result.jobs_per_task.min(), static_cast<double>(d));
}

TEST(MonteCarloTest, WavesTrackTechniqueShape) {
  const MonteCarloResult tr =
      run_binary(TraditionalFactory(9), 0.7, quick(5'000));
  EXPECT_DOUBLE_EQ(tr.waves_per_task.max(), 1.0);
  const MonteCarloResult pr =
      run_binary(ProgressiveFactory(9), 0.7, quick(5'000));
  EXPECT_GT(pr.waves_per_task.mean(), 1.0);
  EXPECT_LE(pr.waves_per_task.max(), 5.0);  // (k+1)/2 bound
  const MonteCarloResult ir = run_binary(IterativeFactory(5), 0.7,
                                         quick(5'000));
  EXPECT_GT(ir.waves_per_task.mean(), 1.0);
}

TEST(MonteCarloTest, AbortsWhenCapReached) {
  // d = 2 with r = 0.5 has expected 4 jobs but unbounded support; a cap of
  // 4 forces some aborts and they are counted incorrect.
  const IterativeFactory factory(2);
  MonteCarloConfig config = quick(20'000);
  config.max_jobs_per_task = 4;
  const MonteCarloResult result = run_binary(factory, 0.5, config);
  EXPECT_GT(result.tasks_aborted, 0u);
  EXPECT_LE(result.max_jobs_single_task, 4);
  // Aborted tasks never count correct.
  EXPECT_LE(result.tasks_aborted, result.tasks - result.tasks_correct);
}

TEST(MonteCarloTest, CustomSourceDrivesNonBinaryResults) {
  // Wrong answers scatter across many values: plurality finds the truth
  // even below r = 0.5 (the paper's §5.3 argument).
  const VoteSource scattered = [](std::uint64_t /*task*/, int job,
                                  rng::Stream& rng) {
    const bool correct = rng.bernoulli(0.4);
    const ResultValue value =
        correct ? kCorrectValue
                : static_cast<ResultValue>(100 + rng.uniform_int(0, 999));
    return Vote{static_cast<NodeId>(job), value};
  };
  const IterativeFactory factory(3);
  const MonteCarloResult result =
      run_custom(factory, scattered, kCorrectValue, quick(5'000));
  EXPECT_GT(result.reliability(), 0.95);
}

TEST(MonteCarloTest, EmptyRunRejected) {
  const TraditionalFactory factory(3);
  MonteCarloConfig config;
  config.tasks = 0;
  EXPECT_THROW((void)run_binary(factory, 0.7, config), PreconditionError);
}

TEST(MonteCarloTest, BadReliabilityRejected) {
  const TraditionalFactory factory(3);
  EXPECT_THROW((void)run_binary(factory, -0.1, quick(10)), PreconditionError);
  EXPECT_THROW((void)run_binary(factory, 1.5, quick(10)), PreconditionError);
}

/// What a traced run_binary() recorded: events per kind and an FNV-1a
/// digest over every field of every event.
struct TraceSummary {
  std::uint64_t waves = 0;
  std::uint64_t votes = 0;
  std::uint64_t decisions = 0;
  std::uint64_t aborts = 0;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
};

TraceSummary traced_run(const std::string& spec, int job_cap) {
  const auto factory = make_strategy(spec);
  obs::Recorder recorder(1 << 16);
  MonteCarloConfig config = quick(300, 11);
  config.max_jobs_per_task = job_cap;
  config.recorder = &recorder;
  const MonteCarloResult result = run_binary(*factory, 0.7, config);
  EXPECT_EQ(recorder.dropped(), 0u) << spec;
  TraceSummary summary;
  const auto fold = [&summary](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      summary.digest ^= (word >> (8 * byte)) & 0xffU;
      summary.digest *= 0x100000001b3ULL;
    }
  };
  recorder.for_each([&](const obs::TraceEvent& event) {
    switch (event.kind) {
      case obs::EventKind::kWaveDispatched: ++summary.waves; break;
      case obs::EventKind::kVoteRecorded: ++summary.votes; break;
      case obs::EventKind::kDecision: ++summary.decisions; break;
      case obs::EventKind::kTaskAborted: ++summary.aborts; break;
      default: ADD_FAILURE() << spec << ": unexpected event kind";
    }
    fold(std::bit_cast<std::uint64_t>(event.time));
    fold(event.task);
    fold(static_cast<std::uint64_t>(event.arg));
    fold(event.node);
    fold(event.rep);
    fold(event.wave);
    fold(static_cast<std::uint64_t>(event.kind));
    fold(event.reason);
  });
  EXPECT_EQ(summary.votes, result.jobs_total) << spec;
  EXPECT_EQ(summary.aborts, result.tasks_aborted) << spec;
  EXPECT_EQ(summary.decisions + summary.aborts, result.tasks) << spec;
  return summary;
}

TEST(MonteCarloTest, TracedRunsArePinned) {
  // The job caps abort some tasks of each technique (the coded one in its
  // third wave), so all four event kinds the sampler records appear.
  const TraceSummary iterative = traced_run("iterative:d=4", 8);
  EXPECT_EQ(iterative.waves, 680u);
  EXPECT_EQ(iterative.votes, 1944u);
  EXPECT_EQ(iterative.decisions, 193u);
  EXPECT_EQ(iterative.aborts, 107u);
  EXPECT_EQ(iterative.digest, 16569793913191259438ULL);
  const TraceSummary coded = traced_run("coded:n=6,k=4,g=6", 14);
  EXPECT_EQ(coded.waves, 708u);
  EXPECT_EQ(coded.votes, 3456u);
  EXPECT_EQ(coded.decisions, 102u);
  EXPECT_EQ(coded.aborts, 198u);
  EXPECT_EQ(coded.digest, 3628028183995502813ULL);
}

}  // namespace
}  // namespace smartred::redundancy
