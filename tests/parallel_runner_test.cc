// The parallel runner's contract: a fixed master seed produces bit-identical
// merged aggregates no matter how many worker threads execute the
// replications. Workers race only to *claim* replication indices; results
// land in index-order slots and the reduction folds on the calling thread,
// so thread scheduling can never reorder the arithmetic.
#include "exp/parallel_runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "dca/metrics.h"
#include "dca/task_server.h"
#include "dca/workload.h"
#include "fault/failure_model.h"
#include "fault/latency_model.h"
#include "redundancy/iterative.h"
#include "sim/simulator.h"

namespace smartred::exp {
namespace {

TEST(PartitionTest, SizesSumToTotalAndDifferByAtMostOne) {
  for (std::uint64_t total : {0ull, 1ull, 7ull, 64ull, 1'000ull, 12'345ull}) {
    for (std::uint64_t parts : {1ull, 2ull, 3ull, 8ull, 13ull}) {
      std::uint64_t sum = 0;
      std::uint64_t lo = total;
      std::uint64_t hi = 0;
      for (std::uint64_t i = 0; i < parts; ++i) {
        const std::uint64_t size = partition_size(total, parts, i);
        sum += size;
        lo = std::min(lo, size);
        hi = std::max(hi, size);
      }
      EXPECT_EQ(sum, total);
      EXPECT_LE(hi - lo, 1u);
    }
  }
}

TEST(ResolveThreadsTest, ZeroMeansHardwareAndNeverZero) {
  EXPECT_GE(resolve_threads(0), 1u);
  EXPECT_EQ(resolve_threads(3), 3u);
}

TEST(ParallelRunnerTest, ResultsArriveInIndexOrderWithDerivedSeeds) {
  RunnerConfig config;
  config.replications = 33;
  config.threads = 4;
  config.master_seed = 99;
  ParallelRunner runner(config);
  struct Slot {
    std::uint64_t index;
    std::uint64_t seed;
  };
  const auto results = runner.run([](std::uint64_t index, std::uint64_t seed) {
    return Slot{index, seed};
  });
  ASSERT_EQ(results.size(), 33u);
  for (std::uint64_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].index, i);
    EXPECT_EQ(results[i].seed, rng::derive_seed(99, i));
  }
}

TEST(ParallelRunnerTest, SingleWorkerRunsInline) {
  RunnerConfig config;
  config.replications = 4;
  config.threads = 1;
  ParallelRunner runner(config);
  const auto caller = std::this_thread::get_id();
  const auto ids = runner.run([caller](std::uint64_t, std::uint64_t) {
    return std::this_thread::get_id();
  });
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

TEST(ParallelRunnerTest, ExceptionsPropagateToCaller) {
  RunnerConfig config;
  config.replications = 16;
  config.threads = 4;
  ParallelRunner runner(config);
  EXPECT_THROW(
      runner.run([](std::uint64_t index, std::uint64_t) -> int {
        if (index == 11) throw std::runtime_error("replication failed");
        return 0;
      }),
      std::runtime_error);
}

// Floating-point reduction is not associative, so the merged statistic is
// only thread-count-invariant because the fold order is pinned. This test
// would fail for a merge-on-arrival design.
TEST(ParallelRunnerTest, MergedStatsBitIdenticalAcrossThreadCounts) {
  for (const std::uint64_t master : {1ull, 42ull, 0xDEADBEEFull}) {
    std::vector<stats::StreamingStats> merged;
    for (const unsigned threads : {1u, 2u, 8u}) {
      RunnerConfig config;
      config.replications = 24;
      config.threads = threads;
      config.master_seed = master;
      ParallelRunner runner(config);
      merged.push_back(
          runner.run_merged([](std::uint64_t, std::uint64_t seed) {
            rng::Stream rng(seed);
            stats::StreamingStats stats;
            for (int i = 0; i < 1'000; ++i) stats.add(rng.uniform01());
            return stats;
          }));
    }
    ASSERT_EQ(merged.size(), 3u);
    for (std::size_t i = 1; i < merged.size(); ++i) {
      EXPECT_EQ(merged[i].count(), merged[0].count());
      // Exact double equality on purpose: the contract is bit-identity.
      EXPECT_EQ(merged[i].mean(), merged[0].mean());
      EXPECT_EQ(merged[i].variance(), merged[0].variance());
      EXPECT_EQ(merged[i].min(), merged[0].min());
      EXPECT_EQ(merged[i].max(), merged[0].max());
    }
  }
}

dca::RunMetrics run_dca(const RunnerConfig& plan, std::uint64_t tasks_per_rep,
                        bool straggler_stack) {
  ParallelRunner runner(plan);
  return runner.run_merged([&](std::uint64_t, std::uint64_t rep_seed) {
    sim::Simulator simulator;
    dca::DcaConfig config;
    config.nodes = 150;
    config.seed = rep_seed;
    fault::LognormalLatency tail(1.0, 1.1);
    fault::SlowNodeLatency latency(tail, 0.1, 6.0,
                                   rng::Stream(rng::derive_seed(rep_seed, 2)));
    if (straggler_stack) {
      config.timeout = 25.0;
      config.latency = &latency;
      config.deadline.adaptive = true;
      config.deadline.quantile = 0.9;
      config.deadline.multiplier = 1.5;
      config.deadline.warmup = 20;
      config.speculation.enabled = true;
      config.speculation.max_copies = 2;
      config.quarantine.enabled = true;
      config.quarantine.strike_threshold = 3;
      config.quarantine.backoff_base = 20.0;
    }
    const redundancy::IterativeFactory factory(3);
    const dca::SyntheticWorkload workload(tasks_per_rep);
    fault::ByzantineCollusion failures(fault::ReliabilityAssigner(
        fault::ConstantReliability{0.7},
        rng::Stream(rng::derive_seed(rep_seed, 1))));
    dca::TaskServer server(simulator, config, factory, workload, failures);
    return dca::RunMetrics(server.run());
  });
}

void expect_identical(const dca::RunMetrics& a, const dca::RunMetrics& b) {
  EXPECT_EQ(a.tasks_total, b.tasks_total);
  EXPECT_EQ(a.tasks_correct, b.tasks_correct);
  EXPECT_EQ(a.tasks_aborted, b.tasks_aborted);
  EXPECT_EQ(a.tasks_abandoned, b.tasks_abandoned);
  EXPECT_EQ(a.decodes_rejected, b.decodes_rejected);
  EXPECT_EQ(a.jobs_dispatched, b.jobs_dispatched);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.jobs_correct, b.jobs_correct);
  EXPECT_EQ(a.jobs_lost, b.jobs_lost);
  EXPECT_EQ(a.jobs_discarded, b.jobs_discarded);
  EXPECT_EQ(a.jobs_unrun, b.jobs_unrun);
  EXPECT_EQ(a.jobs_speculative, b.jobs_speculative);
  EXPECT_EQ(a.jobs_timed_out, b.jobs_timed_out);
  EXPECT_EQ(a.nodes_quarantined, b.nodes_quarantined);
  EXPECT_EQ(a.nodes_readmitted, b.nodes_readmitted);
  EXPECT_EQ(a.max_jobs_single_task, b.max_jobs_single_task);
  // Bit-exact doubles: the whole point of the pinned fold order.
  EXPECT_EQ(a.jobs_per_task.mean(), b.jobs_per_task.mean());
  EXPECT_EQ(a.jobs_per_task.variance(), b.jobs_per_task.variance());
  EXPECT_EQ(a.waves_per_task.mean(), b.waves_per_task.mean());
  EXPECT_EQ(a.response_time.mean(), b.response_time.mean());
  EXPECT_EQ(a.response_time.max(), b.response_time.max());
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.cost_factor(), b.cost_factor());
  EXPECT_EQ(a.reliability(), b.reliability());
}

TEST(ParallelRunnerTest, DcaMergeBitIdenticalAcrossThreadCounts) {
  for (const std::uint64_t master : {1ull, 7ull, 123'456'789ull}) {
    RunnerConfig plan;
    plan.replications = 6;
    plan.master_seed = master;
    plan.threads = 1;
    const auto baseline = run_dca(plan, 120, /*straggler_stack=*/false);
    EXPECT_TRUE(baseline.jobs_conserved());
    EXPECT_EQ(baseline.tasks_total, 6u * 120u);
    for (const unsigned threads : {2u, 8u}) {
      plan.threads = threads;
      expect_identical(run_dca(plan, 120, /*straggler_stack=*/false),
                       baseline);
    }
  }
}

TEST(ParallelRunnerTest,
     DcaWithStragglerStackBitIdenticalAcrossThreadCounts) {
  // Adaptive deadlines + speculation + quarantine + heavy-tail latency all
  // carry extra per-replication RNG state; the merged aggregate must still
  // be thread-count-invariant.
  for (const std::uint64_t master : {3ull, 0xABCDull}) {
    RunnerConfig plan;
    plan.replications = 5;
    plan.master_seed = master;
    plan.threads = 1;
    const auto baseline = run_dca(plan, 100, /*straggler_stack=*/true);
    EXPECT_TRUE(baseline.jobs_conserved());
    for (const unsigned threads : {2u, 8u}) {
      plan.threads = threads;
      expect_identical(run_dca(plan, 100, /*straggler_stack=*/true),
                       baseline);
    }
  }
}

TEST(ParallelRunnerTest, MoreThreadsThanReplicationsIsFine) {
  RunnerConfig config;
  config.replications = 2;
  config.threads = 16;
  ParallelRunner runner(config);
  const auto merged = runner.run_merged(
      [](std::uint64_t index, std::uint64_t) {
        stats::StreamingStats stats;
        stats.add(static_cast<double>(index));
        return stats;
      });
  EXPECT_EQ(merged.count(), 2u);
  EXPECT_EQ(merged.sum(), 1.0);
}

TEST(ParallelRunnerTest, CustomMergeFoldsInIndexOrder) {
  RunnerConfig config;
  config.replications = 10;
  config.threads = 4;
  ParallelRunner runner(config);
  const auto folded = runner.run_merged(
      [](std::uint64_t index, std::uint64_t) {
        return std::vector<std::uint64_t>{index};
      },
      [](std::vector<std::uint64_t>& into,
         const std::vector<std::uint64_t>& from) {
        into.insert(into.end(), from.begin(), from.end());
      });
  std::vector<std::uint64_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(folded, expected);
}


TEST(ParallelRunnerTest, StopNeverReportsPartialRunAsComplete) {
  reset_stop();
  RunnerConfig config;
  config.replications = 12;
  config.threads = 1;
  config.progress_label = "stop-test";
  ParallelRunner runner(config);
  std::uint64_t calls = 0;
  try {
    (void)runner.run([&](std::uint64_t index, std::uint64_t) {
      if (++calls == 4) request_stop();
      return index;
    });
    FAIL() << "a stopped run must throw, not return partial results";
  } catch (const StoppedError& stopped) {
    // Bookkeeping reconciles: exactly the replications that finished are
    // counted, and the partial batch is flagged as incomplete.
    EXPECT_EQ(stopped.completed(), 4u);
    EXPECT_EQ(stopped.total(), 12u);
    EXPECT_FALSE(stopped.checkpointed());
  }
  reset_stop();
}

TEST(ParallelRunnerTest, RunSubsetExecutesExactlyTheRequestedIndices) {
  reset_stop();
  RunnerConfig config;
  config.replications = 10;
  config.threads = 3;
  config.master_seed = 5;
  ParallelRunner runner(config);
  const std::vector<std::uint64_t> todo = {1, 4, 7, 9};
  std::vector<std::uint64_t> seen;
  std::vector<std::uint64_t> seeds;
  const SubsetOutcome outcome = runner.run_subset(
      todo, /*already_done=*/6,
      [](std::uint64_t index, std::uint64_t seed) {
        return std::pair<std::uint64_t, std::uint64_t>{index, seed};
      },
      [&](std::uint64_t index,
          std::pair<std::uint64_t, std::uint64_t>&& result) {
        // on_result runs under the sink mutex: plain vectors are safe.
        EXPECT_EQ(index, result.first);
        seen.push_back(index);
        seeds.push_back(result.second);
      });
  EXPECT_EQ(outcome.completed, 4u);
  EXPECT_FALSE(outcome.stopped);
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, todo);
  // Seeds are counter-derived from the replication index, so a resumed
  // subset sees the exact seeds the original full run would have used.
  std::sort(seeds.begin(), seeds.end());
  std::vector<std::uint64_t> expected;
  for (const std::uint64_t i : todo) {
    expected.push_back(rng::derive_seed(config.master_seed, i));
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(seeds, expected);
}

TEST(ParallelRunnerTest, StoppedRunSubsetReconcilesItsCounters) {
  reset_stop();
  RunnerConfig config;
  config.replications = 10;
  config.threads = 1;
  ParallelRunner runner(config);
  const std::vector<std::uint64_t> todo = {2, 3, 5, 8};
  std::uint64_t delivered = 0;
  const SubsetOutcome outcome = runner.run_subset(
      todo, /*already_done=*/6,
      [](std::uint64_t index, std::uint64_t) {
        if (index == 3) request_stop();
        return index;
      },
      [&](std::uint64_t, std::uint64_t&&) { ++delivered; });
  EXPECT_TRUE(outcome.stopped);
  EXPECT_EQ(outcome.completed, 2u);  // indices 2 and 3 ran, then the stop
  EXPECT_EQ(outcome.completed, delivered);
  reset_stop();
}

}  // namespace
}  // namespace smartred::exp
