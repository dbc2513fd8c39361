// Wave-level Monte-Carlo execution of redundancy strategies.
//
// This driver runs a strategy on synthetic vote streams without any
// discrete-event machinery — the fastest way to measure cost factor and
// reliability, and the harness used to verify Equations (1)–(6) empirically.
// The DES-based DCA (src/dca) and the volunteer-computing deployment
// (src/boinc) run the *same strategy objects* with real scheduling.
#pragma once

#include <cstdint>
#include <functional>

#include "common/rng.h"
#include "common/stats.h"
#include "obs/histogram.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "redundancy/strategy.h"

namespace smartred::redundancy {

/// The value a correct job reports in binary experiments.
inline constexpr ResultValue kCorrectValue = 1;
/// The colluding wrong value of the binary Byzantine worst case (§2.2).
inline constexpr ResultValue kWrongValue = 0;

/// Produces the vote of the `job_index`-th job of task `task`. The source
/// owns all randomness (via the provided stream) and all failure modeling.
using VoteSource =
    std::function<Vote(std::uint64_t task, int job_index, rng::Stream& rng)>;

/// Aggregate results of a Monte-Carlo run.
struct MonteCarloResult {
  std::uint64_t tasks = 0;
  std::uint64_t tasks_correct = 0;
  std::uint64_t tasks_aborted = 0;  ///< hit the per-task job cap
  std::uint64_t jobs_total = 0;
  int max_jobs_single_task = 0;
  stats::StreamingStats jobs_per_task;
  stats::StreamingStats waves_per_task;
  /// Tail-resolving distribution of jobs per task (lazily allocated;
  /// integer merge state — bit-identical merged at any thread count).
  obs::LogHistogram jobs_per_task_hist;

  /// Measured cost factor: average jobs per task.
  [[nodiscard]] double cost_factor() const;
  /// Measured system reliability: fraction of tasks that accepted the
  /// correct value.
  [[nodiscard]] double reliability() const;
  /// Wilson score interval on the measured reliability (z = 1.96 is 95%).
  [[nodiscard]] stats::Interval reliability_interval(double z = 1.96) const;

  /// Accumulates another run's results into this one (counters add,
  /// streaming statistics merge, extrema take the max) — the reduction the
  /// parallel experiment runner applies across replications, in a fixed
  /// fold order so merged aggregates are bit-identical at any thread count.
  void merge(const MonteCarloResult& other);
};

struct MonteCarloConfig {
  std::uint64_t tasks = 100'000;
  std::uint64_t seed = 1;
  /// Safety cap on jobs per task; a task that reaches it is recorded as
  /// aborted and counted incorrect. Never reached by the paper's techniques
  /// under sane parameters — the cap exists to keep adversarial inputs from
  /// hanging an experiment.
  int max_jobs_per_task = 100'000;
  /// Optional flight recorder. Monte-Carlo runs have no simulated clock, so
  /// events are stamped with the task index as their "time" — within a task
  /// they stay in decision order. Null disables tracing at zero cost.
  obs::Recorder* recorder = nullptr;
  /// Optional sweep-progress sampler: every 1024 tasks (and after the
  /// last) the run records cumulative cost factor, reliability-so-far, and
  /// abort count as time-series (time = task index). Read-only
  /// observations — a sampled run's aggregates are bit-identical to an
  /// unsampled run's. Null disables sampling at zero cost.
  obs::TimeSeriesRecorder* timeseries = nullptr;
};

/// Runs `factory`'s strategy over binary worst-case votes: each job is
/// correct with probability `reliability`, otherwise it reports the single
/// colluding wrong value. Requires reliability in [0, 1].
[[nodiscard]] MonteCarloResult run_binary(const StrategyFactory& factory,
                                          double reliability,
                                          const MonteCarloConfig& config);

/// Runs `factory`'s strategy over votes drawn from an arbitrary source
/// (heterogeneous reliabilities, non-binary results, correlated failures...).
/// `correct_value` is what counts as a correct task outcome.
[[nodiscard]] MonteCarloResult run_custom(const StrategyFactory& factory,
                                          const VoteSource& source,
                                          ResultValue correct_value,
                                          const MonteCarloConfig& config);

}  // namespace smartred::redundancy
