// Deterministic parallel experiment engine.
//
// Every figure and ablation is an average over many Monte-Carlo
// replications. ParallelRunner fans N replications out across a pool of
// worker threads; each replication gets an independent seed derived from
// one master seed by a counter-based SplitMix64 split (rng::derive_seed),
// runs on its own Simulator (or Monte-Carlo driver), and deposits its
// result into a slot indexed by replication number. Reduction then walks
// the slots in replication order on the calling thread — so the merged
// aggregate is bit-identical whether the replications ran on 1 thread or
// 16, and identical to a serial loop over the same seeds.
//
// Determinism contract: the replication function must depend only on its
// (index, seed) arguments — no shared mutable state, no wall clock, no
// global RNG. Everything in src/ satisfies this by construction (all
// randomness flows through rng::Stream objects seeded explicitly).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/expect.h"
#include "common/rng.h"
#include "obs/profile.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace smartred::ckpt {
// Typed checkpoint handle defined in ckpt/sweep.h. exp/ stays below ckpt/
// in the layering: the runner only carries the pointer; all checkpoint
// logic lives in ckpt::run_resumable(), which drives run_subset().
struct PointCheckpoint;
}  // namespace smartred::ckpt

namespace smartred::exp {

/// Requests a cooperative stop of all in-flight runs: workers finish the
/// replication they are on and stop claiming new ones. Async-signal-safe
/// (one relaxed atomic store) — designed to be called from SIGINT/SIGTERM
/// handlers.
void request_stop() noexcept;

/// Whether a cooperative stop has been requested.
[[nodiscard]] bool stop_requested() noexcept;

/// Clears the stop flag (tests; accepting a new batch after a handled
/// stop).
void reset_stop() noexcept;

/// Thrown when a run was cut short by request_stop(). The run's partial
/// merge is deliberately NOT returned — a partial aggregate must never be
/// mistaken for a complete one. `checkpointed()` says whether the partial
/// state was saved for --resume before throwing.
class StoppedError : public std::runtime_error {
 public:
  StoppedError(const std::string& what, std::uint64_t completed,
               std::uint64_t total, bool checkpointed)
      : std::runtime_error(what),
        completed_(completed),
        total_(total),
        checkpointed_(checkpointed) {}

  /// Replications finished before the stop took effect.
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] bool checkpointed() const { return checkpointed_; }

 private:
  std::uint64_t completed_;
  std::uint64_t total_;
  bool checkpointed_;
};

/// How a batch of replications is executed.
struct RunnerConfig {
  /// Number of independent replications to run.
  std::uint64_t replications = 1;
  /// Worker threads; 0 means one per hardware thread.
  unsigned threads = 0;
  /// Master seed; replication i runs with rng::derive_seed(master_seed, i).
  std::uint64_t master_seed = 1;
  /// Optional trace collector. When set, run() sizes it to one ring per
  /// replication before any worker starts; the replication function picks
  /// up its private ring with `trace->recorder(i)`. Per-replication rings
  /// need no locks, and merging follows replication order — so traces obey
  /// the same any-thread-count determinism contract as the results.
  obs::TraceCollector* trace = nullptr;
  /// Optional time-series collector, sized exactly like `trace`: one
  /// private recorder per replication (`timeseries->recorder(i)`), merged
  /// later in replication order. Same any-thread-count determinism.
  obs::TimeSeriesCollector* timeseries = nullptr;
  /// Optional phase profiler: kSetup covers collector sizing, kRun the
  /// worker region, kMerge the run_merged() fold. Wall-clock timings for
  /// humans only — they never enter deterministic outputs.
  obs::PhaseProfiler* profile = nullptr;
  /// When true, run() keeps a throttled one-line progress display
  /// (completed replications, throughput, ETA) on stderr. Wall-clock,
  /// display only — never affects results or determinism.
  bool progress = false;
  /// Prefix for the progress line (typically the experiment/point name).
  std::string progress_label = "run";
  /// Optional crash-safe checkpoint handle (ckpt/sweep.h), consumed by
  /// ckpt::run_resumable(). The runner itself never dereferences it;
  /// checkpoint timing is wall-clock-dependent, so keeping the logic out
  /// of run() preserves the determinism contract of everything run()
  /// produces.
  ckpt::PointCheckpoint* checkpoint = nullptr;
};

/// Live stderr progress line for a batch of replications. Thread-safe:
/// workers call advance() concurrently; reprints are throttled (~4 Hz) and
/// claimed by one thread at a time. Disabled instances cost one branch.
class ProgressMeter {
 public:
  /// `already_done` seeds the completed count (resumed runs report true
  /// sweep position, not just this session's work); throughput and ETA are
  /// computed from this session's completions only.
  ProgressMeter(bool enabled, std::string_view label, std::uint64_t total,
                std::uint64_t already_done = 0);

  ProgressMeter(const ProgressMeter&) = delete;
  ProgressMeter& operator=(const ProgressMeter&) = delete;

  /// Marks one replication finished and refreshes the line if the
  /// throttle window has elapsed.
  void advance();
  /// Prints the final state and terminates the line; an interrupted batch
  /// is labeled as such so a partial count is never read as completion.
  /// Idempotent no-op when disabled.
  void finish(bool interrupted = false);

 private:
  void print(std::uint64_t done, bool final_line, bool interrupted);

  bool enabled_;
  std::string label_;
  std::uint64_t total_;
  std::uint64_t already_done_;
  std::chrono::steady_clock::time_point start_{};
  std::atomic<std::uint64_t> done_{0};
  /// Milliseconds-since-start of the last reprint; advance() claims the
  /// next window with a compare-exchange so only one worker prints.
  std::atomic<std::int64_t> last_print_ms_{-1};
};

/// Resolves a requested thread count: 0 -> hardware concurrency (at least
/// 1); anything else is returned unchanged.
[[nodiscard]] unsigned resolve_threads(unsigned requested);

/// Size of part `index` when `total` work items are split as evenly as
/// possible across `parts` (the first total % parts parts get one extra).
/// Requires parts > 0 and index < parts.
[[nodiscard]] std::uint64_t partition_size(std::uint64_t total,
                                           std::uint64_t parts,
                                           std::uint64_t index);

/// What a run_subset() call accomplished.
struct SubsetOutcome {
  /// Replications completed by this call (not counting already_done).
  std::uint64_t completed = 0;
  /// True when a cooperative stop cut the batch short of the full
  /// replication count — the caller must not report its merge as complete.
  bool stopped = false;
};

/// Runs experiment replications across a worker-thread pool.
class ParallelRunner {
 public:
  explicit ParallelRunner(RunnerConfig config) : config_(config) {
    SMARTRED_EXPECT(config.replications > 0,
                    "a run needs at least one replication");
  }

  [[nodiscard]] const RunnerConfig& config() const { return config_; }

  /// Runs `fn(replication_index, replication_seed)` for exactly the
  /// replication indices in `todo` (any subset of [0, replications)),
  /// delivering each result to `on_result(index, std::move(result))` under
  /// a sink mutex — on_result bodies never race, so checkpoint saves and
  /// result deposits need no locking of their own. Delivery is in
  /// completion order; deterministic reduction is the caller's job (fold by
  /// index, as run() and ckpt::run_resumable() do).
  ///
  /// `already_done` is how many replications a previous session finished
  /// (resume); it only offsets the progress display and the stop
  /// accounting. Collectors are prepared for the FULL replication count so
  /// per-replication recorder indices stay stable across sessions.
  ///
  /// Honors request_stop(): workers finish their current replication and
  /// claim no more. The first exception thrown by any replication is
  /// rethrown after all workers stop.
  template <typename Fn, typename OnResult>
  SubsetOutcome run_subset(const std::vector<std::uint64_t>& todo,
                           std::uint64_t already_done, Fn&& fn,
                           OnResult&& on_result) {
    const std::uint64_t n = config_.replications;
    SMARTRED_EXPECT(already_done + todo.size() == n,
                    "todo plus already-done must cover every replication");
    {
      const obs::ScopedPhase setup(config_.profile, obs::Phase::kSetup);
      if (config_.trace != nullptr) config_.trace->prepare(n);
      if (config_.timeseries != nullptr) config_.timeseries->prepare(n);
    }
    const unsigned workers = static_cast<unsigned>(std::min<std::uint64_t>(
        resolve_threads(config_.threads), std::max<std::uint64_t>(
                                              todo.size(), 1)));

    std::atomic<std::uint64_t> next{0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mutex;
    std::mutex sink_mutex;
    ProgressMeter progress(config_.progress, config_.progress_label, n,
                           already_done);

    auto worker = [&] {
      while (!failed.load(std::memory_order_relaxed) && !stop_requested()) {
        const std::uint64_t slot = next.fetch_add(1, std::memory_order_relaxed);
        if (slot >= todo.size()) return;
        const std::uint64_t i = todo[static_cast<std::size_t>(slot)];
        try {
          auto result = fn(i, rng::derive_seed(config_.master_seed, i));
          const std::lock_guard<std::mutex> lock(sink_mutex);
          on_result(i, std::move(result));
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) error = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
          return;
        }
        completed.fetch_add(1, std::memory_order_relaxed);
        progress.advance();
      }
    };

    SubsetOutcome outcome;
    {
      const obs::ScopedPhase running(config_.profile, obs::Phase::kRun);
      if (workers <= 1) {
        worker();
      } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned t = 0; t < workers; ++t) pool.emplace_back(worker);
        for (std::thread& thread : pool) thread.join();
      }
      outcome.completed = completed.load(std::memory_order_relaxed);
      outcome.stopped =
          stop_requested() && already_done + outcome.completed < n;
      progress.finish(outcome.stopped);
    }
    if (error) std::rethrow_exception(error);
    return outcome;
  }

  /// Runs `fn(replication_index, replication_seed)` for every replication
  /// and returns the results ordered by replication index (independent of
  /// which worker computed which). Workers claim indices from an atomic
  /// counter, so stragglers never idle the pool. The first exception thrown
  /// by any replication is rethrown here after all workers have stopped.
  /// Throws StoppedError when request_stop() cut the batch short — partial
  /// results are never returned as if complete.
  template <typename Fn>
  [[nodiscard]] auto run(Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, std::uint64_t, std::uint64_t>> {
    using Result = std::invoke_result_t<Fn&, std::uint64_t, std::uint64_t>;
    static_assert(std::is_default_constructible_v<Result>,
                  "replication results must be default-constructible slots");
    const std::uint64_t n = config_.replications;
    std::vector<Result> results(n);
    std::vector<std::uint64_t> todo(n);
    std::iota(todo.begin(), todo.end(), std::uint64_t{0});
    const SubsetOutcome outcome =
        run_subset(todo, 0, std::forward<Fn>(fn),
                   [&results](std::uint64_t i, Result&& result) {
                     results[static_cast<std::size_t>(i)] = std::move(result);
                   });
    if (outcome.stopped) {
      throw StoppedError("run '" + config_.progress_label + "' stopped after " +
                             std::to_string(outcome.completed) + " of " +
                             std::to_string(n) + " replications",
                         outcome.completed, n, /*checkpointed=*/false);
    }
    return results;
  }

  /// Runs all replications and folds them left-to-right in replication
  /// order with `merge(accumulator, result)` — a deterministic reduction:
  /// the fold order is fixed by index, never by completion order. The
  /// first replication's result seeds the accumulator.
  template <typename Fn, typename Merge>
  [[nodiscard]] auto run_merged(Fn&& fn, Merge&& merge)
      -> std::invoke_result_t<Fn&, std::uint64_t, std::uint64_t> {
    auto results = run(std::forward<Fn>(fn));
    const obs::ScopedPhase merging(config_.profile, obs::Phase::kMerge);
    auto merged = std::move(results.front());
    for (std::size_t i = 1; i < results.size(); ++i) {
      merge(merged, results[i]);
    }
    return merged;
  }

  /// run_merged() for result types with a `merge(const Result&)` member
  /// (dca::RunMetrics, redundancy::MonteCarloResult).
  template <typename Fn>
  [[nodiscard]] auto run_merged(Fn&& fn)
      -> std::invoke_result_t<Fn&, std::uint64_t, std::uint64_t> {
    return run_merged(std::forward<Fn>(fn),
                      [](auto& into, const auto& from) { into.merge(from); });
  }

 private:
  RunnerConfig config_;
};

}  // namespace smartred::exp
