#include "redundancy/montecarlo.h"

#include <algorithm>
#include <vector>

#include "common/expect.h"

namespace smartred::redundancy {

double MonteCarloResult::cost_factor() const {
  SMARTRED_EXPECT(tasks > 0, "cost_factor() of an empty run");
  return static_cast<double>(jobs_total) / static_cast<double>(tasks);
}

double MonteCarloResult::reliability() const {
  SMARTRED_EXPECT(tasks > 0, "reliability() of an empty run");
  return static_cast<double>(tasks_correct) / static_cast<double>(tasks);
}

stats::Interval MonteCarloResult::reliability_interval(double z) const {
  return stats::wilson_interval(tasks_correct, tasks, z);
}

void MonteCarloResult::merge(const MonteCarloResult& other) {
  tasks += other.tasks;
  tasks_correct += other.tasks_correct;
  tasks_aborted += other.tasks_aborted;
  jobs_total += other.jobs_total;
  max_jobs_single_task =
      std::max(max_jobs_single_task, other.max_jobs_single_task);
  jobs_per_task.merge(other.jobs_per_task);
  waves_per_task.merge(other.waves_per_task);
  jobs_per_task_hist.merge(other.jobs_per_task_hist);
}

namespace {

/// Sweep-progress sampling stride, in tasks.
constexpr std::uint64_t kSampleEvery = 1024;

/// Records one event of `task`, which has consulted the strategy for
/// `wave` waves so far. The sampler has no clock, so the task index stands
/// in for the time.
void trace(obs::Recorder& recorder, obs::EventKind kind, std::uint64_t task,
           int wave, std::int64_t arg, NodeId node = 0,
           Decision::Reason reason = Decision::Reason::kNone) {
  recorder.record(obs::TraceEvent{
      .time = static_cast<double>(task),
      .task = task,
      .arg = arg,
      .node = node,
      .wave = static_cast<std::uint32_t>(wave),
      .kind = kind,
      .reason = static_cast<std::uint8_t>(reason),
  });
}

// The wave loop, templated on the vote source so per-vote calls inline at
// the call site: run_binary's batched sources below are plain structs, so
// the hot path pays neither std::function dispatch per vote nor a raw
// uniform01 word per Bernoulli outcome. run_custom instantiates this with
// the type-erased VoteSource and behaves exactly as before.
template <typename Source>
MonteCarloResult run_loop(const StrategyFactory& factory, Source& source,
                          ResultValue correct_value,
                          const MonteCarloConfig& config) {
  SMARTRED_EXPECT(config.tasks > 0, "a run needs at least one task");
  SMARTRED_EXPECT(config.max_jobs_per_task > 0, "job cap must be positive");

  MonteCarloResult result;
  result.tasks = config.tasks;
  const rng::Stream master(config.seed);

  // Tasks run strictly one after another, so a single strategy instance
  // serves the whole run: reset() restores the freshly-made state between
  // tasks (a no-op for the stateless majority), replacing one allocation
  // per task with one per run. The votes buffer likewise never reallocates
  // once reserved to the cap.
  const auto strategy = factory.make();
  std::vector<Vote> votes;
  votes.reserve(static_cast<std::size_t>(config.max_jobs_per_task));
  obs::Recorder* const recorder = config.recorder;
  obs::TimeSeriesRecorder* const timeseries = config.timeseries;
  for (std::uint64_t task = 0; task < config.tasks; ++task) {
    rng::Stream task_rng = master.fork(task);
    strategy->reset();
    votes.clear();
    int waves = 0;
    bool aborted = false;
    Decision decision = Decision::dispatch(1);
    while (true) {
      decision = strategy->decide(votes);
      if (decision.done()) break;
      ++waves;
      if (recorder != nullptr) {
        trace(*recorder, obs::EventKind::kWaveDispatched, task, waves,
              decision.jobs);
      }
      const int already = static_cast<int>(votes.size());
      const int wave =
          std::min(decision.jobs, config.max_jobs_per_task - already);
      for (int j = 0; j < wave; ++j) {
        votes.push_back(source(task, already + j, task_rng));
        if (recorder != nullptr) {
          trace(*recorder, obs::EventKind::kVoteRecorded, task, waves,
                votes.back().value, votes.back().node);
        }
      }
      if (wave < decision.jobs) {
        aborted = true;  // cap reached mid-wave; give up on this task
        break;
      }
    }
    const auto jobs = static_cast<int>(votes.size());
    result.jobs_total += static_cast<std::uint64_t>(jobs);
    result.max_jobs_single_task = std::max(result.max_jobs_single_task, jobs);
    result.jobs_per_task.add(static_cast<double>(jobs));
    result.waves_per_task.add(static_cast<double>(waves));
    result.jobs_per_task_hist.add(static_cast<double>(jobs));
    if (aborted) {
      // An aborted task never accepts, hence counts incorrect.
      ++result.tasks_aborted;
      if (recorder != nullptr) {
        trace(*recorder, obs::EventKind::kTaskAborted, task, waves, jobs, 0,
              Decision::Reason::kBudgetExhausted);
      }
    } else {
      if (recorder != nullptr) {
        trace(*recorder, obs::EventKind::kDecision, task, waves,
              decision.value, 0, decision.reason);
      }
      if (decision.value == correct_value) ++result.tasks_correct;
    }
    // Sweep-progress sampling: cumulative aggregates every kSampleEvery
    // tasks (and at the end). Pure reads of already-updated result fields,
    // so sampling can never perturb the run.
    if (timeseries != nullptr &&
        ((task + 1) % kSampleEvery == 0 || task + 1 == config.tasks)) {
      const double done = static_cast<double>(task + 1);
      timeseries->sample("cost_factor", done,
                         static_cast<double>(result.jobs_total) / done);
      timeseries->sample(
          "reliability", done,
          static_cast<double>(result.tasks_correct) / done);
      timeseries->sample("tasks_aborted", done,
                         static_cast<double>(result.tasks_aborted));
    }
  }
  return result;
}

// Per-task cache of one bernoulli_mask64() draw: 64 job outcomes per ~2 raw
// words instead of one word each. The cache is keyed by task because each
// task forks a fresh stream — outcomes cached from the previous task's
// stream must never leak into the next. Draw *order* within a task differs
// from scalar bernoulli() calls (the distribution does not); the one-time
// pin refresh is documented in DESIGN §11.
struct BatchedOutcomes {
  double reliability;
  std::uint64_t mask = 0;
  int bits_left = 0;
  std::uint64_t current_task = ~std::uint64_t{0};

  bool next(std::uint64_t task, rng::Stream& rng) {
    if (task != current_task) {
      current_task = task;
      bits_left = 0;
    }
    if (bits_left == 0) {
      mask = rng.bernoulli_mask64(reliability);
      bits_left = 64;
    }
    const bool outcome = (mask & 1u) != 0;
    mask >>= 1;
    --bits_left;
    return outcome;
  }
};

struct BinarySource {
  BatchedOutcomes outcomes;

  Vote operator()(std::uint64_t task, int job_index, rng::Stream& rng) {
    // Node ids are synthetic: the pool is assumed large enough that a task
    // never sees the same node twice (paper §2.1, random assignment).
    return Vote{static_cast<NodeId>(job_index),
                outcomes.next(task, rng) ? kCorrectValue : kWrongValue};
  }
};

struct EncodedBinarySource {
  const TaskEncoder* encoder;
  BatchedOutcomes outcomes;

  Vote operator()(std::uint64_t task, int job_index, rng::Stream& rng) {
    const ResultValue correct = encoder->job_value(kCorrectValue, job_index);
    return Vote{static_cast<NodeId>(job_index),
                outcomes.next(task, rng) ? correct : correct ^ 1,
                encoder->piece_of(job_index)};
  }
};

}  // namespace

MonteCarloResult run_custom(const StrategyFactory& factory,
                            const VoteSource& source,
                            ResultValue correct_value,
                            const MonteCarloConfig& config) {
  return run_loop(factory, source, correct_value, config);
}

MonteCarloResult run_binary(const StrategyFactory& factory, double reliability,
                            const MonteCarloConfig& config) {
  SMARTRED_EXPECT(reliability >= 0.0 && reliability <= 1.0,
                  "reliability must be in [0, 1]");
  // An encoding factory splits the task into pieces: job_index is the
  // dispatch ordinal, the correct report is the ordinal's piece value, and
  // the colluding wrong value flips that piece's low bit (per-piece
  // collusion — the coded analogue of the binary worst case, since a
  // wrong-but-consistent *codeword* is what the decode-verify step exists
  // to catch).
  if (const TaskEncoder* const encoder = factory.encoder()) {
    EncodedBinarySource source{encoder, BatchedOutcomes{reliability}};
    return run_loop(factory, source, kCorrectValue, config);
  }
  BinarySource source{BatchedOutcomes{reliability}};
  return run_loop(factory, source, kCorrectValue, config);
}

}  // namespace smartred::redundancy
