// The per-task lifecycle both execution substrates share. dca::TaskServer
// (push dispatch on the DES pool) and boinc::Deployment (pull dispatch over
// a simulated network) consult the same strategy wave by wave (§4.1) until
// it accepts a value or the task hits its job cap. The ledger owns that
// state machine with its metrics, policy hooks, health sampler and trace
// helper; a substrate keeps only its dispatch. See DESIGN.md §13.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dca/assignment.h"
#include "dca/metrics.h"
#include "dca/workload.h"
#include "obs/profile.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "redundancy/strategy.h"
#include "sim/simulator.h"

namespace smartred::dca {

/// One run's tasks, from first consultation to settlement (accepted or
/// aborted). Single-use, like the substrates that own it.
class TaskLedger {
 public:
  struct TaskState {
    /// The task's own engine under a stateful factory; null under a
    /// stateless() one, whose tasks all consult the ledger's shared
    /// instance (tasks are all in flight at once, so sharing is only sound
    /// without per-task state). Freed when the task settles.
    std::unique_ptr<redundancy::RedundancyStrategy> owned_strategy;
    std::vector<redundancy::Vote> votes;  ///< freed when the task settles
    int outstanding = 0;   ///< jobs of the current wave not yet voted
    int ordinals = 0;      ///< jobs ever created (encoder dispatch ordinals)
    int waves = 0;
    int jobs_started = 0;  ///< dispatches incl. re-issues and copies
    bool started = false;
    bool decided = false;  ///< settled: accepted or aborted
    sim::Time first_dispatch = 0.0;
    sim::Time wave_started = 0.0;  ///< when the latest wave was opened
    /// The accepted value; nullopt until decided, and for an aborted task.
    std::optional<redundancy::ResultValue> accepted;
  };

  /// Builds the assignment policy — `assignment` when non-null (externally
  /// owned), else one made from `assignment_spec` (empty = uniform) — and
  /// reset()s it. Every reference must outlive the ledger; `metrics`
  /// receives the per-task observations. `profile` may be null.
  TaskLedger(sim::Simulator& simulator,
             const redundancy::StrategyFactory& factory,
             const Workload& workload, RunMetrics& metrics,
             int max_jobs_per_task, AssignmentPolicy* assignment,
             const std::string& assignment_spec, obs::PhaseProfiler* profile);

  // Timers scheduled on the simulator hold `this`.
  TaskLedger(const TaskLedger&) = delete;
  TaskLedger& operator=(const TaskLedger&) = delete;

  [[nodiscard]] AssignmentPolicy& policy() { return *policy_; }
  [[nodiscard]] const TaskState& state(std::uint64_t task) const {
    return tasks_[task];
  }
  [[nodiscard]] std::uint64_t undecided() const { return undecided_; }
  [[nodiscard]] bool at_job_cap(std::uint64_t task) const {
    return tasks_[task].jobs_started >= max_jobs_per_task_;
  }

  /// Sizes the ledger for `task_count` tasks and traces the policy.
  void open(std::uint64_t task_count);
  /// Gives `task` its strategy and consults it with no votes. Returns the
  /// size of its first wave, or 0 when it settled at once.
  [[nodiscard]] int start(std::uint64_t task);
  /// Ends the run with `unrun` jobs still queued: checks that every task
  /// settled and every dispatched job reached a terminal state, and
  /// returns the run's metrics. A run without tasks ends when its event
  /// queue drains.
  const RunMetrics& close(std::size_t unrun);

  /// Claims the task's next dispatch ordinal: under an encoding strategy
  /// it fixes which piece the job computes.
  [[nodiscard]] int next_ordinal(std::uint64_t task) {
    return tasks_[task].ordinals++;
  }
  /// Counts dispatches (fresh, re-issued or speculative) against the job
  /// cap and jobs_dispatched.
  void count_dispatch(std::uint64_t task, int jobs = 1) {
    tasks_[task].jobs_started += jobs;
    metrics_.jobs_dispatched += static_cast<std::uint64_t>(jobs);
  }
  /// Stamps the task's first dispatch, where its response time starts.
  void mark_started(std::uint64_t task) {
    if (tasks_[task].started) return;
    tasks_[task].started = true;
    tasks_[task].first_dispatch = simulator_.now();
  }

  /// What a correct node reports for the job with dispatch `ordinal`: the
  /// task's answer or, under an encoding strategy, that ordinal's piece.
  [[nodiscard]] redundancy::ResultValue expected_value(std::uint64_t task,
                                                       int ordinal) const;
  /// Records a completed job's vote. The wave's last vote closes the wave
  /// and consults the strategy; any other vote is an eager strategy's
  /// mid-wave peek, where an accept settles the task early (its leftover
  /// jobs then complete as discarded). Returns the size of the next wave
  /// to dispatch, or 0.
  [[nodiscard]] int record_vote(std::uint64_t task, int ordinal,
                                redundancy::NodeId node,
                                redundancy::ResultValue value,
                                redundancy::ResultValue expected);
  /// Gives up on an undecided task. `budget_exhausted` distinguishes a
  /// job-cap abort from a task the run ended (pool starved) without.
  void abort(std::uint64_t task, bool budget_exhausted = true);

  /// The value accepted for `task`, or nullopt if it was aborted. Only
  /// valid after run().
  [[nodiscard]] std::optional<redundancy::ResultValue> accepted_value(
      std::uint64_t task) const;

  /// Simulated-time stride between health samples, in both substrates.
  static constexpr double kSampleInterval = 1.0;

  /// Takes a health sample now and every kSampleInterval after it until
  /// the last settle cancels the timer, or until a sample finds no other
  /// event pending; no-op without a recorder. `sample_pool(recorder, now)`
  /// records the substrate's series, then the ledger's progress series
  /// follow. Samples are pure reads (no RNG draws, no state writes), so a
  /// sampled run reproduces an unsampled one bit for bit, with one
  /// exception: when a run drains with tasks still undecided (a pool that
  /// churned away), the last sample sets the drain time, so the makespan
  /// of the tasks abandoned then lies within one kSampleInterval after the
  /// unsampled run's.
  template <typename SamplePool>
  void sample_health(obs::TimeSeriesRecorder* recorder,
                     SamplePool sample_pool) {
    if (recorder == nullptr) return;
    {
      const obs::ScopedPhase scope(profile_, obs::Phase::kSample);
      const double now = simulator_.now();
      sample_pool(*recorder, now);
      recorder->sample("undecided_tasks", now,
                       static_cast<double>(undecided_));
      if (metrics_.jobs_completed > 0) {
        recorder->sample("est_node_reliability", now,
                         metrics_.empirical_node_reliability());
      }
    }
    if (undecided_ == 0 || simulator_.pending() == 0) return;
    sample_event_ =
        simulator_.schedule(kSampleInterval, [this, recorder, sample_pool] {
          sample_health(recorder, sample_pool);
        });
  }

  /// Records one trace event at the current simulated time; a single
  /// never-taken branch when no recorder is attached. Every event that
  /// names a task carries the task's current wave count; the events that
  /// name none (policy chosen, node quarantined, node readmitted) carry 0.
  void trace(obs::EventKind kind, std::uint64_t task, std::int64_t arg,
             redundancy::NodeId node = 0,
             redundancy::Decision::Reason reason =
                 redundancy::Decision::Reason::kNone) const {
    obs::Recorder* const recorder = simulator_.recorder();
    if (recorder == nullptr) return;
    using obs::EventKind;
    const bool names_task = kind != EventKind::kPolicyChosen &&
                            kind != EventKind::kNodeQuarantined &&
                            kind != EventKind::kNodeReadmitted;
    recorder->record(obs::TraceEvent{
        .time = simulator_.now(),
        .task = task,
        .arg = arg,
        .node = node,
        .wave = names_task ? static_cast<std::uint32_t>(tasks_[task].waves)
                           : 0U,
        .kind = kind,
        .reason = static_cast<std::uint8_t>(reason),
    });
  }

 private:
  /// A wave-boundary consultation: accept, job-cap abort, or open the next
  /// wave and return its size.
  int consult(std::uint64_t task);
  /// Asks the strategy, surfaces its decode rejects, and settles the task
  /// on an accept.
  redundancy::Decision decide(std::uint64_t task);
  /// What every settled task shares: the on_task_settled hook, its
  /// per-task metrics, the last settle's makespan and sampler stop, and
  /// freeing its engine and votes.
  void settle(std::uint64_t task);

  sim::Simulator& simulator_;
  const redundancy::StrategyFactory& factory_;
  const Workload& workload_;
  RunMetrics& metrics_;
  int max_jobs_per_task_;
  obs::PhaseProfiler* profile_;
  /// Cached from the factory: the task encoder (null for plain
  /// replication) and whether decide() wants a peek after every vote.
  const redundancy::TaskEncoder* encoder_;
  bool eager_;
  /// One decision engine for all tasks when the factory is stateless
  /// (avoids a per-task allocation); null for stateful factories.
  std::unique_ptr<redundancy::RedundancyStrategy> shared_strategy_;
  /// The policy in force: externally supplied, or owned_policy_.
  AssignmentPolicy* policy_ = nullptr;
  std::unique_ptr<AssignmentPolicy> owned_policy_;
  std::vector<TaskState> tasks_;
  std::uint64_t undecided_ = 0;
  sim::EventId sample_event_{};  ///< pending health-sample timer
};

}  // namespace smartred::dca
