// The task server of Figure 1: breaks the computation into tasks, assigns
// jobs to randomly selected nodes, collects results, consults the
// redundancy strategy after each completed wave, and re-issues jobs lost to
// silent or departed nodes.
//
// This is the DES-backed execution substrate used for the XDEVS experiments
// (Figures 5(a) and 6): job durations are uniform in
// [duration_lo, duration_hi] scaled by workload weight (pluggable via
// fault::LatencyModel for heavy-tailed straggler regimes), a
// wave's jobs run in parallel on distinct nodes, and a task's response time
// runs from its first job assignment to its acceptance.
//
// Straggler resilience (all opt-in, off by default):
//  - adaptive deadlines: a streaming quantile of observed completion times
//    per workload weight replaces the single fixed `timeout`;
//  - speculative re-execution: a job that exceeds its deadline is re-issued
//    on a fresh node without cancelling the original — the first completed
//    attempt produces the vote and the loser is discarded;
//  - node quarantine: nodes that repeatedly miss deadlines (or go silent)
//    are sidelined with capped-exponential-backoff re-admission.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "dca/assignment.h"
#include "dca/deadline.h"
#include "dca/metrics.h"
#include "dca/node_pool.h"
#include "dca/task_ledger.h"
#include "dca/workload.h"
#include "fault/failure_model.h"
#include "fault/latency_model.h"
#include "obs/profile.h"
#include "obs/timeseries.h"
#include "redundancy/strategy.h"
#include "sim/simulator.h"

namespace smartred::dca {

/// Node churn: volunteers joining and leaving the pool (Figure 1).
/// Rates are events per simulated time unit; zero disables churn.
struct ChurnConfig {
  double join_rate = 0.0;
  double leave_rate = 0.0;
};

/// How queued jobs are ordered when nodes free up.
enum class QueuePolicy {
  /// Strict arrival order — the paper's implicit model (nodes are never
  /// idle, so ordering does not affect cost or reliability).
  kFifo,
  /// Top-up waves and re-issues jump the queue. Under pool contention this
  /// finishes in-flight tasks before starting new ones, cutting the
  /// response-time penalty of progressive/iterative redundancy (§5.2)
  /// without changing cost or reliability.
  kStartedTasksFirst,
};

/// Adaptive re-issue deadlines (see dca/deadline.h). When enabled, the
/// per-job deadline is `multiplier` times the running `quantile` estimate
/// of observed completion times for the job's work weight; the fixed
/// `DcaConfig::timeout` remains as the fallback until `warmup` completions
/// have been observed for that weight.
struct DeadlineConfig {
  bool adaptive = false;
  double quantile = 0.95;
  double multiplier = 2.0;
  std::size_t warmup = 50;
};

/// Speculative re-execution: when a running job exceeds its deadline, up to
/// `max_copies` extra copies are dispatched to fresh nodes without
/// cancelling the original. The first completed copy produces the task's
/// vote; later copies are discarded (counted in `jobs_discarded`).
struct SpeculationConfig {
  bool enabled = false;
  int max_copies = 1;  ///< concurrent speculative copies per job
};

/// Node quarantine: a node accumulating `strike_threshold` consecutive
/// deadline misses — completions slower than the armed deadline — is
/// sidelined from the assignment rotation and re-admitted after a
/// capped-exponential backoff (backoff_base * backoff_factor^(round-1),
/// capped at backoff_cap). A node that goes silent is quarantined
/// immediately (treated as transiently unresponsive) instead of being
/// removed from the pool forever as in the paper's §2.2 crash model.
struct QuarantineConfig {
  bool enabled = false;
  int strike_threshold = 3;
  double backoff_base = 20.0;
  double backoff_factor = 2.0;
  double backoff_cap = 500.0;
};

struct DcaConfig {
  std::size_t nodes = 10'000;
  /// Base job duration bounds before work scaling (paper: U[0.5, 1.5]).
  /// Used when `latency` is null; a LatencyModel overrides them.
  double duration_lo = 0.5;
  double duration_hi = 1.5;
  /// Optional pluggable base-duration model (heavy tails, slow nodes,
  /// transient stalls — see fault/latency_model.h). Not owned; must outlive
  /// the server. Null selects the paper's uniform draw.
  fault::LatencyModel* latency = nullptr;
  /// Probability that a node silently never reports a result; such a node
  /// is treated as crashed (§2.2: unresponsive == failed) and its job is
  /// re-issued after the deadline. With quarantine enabled the node is
  /// sidelined and later re-admitted instead of removed permanently.
  double silent_prob = 0.0;
  /// Deadline after which an unreported job is re-issued. Must be positive
  /// when silent_prob > 0 or when churn can lose jobs (leave_rate > 0).
  /// With adaptive deadlines this is the pre-warmup fallback.
  double timeout = 10.0;
  /// Safety cap: a task reaching this many dispatched jobs is aborted and
  /// counted incorrect.
  int max_jobs_per_task = 100'000;
  ChurnConfig churn;
  QueuePolicy queue_policy = QueuePolicy::kFifo;
  /// Checkpoint interval in simulated time units of work; 0 disables.
  /// With checkpointing, a job abandoned by a departing volunteer is
  /// re-issued with only the work after its last checkpoint remaining
  /// (related work [26]/[2] in §6) — fewer wasted cycles, same votes.
  double checkpoint_interval = 0.0;
  DeadlineConfig deadline;
  SpeculationConfig speculation;
  QuarantineConfig quarantine;
  std::uint64_t seed = 1;
  /// Optional pool-health sampler: every TaskLedger::kSampleInterval
  /// simulated time units the server records node/queue/progress series
  /// (see the sampler in task_server.cc for the list). Read-only
  /// observations — a sampled run reproduces an unsampled run's aggregates
  /// bit-for-bit, except the makespan of a run whose pool churns away with
  /// tasks undecided: the last sample sets its drain time, up to one
  /// sample interval later (TaskLedger::sample_health). Not owned; null
  /// disables sampling at zero cost.
  obs::TimeSeriesRecorder* timeseries = nullptr;
  /// Optional wall-clock phase profiler for the dispatch/collect/decide
  /// stages (obs/profile.h). Not owned; null disables at zero cost.
  obs::PhaseProfiler* profile = nullptr;
  /// Optional externally owned assignment policy (must outlive the
  /// server). Null selects `assignment_spec` instead. The server calls
  /// reset() and bind() on whichever policy it ends up with.
  AssignmentPolicy* assignment = nullptr;
  /// Assignment-policy spec (see dca::make_policy) used when `assignment`
  /// is null; empty selects the paper's uniform baseline.
  std::string assignment_spec;
};

/// Runs one computation to completion. Construct, call run(), read
/// metrics(). Single-use.
class TaskServer {
 public:
  /// All referenced collaborators must outlive the server.
  TaskServer(sim::Simulator& simulator, const DcaConfig& config,
             const redundancy::StrategyFactory& factory,
             const Workload& workload, fault::FailureModel& failures);

  TaskServer(const TaskServer&) = delete;
  TaskServer& operator=(const TaskServer&) = delete;

  /// Enqueues every task's initial wave and runs the simulation until all
  /// tasks are decided. Returns the metrics (also available afterwards via
  /// metrics()).
  const RunMetrics& run();

  [[nodiscard]] const RunMetrics& metrics() const { return metrics_; }

  /// The value the computation accepted for `task`, or nullopt if the task
  /// was aborted. Only valid after run().
  [[nodiscard]] std::optional<redundancy::ResultValue> accepted_value(
      std::uint64_t task) const {
    return ledger_.accepted_value(task);
  }

 private:
  /// One logical job: the unit the strategy asked for, which exactly one
  /// vote must eventually answer (or the task settles without it). May have
  /// several physical copies racing: the original, lost-copy replacements,
  /// and speculative re-executions.
  struct LogicalJob {
    std::uint64_t task = 0;
    int ordinal = 0;      ///< dispatch ordinal within the task: under an
                          ///< encoding strategy this fixes which piece every
                          ///< copy computes (encoder->piece_of(ordinal))
    int copies = 0;       ///< physical copies queued, running, or silent
    int speculative = 0;  ///< speculative copies launched so far
    bool resolved = false;          ///< a copy completed and cast the vote
    bool spec_armed = false;        ///< speculation timer pending
    sim::EventId spec_timer{};
  };

  /// One running physical copy (keyed by the node executing it).
  struct InFlight {
    sim::EventId event;
    std::uint64_t job = 0;      ///< logical job this copy belongs to
    sim::Time started = 0.0;
    double duration = 0.0;      ///< duration of this attempt
    double deadline = 0.0;      ///< armed deadline; <= 0 means none
  };

  /// One queue entry. carried_work < 0 means a fresh copy (duration drawn
  /// at assignment); >= 0 means a checkpoint-resumed copy with that much
  /// work left.
  struct QueuedJob {
    std::uint64_t job = 0;
    std::uint64_t task = 0;
    double carried_work = -1.0;
  };

  /// One queue entry paired with the node it was assigned to, staged for
  /// bulk dispatch. Filled in passes by dispatch_staged(): silent/deadline
  /// in the bookkeeping pass, duration in the draw pass.
  struct StagedCopy {
    QueuedJob job;
    redundancy::NodeId node = 0;
    bool silent = false;
    double deadline = 0.0;
    double duration = 0.0;
  };

  void enqueue_copy(std::uint64_t job, std::uint64_t task, double carried_work,
                    bool prioritized);
  /// Queues the logical jobs of a wave the ledger opened; no-op for 0.
  void enqueue_wave(std::uint64_t task, int jobs);
  void assign_available();
  /// Dispatches everything in staged_ as one wave: per-copy bookkeeping
  /// and silent-failure draws in queue order (per-stream RNG sequences
  /// match the old one-copy-at-a-time loop exactly), batched uniform01
  /// duration draws where no latency model intervenes, and one bulk
  /// schedule_batch() insertion for all completion events.
  void dispatch_staged();
  void complete_job(std::uint64_t job, redundancy::NodeId node);
  void copy_lost(std::uint64_t job, double carried_work);
  void schedule_churn_join();
  void schedule_churn_leave();
  void churn_leave();

  /// The current re-issue/speculation deadline for a copy of `task`:
  /// adaptive estimate when enabled, else the fixed timeout (<= 0 = none).
  [[nodiscard]] double effective_deadline(std::uint64_t task) const;
  /// Arms the speculation timer for a logical job whose copy just started,
  /// unless already armed, resolved, or out of speculative budget.
  void maybe_arm_speculation(std::uint64_t job);
  /// Deadline expired on a still-running copy: dispatch a speculative copy.
  void speculate(std::uint64_t job);
  /// Deadline verdict for a completed copy: a strike (and possibly
  /// quarantine) when late, a clean slate when on time.
  void judge_completion(redundancy::NodeId node, bool late);
  /// Sidelines a node and schedules its backed-off re-admission.
  void quarantine_node(redundancy::NodeId node);

  sim::Simulator& simulator_;
  DcaConfig config_;
  const Workload& workload_;
  fault::FailureModel& failures_;

  NodePool pool_;
  RunMetrics metrics_;
  /// Per-task state, decisions and the assignment policy in force.
  TaskLedger ledger_;
  std::deque<QueuedJob> job_queue_;  ///< copies awaiting a node
  std::unordered_map<std::uint64_t, LogicalJob> jobs_;  ///< live logical jobs
  std::unordered_map<redundancy::NodeId, InFlight> inflight_;
  std::uint64_t next_job_id_ = 0;
  std::optional<DeadlineEstimator> deadline_;

  rng::Stream rng_assign_;
  rng::Stream rng_duration_;
  rng::Stream rng_fault_;
  rng::Stream rng_churn_;

  /// Scratch buffers for dispatch_staged(), kept across calls so the hot
  /// assign path settles to zero allocations. Never read between calls,
  /// and assign_available() is not re-entered while dispatching (scheduled
  /// actions run later, from the event loop).
  std::vector<StagedCopy> staged_;
  std::vector<double> staged_u01_;
  std::vector<double> staged_delays_;
  std::vector<sim::EventId> staged_events_;
};

}  // namespace smartred::dca
