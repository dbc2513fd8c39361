#include "dca/task_server.h"

#include <algorithm>
#include <cmath>

#include "common/expect.h"
#include "obs/trace.h"

namespace smartred::dca {

TaskServer::TaskServer(sim::Simulator& simulator, const DcaConfig& config,
                       const redundancy::StrategyFactory& factory,
                       const Workload& workload,
                       fault::FailureModel& failures)
    : simulator_(simulator),
      config_(config),
      workload_(workload),
      failures_(failures),
      pool_(config.nodes),
      ledger_(simulator, factory, workload, metrics_, config.max_jobs_per_task,
              config.assignment, config.assignment_spec, config.profile),
      rng_assign_(rng::Stream(config.seed).fork("assign")),
      rng_duration_(rng::Stream(config.seed).fork("duration")),
      rng_fault_(rng::Stream(config.seed).fork("fault")),
      rng_churn_(rng::Stream(config.seed).fork("churn")) {
  SMARTRED_EXPECT(config.nodes > 0, "the pool needs at least one node");
  SMARTRED_EXPECT(config.duration_lo > 0.0 &&
                      config.duration_lo <= config.duration_hi,
                  "job duration bounds must satisfy 0 < lo <= hi");
  SMARTRED_EXPECT(config.silent_prob >= 0.0 && config.silent_prob < 1.0,
                  "silent probability must be in [0, 1)");
  SMARTRED_EXPECT(config.silent_prob == 0.0 || config.timeout > 0.0,
                  "silent nodes require a positive re-issue timeout");
  SMARTRED_EXPECT(config.churn.leave_rate <= 0.0 || config.timeout > 0.0,
                  "churn can lose jobs and requires a positive re-issue "
                  "timeout");
  SMARTRED_EXPECT(!config.speculation.enabled || config.timeout > 0.0,
                  "speculation needs a deadline: set a positive timeout "
                  "(the adaptive estimator's fallback)");
  SMARTRED_EXPECT(config.speculation.max_copies >= 0,
                  "speculative copy cap cannot be negative");
  if (config.quarantine.enabled) {
    SMARTRED_EXPECT(config.quarantine.strike_threshold >= 1,
                    "quarantine needs a strike threshold of at least one");
    SMARTRED_EXPECT(config.quarantine.backoff_base > 0.0,
                    "quarantine backoff base must be positive");
    SMARTRED_EXPECT(config.quarantine.backoff_factor >= 1.0,
                    "quarantine backoff factor must be >= 1");
    SMARTRED_EXPECT(config.quarantine.backoff_cap >=
                        config.quarantine.backoff_base,
                    "quarantine backoff cap must be >= the base");
  }
  if (config.deadline.adaptive) {
    SMARTRED_EXPECT(config.timeout > 0.0,
                    "adaptive deadlines need the fixed timeout as the "
                    "pre-warmup fallback");
    // Parameter ranges are validated by the estimator itself.
    deadline_.emplace(config.deadline.quantile, config.deadline.multiplier,
                      config.timeout, config.deadline.warmup);
  }
  ledger_.policy().bind(pool_);
}

const RunMetrics& TaskServer::run() {
  const std::uint64_t task_count = workload_.task_count();
  ledger_.open(task_count);
  for (std::uint64_t task = 0; task < task_count; ++task) {
    enqueue_wave(task, ledger_.start(task));
  }
  assign_available();
  schedule_churn_join();
  schedule_churn_leave();
  ledger_.sample_health(
      config_.timeseries,
      [this](obs::TimeSeriesRecorder& recorder, double now) {
        recorder.sample("live_nodes", now,
                        static_cast<double>(pool_.live_count()));
        recorder.sample("idle_nodes", now,
                        static_cast<double>(pool_.idle_count()));
        recorder.sample("busy_nodes", now,
                        static_cast<double>(pool_.busy_count()));
        recorder.sample("quarantined_nodes", now,
                        static_cast<double>(pool_.quarantined_count()));
        recorder.sample("queue_depth", now,
                        static_cast<double>(job_queue_.size()));
        recorder.sample("inflight_jobs", now,
                        static_cast<double>(inflight_.size()));
      });
  simulator_.run();

  // If churn drained the pool with no joins configured, the queue can
  // starve; surface the stuck tasks as aborted rather than hanging.
  for (std::uint64_t task = 0; task < task_count; ++task) {
    if (!ledger_.state(task).decided) {
      ledger_.abort(task, /*budget_exhausted=*/false);
    }
  }
  return ledger_.close(job_queue_.size());
}

void TaskServer::enqueue_copy(std::uint64_t job, std::uint64_t task,
                              double carried_work, bool prioritized) {
  ledger_.count_dispatch(task);
  if (prioritized && config_.queue_policy == QueuePolicy::kStartedTasksFirst) {
    job_queue_.push_front(QueuedJob{job, task, carried_work});
  } else {
    job_queue_.push_back(QueuedJob{job, task, carried_work});
  }
}

void TaskServer::enqueue_wave(std::uint64_t task, int jobs) {
  if (jobs == 0) return;  // the consultation settled the task instead
  const obs::ScopedPhase scope(config_.profile, obs::Phase::kDispatch);
  // Top-up waves (everything past the first) jump the queue under the
  // started-tasks-first policy.
  const bool prioritized = ledger_.state(task).waves > 1;
  for (int j = 0; j < jobs; ++j) {
    const std::uint64_t job = next_job_id_++;
    LogicalJob logical;
    logical.task = task;
    logical.ordinal = ledger_.next_ordinal(task);
    logical.copies = 1;
    jobs_.emplace(job, logical);
    enqueue_copy(job, task, /*carried_work=*/-1.0, prioritized);
  }
}

void TaskServer::assign_available() {
  // Stage every (copy, node) pairing first, then dispatch the whole wave
  // in bulk. The policy's selection draws happen in queue order, exactly
  // as the old one-copy loop made them; an acquired node is busy and so
  // excluded from later selections whether or not its copy later turns
  // out silent, which keeps the idle set at each draw identical to the
  // scalar trajectory (the uniform policy makes the same single
  // idle-index draw as the scalar loop). A policy may decline a copy
  // (nullopt); it stays queued and the walk moves on, which is why this
  // iterates instead of popping the front.
  staged_.clear();
  auto pending = job_queue_.begin();
  while (pending != job_queue_.end() && pool_.idle_count() > 0) {
    const AssignContext context{
        pending->task,
        static_cast<std::uint32_t>(ledger_.state(pending->task).waves),
        pool_.live_count()};
    const auto node = ledger_.policy().select(context, pool_, rng_assign_);
    if (!node.has_value()) {
      ++pending;  // declined; retried on the next assignment pass
      continue;
    }
    pool_.acquire(*node);
    ledger_.policy().on_dispatch(*node, context);
    ledger_.trace(obs::EventKind::kNodeAssigned, context.task,
                  static_cast<std::int64_t>(pending->job), *node);
    staged_.push_back(StagedCopy{*pending, *node});
    pending = job_queue_.erase(pending);
  }
  if (!staged_.empty()) dispatch_staged();
}

double TaskServer::effective_deadline(std::uint64_t task) const {
  if (deadline_.has_value()) {
    return deadline_->deadline(workload_.job_work(task));
  }
  return config_.timeout;
}

void TaskServer::dispatch_staged() {
  const obs::ScopedPhase scope(config_.profile, obs::Phase::kDispatch);
  // Pass 1 — per-copy bookkeeping and silent-failure draws, in queue
  // order. rng_fault_ sees exactly the sequence of bernoulli draws the
  // scalar loop made; silent copies consume no duration draw, also as
  // before. Their deadline timers are scheduled here, one by one (they
  // are rare and interleave with quarantine side effects).
  for (StagedCopy& copy : staged_) {
    const std::uint64_t task = copy.job.task;
    ledger_.mark_started(task);
    copy.deadline = effective_deadline(task);
    if (deadline_.has_value()) metrics_.deadline_estimate.add(copy.deadline);
    copy.silent =
        config_.silent_prob > 0.0 && rng_fault_.bernoulli(config_.silent_prob);
    if (!copy.silent) continue;
    // The node never reports. Without quarantine it is treated as crashed
    // (§2.2) and removed; with quarantine it is sidelined as transiently
    // unresponsive and re-admitted after backoff. Either way the copy is
    // declared lost once the deadline passes and nothing was computed, so
    // no checkpointed work carries over.
    if (config_.quarantine.enabled) {
      quarantine_node(copy.node);
    } else {
      pool_.leave(copy.node);
      ledger_.policy().on_leave(copy.node);
    }
    const std::uint64_t job_id = copy.job.job;
    const redundancy::NodeId node = copy.node;
    simulator_.schedule(copy.deadline, [this, job_id, task, node] {
      ++metrics_.jobs_timed_out;
      ledger_.trace(obs::EventKind::kDeadlineFired, task,
                    static_cast<std::int64_t>(job_id), node);
      copy_lost(job_id, -1.0);
    });
  }
  // Compact the live copies to the front so the remaining passes run over
  // a dense range (silent copies are rare; order is preserved).
  std::size_t live = 0;
  for (std::size_t i = 0; i < staged_.size(); ++i) {
    if (!staged_[i].silent) {
      if (live != i) staged_[live] = staged_[i];
      ++live;
    }
  }
  staged_.resize(live);
  // Pass 2 — durations. Fresh copies without a latency model draw from
  // one batched uniform01 fill mapped through the same lo + (hi-lo)*u
  // affine as Stream::uniform, so the values are bit-identical to the
  // scalar loop's; a latency model keeps its scalar per-copy sample call
  // (the virtual sample() draws an implementation-defined number of
  // variates). Checkpoint-resumed copies carry their work and draw
  // nothing, exactly as before.
  if (config_.latency == nullptr) {
    std::size_t fresh = 0;
    for (const StagedCopy& copy : staged_) {
      fresh += copy.job.carried_work < 0.0 ? 1 : 0;
    }
    staged_u01_.resize(fresh);
    rng_duration_.uniform01_batch(fresh, staged_u01_.data());
    std::size_t next = 0;
    for (StagedCopy& copy : staged_) {
      copy.duration = copy.job.carried_work;
      if (copy.duration < 0.0) {
        const double base = config_.duration_lo +
                            (config_.duration_hi - config_.duration_lo) *
                                staged_u01_[next++];
        copy.duration = base * workload_.job_work(copy.job.task);
      }
    }
  } else {
    for (StagedCopy& copy : staged_) {
      copy.duration = copy.job.carried_work;
      if (copy.duration < 0.0) {
        copy.duration = config_.latency->sample(copy.node, copy.job.task,
                                                rng_duration_) *
                        workload_.job_work(copy.job.task);
      }
    }
  }
  // Pass 3 — one bulk insertion of every completion event: the heap is
  // grown once and its invariant restored once instead of per copy.
  staged_delays_.resize(staged_.size());
  staged_events_.resize(staged_.size());
  for (std::size_t i = 0; i < staged_.size(); ++i) {
    staged_delays_[i] = staged_[i].duration;
  }
  simulator_.schedule_batch(
      staged_delays_,
      [this](std::size_t i) {
        const std::uint64_t job_id = staged_[i].job.job;
        const redundancy::NodeId node = staged_[i].node;
        return [this, job_id, node] { complete_job(job_id, node); };
      },
      staged_events_.data());
  // Pass 4 — in-flight records and speculation timers.
  for (std::size_t i = 0; i < staged_.size(); ++i) {
    const StagedCopy& copy = staged_[i];
    inflight_.emplace(copy.node,
                      InFlight{staged_events_[i], copy.job.job,
                               simulator_.now(), copy.duration,
                               copy.deadline});
    maybe_arm_speculation(copy.job.job);
  }
}

void TaskServer::maybe_arm_speculation(std::uint64_t job) {
  if (!config_.speculation.enabled) return;
  LogicalJob& logical = jobs_.at(job);
  if (logical.resolved || logical.spec_armed) return;
  if (logical.speculative >= config_.speculation.max_copies) return;
  const double deadline = effective_deadline(logical.task);
  if (deadline <= 0.0) return;
  logical.spec_armed = true;
  logical.spec_timer =
      simulator_.schedule(deadline, [this, job] { speculate(job); });
}

void TaskServer::speculate(std::uint64_t job) {
  const auto found = jobs_.find(job);
  if (found == jobs_.end()) return;  // settled and cleaned up meanwhile
  LogicalJob& logical = found->second;
  logical.spec_armed = false;
  if (logical.resolved || ledger_.state(logical.task).decided) return;
  // The copy is past its deadline and still running: back it up with a
  // speculative copy on a fresh node. The original keeps running — the
  // first finisher casts the vote, the loser is discarded.
  ++metrics_.jobs_timed_out;
  ledger_.trace(obs::EventKind::kDeadlineFired, logical.task,
                static_cast<std::int64_t>(job));
  if (ledger_.at_job_cap(logical.task)) return;
  ++logical.speculative;
  ++logical.copies;
  ++metrics_.jobs_speculative;
  enqueue_copy(job, logical.task, /*carried_work=*/-1.0, /*prioritized=*/true);
  ledger_.trace(obs::EventKind::kSpeculationLaunched, logical.task,
                static_cast<std::int64_t>(job));
  assign_available();
}

void TaskServer::judge_completion(redundancy::NodeId node, bool late) {
  if (!config_.quarantine.enabled) return;
  if (!late) {
    pool_.clear_strikes(node);
    return;
  }
  if (pool_.add_strike(node) >= config_.quarantine.strike_threshold) {
    quarantine_node(node);
  }
}

void TaskServer::quarantine_node(redundancy::NodeId node) {
  const int round = pool_.quarantine(node);
  ledger_.policy().on_quarantine(node);
  ++metrics_.nodes_quarantined;
  ledger_.trace(obs::EventKind::kNodeQuarantined, 0, round, node);
  const double backoff =
      std::min(config_.quarantine.backoff_cap,
               config_.quarantine.backoff_base *
                   std::pow(config_.quarantine.backoff_factor,
                            static_cast<double>(round - 1)));
  simulator_.schedule(backoff, [this, node, round] {
    if (pool_.readmit(node)) {
      ledger_.policy().on_readmit(node);
      ++metrics_.nodes_readmitted;
      ledger_.trace(obs::EventKind::kNodeReadmitted, 0, round, node);
      assign_available();
    }
  });
}

void TaskServer::complete_job(std::uint64_t job, redundancy::NodeId node) {
  const obs::ScopedPhase scope(config_.profile, obs::Phase::kCollect);
  const auto flight_it = inflight_.find(node);
  SMARTRED_ENSURE(flight_it != inflight_.end(),
                  "completion without an in-flight record");
  const InFlight flight = flight_it->second;
  inflight_.erase(flight_it);
  pool_.release(node);
  const auto job_it = jobs_.find(job);
  SMARTRED_ENSURE(job_it != jobs_.end(), "completion of an unknown job");
  LogicalJob& logical = job_it->second;
  --logical.copies;
  const std::uint64_t task = logical.task;
  const double elapsed = simulator_.now() - flight.started;
  if (deadline_.has_value()) {
    deadline_->observe(workload_.job_work(task), elapsed);
  }
  const bool late = flight.deadline > 0.0 && elapsed > flight.deadline;
  // on_complete (the node is idle again) before judge_completion, which
  // may immediately quarantine it — the on_quarantine hook then retracts
  // it from the policy's idle mirror.
  ledger_.policy().on_complete(node, !late);
  judge_completion(node, late);
  if (ledger_.state(task).decided || logical.resolved) {
    // This copy outlived its purpose: the task settled without it, or a
    // sibling copy won the race. The vote is discarded but the node is
    // back in the pool.
    ++metrics_.jobs_discarded;
    if (logical.copies == 0) jobs_.erase(job_it);
    assign_available();
    return;
  }
  const int ordinal = logical.ordinal;
  const redundancy::ResultValue expected =
      ledger_.expected_value(task, ordinal);
  const redundancy::ResultValue value =
      failures_.report(node, task, expected, rng_fault_);
  logical.resolved = true;
  if (logical.spec_armed) {
    simulator_.cancel(logical.spec_timer);
    logical.spec_armed = false;
  }
  if (logical.copies == 0) jobs_.erase(job_it);
  enqueue_wave(task, ledger_.record_vote(task, ordinal, node, value, expected));
  assign_available();
}

void TaskServer::copy_lost(std::uint64_t job, double carried_work) {
  const auto job_it = jobs_.find(job);
  SMARTRED_ENSURE(job_it != jobs_.end(), "lost copy of an unknown job");
  LogicalJob& logical = job_it->second;
  --logical.copies;
  ++metrics_.jobs_lost;
  if (ledger_.state(logical.task).decided || logical.resolved) {
    if (logical.copies == 0) jobs_.erase(job_it);
    return;
  }
  if (ledger_.at_job_cap(logical.task)) {
    ledger_.abort(logical.task);
    if (logical.copies == 0) jobs_.erase(job_it);
    return;
  }
  // A speculative sibling may still be racing; only when the last copy is
  // gone does the job need a replacement. Replacements jump the queue under
  // the started-tasks-first policy, and resume from the last checkpoint
  // when checkpointing is on.
  if (logical.copies > 0) return;
  ++logical.copies;  // the queued replacement counts until it terminates
  enqueue_copy(job, logical.task, carried_work, /*prioritized=*/true);
  assign_available();
}

void TaskServer::schedule_churn_join() {
  if (config_.churn.join_rate <= 0.0) return;
  simulator_.schedule(rng_churn_.exponential(1.0 / config_.churn.join_rate),
                      [this] {
                        if (ledger_.undecided() == 0) return;
                        const redundancy::NodeId id = pool_.join();
                        ledger_.policy().on_join(id);
                        ++metrics_.nodes_joined;
                        assign_available();
                        schedule_churn_join();
                      });
}

void TaskServer::schedule_churn_leave() {
  if (config_.churn.leave_rate <= 0.0) return;
  simulator_.schedule(rng_churn_.exponential(1.0 / config_.churn.leave_rate),
                      [this] {
                        if (ledger_.undecided() == 0) return;
                        // A drained pool with no joins configured can never
                        // recover; keeping the leave timer alive would spin
                        // the simulation forever. Stop it — run() will
                        // surface the stranded tasks as aborted.
                        if (pool_.live_count() == 0 &&
                            config_.churn.join_rate <= 0.0) {
                          return;
                        }
                        churn_leave();
                        schedule_churn_leave();
                      });
}

void TaskServer::churn_leave() {
  const auto victim = pool_.pick_any(rng_churn_);
  if (!victim.has_value()) return;
  ++metrics_.nodes_left;
  const bool was_busy = pool_.leave(*victim);
  ledger_.policy().on_leave(*victim);
  if (!was_busy) {
    // The departed node was idle or quarantined. A declining policy may
    // have been waiting on exactly this group/tier composition, so give
    // the queue another pass. Under uniform this is a provable no-op: a
    // non-empty queue implies an empty idle set, so the pass makes no
    // draws.
    assign_available();
    return;
  }
  // The departing volunteer abandons its in-flight copy (if the copy was a
  // silent crash there is no in-flight record; its re-issue timer is
  // already armed).
  const auto found = inflight_.find(*victim);
  SMARTRED_ENSURE(found != inflight_.end(),
                  "every busy pool node has an in-flight job");
  const InFlight flight = found->second;
  simulator_.cancel(flight.event);
  inflight_.erase(found);
  // With checkpointing, only the work since the last checkpoint is lost.
  double carried_work = -1.0;
  if (config_.checkpoint_interval > 0.0) {
    const double elapsed = simulator_.now() - flight.started;
    const double checkpointed =
        std::floor(elapsed / config_.checkpoint_interval) *
        config_.checkpoint_interval;
    carried_work = flight.duration - checkpointed;
    SMARTRED_ENSURE(carried_work >= 0.0, "carried work cannot be negative");
  }
  copy_lost(flight.job, carried_work);
}

}  // namespace smartred::dca
