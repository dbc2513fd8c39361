#include "dca/task_ledger.h"

#include <algorithm>

#include "common/expect.h"

namespace smartred::dca {

TaskLedger::TaskLedger(sim::Simulator& simulator,
                       const redundancy::StrategyFactory& factory,
                       const Workload& workload, RunMetrics& metrics,
                       int max_jobs_per_task, AssignmentPolicy* assignment,
                       const std::string& assignment_spec,
                       obs::PhaseProfiler* profile)
    : simulator_(simulator),
      factory_(factory),
      workload_(workload),
      metrics_(metrics),
      max_jobs_per_task_(max_jobs_per_task),
      profile_(profile),
      encoder_(factory.encoder()),
      eager_(factory.eager()) {
  SMARTRED_EXPECT(max_jobs_per_task > 0, "job cap must be positive");
  if (assignment != nullptr) {
    policy_ = assignment;
  } else {
    owned_policy_ =
        make_policy(assignment_spec.empty() ? "uniform" : assignment_spec);
    policy_ = owned_policy_.get();
  }
  policy_->reset();
}

void TaskLedger::open(std::uint64_t task_count) {
  tasks_.resize(task_count);
  undecided_ = task_count;
  metrics_.tasks_total = task_count;
  trace(obs::EventKind::kPolicyChosen, 0,
        static_cast<std::int64_t>(policy_->kind()));
  if (factory_.stateless()) shared_strategy_ = factory_.make();
}

int TaskLedger::start(std::uint64_t task) {
  if (shared_strategy_ == nullptr) {
    tasks_[task].owned_strategy = factory_.make();
  }
  return consult(task);
}

const RunMetrics& TaskLedger::close(std::size_t unrun) {
  metrics_.jobs_unrun += unrun;
  SMARTRED_ENSURE(undecided_ == 0, "all tasks must be resolved");
  SMARTRED_ENSURE(metrics_.jobs_conserved(),
                  "every dispatched job must reach a terminal state");
  if (tasks_.empty()) metrics_.makespan = simulator_.now();
  return metrics_;
}

redundancy::ResultValue TaskLedger::expected_value(std::uint64_t task,
                                                   int ordinal) const {
  const redundancy::ResultValue correct = workload_.correct_value(task);
  return encoder_ != nullptr ? encoder_->job_value(correct, ordinal) : correct;
}

int TaskLedger::record_vote(std::uint64_t task, int ordinal,
                            redundancy::NodeId node,
                            redundancy::ResultValue value,
                            redundancy::ResultValue expected) {
  TaskState& state = tasks_[task];
  ++metrics_.jobs_completed;
  if (value == expected) ++metrics_.jobs_correct;
  // The piece index is fixed by the dispatch ordinal, so a Byzantine value
  // cannot migrate between pieces.
  state.votes.push_back(redundancy::Vote{
      node, value, encoder_ != nullptr ? encoder_->piece_of(ordinal) : 0});
  trace(obs::EventKind::kVoteRecorded, task, value, node);
  if (--state.outstanding == 0) {
    // Every job the strategy asked for has voted. Wave latency runs from
    // the wave's opening to this last vote.
    const double latency = simulator_.now() - state.wave_started;
    metrics_.wave_latency.add(latency);
    metrics_.wave_latency_hist.add(latency);
    return consult(task);
  }
  // Mid-wave peek: an accept settles the task on the k-th fastest vote
  // instead of the wave's slowest (the coded straggler win); a dispatch
  // answer is ignored until the wave drains.
  if (eager_) static_cast<void>(decide(task));
  return 0;
}

int TaskLedger::consult(std::uint64_t task) {
  const obs::ScopedPhase scope(profile_, obs::Phase::kDecide);
  TaskState& state = tasks_[task];
  const redundancy::Decision decision = decide(task);
  if (decision.done()) return 0;
  if (state.jobs_started + decision.jobs > max_jobs_per_task_) {
    abort(task);
    return 0;
  }
  state.outstanding += decision.jobs;
  ++state.waves;
  state.wave_started = simulator_.now();
  trace(obs::EventKind::kWaveDispatched, task, decision.jobs);
  return decision.jobs;
}

redundancy::Decision TaskLedger::decide(std::uint64_t task) {
  TaskState& state = tasks_[task];
  redundancy::RedundancyStrategy& strategy =
      shared_strategy_ != nullptr ? *shared_strategy_ : *state.owned_strategy;
  const redundancy::Decision decision = strategy.decide(state.votes);
  if (decision.decode_rejects > 0) {
    metrics_.decodes_rejected +=
        static_cast<std::uint64_t>(decision.decode_rejects);
    trace(obs::EventKind::kDecodeRejected, task, decision.decode_rejects);
  }
  if (!decision.done()) return decision;
  trace(obs::EventKind::kDecision, task, decision.value, 0, decision.reason);
  const redundancy::ResultValue accepted = decision.value;
  state.accepted = accepted;
  if (accepted == workload_.correct_value(task)) ++metrics_.tasks_correct;
  // Under an encoding strategy votes are piece values, so agreement with
  // the accepted task value carries no reliability signal — the learning
  // hook only fires for plain replication.
  if (encoder_ == nullptr) policy_->on_task_decided(state.votes, accepted);
  if (state.started) {
    const double response = simulator_.now() - state.first_dispatch;
    metrics_.response_time.add(response);
    metrics_.response_time_hist.add(response);
  }
  settle(task);
  return decision;
}

void TaskLedger::abort(std::uint64_t task, bool budget_exhausted) {
  TaskState& state = tasks_[task];
  SMARTRED_EXPECT(!state.decided, "abort of an already decided task");
  ++metrics_.tasks_aborted;
  if (!budget_exhausted) ++metrics_.tasks_abandoned;
  trace(obs::EventKind::kTaskAborted, task, state.jobs_started, 0,
        budget_exhausted ? redundancy::Decision::Reason::kBudgetExhausted
                         : redundancy::Decision::Reason::kAbandoned);
  settle(task);
}

void TaskLedger::settle(std::uint64_t task) {
  TaskState& state = tasks_[task];
  state.decided = true;
  policy_->on_task_settled(task);
  metrics_.max_jobs_single_task =
      std::max(metrics_.max_jobs_single_task, state.jobs_started);
  metrics_.jobs_per_task.add(static_cast<double>(state.jobs_started));
  metrics_.waves_per_task.add(static_cast<double>(state.waves));
  metrics_.jobs_per_task_hist.add(static_cast<double>(state.jobs_started));
  // The last settle marks the end of useful work; trailing events
  // (discarded stragglers, report deadlines, quarantine re-admissions) do
  // not extend it. Cancelling a sampler that was never armed is a no-op.
  if (--undecided_ == 0) {
    metrics_.makespan = simulator_.now();
    simulator_.cancel(sample_event_);
  }
  state.owned_strategy.reset();
  state.votes.clear();
  state.votes.shrink_to_fit();
}

std::optional<redundancy::ResultValue> TaskLedger::accepted_value(
    std::uint64_t task) const {
  SMARTRED_EXPECT(task < tasks_.size(), "task index out of range");
  const TaskState& state = tasks_[task];
  SMARTRED_EXPECT(state.decided, "accepted_value() before run() completed");
  return state.accepted;
}

}  // namespace smartred::dca
