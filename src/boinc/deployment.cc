#include "boinc/deployment.h"

#include "common/expect.h"
#include "obs/trace.h"

namespace smartred::boinc {
namespace {

/// One-way network latency bounds (uniform).
constexpr double kLatencyLo = 0.01;
constexpr double kLatencyHi = 0.05;
/// Base job duration bounds before work/speed scaling (paper: U[0.5,1.5]).
constexpr double kDurationLo = 0.5;
constexpr double kDurationHi = 1.5;
/// How long a client waits to re-request work when nothing is assignable.
constexpr double kIdleRetry = 1.0;

/// The colluding wrong answer under the binary worst case: the other value
/// of a {0, 1} result, or value+1 for wider domains. Keeping binary results
/// binary matters for the 3-SAT workload, whose answers are genuinely 0/1.
redundancy::ResultValue wrong_answer(redundancy::ResultValue correct) {
  if (correct == 0) return 1;
  if (correct == 1) return 0;
  // Coded-piece values span the full 32-bit range; wrap instead of
  // overflowing signed arithmetic.
  return static_cast<redundancy::ResultValue>(
      static_cast<std::uint32_t>(correct) + 1U);
}

}  // namespace

Deployment::Deployment(sim::Simulator& simulator, const BoincConfig& config,
                       std::vector<ClientProfile> profiles,
                       const redundancy::StrategyFactory& factory,
                       const dca::Workload& workload)
    : simulator_(simulator),
      config_(config),
      profiles_(std::move(profiles)),
      workload_(workload),
      // No bind(): the pull model has no NodePool — clients announce
      // themselves by requesting work, and the policy only ever vetoes.
      ledger_(simulator, factory, workload, metrics_, config.max_jobs_per_task,
              config.assignment, config.assignment_spec, /*profile=*/nullptr),
      rng_network_(rng::Stream(config.seed).fork("network")),
      rng_compute_(rng::Stream(config.seed).fork("compute")),
      rng_fault_(rng::Stream(config.seed).fork("fault")) {
  SMARTRED_EXPECT(!profiles_.empty(), "need at least one client");
  SMARTRED_EXPECT(config.report_deadline > 0.0, "deadline must be positive");
}

double Deployment::pool_effective_reliability() const {
  return mean_effective_reliability(profiles_);
}

double Deployment::latency() {
  return rng_network_.uniform(kLatencyLo, kLatencyHi);
}

const dca::RunMetrics& Deployment::run() {
  const std::uint64_t task_count = workload_.task_count();
  served_.resize(task_count);
  ledger_.open(task_count);
  for (std::uint64_t task = 0; task < task_count; ++task) {
    enqueue_wave(task, ledger_.start(task));
  }
  // Boot clients at staggered times so request bursts don't synchronize.
  for (redundancy::NodeId client = 0; client < profiles_.size(); ++client) {
    const double boot = rng_network_.uniform(0.0, 1.0);
    simulator_.schedule(boot,
                        [this, client] { client_request_work(client); });
  }
  ledger_.sample_health(config_.timeseries,
                        [this](obs::TimeSeriesRecorder& recorder, double now) {
                          recorder.sample(
                              "queue_depth", now,
                              static_cast<double>(job_queue_.size()));
                        });
  simulator_.run();
  // A drained pool (every client stuck unresponsive forever is impossible —
  // clients always come back) cannot happen, but a task can exceed its job
  // cap; any survivor here indicates a harness bug. The makespan is the
  // last settle: report deadlines firing after it only classify jobs.
  return ledger_.close(job_queue_.size());
}

void Deployment::enqueue_wave(std::uint64_t task, int jobs) {
  ledger_.count_dispatch(task, jobs);
  for (int j = 0; j < jobs; ++j) job_queue_.push_back(task);
}

void Deployment::client_request_work(redundancy::NodeId client) {
  if (ledger_.undecided() == 0) return;  // project finished; client shuts down
  simulator_.schedule(latency(),
                      [this, client] { server_handle_request(client); });
}

void Deployment::server_handle_request(redundancy::NodeId client) {
  if (ledger_.undecided() == 0) return;
  // Find the first queued job this client may take: its task must still be
  // undecided and not already served by this client (unless every client
  // has served it — then the one-result-per-user rule is waived to avoid
  // starvation, mirroring BOINC operators raising max_results_per_user).
  for (auto it = job_queue_.begin(); it != job_queue_.end();) {
    const std::uint64_t task = *it;
    const auto& state = ledger_.state(task);
    if (state.decided) {
      // Obsolete job, dropped lazily: dispatched but never executed.
      ++metrics_.jobs_unrun;
      it = job_queue_.erase(it);
      continue;
    }
    const bool eligible = !served_[task].contains(client) ||
                          served_[task].size() >= profiles_.size();
    if (!eligible) {
      ++it;
      continue;
    }
    const dca::AssignContext context{
        task, static_cast<std::uint32_t>(state.waves), profiles_.size()};
    if (!ledger_.policy().admit(context, client)) {
      ++it;  // vetoed for this client; the job waits for another
      continue;
    }
    job_queue_.erase(it);
    assign(client, context);
    return;
  }
  // Nothing assignable right now; the client polls again later.
  simulator_.schedule(kIdleRetry,
                      [this, client] { client_request_work(client); });
}

void Deployment::assign(redundancy::NodeId client,
                        const dca::AssignContext& context) {
  const std::uint64_t task = context.task;
  ledger_.mark_started(task);
  const std::uint64_t job_id = next_job_id_++;
  const int ordinal = ledger_.next_ordinal(task);
  live_jobs_.insert(job_id);
  served_[task].insert(client);
  ledger_.policy().on_dispatch(client, context);
  ledger_.trace(obs::EventKind::kNodeAssigned, task,
                static_cast<std::int64_t>(job_id), client);
  simulator_.schedule(config_.report_deadline,
                      [this, task, job_id] { deadline_check(task, job_id); });
  simulator_.schedule(latency(), [this, client, task, job_id, ordinal] {
    client_compute(client, task, job_id, ordinal);
  });
}

void Deployment::client_compute(redundancy::NodeId client, std::uint64_t task,
                                std::uint64_t job_id, int ordinal) {
  const ClientProfile& profile = profiles_[client];
  if (rng_fault_.bernoulli(profile.unresponsive_prob)) {
    // The volunteer goes dark: no report. It resurfaces after a while and
    // asks for new work, like a flaky PlanetLab machine rebooting.
    simulator_.schedule(config_.report_deadline,
                        [this, client] { client_request_work(client); });
    return;
  }
  const double duration =
      rng_compute_.uniform(kDurationLo, kDurationHi) *
      workload_.job_work(task) / profile.speed;
  // Under an encoding strategy the client computes one piece of the task;
  // the correct report is that piece's value.
  const redundancy::ResultValue correct = ledger_.expected_value(task, ordinal);
  const redundancy::ResultValue value =
      rng_fault_.bernoulli(profile.effective_reliability())
          ? correct
          : wrong_answer(correct);
  simulator_.schedule(duration, [this, client, task, job_id, ordinal, value] {
    simulator_.schedule(latency(), [this, client, task, job_id, ordinal,
                                    value] {
      server_handle_result(client, task, job_id, ordinal, value);
    });
    client_request_work(client);  // fetch more work as soon as we finish
  });
}

void Deployment::server_handle_result(redundancy::NodeId client,
                                      std::uint64_t task,
                                      std::uint64_t job_id, int ordinal,
                                      redundancy::ResultValue value) {
  const bool live = live_jobs_.erase(job_id) == 1;
  if (ledger_.state(task).decided) {
    // Task already settled. If the job was still live it is classified
    // discarded now; a stale job was already classified lost when its
    // deadline fired.
    if (live) ++metrics_.jobs_discarded;
    return;
  }
  if (!live) return;  // stale: counted lost already
  // Stale and post-decision reports never reach this hook, so a client
  // that blows its deadline keeps the debt — the pull-model counterpart
  // of the DCA write-off rule.
  ledger_.policy().on_complete(client, /*on_time=*/true);
  const int jobs = ledger_.record_vote(task, ordinal, client, value,
                                       ledger_.expected_value(task, ordinal));
  enqueue_wave(task, jobs);
}

void Deployment::deadline_check(std::uint64_t task, std::uint64_t job_id) {
  const bool live = live_jobs_.erase(job_id) == 1;
  if (ledger_.state(task).decided) {
    // The task settled while this job was out. An unresponsive client will
    // never report it; classify it lost now. (A client that does report
    // later finds the live entry gone and the report is simply dropped —
    // the job stays classified lost.)
    if (live) ++metrics_.jobs_lost;
    return;
  }
  if (!live) return;  // reported in time
  ++metrics_.jobs_lost;
  ledger_.trace(obs::EventKind::kDeadlineFired, task,
                static_cast<std::int64_t>(job_id));
  if (ledger_.at_job_cap(task)) {
    ledger_.abort(task);
    return;
  }
  // Re-issue a replacement for the overdue job.
  ledger_.count_dispatch(task);
  job_queue_.push_back(task);
}

}  // namespace smartred::boinc
