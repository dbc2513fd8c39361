// A simulated BOINC-style volunteer-computing deployment.
//
// This is the repository's stand-in for the paper's "BOINC on 200 PlanetLab
// nodes" platform (§4.1). It reproduces the moving parts the evaluation
// depends on, with faithful BOINC semantics:
//   * pull scheduling — idle clients request work from the server over a
//     network with latency; the server hands out jobs from a FIFO queue;
//   * one result per client per task (BOINC's one-result-per-user rule),
//     relaxed only when every client has already served the task;
//   * report deadlines — a job not reported in time is re-issued, and a
//     late (stale) report is ignored;
//   * unresponsive clients, heterogeneous speeds, and unanticipated extra
//     faults layered on the seeded 30% failure rate, so the pool's
//     effective reliability is *below* the seeded r and unknown to the
//     strategies — the situation the paper measured as 0.64 < r < 0.67;
//   * per-task redundancy driven by any RedundancyStrategy, consulted wave
//     by wave exactly as in the other substrates.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_set>
#include <vector>

#include "boinc/profile.h"
#include "common/rng.h"
#include "dca/assignment.h"
#include "dca/metrics.h"
#include "dca/task_ledger.h"
#include "dca/workload.h"
#include "obs/timeseries.h"
#include "redundancy/strategy.h"
#include "sim/simulator.h"

namespace smartred::boinc {

/// The network latency, the base job duration (the paper's U[0.5, 1.5],
/// before work/speed scaling) and the idle client's polling delay are
/// fixed; see the constants in deployment.cc.
struct BoincConfig {
  /// Report deadline: a job unreported for this long is re-issued.
  double report_deadline = 30.0;
  /// Safety cap per task (aborted and counted incorrect beyond it).
  int max_jobs_per_task = 10'000;
  std::uint64_t seed = 1;
  /// Optional project-health sampler: every TaskLedger::kSampleInterval
  /// simulated time units the server records queue/progress series.
  /// Read-only observations — a sampled run reproduces an unsampled run's
  /// aggregates bit-for-bit. Not owned; null disables sampling at zero
  /// cost.
  obs::TimeSeriesRecorder* timeseries = nullptr;
  /// Optional externally owned assignment policy (must outlive the
  /// deployment). Null selects `assignment_spec` instead. In this pull
  /// substrate the policy vetoes via admit() — clients request work, so
  /// there is no pool to select() from — and is fed the dispatch/complete
  /// /decided hooks.
  dca::AssignmentPolicy* assignment = nullptr;
  /// Assignment-policy spec (see dca::make_policy) used when `assignment`
  /// is null; empty selects the paper's first-come baseline.
  std::string assignment_spec;
};

/// One computation run on the simulated volunteer network. Single-use:
/// construct, run(), read metrics().
class Deployment {
 public:
  /// All referenced collaborators must outlive the deployment.
  Deployment(sim::Simulator& simulator, const BoincConfig& config,
             std::vector<ClientProfile> profiles,
             const redundancy::StrategyFactory& factory,
             const dca::Workload& workload);

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Boots every client, runs the computation to completion, returns the
  /// metrics (also available afterwards via metrics()).
  const dca::RunMetrics& run();

  [[nodiscard]] const dca::RunMetrics& metrics() const { return metrics_; }

  /// Mean effective reliability of the pool (ground truth the experiment
  /// knows but the strategies must not).
  [[nodiscard]] double pool_effective_reliability() const;

  /// The value the project accepted for `task`, or nullopt if the task was
  /// aborted. Only valid after run().
  [[nodiscard]] std::optional<redundancy::ResultValue> accepted_value(
      std::uint64_t task) const {
    return ledger_.accepted_value(task);
  }

 private:
  [[nodiscard]] double latency();
  /// Queues the jobs of a wave the ledger opened; no-op for 0.
  void enqueue_wave(std::uint64_t task, int jobs);
  void client_request_work(redundancy::NodeId client);
  void server_handle_request(redundancy::NodeId client);
  /// Hands the client a job of the task it was admitted for.
  void assign(redundancy::NodeId client, const dca::AssignContext& context);
  /// `ordinal` is the assignment's dispatch ordinal within its task: under
  /// an encoding strategy it fixes which piece the client computes and
  /// which piece index the resulting vote carries.
  void client_compute(redundancy::NodeId client, std::uint64_t task,
                      std::uint64_t job_id, int ordinal);
  void server_handle_result(redundancy::NodeId client, std::uint64_t task,
                            std::uint64_t job_id, int ordinal,
                            redundancy::ResultValue value);
  void deadline_check(std::uint64_t task, std::uint64_t job_id);

  sim::Simulator& simulator_;
  BoincConfig config_;
  std::vector<ClientProfile> profiles_;
  const dca::Workload& workload_;
  dca::RunMetrics metrics_;
  /// Per-task state, decisions and the assignment policy in force.
  dca::TaskLedger ledger_;

  std::deque<std::uint64_t> job_queue_;  ///< task ids awaiting assignment
  /// Per task, the clients that already received one of its jobs (BOINC's
  /// one-result-per-user rule).
  std::vector<std::unordered_set<redundancy::NodeId>> served_;
  /// Assignment instances (of any task) whose report is still awaited.
  std::unordered_set<std::uint64_t> live_jobs_;
  std::uint64_t next_job_id_ = 0;

  rng::Stream rng_network_;
  rng::Stream rng_compute_;
  rng::Stream rng_fault_;
};

}  // namespace smartred::boinc
