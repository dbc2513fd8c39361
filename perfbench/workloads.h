// The benchmark's workloads: each a closed batch of replications run through
// exp::ParallelRunner, with its inputs generated from the workload seed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dca/metrics.h"
#include "layers.h"
#include "redundancy/montecarlo.h"

namespace perfbench {

/// Worker threads of every workload's runner. With two, the shared
/// PhaseProfiler atomics and the host's placement of the two vCPUs moved
/// ns/job more than the program did (see README, "Not measured").
inline constexpr unsigned kWorkerThreads = 1;

/// What one timed batch produced.
struct BatchOutcome {
  /// Jobs dispatched (DES substrates) or drawn (Monte-Carlo): the
  /// denominator of every per-job metric.
  std::uint64_t jobs = 0;
  std::uint64_t replications = 0;
  /// Replications that threw or failed a per-replication output check.
  std::uint64_t failed = 0;
  std::string first_failure;

  /// Merged aggregates: `des` for the DES workloads, `mc` for mc_sweep.
  smartred::dca::RunMetrics des;
  smartred::redundancy::MonteCarloResult mc;
  bool is_des = true;

  /// Exact hash of every simulated aggregate the program reports
  /// (obs::snapshot of the merged result). Equal fingerprints mean
  /// bit-identical aggregates.
  std::uint64_t fingerprint = 0;

  std::uint64_t sim_events = 0;   ///< DES kernel events executed
  unsigned threads = 1;
  std::int64_t runner_ns = 0;     ///< the whole ParallelRunner call
  std::int64_t merge_ns = 0;      ///< the merge callbacks
  /// The program's own telemetry (dca_stragglers only).
  std::uint64_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
  std::uint64_t samples = 0;
  std::uint64_t profile_calls = 0;
  std::int64_t collect_ns = 0;
  std::int64_t export_ns = 0;
  /// Mean effective reliability of the BOINC client pools, weighted by
  /// jobs completed on each (boinc_sat).
  double pool_reliability = 0.0;

  [[nodiscard]] double cost_factor() const;
  [[nodiscard]] double reliability() const;
  /// Response-time quantile in simulated time units. Monte-Carlo has no
  /// clock: it reads the jobs-per-task quantile instead (see README).
  [[nodiscard]] double response_quantile(double q) const;
  [[nodiscard]] std::uint64_t response_samples() const;
};

/// One named output check and whether it passed.
struct CheckResult {
  std::string name;
  bool passed = false;
  std::string detail;
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::string strategy_spec() const = 0;
  [[nodiscard]] virtual std::string policy_spec() const = 0;

  /// One-time set-up for inputs generated from `seed`. Returns the time
  /// spent solving SAT ground truth (0 for synthetic workloads).
  virtual std::int64_t setup(std::uint64_t seed) = 0;

  /// Runs one batch: the timed phase. With `layers` non-null every seam is
  /// wrapped and measured into it; null runs the plain program.
  [[nodiscard]] virtual BatchOutcome run_batch(BatchLayers* layers) = 0;

  /// The run-level output checks on a batch. `wrong_reference` swaps in a
  /// deliberately wrong reference for each check (the self-test requires
  /// every check to reject it).
  [[nodiscard]] virtual std::vector<CheckResult> check(
      const BatchOutcome& outcome, bool wrong_reference) = 0;
};

[[nodiscard]] std::vector<std::string> workload_names();

/// The named workload at full size, or at the self-test's small size.
/// Returns null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      bool small);

/// The per-replication output check of a DES replication: every dispatched
/// job reached exactly one terminal state, no task was left without an
/// accepted value, and none was aborted. Empty string when it passes.
[[nodiscard]] std::string check_replication(
    const smartred::dca::RunMetrics& metrics, std::uint64_t undecided);

/// The per-replication output check of a Monte-Carlo replication: it
/// sampled every task it was given and aborted none. Empty string when it
/// passes.
[[nodiscard]] std::string check_mc_replication(
    const smartred::redundancy::MonteCarloResult& result,
    std::uint64_t expected_tasks);

/// The dca_stragglers decode-verify guarantee: no task accepted a wrong
/// value. Empty string when it passes.
[[nodiscard]] std::string check_no_wrong_accepts(
    const smartred::dca::RunMetrics& metrics);

/// The benchmark's own self-test (see README): on a small instance of each
/// workload, traced and untraced batches must agree bit for bit, and every
/// output check must pass on the real reference and reject a deliberately
/// wrong one. Returns the process exit code.
[[nodiscard]] int self_test();

}  // namespace perfbench
