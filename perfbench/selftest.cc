// The benchmark's own self-test. On a small instance of each workload:
//   * two untraced batches, and a traced one, reproduce the same simulated
//     aggregates bit for bit (the seam wrappers change nothing);
//   * the traced batch recorded every replication and saw the strategy;
//   * every output check passes on the real reference and rejects a
//     deliberately wrong one, so no check is vacuous.
#include <cstdint>
#include <iostream>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

struct Tally {
  int failures = 0;

  void expect(bool ok, const std::string& workload, const std::string& what) {
    std::cout << "self-test " << workload << ": " << what << ": "
              << (ok ? "PASS" : "FAIL") << "\n";
    if (!ok) ++failures;
  }
};

void test_workload(const std::string& name, Tally& tally) {
  const auto workload = make_workload(name, /*small=*/true);
  static_cast<void>(workload->setup(7));
  const BatchOutcome first = workload->run_batch(nullptr);
  const BatchOutcome again = workload->run_batch(nullptr);
  BatchLayers layers(/*keep_spans=*/true);
  const BatchOutcome traced = workload->run_batch(&layers);

  tally.expect(first.replications > 0 && first.failed == 0 &&
                   again.failed == 0 && traced.failed == 0,
               name, "replications pass their checks");
  tally.expect(again.fingerprint == first.fingerprint, name,
               "untraced batches are bit-identical");
  tally.expect(traced.fingerprint == first.fingerprint, name,
               "traced batch is bit-identical to untraced");
  std::uint64_t decides = 0;
  for (const RepLayers& rep : layers.reps()) {
    decides += rep.in_run[static_cast<std::size_t>(Seam::kDecide)].calls;
  }
  tally.expect(layers.reps().size() == traced.replications && decides > 0 &&
                   !layers.spans().empty(),
               name, "traced batch recorded every replication and decide()");

  const std::vector<CheckResult> right = workload->check(first, false);
  const std::vector<CheckResult> wrong = workload->check(first, true);
  tally.expect(right.size() == wrong.size() && !right.empty(), name,
               "checks ran");
  for (std::size_t i = 0; i < right.size() && i < wrong.size(); ++i) {
    tally.expect(right[i].passed, name,
                 right[i].name + " passes (" + right[i].detail + ")");
    tally.expect(!wrong[i].passed, name,
                 wrong[i].name + " rejects a wrong reference (" +
                     wrong[i].detail + ")");
  }

  // The per-replication checks, against tampered results.
  if (first.is_des) {
    tally.expect(check_replication(first.des, 0).empty(), name,
                 "conservation check passes");
    smartred::dca::RunMetrics leaky = first.des;
    ++leaky.jobs_dispatched;
    tally.expect(!check_replication(leaky, 0).empty(), name,
                 "conservation check rejects a lost job");
    tally.expect(!check_replication(first.des, 1).empty(), name,
                 "conservation check rejects an undecided task");
    smartred::dca::RunMetrics aborted = first.des;
    ++aborted.tasks_aborted;
    tally.expect(!check_replication(aborted, 0).empty(), name,
                 "conservation check rejects an aborted task");
  } else {
    const std::uint64_t tasks = first.mc.tasks / first.replications;
    smartred::redundancy::MonteCarloResult one;
    one.tasks = tasks;
    for (std::uint64_t i = 0; i < tasks; ++i) one.jobs_per_task.add(1.0);
    tally.expect(check_mc_replication(one, tasks).empty(), name,
                 "sampling check passes");
    tally.expect(!check_mc_replication(one, tasks + 1).empty(), name,
                 "sampling check rejects a missing task");
    ++one.tasks_aborted;
    tally.expect(!check_mc_replication(one, tasks).empty(), name,
                 "sampling check rejects an aborted task");
  }
}

}  // namespace

int self_test() {
  Tally tally;
  for (const std::string& name : workload_names()) test_workload(name, tally);
  std::cout << "self-test: " << (tally.failures == 0 ? "PASS" : "FAIL") << " ("
            << tally.failures << " failures)\n";
  return tally.failures == 0 ? 0 : 1;
}

}  // namespace perfbench
