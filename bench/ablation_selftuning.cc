// Ablation A8: self-tuning iterative redundancy — specify a reliability
// target, let the system find the margin.
//
// Three scenarios against pools whose quality the strategies never see:
//   1. Unknown r sweep: self-tuning hits the target everywhere with
//      near-calibrated cost, while any FIXED margin either misses the
//      target (too small) or overpays (too large).
//   2. Drift: the pool degrades mid-run; a forgetting estimator re-adapts.
//   3. Margin trace: how fast the derived margin converges.
// Unlike the sweep benches this one is sequential, so it takes no --reps
// or --threads: the self-tuning factory carries shared adaptive state (the
// margin estimate) that every task must observe in order, so replications
// cannot be forked.
#include <iostream>

#include "common/flags.h"
#include "common/table.h"
#include "harness.h"
#include "redundancy/analysis.h"
#include "redundancy/iterative.h"
#include "redundancy/self_tuning.h"

namespace {

using namespace smartred;  // NOLINT(build/namespaces) — bench main

redundancy::MonteCarloResult run(const redundancy::StrategyFactory& factory,
                                 double r, std::uint64_t tasks,
                                 std::uint64_t seed) {
  redundancy::MonteCarloConfig config;
  config.tasks = tasks;
  config.seed = seed;
  return run_binary(factory, r, config);
}

int run_bench(int argc, char** argv) {
  flags::Parser parser(
      "ablation_selftuning",
      "A8 — reliability-targeted self-tuning vs. fixed margins on pools of "
      "unknown and drifting quality");
  const auto target = parser.add_double("target", 0.99,
                                        "per-task reliability target");
  const auto tasks = parser.add_int("tasks", 30'000, "tasks per run");
  const auto seed = parser.add_int("seed", 12, "master seed");
  const auto csv = parser.add_string("csv", "", "CSV output path (optional)");
  parser.parse(argc, argv);

  const auto n_tasks = static_cast<std::uint64_t>(*tasks);

  table::banner(std::cout,
                "A8 — unknown-r sweep, target R = " + std::to_string(*target));
  table::Table sweep({"true_r", "strategy", "reliability", "met", "cost",
                      "calibrated_cost", "final_margin"});
  std::uint64_t run_seed = static_cast<std::uint64_t>(*seed);
  for (double r : {0.6, 0.7, 0.8, 0.9, 0.95}) {
    const int ideal_d = redundancy::analysis::margin_for_confidence(r,
                                                                    *target);
    const double ideal_cost = redundancy::analysis::iterative_cost(ideal_d, r);

    redundancy::SelfTuningConfig config;
    config.target_reliability = *target;
    const redundancy::SelfTuningFactory self_tuning(config);
    const auto tuned = run(self_tuning, r, n_tasks, ++run_seed);
    sweep.add_row({r, self_tuning.name(), tuned.reliability(),
                   std::string(tuned.reliability() >= *target - 0.005 ? "yes"
                                                                      : "NO"),
                   tuned.cost_factor(), ideal_cost,
                   static_cast<long long>(self_tuning.prototype().margin())});

    // A fixed margin chosen for the *wrong* pool (r = 0.7 assumed).
    const int assumed_d =
        redundancy::analysis::margin_for_confidence(0.7, *target);
    const redundancy::IterativeFactory fixed(assumed_d);
    const auto rigid = run(fixed, r, n_tasks, ++run_seed);
    sweep.add_row({r, fixed.name() + " [assumed r=0.7]", rigid.reliability(),
                   std::string(rigid.reliability() >= *target - 0.005 ? "yes"
                                                                      : "NO"),
                   rigid.cost_factor(), ideal_cost,
                   static_cast<long long>(assumed_d)});
  }
  bench::emit(sweep, *csv, "sweep");

  table::banner(std::cout, "A8 — pool degrades mid-run (0.9 -> 0.65)");
  table::Table drift({"estimator", "phase1_rel", "phase2_rel",
                      "phase2_margin"});
  for (double forgetting : {1.0, 0.999}) {
    redundancy::SelfTuningConfig config;
    config.target_reliability = *target;
    config.forgetting = forgetting;
    const redundancy::SelfTuningFactory factory(config);
    const auto phase1 = run(factory, 0.9, n_tasks / 2, ++run_seed);
    const auto phase2 = run(factory, 0.65, n_tasks / 2, ++run_seed);
    drift.add_row({forgetting == 1.0 ? std::string("no forgetting")
                                     : std::string("forgetting 0.999"),
                   phase1.reliability(), phase2.reliability(),
                   static_cast<long long>(factory.prototype().margin())});
  }
  bench::emit(drift, *csv, "drift");
  std::cout << "\nReading: the forgetting estimator raises the margin after "
               "the pool degrades and recovers the target; a frozen estimate "
               "keeps the stale (too small) margin and misses it.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return smartred::bench::guarded_main(
      argc, argv, [&] { return run_bench(argc, argv); });
}
