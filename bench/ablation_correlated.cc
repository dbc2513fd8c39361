// Ablation A4 (paper §5.3, relaxing assumption 3): correlated failures.
// Nodes belong to clusters (e.g. sites hit by the same outage); a shared
// per-(task, cluster) event makes whole clusters fail together. Equations
// (1)–(6) still apply with r replaced by the *effective* per-job
// reliability (1 − q) * r_ind as long as a task's jobs mostly land in
// different clusters — and degrade as clusters get coarse. Each data point
// merges --reps replications across --threads workers.
#include <iostream>

#include "common/flags.h"
#include "common/table.h"
#include "harness.h"
#include "redundancy/analysis.h"
#include "redundancy/registry.h"

namespace {

int run_bench(int argc, char** argv) {
  smartred::flags::Parser parser(
      "ablation_correlated",
      "A4 — correlated (cluster) failures vs. the independent-failure "
      "prediction (relaxed assumption 3, §5.3)");
  const auto d = parser.add_int("d", 4, "iterative margin");
  const auto tasks = parser.add_int("tasks", 30'000, "tasks per data point");
  const auto r_ind = parser.add_double("r-independent", 0.78,
                                       "per-node independent reliability");
  const auto q = parser.add_double("cluster-failure-prob", 0.1,
                                   "per-(task, cluster) shared failure");
  smartred::bench::Sweep sweep(parser, argc, argv, {.seed = 4});

  const int dd = static_cast<int>(*d);
  smartred::table::banner(
      std::cout,
      "A4 — effective r = (1-q)*r_ind = " +
          std::to_string((1.0 - *q) * *r_ind) + ", sweeping cluster count");
  smartred::table::Table out({"clusters", "cost", "cost_pred", "reliability",
                              "rel_pred_independent"});

  const double r_eff = (1.0 - *q) * *r_ind;
  const double cost_pred =
      smartred::redundancy::analysis::iterative_cost(dd, r_eff);
  const double rel_pred =
      smartred::redundancy::analysis::iterative_reliability(dd, r_eff);
  const std::string spec = "iterative:d=" + std::to_string(dd);
  const auto factory = smartred::redundancy::make_strategy(spec);
  const double r_independent = *r_ind;
  const double cluster_failure = *q;

  for (int clusters : {2'000, 200, 50, 10, 4, 1}) {
    smartred::dca::DcaConfig base;
    base.nodes = 2'000;
    const auto metrics = sweep.dca_point(
        spec + " clusters=" + std::to_string(clusters), *factory,
        static_cast<std::uint64_t>(*tasks), base,
        [clusters, r_independent, cluster_failure](std::uint64_t rep_seed) {
          return smartred::fault::CorrelatedClusters(
              smartred::fault::ReliabilityAssigner(
                  smartred::fault::ConstantReliability{r_independent},
                  smartred::rng::Stream(smartred::rng::derive_seed(rep_seed,
                                                                   1))),
              clusters, cluster_failure,
              smartred::rng::Stream(smartred::rng::derive_seed(rep_seed, 2)));
        });
    out.add_row({static_cast<long long>(clusters), metrics.cost_factor(),
                 cost_pred, metrics.reliability(), rel_pred});
  }
  smartred::bench::emit(out, sweep.csv(), "correlated");
  std::cout
      << "\nReading: with many clusters (jobs of one task rarely share a "
         "cluster) the independent-failure prediction holds; a single "
         "cluster makes the shared event indistinguishable from colluding "
         "nodes — reliability drops toward the q-driven floor, which no "
         "redundancy can fix (paper §2.2: perfectly correlated failures "
         "defeat all redundancy techniques).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return smartred::bench::guarded_main(
      argc, argv, [&] { return run_bench(argc, argv); });
}
