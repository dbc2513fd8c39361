// Ablation A7: node churn (Figure 1's join/leave arrows). Volunteers leave
// mid-job — their jobs are re-issued — and new volunteers join. Iterative
// redundancy's reliability guarantee is unaffected (it depends only on the
// votes that do arrive); churn shows up purely as re-issue cost and longer
// makespan. Each data point merges --reps replications across --threads
// workers.
#include <iostream>

#include "common/flags.h"
#include "common/table.h"
#include "harness.h"
#include "redundancy/analysis.h"
#include "redundancy/registry.h"

namespace {

int run_bench(int argc, char** argv) {
  smartred::flags::Parser parser(
      "ablation_churn",
      "A7 — node churn: joins/leaves during the computation (Figure 1)");
  const auto d = parser.add_int("d", 4, "iterative margin");
  const auto r = parser.add_double("reliability", 0.7, "node reliability");
  const auto tasks = parser.add_int("tasks", 20'000, "tasks per data point");
  const auto nodes = parser.add_int("nodes", 1'000, "initial pool size");
  smartred::bench::Sweep sweep(parser, argc, argv, {.seed = 8});

  const int dd = static_cast<int>(*d);
  smartred::table::banner(std::cout,
                          "A7 — churn-rate sweep (events per time unit)");
  smartred::table::Table out({"churn_rate", "reliability", "rel_eq6", "cost",
                              "jobs_lost", "nodes_left", "nodes_joined",
                              "makespan"});
  const double rel_pred =
      smartred::redundancy::analysis::iterative_reliability(dd, *r);
  const std::string spec = "iterative:d=" + std::to_string(dd);
  const auto factory = smartred::redundancy::make_strategy(spec);

  for (double rate : {0.0, 1.0, 5.0, 20.0, 50.0}) {
    smartred::dca::DcaConfig base;
    base.nodes = static_cast<std::size_t>(*nodes);
    base.churn.join_rate = rate;
    base.churn.leave_rate = rate;
    base.timeout = 5.0;
    const auto metrics = sweep.byzantine_dca(
        spec + " churn=" + std::to_string(rate), *factory, *r,
        static_cast<std::uint64_t>(*tasks), base);
    out.add_row({rate, metrics.reliability(), rel_pred,
                 metrics.cost_factor(),
                 static_cast<long long>(metrics.jobs_lost),
                 static_cast<long long>(metrics.nodes_left),
                 static_cast<long long>(metrics.nodes_joined),
                 metrics.makespan});
  }
  smartred::bench::emit(out, sweep.csv(), "churn");
  std::cout << "\nReading: reliability stays pinned to Equation (6) at every "
               "churn rate; churn costs only re-issued jobs and time.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return smartred::bench::guarded_main(
      argc, argv, [&] { return run_bench(argc, argv); });
}
