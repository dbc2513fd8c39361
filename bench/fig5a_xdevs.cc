// Figure 5(a): measured system reliability vs. measured cost factor from
// the discrete-event DCA simulation (the paper's XDEVS platform), r = 0.7.
//
// The paper's setup (§4.1): >= 1,000,000 tasks and 10,000 nodes, job
// completion times uniform in [0.5, 1.5] time units, average node
// reliability 0.7. Each data point here is the merge of --reps independent
// replications fanned across --threads workers (deterministic: the output
// is byte-identical for any --threads value at a fixed --seed). Defaults
// are scaled down so the whole bench suite runs in minutes; pass
// --tasks=1000000 --nodes=10000 for the full-size runs (results match —
// the estimators are unbiased in task count).
#include <iostream>

#include "common/flags.h"
#include "common/table.h"
#include "harness.h"
#include "redundancy/analysis.h"
#include "redundancy/registry.h"

namespace {

namespace analysis = smartred::redundancy::analysis;

void add_row(smartred::table::Table& out, const std::string& technique,
             long long parameter, const smartred::dca::RunMetrics& metrics,
             double predicted_cost, double predicted_reliability) {
  out.add_row({technique, parameter, metrics.cost_factor(), predicted_cost,
               metrics.reliability(), predicted_reliability,
               static_cast<long long>(metrics.max_jobs_single_task),
               metrics.response_time.mean(), metrics.makespan});
}

int run_bench(int argc, char** argv) {
  smartred::flags::Parser parser(
      "fig5a_xdevs",
      "Figure 5(a) — measured reliability vs. cost factor on the DES DCA "
      "(XDEVS stand-in)");
  const auto r = parser.add_double("reliability", 0.7, "node reliability r");
  const auto tasks = parser.add_int(
      "tasks", 50'000, "tasks per data point, across reps (paper: 1e6)");
  const auto nodes = parser.add_int("nodes", 2'000,
                                    "pool size per replication (paper: 10000)");
  smartred::bench::Sweep sweep(parser, argc, argv);

  const auto n_tasks = static_cast<std::uint64_t>(*tasks);
  smartred::dca::DcaConfig base;
  base.nodes = static_cast<std::size_t>(*nodes);

  smartred::table::banner(
      std::cout, "Figure 5(a) — XDEVS-style DCA simulation, r = " +
                     std::to_string(*r));
  smartred::table::Table out(
      {"technique", "param", "cost", "cost_eq", "reliability", "rel_eq",
       "max_jobs", "avg_response", "makespan"});

  // One data point per spec, built through the string-keyed registry — the
  // same grammar --strategy flags accept elsewhere.
  const auto run_series =
      [&](const std::string& technique, const std::string& key, int lo,
          int hi, int step, auto predicted_cost, auto predicted_reliability) {
        for (int value = lo; value <= hi; value += step) {
          const std::string spec =
              technique + ":" + key + "=" + std::to_string(value);
          const auto factory = smartred::redundancy::make_strategy(spec);
          const auto metrics =
              sweep.byzantine_dca(spec, *factory, *r, n_tasks, base);
          add_row(out, technique == "traditional" ? "TR"
                       : technique == "progressive" ? "PR"
                                                    : "IR",
                  value, metrics, predicted_cost(value),
                  predicted_reliability(value));
        }
      };
  run_series(
      "traditional", "k", 1, 19, 4,
      [](int k) { return analysis::traditional_cost(k); },
      [&](int k) { return analysis::traditional_reliability(k, *r); });
  run_series(
      "progressive", "k", 1, 19, 4,
      [&](int k) { return analysis::progressive_cost(k, *r); },
      [&](int k) { return analysis::progressive_reliability(k, *r); });
  run_series(
      "iterative", "d", 1, 8, 1,
      [&](int d) { return analysis::iterative_cost(d, *r); },
      [&](int d) { return analysis::iterative_reliability(d, *r); });

  smartred::bench::emit(out, sweep.csv(), "fig5a");
  std::cout << "\nReading: at equal measured cost, IR achieves the highest "
               "reliability, PR second, TR last (paper Figure 5(a)).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return smartred::bench::guarded_main(
      argc, argv, [&] { return run_bench(argc, argv); });
}
