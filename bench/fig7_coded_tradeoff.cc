// Figure 7 (extension): the diversity/parallelism trade-off of coded
// redundancy against the paper's iterative technique, under the stack the
// paper never stressed — Pareto-tailed job latency, node churn, and
// Byzantine collusion all at once.
//
// The coded strategy encodes each task into n pieces of which any k
// reconstruct (redundancy/coded.h) and dispatches them in waves of g:
//   g = n  all parallelism — accept on the k+v fastest of n pieces, so the
//          slowest straggler is structurally irrelevant;
//   g = 1  all diversity — minimal dispatch, maximal sequential latency.
// Iterative redundancy must instead wait for every copy of its current
// wave before its margin can clear d: its tail is the *max* of the wave,
// coded's is an order statistic below the max. That is the p99 gap this
// bench measures, at matched expected cost.
//
// Both arms run the same straggler defences (adaptive deadlines,
// speculative re-execution, quarantine) — the gap is the code, not the
// scheduling. Each data point merges --reps replications across --threads
// workers; latency models hold RNG state, so every replication builds its
// own, and the whole bench is bit-identical at any --threads value.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/table.h"
#include "fault/latency_model.h"
#include "harness.h"
#include "redundancy/registry.h"

namespace {

struct PointResult {
  std::string spec;
  bool coded = false;
  double cost = 0.0;
  double wrong_accept = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
};

int run_bench(int argc, char** argv) {
  smartred::flags::Parser parser(
      "fig7_coded_tradeoff",
      "coded (n,k,g) diversity/parallelism trade-off vs. iterative "
      "redundancy under Pareto stragglers + churn + Byzantine collusion");
  const auto r = parser.add_double("reliability", 0.9, "node reliability");
  const auto tasks = parser.add_int("tasks", 4'000, "tasks per data point");
  const auto nodes = parser.add_int("nodes", 500, "pool size");
  const auto churn = parser.add_double(
      "churn", 2.0, "node join and leave rate (events per time unit)");
  smartred::bench::Sweep sweep(parser, argc, argv, {.seed = 7});

  const auto n_tasks = static_cast<std::uint64_t>(*tasks);
  const auto n_nodes = static_cast<std::size_t>(*nodes);

  // The iterative ladder spans the cost range the coded points land in
  // (under churn + collusion both arms pay a recovery premium over the
  // analytic minimum, so the ladder runs deep enough to cross the coded
  // costs); coded points sweep the diversity/parallelism knob g at two
  // (n, k).
  const char* const specs[] = {
      "iterative:d=2",       "iterative:d=3",       "iterative:d=4",
      "iterative:d=5",       "iterative:d=6",       "iterative:d=7",
      "coded:n=6,k=4,g=1",   "coded:n=6,k=4,g=2",   "coded:n=6,k=4,g=3",
      "coded:n=6,k=4,g=6",   "coded:n=8,k=4,g=2",   "coded:n=8,k=4,g=4",
      "coded:n=8,k=4,g=8",
  };

  smartred::table::banner(
      std::cout,
      "Fig 7 — Pareto latency (alpha 1.5) + churn + collusion: coded "
      "(n,k,g) sweep vs. iterative ladder");
  smartred::table::Table out({"strategy", "cost", "reliability",
                              "wrong_accept", "decode_rejects", "resp_p50",
                              "resp_p99", "resp_max", "speculative",
                              "makespan"});
  std::vector<PointResult> points;
  for (const std::string spec : specs) {
    const auto factory = smartred::redundancy::make_strategy(spec);
    const auto metrics = sweep.replicate_tasks(
        spec, n_tasks,
        [&](std::uint64_t rep_tasks, std::uint64_t rep_seed,
            const smartred::bench::RepTelemetry& telemetry) {
          smartred::sim::Simulator simulator;
          simulator.set_recorder(telemetry.trace);
          smartred::dca::DcaConfig config;
          telemetry.apply(config);
          config.nodes = n_nodes;
          config.seed = rep_seed;
          smartred::bench::straggler_stack(config);
          // Pareto-tailed base latency: scale 0.5, alpha 1.5 gives mean 1.5
          // with an infinite-variance tail — the straggler regime where the
          // diversity/parallelism knob matters.
          smartred::fault::ParetoLatency latency(0.5, 1.5);
          config.latency = &latency;
          config.churn.join_rate = *churn;
          config.churn.leave_rate = *churn;
          const smartred::dca::SyntheticWorkload workload(rep_tasks);
          smartred::fault::ByzantineCollusion failures(
              smartred::fault::ReliabilityAssigner(
                  smartred::fault::ConstantReliability{*r},
                  smartred::rng::Stream(
                      smartred::rng::derive_seed(rep_seed, 1))));
          smartred::dca::TaskServer server(simulator, config, *factory,
                                           workload, failures);
          return smartred::dca::RunMetrics(server.run());
        });
    PointResult result;
    result.spec = spec;
    result.coded = spec.rfind("coded", 0) == 0;
    result.cost = metrics.cost_factor();
    result.wrong_accept =
        static_cast<double>(metrics.tasks_total - metrics.tasks_correct -
                            metrics.tasks_aborted) /
        static_cast<double>(metrics.tasks_total);
    result.p50 = metrics.response_time_hist.quantile(0.50);
    result.p99 = metrics.response_time_hist.quantile(0.99);
    points.push_back(result);
    out.add_row({spec, result.cost, metrics.reliability(),
                 result.wrong_accept,
                 static_cast<long long>(metrics.decodes_rejected),
                 result.p50, result.p99, metrics.response_time.max(),
                 static_cast<long long>(metrics.jobs_speculative),
                 metrics.makespan});
  }
  smartred::bench::emit(out, sweep.csv(), "fig7");

  // Dominance summary: a coded point beats an iterative point when its
  // expected cost is no higher (within 10% tolerance counts as "equal")
  // and its p99 completion time is strictly lower with no extra wrong
  // accepts.
  smartred::table::banner(std::cout,
                          "Dominance at matched expected cost (within 10%)");
  bool any_dominates = false;
  for (const PointResult& coded : points) {
    if (!coded.coded) continue;
    for (const PointResult& iterative : points) {
      if (iterative.coded) continue;
      const bool cost_matched =
          coded.cost <= iterative.cost * 1.10;
      const bool p99_strictly_better = coded.p99 < iterative.p99;
      const bool no_worse_wrong =
          coded.wrong_accept <= iterative.wrong_accept;
      if (cost_matched && p99_strictly_better && no_worse_wrong) {
        any_dominates = true;
        std::cout << "  " << coded.spec << " dominates " << iterative.spec
                  << ": cost " << coded.cost << " vs " << iterative.cost
                  << ", p99 " << coded.p99 << " vs " << iterative.p99
                  << "\n";
      }
    }
  }
  if (!any_dominates) {
    std::cout << "  (no coded point dominated an iterative point at this "
                 "configuration)\n";
  }

  std::cout << "\nReading: at g = n the coded strategy accepts on the k+v "
               "fastest of n pieces, so the Pareto tail's slowest draw "
               "never gates completion — iterative redundancy must wait "
               "out the max of every wave. The g knob trades that "
               "parallelism against dispatch diversity: small g approaches "
               "iterative's sequential profile, large g buys tail latency "
               "at the same expected cost. Decode-verify keeps the wrong-"
               "accept column at zero even under collusion — Byzantine "
               "results are caught before reconstruction.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return smartred::bench::guarded_main(
      argc, argv, [&] { return run_bench(argc, argv); });
}
