// Ablation A12: straggler resilience. The paper's XDEVS runs draw job
// durations uniform in [0.5, 1.5] (§4.1); real volunteer pools are
// heavy-tailed (lognormal/Pareto latency, persistently slow hosts,
// transient stalls), and §5.2's response-time penalty is exactly where that
// tail bites. This ablation runs TR/PR/IR under a heavy-tailed latency
// model and compares the fixed-timeout baseline against the straggler
// stack: adaptive deadlines (streaming quantile) + speculative
// re-execution + node quarantine. Reliability is untouched — votes are
// votes — so the stack buys response time for a small dispatch premium.
// Each data point merges --reps replications across --threads workers;
// latency models hold RNG state, so every replication builds its own.
#include <iostream>

#include "common/flags.h"
#include "common/table.h"
#include "fault/latency_model.h"
#include "harness.h"
#include "redundancy/registry.h"

namespace {

int run_bench(int argc, char** argv) {
  smartred::flags::Parser parser(
      "ablation_stragglers",
      "A12 — heavy-tailed latency: fixed timeout vs. adaptive deadlines + "
      "speculative re-execution + quarantine");
  const auto r = parser.add_double("reliability", 0.7, "node reliability");
  const auto tasks = parser.add_int("tasks", 10'000, "tasks per data point");
  const auto nodes = parser.add_int("nodes", 2'000, "pool size");
  smartred::bench::Sweep sweep(parser, argc, argv, {.seed = 3});

  const auto n_tasks = static_cast<std::uint64_t>(*tasks);
  const auto n_nodes = static_cast<std::size_t>(*nodes);
  const double reliability = *r;
  // One point: `point_tasks` tasks of `factory` on a pool where
  // `slow_fraction` of the hosts is 8x slow, with or without the defences.
  const auto run_one = [&](std::string label,
                           const smartred::redundancy::StrategyFactory& factory,
                           std::uint64_t point_tasks, double slow_fraction,
                           bool smart) {
    return sweep.replicate_tasks(
        std::move(label), point_tasks,
        [&](std::uint64_t rep_tasks, std::uint64_t rep_seed,
            const smartred::bench::RepTelemetry& telemetry) {
          smartred::sim::Simulator simulator;
          simulator.set_recorder(telemetry.trace);
          smartred::dca::DcaConfig config;
          telemetry.apply(config);
          config.nodes = n_nodes;
          config.seed = rep_seed;
          // Started-tasks-first isolates the straggler effect from the
          // §5.2 FIFO queueing artifact (ablation A10) in both modes.
          smartred::bench::straggler_stack(config, smart);
          // Heavy-tailed base latency (lognormal, mean 1.0 like the paper's
          // U[0.5, 1.5] draw) on a pool where a fraction of hosts is
          // persistently slow.
          smartred::fault::LognormalLatency tail(1.0, 1.2);
          smartred::fault::SlowNodeLatency latency(
              tail, slow_fraction, /*slowdown=*/8.0,
              smartred::rng::Stream(smartred::rng::derive_seed(rep_seed, 2)));
          config.latency = &latency;
          const smartred::dca::SyntheticWorkload workload(rep_tasks);
          smartred::fault::ByzantineCollusion failures(
              smartred::fault::ReliabilityAssigner(
                  smartred::fault::ConstantReliability{reliability},
                  smartred::rng::Stream(
                      smartred::rng::derive_seed(rep_seed, 1))));
          smartred::dca::TaskServer server(simulator, config, factory,
                                           workload, failures);
          return smartred::dca::RunMetrics(server.run());
        });
  };

  const char* const specs[] = {"traditional:k=5", "progressive:k=5",
                               "iterative:d=4"};
  const auto ir = smartred::redundancy::make_strategy("iterative:d=4");

  smartred::table::banner(
      std::cout,
      "A12 — lognormal latency (sigma 1.2), 10% of hosts 8x slow: fixed "
      "timeout vs. adaptive + speculation + quarantine");
  smartred::table::Table out({"strategy", "mode", "reliability", "cost",
                              "resp_mean", "resp_p99", "resp_max",
                              "speculative", "timed_out", "quarantined",
                              "makespan"});
  for (const std::string spec : specs) {
    const auto factory = smartred::redundancy::make_strategy(spec);
    for (const bool smart : {false, true}) {
      const std::string mode = smart ? "adaptive+spec" : "fixed";
      const auto metrics = run_one(spec + " " + mode, *factory, n_tasks,
                                   /*slow_fraction=*/0.1, smart);
      out.add_row({spec, mode,
                   metrics.reliability(), metrics.cost_factor(),
                   metrics.response_time.mean(),
                   metrics.response_time_hist.quantile(0.99),
                   metrics.response_time.max(),
                   static_cast<long long>(metrics.jobs_speculative),
                   static_cast<long long>(metrics.jobs_timed_out),
                   static_cast<long long>(metrics.nodes_quarantined),
                   metrics.makespan});
    }
  }
  smartred::bench::emit(out, sweep.csv(), "modes");

  smartred::table::banner(
      std::cout,
      "Pool poisoning: response time vs. slow-host fraction, IR(4)");
  smartred::table::Table poison({"slow_fraction", "resp_fixed",
                                 "resp_smart", "p99_fixed", "p99_smart",
                                 "quarantined", "readmitted"});
  for (const double fraction : {0.0, 0.05, 0.1, 0.2, 0.4}) {
    const std::string label = "iterative:d=4 slow=" + std::to_string(fraction);
    const auto fixed =
        run_one(label + " fixed", *ir, n_tasks / 2, fraction, false);
    const auto smart =
        run_one(label + " smart", *ir, n_tasks / 2, fraction, true);
    poison.add_row({fraction, fixed.response_time.mean(),
                    smart.response_time.mean(),
                    fixed.response_time_hist.quantile(0.99),
                    smart.response_time_hist.quantile(0.99),
                    static_cast<long long>(smart.nodes_quarantined),
                    static_cast<long long>(smart.nodes_readmitted)});
  }
  smartred::bench::emit(poison, sweep.csv(), "poisoning");

  std::cout << "\nReading: under a heavy-tailed pool the fixed-timeout "
               "baseline has no straggler defence — mean response is set by "
               "the tail. Adaptive deadlines + speculation cut mean response "
               "at identical reliability for a small dispatch premium, and "
               "quarantine keeps a poisoned pool's response flat instead of "
               "degrading with the slow-host fraction.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return smartred::bench::guarded_main(
      argc, argv, [&] { return run_bench(argc, argv); });
}
