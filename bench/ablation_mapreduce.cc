// Ablation A9: end-to-end MapReduce output quality vs. redundancy budget.
//
// The figures of the paper score per-task reliability; this ablation scores
// what a downstream user of a Hadoop-class system actually sees — the
// accuracy of the final job output after corrupted tasks propagate through
// the shuffle — as the redundancy parameter grows, for traditional and
// iterative validation on the same pool. The twelve (validator, param) rows
// are independent jobs, so they fan across --threads workers; row results
// fold back in row order, keeping the table deterministic.
#include <iostream>
#include <vector>

#include "common/flags.h"
#include "common/table.h"
#include "harness.h"
#include "mapreduce/engine.h"
#include "redundancy/analysis.h"
#include "redundancy/registry.h"

namespace {

using namespace smartred;  // NOLINT(build/namespaces) — bench main

mapreduce::MapReduceResult run_job(
    const mapreduce::WordCountEngine& engine,
    const redundancy::StrategyFactory& factory, double r,
    std::uint64_t seed) {
  fault::ByzantineCollusion failures(fault::ReliabilityAssigner(
      fault::ConstantReliability{r}, rng::Stream(seed)));
  return engine.run(factory, failures);
}

int run_bench(int argc, char** argv) {
  flags::Parser parser(
      "ablation_mapreduce",
      "A9 — end-to-end MapReduce output accuracy vs. redundancy budget "
      "(traditional vs. iterative validation)");
  const auto documents = parser.add_int("documents", 512, "corpus size");
  const auto r = parser.add_double("reliability", 0.7, "worker reliability");
  const auto threads = parser.add_int(
      "threads", 0, "worker threads (0 = one per hardware thread)");
  const auto seed = parser.add_int("seed", 14, "master seed");
  const auto csv = parser.add_string("csv", "", "CSV output path (optional)");
  parser.parse(argc, argv);

  const auto master = static_cast<std::uint64_t>(*seed);
  const mapreduce::Corpus corpus(static_cast<std::size_t>(*documents), 200,
                                 1'000, rng::Stream(master));
  mapreduce::MapReduceConfig config;
  config.map_tasks = 64;
  config.reduce_tasks = 16;
  config.dca.nodes = 500;
  config.dca.seed = master + 1;
  const mapreduce::WordCountEngine engine(corpus, config);

  table::banner(std::cout,
                "A9 — output accuracy vs. jobs per task, r = " +
                    std::to_string(*r));
  table::Table out({"validator", "param", "jobs_per_task", "corrupted",
                    "output_accuracy", "task_reliability_eq"});

  struct Row {
    const char* validator;
    int param;
  };
  std::vector<Row> rows;
  for (int k : {1, 3, 5, 7, 9, 11}) rows.push_back({"TR", k});
  for (int d : {1, 2, 3, 4, 5, 6}) rows.push_back({"IR", d});

  // One job per replication slot: the unit of parallelism is the row grid,
  // so the bench takes no --reps.
  exp::RunnerConfig plan;
  plan.replications = rows.size();
  plan.threads = static_cast<unsigned>(bench::at_least("threads", *threads, 0));
  plan.master_seed = master * 100;
  exp::ParallelRunner runner(plan);
  const std::vector<mapreduce::MapReduceResult> results =
      runner.run([&](std::uint64_t index, std::uint64_t row_seed) {
        const Row& row = rows[index];
        const std::string spec =
            row.validator[0] == 'T'
                ? "traditional:k=" + std::to_string(row.param)
                : "iterative:d=" + std::to_string(row.param);
        return run_job(engine, *redundancy::make_strategy(spec), *r,
                       row_seed);
      });

  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const mapreduce::MapReduceResult& result = results[i];
    const bool traditional = row.validator[0] == 'T';
    out.add_row(
        {row.validator, static_cast<long long>(row.param),
         result.total_cost_factor(),
         static_cast<long long>(result.map_phase.corrupted_tasks +
                                result.reduce_phase.corrupted_tasks),
         result.output_accuracy,
         traditional
             ? redundancy::analysis::traditional_reliability(row.param, *r)
             : redundancy::analysis::iterative_reliability(row.param, *r)});
  }
  bench::emit(out, *csv, "mapreduce");
  std::cout << "\nReading: at any jobs-per-task budget, iterative validation "
               "yields the cleaner final histogram; corrupted tasks are what "
               "a Hadoop user would experience as silently wrong output.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return smartred::bench::guarded_main(
      argc, argv, [&] { return run_bench(argc, argv); });
}
