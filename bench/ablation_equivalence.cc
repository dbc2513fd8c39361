// Ablation A1: the simple margin-d algorithm is decision-for-decision
// identical to the naïve confidence-threshold algorithm that needs r
// (paper §3.3: "this simplified algorithm deploys the same number of
// redundant jobs in every situation").
//
// For each (r, R) cell the two algorithms replay the same vote streams;
// the table reports the number of decisions compared and divergences found
// (always 0). The 15 cells are independent, so they fan across --threads
// workers (one cell per replication slot). The per-decision speedup of the
// simple rule is a wall-clock ratio, noisier under contention, so it goes
// to a stdout line and not into the table: the table (and --csv) is the
// same on every run at one seed.
#include <chrono>
#include <iostream>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/table.h"
#include "harness.h"
#include "redundancy/analysis.h"
#include "redundancy/iterative.h"
#include "redundancy/iterative_naive.h"

namespace {

using smartred::redundancy::Decision;
using smartred::redundancy::IterativeNaive;
using smartred::redundancy::IterativeRedundancy;
using smartred::redundancy::NodeId;
using smartred::redundancy::ResultValue;
using smartred::redundancy::Vote;

struct CellResult {
  long long decisions = 0;
  long long divergences = 0;
  long long jobs = 0;
  double simple_ns = 0.0;
  double naive_ns = 0.0;
};

CellResult compare_cell(double r, double target, std::uint64_t trials,
                        std::uint64_t seed) {
  const int d = smartred::redundancy::analysis::margin_for_confidence(r,
                                                                      target);
  smartred::rng::Stream rng(seed);
  CellResult cell;
  std::vector<Vote> votes;
  using clock = std::chrono::steady_clock;
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    IterativeNaive naive(r, target);
    IterativeRedundancy simple(d);
    votes.clear();
    while (true) {
      const auto t0 = clock::now();
      const Decision from_simple = simple.decide(votes);
      const auto t1 = clock::now();
      const Decision from_naive = naive.decide(votes);
      const auto t2 = clock::now();
      cell.simple_ns += std::chrono::duration<double, std::nano>(t1 - t0)
                            .count();
      cell.naive_ns += std::chrono::duration<double, std::nano>(t2 - t1)
                           .count();
      ++cell.decisions;
      if (from_simple.done() != from_naive.done() ||
          (!from_simple.done() && from_simple.jobs != from_naive.jobs) ||
          (from_simple.done() && from_simple.value != from_naive.value)) {
        ++cell.divergences;
        break;
      }
      if (from_simple.done()) break;
      for (int j = 0; j < from_simple.jobs; ++j) {
        votes.push_back({static_cast<NodeId>(votes.size()),
                         rng.bernoulli(r) ? ResultValue{1} : ResultValue{0}});
      }
      ++cell.jobs;
    }
    cell.jobs += static_cast<long long>(votes.size());
  }
  return cell;
}

int run_bench(int argc, char** argv) {
  smartred::flags::Parser parser(
      "ablation_equivalence",
      "A1 — simple margin rule vs. naive r-dependent algorithm: identical "
      "decisions, no reliability input needed");
  const auto trials = parser.add_int("trials", 2'000,
                                     "tasks replayed per (r, R) cell");
  const auto threads = parser.add_int(
      "threads", 0, "worker threads (0 = one per hardware thread)");
  const auto seed = parser.add_int("seed", 1, "master seed");
  const auto csv = parser.add_string("csv", "", "CSV output path (optional)");
  parser.parse(argc, argv);

  smartred::table::banner(
      std::cout, "A1 — algorithm equivalence (Theorems 1 and 2 in action)");
  smartred::table::Table out(
      {"r", "target_R", "d", "decisions", "divergences"});
  struct Cell {
    double r;
    double target;
  };
  std::vector<Cell> cells;
  for (double r : {0.55, 0.6, 0.7, 0.8, 0.9}) {
    for (double target : {0.9, 0.97, 0.999}) {
      cells.push_back({r, target});
    }
  }
  // One cell per replication slot: the unit of parallelism here is the
  // (r, R) grid itself, so the bench takes no --reps.
  smartred::exp::RunnerConfig plan;
  plan.replications = cells.size();
  plan.threads =
      static_cast<unsigned>(smartred::bench::at_least("threads", *threads, 0));
  plan.master_seed = static_cast<std::uint64_t>(*seed);
  smartred::exp::ParallelRunner runner(plan);
  const std::vector<CellResult> results =
      runner.run([&](std::uint64_t index, std::uint64_t cell_seed) {
        return compare_cell(cells[index].r, cells[index].target,
                            static_cast<std::uint64_t>(*trials), cell_seed);
      });
  double naive_ns = 0.0;
  double simple_ns = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& cell = results[i];
    out.add_row(
        {cells[i].r, cells[i].target,
         static_cast<long long>(
             smartred::redundancy::analysis::margin_for_confidence(
                 cells[i].r, cells[i].target)),
         cell.decisions, cell.divergences});
    naive_ns += cell.naive_ns;
    simple_ns += cell.simple_ns;
  }
  smartred::bench::emit(out, *csv, "equivalence");
  std::cout << "naive_vs_simple_time: "
            << naive_ns / std::max(1.0, simple_ns)
            << " (wall-clock ratio over all cells; not in the table)\n";
  std::cout << "\nReading: zero divergences anywhere — the margin rule "
               "needs neither r nor any probability computation, at lower "
               "per-decision cost.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return smartred::bench::guarded_main(
      argc, argv, [&] { return run_bench(argc, argv); });
}
