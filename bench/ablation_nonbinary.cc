// Ablation A5 (paper §5.3, relaxing assumption 4): non-binary results.
// The binary model — every failure reports the SAME wrong value — is the
// worst case. When wrong answers scatter across many values, plurality
// voting separates truth from noise far more easily, so the binary-model
// formulas are upper bounds on cost and failure probability. Each data
// point merges --reps replications across --threads workers.
#include <iostream>

#include "common/flags.h"
#include "common/table.h"
#include "harness.h"
#include "redundancy/analysis.h"
#include "redundancy/registry.h"

namespace {

int run_bench(int argc, char** argv) {
  smartred::flags::Parser parser(
      "ablation_nonbinary",
      "A5 — binary collusion is the worst case: reliability and cost vs. "
      "wrong-answer spread (relaxed assumption 4, §5.3)");
  const auto d = parser.add_int("d", 4, "iterative margin");
  const auto r = parser.add_double("reliability", 0.6,
                                   "per-node reliability (low on purpose)");
  const auto tasks = parser.add_int("tasks", 30'000, "tasks per data point");
  smartred::bench::Sweep sweep(parser, argc, argv, {.seed = 6});

  const int dd = static_cast<int>(*d);
  smartred::table::banner(
      std::cout, "A5 — wrong-answer spread sweep (spread 1 = full collusion)");
  smartred::table::Table out(
      {"spread", "cost", "reliability", "binary_bound_cost",
       "binary_bound_rel"});
  const double bound_cost =
      smartred::redundancy::analysis::iterative_cost(dd, *r);
  const double bound_rel =
      smartred::redundancy::analysis::iterative_reliability(dd, *r);
  const std::string spec = "iterative:d=" + std::to_string(dd);
  const auto factory = smartred::redundancy::make_strategy(spec);
  const double reliability = *r;

  for (int spread : {1, 2, 4, 16, 256}) {
    smartred::dca::DcaConfig base;
    base.nodes = 2'000;
    const auto metrics = sweep.dca_point(
        spec + " spread=" + std::to_string(spread), *factory,
        static_cast<std::uint64_t>(*tasks), base,
        [spread, reliability](std::uint64_t rep_seed) {
          return smartred::fault::ScatteredWrong(
              smartred::fault::ReliabilityAssigner(
                  smartred::fault::ConstantReliability{reliability},
                  smartred::rng::Stream(smartred::rng::derive_seed(rep_seed,
                                                                   1))),
              spread);
        });
    out.add_row({static_cast<long long>(spread), metrics.cost_factor(),
                 metrics.reliability(), bound_cost, bound_rel});
  }
  smartred::bench::emit(out, sweep.csv(), "nonbinary");
  std::cout
      << "\nReading: the spread-1 row reproduces the binary bound exactly; "
         "every larger spread beats it on both axes — the paper's \"binary "
         "is the worst case\" claim, and why its analysis gives upper "
         "bounds for non-binary systems.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return smartred::bench::guarded_main(
      argc, argv, [&] { return run_bench(argc, argv); });
}
