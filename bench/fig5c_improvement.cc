// Figure 5(c): cost-factor improvement of progressive and iterative
// redundancy over traditional redundancy, as a function of node reliability
// r, at matched system reliability.
//
// Protocol (the paper's is implicit): for each r, match reliability to
// R_TR(k, r) at the reference k; progressive has identical reliability at
// the same k (Equation (4)), iterative uses the real-valued margin d* with
// R_IR(d*, r) = R_TR(k, r) and interpolated cost. A Monte-Carlo cross-check
// at selected r values validates the analytical curve.
//
// Paper's headline numbers: PR -> 2.0x as r -> 1 and ~1x near r = 0.5;
// IR >= 1.6x near r = 0.5 (we measure 1.5x), peak 2.8x at r ~ 0.86 (we
// measure 2.7x at r ~ 0.90), declining to ~2.4x as r -> 1 (we measure 2.3x).
#include <iostream>

#include "common/flags.h"
#include "common/table.h"
#include "harness.h"
#include "redundancy/analysis.h"
#include "redundancy/registry.h"

namespace {

namespace analysis = smartred::redundancy::analysis;

int run_bench(int argc, char** argv) {
  smartred::flags::Parser parser(
      "fig5c_improvement",
      "Figure 5(c) — cost improvement of PR and IR over TR vs. node "
      "reliability");
  const auto k = parser.add_int("k", 19, "reference traditional k");
  const auto cross_tasks = parser.add_int(
      "cross-tasks", 40'000, "tasks per Monte-Carlo cross-check point");
  smartred::bench::Sweep sweep(parser, argc, argv, {.policy = false});

  const int ref_k = static_cast<int>(*k);
  smartred::table::banner(
      std::cout,
      "Figure 5(c) — improvement over traditional redundancy (k = " +
          std::to_string(ref_k) + ")");
  smartred::table::Table out({"r", "PR_improvement", "IR_improvement"});
  for (double r = 0.55; r < 0.995; r += 0.025) {
    out.add_row({r, analysis::progressive_improvement(ref_k, r),
                 analysis::iterative_improvement(ref_k, r)});
  }
  for (double r : {0.995, 0.999}) {
    out.add_row({r, analysis::progressive_improvement(ref_k, r),
                 analysis::iterative_improvement(ref_k, r)});
  }
  smartred::bench::emit(out, sweep.csv(), "analytic");

  smartred::table::banner(std::cout,
                          "Monte-Carlo cross-check (integer parameters)");
  smartred::table::Table check(
      {"r", "PR_cost_meas", "PR_improvement_meas", "IR_d", "IR_cost_meas",
       "IR_improvement_analytic"});
  const auto n_tasks = static_cast<std::uint64_t>(*cross_tasks);
  for (double r : {0.6, 0.7, 0.86, 0.95}) {
    const std::string pr_spec = "progressive:k=" + std::to_string(ref_k);
    const auto pr = sweep.binary_mc(
        pr_spec + " r=" + std::to_string(r),
        *smartred::redundancy::make_strategy(pr_spec), r, n_tasks);
    // Smallest integer margin meeting the matched reliability.
    const int d = analysis::margin_for_confidence(
        r, analysis::traditional_reliability(ref_k, r));
    const std::string ir_spec = "iterative:d=" + std::to_string(d);
    const auto ir = sweep.binary_mc(
        ir_spec + " r=" + std::to_string(r),
        *smartred::redundancy::make_strategy(ir_spec), r, n_tasks);
    check.add_row({r, pr.cost_factor(),
                   static_cast<double>(ref_k) / pr.cost_factor(),
                   static_cast<long long>(d), ir.cost_factor(),
                   analysis::iterative_improvement(ref_k, r)});
  }
  smartred::bench::emit(check, sweep.csv(), "crosscheck");

  std::cout << "\nReading: PR climbs monotonically toward 2.0x; IR rises "
               "from ~1.5x, peaks ~2.7x in the high-0.8s/low-0.9s, and "
               "settles near 2.3x as r -> 1 (paper Figure 5(c)).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return smartred::bench::guarded_main(
      argc, argv, [&] { return run_bench(argc, argv); });
}
