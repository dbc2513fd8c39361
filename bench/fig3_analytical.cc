// Figure 3: system reliability vs. cost factor for traditional (TR),
// progressive (PR), and iterative (IR) redundancy at node reliability
// r = 0.7, from the closed forms (Equations (1)–(6)).
//
// The paper's claim: for any given cost factor, IR > PR > TR in reliability;
// equivalently, at matched reliability IR is cheapest. This binary prints
// the three series and the §3 worked examples (k = 19, d = 4).
#include <iostream>

#include "common/flags.h"
#include "common/table.h"
#include "harness.h"
#include "redundancy/analysis.h"

namespace {

namespace analysis = smartred::redundancy::analysis;

void print_worked_examples(double r) {
  std::cout << "\nPaper §3 worked examples (r = " << r << "):\n";
  const double r_tr = analysis::traditional_reliability(19, r);
  const double c_pr = analysis::progressive_cost(19, r);
  const double c_ir = analysis::iterative_cost(4, r);
  std::cout << "  R_TR(k=19)            = " << r_tr << "   (paper: 0.97)\n"
            << "  C_TR(k=19)            = 19\n"
            << "  C_PR(k=19)            = " << c_pr << "   (paper: 14.2)\n"
            << "  TR/PR cost ratio      = " << 19.0 / c_pr
            << "   (paper: 1.3)\n"
            << "  C_IR(d=4)             = " << c_ir << "   (paper: 9.4)\n"
            << "  PR/IR cost ratio      = " << c_pr / c_ir
            << "   (paper: 1.5)\n"
            << "  TR/IR cost ratio      = " << 19.0 / c_ir
            << "   (paper: 2.0)\n"
            << "  R_IR(d=4)             = " << analysis::iterative_reliability(4, r)
            << "   (paper: > 0.97, rounded)\n";
}

int run_bench(int argc, char** argv) {
  smartred::flags::Parser parser(
      "fig3_analytical",
      "Figure 3 — reliability vs. cost factor for TR/PR/IR (closed forms)");
  const auto r = parser.add_double("reliability", 0.7, "node reliability r");
  const auto k_max = parser.add_int("k-max", 19, "largest odd k to tabulate");
  const auto d_max = parser.add_int("d-max", 10, "largest margin d");
  const auto csv = parser.add_string("csv", "", "CSV output path (optional)");
  parser.parse(argc, argv);

  using smartred::table::Table;
  smartred::table::banner(std::cout, "Figure 3 — traditional redundancy");
  Table tr({"k", "cost_factor", "reliability"});
  for (int k = 1; k <= *k_max; k += 2) {
    tr.add_row({static_cast<long long>(k), analysis::traditional_cost(k),
                analysis::traditional_reliability(k, *r)});
  }
  smartred::bench::emit(tr, *csv, "tr");

  smartred::table::banner(std::cout, "Figure 3 — progressive redundancy");
  Table pr({"k", "cost_factor", "reliability"});
  for (int k = 1; k <= *k_max; k += 2) {
    pr.add_row({static_cast<long long>(k), analysis::progressive_cost(k, *r),
                analysis::progressive_reliability(k, *r)});
  }
  smartred::bench::emit(pr, *csv, "pr");

  smartred::table::banner(std::cout, "Figure 3 — iterative redundancy");
  Table ir({"d", "cost_factor", "reliability"});
  for (int d = 1; d <= *d_max; ++d) {
    ir.add_row({static_cast<long long>(d), analysis::iterative_cost(d, *r),
                analysis::iterative_reliability(d, *r)});
  }
  smartred::bench::emit(ir, *csv, "ir");

  print_worked_examples(*r);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return smartred::bench::guarded_main(
      argc, argv, [&] { return run_bench(argc, argv); });
}
