// Figure 6: average task response time vs. cost factor for the three
// techniques, measured on the DES DCA with the paper's XDEVS workload
// model (job durations U[0.5, 1.5], waves sequential, jobs parallel).
//
// The paper's finding (§5.2): traditional redundancy responds fastest
// (single wave); progressive takes 1.4–2.5x longer, iterative 1.4–2.8x —
// the price of dispatching in waves. The analytic overlay comes from the
// wave-process expectations in redundancy/analysis.h. Each data point
// merges --reps replications across --threads workers.
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
      "fig6_response_time",
      "Figure 6 — average task response time vs. cost factor (DES runs + "
      "analytic overlay)");
  const auto r = parser.add_double("reliability", 0.7, "node reliability r");
  const auto tasks = parser.add_int("tasks", 20'000,
                                    "tasks per data point, across reps");
  const auto nodes = parser.add_int(
      "nodes", 100'000,
      "pool size; large default so queueing does not distort response time");
  smartred::bench::Sweep sweep(parser, argc, argv);

  const auto n_tasks = static_cast<std::uint64_t>(*tasks);
  smartred::dca::DcaConfig base;
  base.nodes = static_cast<std::size_t>(*nodes);

  smartred::table::banner(std::cout,
                          "Figure 6 — response time vs. cost factor, r = " +
                              std::to_string(*r));
  smartred::table::Table out({"technique", "param", "cost", "avg_response",
                              "response_analytic", "p99_response",
                              "max_response", "avg_waves"});

  auto emit_row = [&](const std::string& name, long long parameter,
                      const smartred::dca::RunMetrics& metrics,
                      double analytic) {
    out.add_row({name, parameter, metrics.cost_factor(),
                 metrics.response_time.mean(), analytic,
                 metrics.response_time_hist.quantile(0.99),
                 metrics.response_time.max(),
                 metrics.waves_per_task.mean()});
  };

  auto run_spec = [&](const std::string& spec) {
    return sweep.byzantine_dca(
        spec, *smartred::redundancy::make_strategy(spec), *r, n_tasks, base);
  };
  for (int k = 1; k <= 25; k += 4) {
    const auto metrics = run_spec("traditional:k=" + std::to_string(k));
    emit_row("TR", k, metrics, analysis::expected_response_traditional(k));
  }
  for (int k = 1; k <= 25; k += 4) {
    const auto metrics = run_spec("progressive:k=" + std::to_string(k));
    emit_row("PR", k, metrics, analysis::expected_response_progressive(k, *r));
  }
  for (int d = 1; d <= 12; d += 2) {
    const auto metrics = run_spec("iterative:d=" + std::to_string(d));
    emit_row("IR", d, metrics, analysis::expected_response_iterative(d, *r));
  }

  smartred::bench::emit(out, sweep.csv(), "fig6");

  // The paper's summary ratios at matched reliability.
  const int k = 19;
  const int d = analysis::margin_for_confidence(
      *r, analysis::traditional_reliability(k, *r));
  const double tr_resp = analysis::expected_response_traditional(k);
  std::cout << "\nAt matched reliability (k = " << k << ", d = " << d
            << "): PR/TR response = "
            << analysis::expected_response_progressive(k, *r) / tr_resp
            << ", IR/TR response = "
            << analysis::expected_response_iterative(d, *r) / tr_resp
            << "  (paper: PR 1.4-2.5x, IR 1.4-2.8x)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return smartred::bench::guarded_main(
      argc, argv, [&] { return run_bench(argc, argv); });
}
