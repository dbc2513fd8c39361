// Ablation A3 (paper §5.3, relaxing assumption 1): heterogeneous node
// reliabilities. Because jobs are assigned to nodes uniformly at random,
// only the *mean* reliability matters to first order; pools with the same
// mean but very different spreads produce nearly identical system
// reliability and cost. (Second-order effects from Jensen's inequality are
// visible but small — and favorable for reliability.)
#include <iostream>

#include "common/flags.h"
#include "common/table.h"
#include "harness.h"
#include "redundancy/analysis.h"
#include "redundancy/registry.h"
#include "redundancy/weighted.h"

namespace {

int run_bench(int argc, char** argv) {
  smartred::flags::Parser parser(
      "ablation_heterogeneous",
      "A3 — heterogeneous node reliabilities with equal mean (relaxed "
      "assumption 1, §5.3)");
  const auto d = parser.add_int("d", 4, "iterative margin");
  const auto tasks = parser.add_int("tasks", 50'000, "tasks per pool");
  smartred::bench::Sweep sweep(parser, argc, argv, {.seed = 3});

  const int dd = static_cast<int>(*d);
  const auto n_tasks = static_cast<std::uint64_t>(*tasks);

  smartred::table::banner(
      std::cout, "A3 — pools with mean r = 0.7 and increasing spread");
  smartred::table::Table out({"pool", "mean_r", "measured_r", "cost",
                              "reliability", "rel_eq6_at_mean"});
  const double predicted =
      smartred::redundancy::analysis::iterative_reliability(dd, 0.7);

  struct Pool {
    std::string name;
    smartred::fault::ReliabilityDistribution dist;
  };
  const Pool pools[] = {
      {"constant(0.7)", smartred::fault::ConstantReliability{0.7}},
      {"uniform(0.6,0.8)", smartred::fault::UniformReliability{0.6, 0.8}},
      {"uniform(0.5,0.9)", smartred::fault::UniformReliability{0.5, 0.9}},
      {"uniform(0.41,0.99)",
       smartred::fault::UniformReliability{0.41, 0.99}},
      {"twopoint(90%@0.75,10%@0.25)",
       smartred::fault::TwoPointReliability{0.9, 0.75, 0.25}},
  };

  const std::string spec = "iterative:d=" + std::to_string(dd);
  const auto factory = smartred::redundancy::make_strategy(spec);
  smartred::dca::DcaConfig pool_base;
  pool_base.nodes = 2'000;
  for (const Pool& pool : pools) {
    const auto metrics = sweep.dca_point(
        spec + " " + pool.name, *factory, n_tasks, pool_base,
        [&pool](std::uint64_t rep_seed) {
          return smartred::fault::ByzantineCollusion(
              smartred::fault::ReliabilityAssigner(
                  pool.dist, smartred::rng::Stream(
                                 smartred::rng::derive_seed(rep_seed, 1))));
        });
    out.add_row({pool.name, smartred::fault::mean_reliability(pool.dist),
                 metrics.empirical_node_reliability(), metrics.cost_factor(),
                 metrics.reliability(), predicted});
  }
  smartred::bench::emit(out, sweep.csv(), "heterogeneous");
  std::cout << "\nReading: random assignment makes the pool look like its "
               "mean (paper assumption 1 and its §5.3 relaxation); iterative "
               "redundancy needs no change.\n";

  // Second question (§5.3's complex form): if per-node reliabilities ARE
  // known, how much does weighting votes by them save over the margin rule?
  smartred::table::banner(
      std::cout,
      "A3b — margin rule vs. weighted complex form on a two-point pool "
      "(known per-node reliabilities, target R = 0.99)");
  const double target = 0.99;
  const double good_r = 0.95;
  const double bad_r = 0.55;
  const double mean_r = (good_r + bad_r) / 2.0;
  const smartred::redundancy::VoteSource source =
      [good_r, bad_r](std::uint64_t /*task*/, int job,
                      smartred::rng::Stream& rng) {
        const auto node = static_cast<smartred::redundancy::NodeId>(job);
        const double r = node % 2 == 0 ? good_r : bad_r;
        return smartred::redundancy::Vote{
            node, rng.bernoulli(r) ? smartred::redundancy::kCorrectValue
                                   : smartred::redundancy::kWrongValue};
      };
  smartred::table::Table duel({"strategy", "reliability", "cost"});
  const std::string margin_spec =
      "iterative:d=" +
      std::to_string(smartred::redundancy::analysis::margin_for_confidence(
          mean_r, target));
  const auto margin_rule = smartred::redundancy::make_strategy(margin_spec);
  const auto plain =
      sweep.custom_mc(margin_spec + " [mean r]", *margin_rule, source,
                      smartred::redundancy::kCorrectValue, n_tasks);
  duel.add_row({margin_rule->name() + " [mean r]", plain.reliability(),
                plain.cost_factor()});

  // The per-node lookup is a code-level lambda, so the weighted complex
  // form stays outside the string-keyed registry on purpose.
  const smartred::redundancy::WeightedIterativeFactory weighted(
      [good_r, bad_r](smartred::redundancy::NodeId node) {
        return node % 2 == 0 ? good_r : bad_r;
      },
      mean_r, target);
  const auto smart = sweep.custom_mc(weighted.name(), weighted, source,
                                     smartred::redundancy::kCorrectValue,
                                     n_tasks);
  duel.add_row({weighted.name(), smart.reliability(), smart.cost_factor()});
  smartred::bench::emit(duel, sweep.csv(), "weighted");

  // Third question (this repo's extension): when failures correlate in
  // clusters and reliabilities spread two-point, does smarter task-to-
  // worker assignment help? cartel-averse:groups=G with G equal to the
  // cluster count never lets a wave collapse into one failure domain;
  // stratified routes late (tie-breaking) waves to the proven cohort.
  smartred::table::banner(
      std::cout,
      "A3c — assignment policy vs. correlated clusters on a two-point "
      "pool");
  smartred::table::Table assign(
      {"policy", "reliability", "wrong_accepts", "cost", "avg_response",
       "p99_response"});
  const std::uint64_t assign_tasks = std::max<std::uint64_t>(n_tasks / 10, 1);
  for (const std::string policy_spec :
       {"uniform", "least-outstanding", "stratified:tiers=4,late=2",
        "cartel-averse:groups=8"}) {
    smartred::dca::DcaConfig base;
    base.nodes = 500;
    base.queue_policy = smartred::dca::QueuePolicy::kStartedTasksFirst;
    base.assignment_spec = policy_spec;
    const auto metrics = sweep.dca_point(
        "assign " + policy_spec, *factory, assign_tasks, base,
        [](std::uint64_t rep_seed) {
          return smartred::fault::CorrelatedClusters(
              smartred::fault::ReliabilityAssigner(
                  smartred::fault::TwoPointReliability{0.9, 0.85, 0.35},
                  smartred::rng::Stream(
                      smartred::rng::derive_seed(rep_seed, 1))),
              /*clusters=*/8, /*cluster_failure_prob=*/0.1,
              smartred::rng::Stream(smartred::rng::derive_seed(rep_seed, 2)));
        });
    assign.add_row(
        {policy_spec, metrics.reliability(),
         static_cast<long long>(metrics.tasks_total - metrics.tasks_correct),
         metrics.cost_factor(), metrics.response_time.mean(),
         metrics.response_time_hist.quantile(0.99)});
  }
  smartred::bench::emit(assign, sweep.csv(), "assignment");
  std::cout << "\nReading: the margin rule already meets the target without "
               "knowing anything; per-node knowledge (when it exists) buys a "
               "further cost reduction via the §5.3 complex form.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return smartred::bench::guarded_main(
      argc, argv, [&] { return run_bench(argc, argv); });
}
