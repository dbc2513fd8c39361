// The naïve ("complex") iterative-redundancy algorithm, paper §3.3.
//
// This is the form of the algorithm *before* the simplifying insight of
// Theorems 1 and 2: it takes the node reliability r and the desired
// confidence threshold R as inputs, computes the Bayesian confidence
// q(r, a, b) in the current majority, and — when below threshold — searches
// for the minimum number of additional unanimous results d(r, R, b) that
// would restore confidence R.
//
// It exists in this library for two reasons:
//  1. It documents the derivation of the contribution.
//  2. The property test suite proves, decision by decision, that it deploys
//     exactly the same number of jobs as the simple margin-d algorithm
//     (the paper's claim: "this simplified algorithm deploys the same number
//     of redundant jobs in every situation").
//
// Production systems should use IterativeRedundancy instead, which needs
// neither r nor any probability computation.
#pragma once

#include "redundancy/strategy.h"

namespace smartred::redundancy {

class IterativeNaive final : public RedundancyStrategy {
 public:
  /// Pure function of the vote tally: one instance serves any task mix.
  static constexpr bool kStateless = true;

  /// Requires r in (0.5, 1) — the Bayesian update is only meaningful when a
  /// node is right more often than wrong — and R in [0.5, 1).
  IterativeNaive(double reliability, double confidence_threshold);

  Decision decide(std::span<const Vote> votes) override;

  /// The confidence q(r, a, b) that the majority of an (a, b) split is
  /// correct (paper §3.3): r^a (1−r)^b / (r^a (1−r)^b + (1−r)^a r^b).
  [[nodiscard]] double confidence(int majority, int minority) const;

  /// d(r, R, b): the minimum majority count a such that
  /// q(r, a, b) >= R, found by testing consecutive values of a (one of the
  /// two methods the paper names). Requires b >= 0.
  [[nodiscard]] int required_majority(int minority) const;

  [[nodiscard]] std::string name() const;

 private:
  double r_;
  double threshold_;
};

using IterativeNaiveFactory = PrototypeFactory<IterativeNaive>;

}  // namespace smartred::redundancy
