// Weighted iterative redundancy — the paper's §5.3 "complex form of the
// iterative redundancy algorithm" for systems that DO know (or estimate)
// per-node reliabilities.
//
// When job failure probabilities differ per node and the scheduler knows
// them, the margin-only simplification no longer extracts all available
// information: a vote from a 0.95-reliable node should weigh more than one
// from a 0.55-reliable node. This strategy accumulates the exact Bayesian
// log-likelihood ratio
//
//   LLR(v) = Σ_{votes for v} ln(r_i / (1−r_i)) − Σ_{votes against} ...
//
// and accepts when the posterior clears the confidence threshold R; the
// wave size is the number of average-quality agreeing votes that would
// close the remaining gap (the weighted analogue of dispatching d − (a−b)).
//
// With a uniform pool this reduces exactly to the simple margin rule — a
// property the test suite checks — so it generalizes, never contradicts,
// the core technique.
#pragma once

#include <functional>

#include "redundancy/strategy.h"

namespace smartred::redundancy {

/// Looks up the (estimated) reliability of a node, in (0.5, 1).
using ReliabilityLookup = std::function<double(NodeId)>;

class WeightedIterative final : public RedundancyStrategy {
 public:
  /// decide() reads only the votes and the immutable lookup, so one
  /// instance serves any task mix.
  static constexpr bool kStateless = true;

  /// `lookup` supplies per-node reliabilities; `typical_reliability` is the
  /// pool average used to size waves (any value in (0.5, 1) is safe — it
  /// affects only how many jobs are requested per wave, not correctness);
  /// `threshold` is the target confidence R in [0.5, 1).
  WeightedIterative(ReliabilityLookup lookup, double typical_reliability,
                    double threshold);

  Decision decide(std::span<const Vote> votes) override;

  /// The posterior probability that `value` is correct given the votes
  /// (binary collusion worst case).
  [[nodiscard]] double posterior(std::span<const Vote> votes,
                                 ResultValue value) const;

  [[nodiscard]] std::string name() const;

 private:
  /// Log-likelihood ratio in favor of `value`.
  [[nodiscard]] double llr(std::span<const Vote> votes,
                           ResultValue value) const;

  ReliabilityLookup lookup_;
  double typical_reliability_;
  double threshold_;
};

using WeightedIterativeFactory = PrototypeFactory<WeightedIterative>;

}  // namespace smartred::redundancy
