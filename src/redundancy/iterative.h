// Iterative redundancy — the paper's contribution (§3.3, Figure 4).
//
// The *simple algorithm*: keep dispatching jobs until the majority result
// leads the minority by a fixed margin d. By Theorems 1 and 2 the confidence
// q(r, a, b) in a vote split depends only on the margin a − b, so this
// margin rule achieves exactly the reliability R = r^d / (r^d + (1−r)^d)
// (Equation (6)) at expected cost given by Equation (5) — the minimum number
// of jobs for that reliability — without the system ever knowing r.
//
//   COMPUTE(task, d):
//     a ← 0; b ← 0
//     while a − b < d:
//       deploy d − (a − b) jobs on independent, randomly chosen nodes
//       a ← a + matching results;  b ← b + disagreeing results
//       if a < b: swap(a, b)
//     return the a result
//
// With non-binary results the margin generalizes to leader-minus-runner-up,
// which the paper notes is only more favorable (§5.3).
#pragma once

#include "redundancy/strategy.h"

namespace smartred::redundancy {

class IterativeRedundancy final : public RedundancyStrategy {
 public:
  /// Pure function of the vote tally: one instance serves any task mix.
  static constexpr bool kStateless = true;

  /// Requires margin d >= 1. (d = 1 means: accept the first result whenever
  /// one value leads, i.e. no redundancy until a conflict appears.)
  explicit IterativeRedundancy(int d);

  Decision decide(std::span<const Vote> votes) override;

  [[nodiscard]] int d() const { return d_; }
  [[nodiscard]] std::string name() const;

 private:
  int d_;
};

using IterativeFactory = PrototypeFactory<IterativeRedundancy>;

}  // namespace smartred::redundancy
