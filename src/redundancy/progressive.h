// Progressive k-vote redundancy, paper §3.2.
//
// Derived from self-configuring optimistic programming (Bondavalli et al.):
// dispatch only the consensus quorum (k+1)/2 first; whenever the returned
// results fall short of a consensus, top up with exactly the number of jobs
// that could — if they all agreed with the current leader — complete it.
// Reliability equals traditional redundancy's (Equation (4)); expected cost
// is Equation (3), always <= k, reached in at most (k−1)/2 top-up waves
// under the binary threat model.
#pragma once

#include "redundancy/strategy.h"

namespace smartred::redundancy {

class ProgressiveRedundancy final : public RedundancyStrategy {
 public:
  /// Pure function of the vote tally: one instance serves any task mix.
  static constexpr bool kStateless = true;

  /// Requires k odd and >= 1.
  explicit ProgressiveRedundancy(int k);

  Decision decide(std::span<const Vote> votes) override;

  [[nodiscard]] int k() const { return k_; }
  /// The consensus quorum (k+1)/2.
  [[nodiscard]] int quorum() const { return (k_ + 1) / 2; }
  [[nodiscard]] std::string name() const;

 private:
  int k_;
};

using ProgressiveFactory = PrototypeFactory<ProgressiveRedundancy>;

}  // namespace smartred::redundancy
