// Traditional k-vote redundancy (k-modular redundancy), paper §3.1.
//
// All k jobs are dispatched at once; when every job has reported, the
// majority value wins. Cost factor is exactly k (Equation (1)); reliability
// is Equation (2). This is the state of the practice in BOINC and Hadoop and
// the baseline both smarter techniques are measured against.
#pragma once

#include "redundancy/strategy.h"

namespace smartred::redundancy {

class TraditionalRedundancy final : public RedundancyStrategy {
 public:
  /// Pure function of the vote tally: one instance serves any task mix.
  static constexpr bool kStateless = true;

  /// Requires k odd and >= 1 (k = 1 means no redundancy).
  explicit TraditionalRedundancy(int k);

  Decision decide(std::span<const Vote> votes) override;

  [[nodiscard]] int k() const { return k_; }
  [[nodiscard]] std::string name() const;

 private:
  int k_;
};

using TraditionalFactory = PrototypeFactory<TraditionalRedundancy>;

}  // namespace smartred::redundancy
