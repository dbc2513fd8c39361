#include "redundancy/traditional.h"

namespace smartred::redundancy {

TraditionalRedundancy::TraditionalRedundancy(int k) : k_(k) {
  SMARTRED_EXPECT(k >= 1 && k % 2 == 1,
                  "traditional redundancy needs an odd k >= 1");
}

Decision TraditionalRedundancy::decide(std::span<const Vote> votes) {
  const VoteTally tally{votes};
  if (tally.total() < k_) {
    // First call dispatches the full wave of k; later shortfalls only occur
    // when a substrate re-consults after job loss (timeout), in which case
    // the missing jobs are re-dispatched.
    return Decision::dispatch(k_ - tally.total());
  }
  // With odd k and binary results the leader always holds a strict majority;
  // with non-binary results (paper §5.3) this generalizes to plurality.
  return Decision::accept(tally.leader(), Decision::Reason::kMajority);
}

std::string TraditionalRedundancy::name() const {
  return "traditional(k=" + std::to_string(k_) + ")";
}

}  // namespace smartred::redundancy
