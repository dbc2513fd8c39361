#include "redundancy/progressive.h"

namespace smartred::redundancy {

ProgressiveRedundancy::ProgressiveRedundancy(int k) : k_(k) {
  SMARTRED_EXPECT(k >= 1 && k % 2 == 1,
                  "progressive redundancy needs an odd k >= 1");
}

Decision ProgressiveRedundancy::decide(std::span<const Vote> votes) {
  const VoteTally tally{votes};
  if (tally.total() == 0) return Decision::dispatch(quorum());
  if (tally.leader_count() >= quorum()) {
    return Decision::accept(tally.leader(), Decision::Reason::kQuorum);
  }
  // Optimistic top-up: assume every new job will agree with the leader and
  // dispatch only what would then complete the quorum.
  return Decision::dispatch(quorum() - tally.leader_count());
}

std::string ProgressiveRedundancy::name() const {
  return "progressive(k=" + std::to_string(k_) + ")";
}

}  // namespace smartred::redundancy
