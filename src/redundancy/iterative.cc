#include "redundancy/iterative.h"

namespace smartred::redundancy {

IterativeRedundancy::IterativeRedundancy(int d) : d_(d) {
  SMARTRED_EXPECT(d >= 1, "iterative redundancy needs margin d >= 1");
}

Decision IterativeRedundancy::decide(std::span<const Vote> votes) {
  if (votes.empty()) return Decision::dispatch(d_);
  // fold() absorbs the whole wave in dense branch-free passes; standing()
  // extracts leader + runner-up in one scan.
  const VoteTally tally{votes};
  const VoteTally::Standing standing = tally.standing();
  const int margin = standing.margin();
  if (margin >= d_) {
    return Decision::accept(standing.leader,
                            Decision::Reason::kConfidenceReached);
  }
  return Decision::dispatch(d_ - margin);
}

std::string IterativeRedundancy::name() const {
  return "iterative(d=" + std::to_string(d_) + ")";
}

}  // namespace smartred::redundancy
