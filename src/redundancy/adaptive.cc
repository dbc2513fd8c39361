#include "redundancy/adaptive.h"

#include <sstream>

namespace smartred::redundancy {

TrustBook::TrustBook(int threshold) : threshold_(threshold) {
  SMARTRED_EXPECT(threshold >= 1, "trust threshold must be >= 1");
}

void TrustBook::record_validated(NodeId node, bool valid) {
  if (valid) {
    ++streaks_[node];
  } else {
    streaks_[node] = 0;
  }
}

bool TrustBook::trusted(NodeId node) const {
  return consecutive_valid(node) >= threshold_;
}

int TrustBook::consecutive_valid(NodeId node) const {
  const auto found = streaks_.find(node);
  return found == streaks_.end() ? 0 : found->second;
}

void TrustBook::forget(NodeId node) { streaks_.erase(node); }

AdaptiveReplication::AdaptiveReplication(std::shared_ptr<const TrustBook> book,
                                         int quorum)
    : book_(std::move(book)), quorum_(quorum) {
  SMARTRED_EXPECT(book_ != nullptr, "a trust book is required");
  SMARTRED_EXPECT(quorum >= 2, "replication quorum must be >= 2");
}

Decision AdaptiveReplication::decide(std::span<const Vote> votes) {
  if (votes.empty()) return Decision::dispatch(1);
  if (votes.size() == 1 && book_->trusted(votes.front().node)) {
    // The adaptive shortcut: trusted node, no replication at all.
    return Decision::accept(votes.front().value,
                            Decision::Reason::kTrustedNode);
  }
  const VoteTally tally{votes};
  if (tally.leader_count() >= quorum_) {
    return Decision::accept(tally.leader(), Decision::Reason::kQuorum);
  }
  // Fall back to plain quorum replication, topping up optimistically like
  // progressive redundancy does.
  return Decision::dispatch(quorum_ - tally.leader_count());
}

std::string AdaptiveReplication::name() const {
  std::ostringstream out;
  out << "adaptive(trust=" << book_->threshold() << ",quorum=" << quorum_
      << ")";
  return out.str();
}

}  // namespace smartred::redundancy
