#include "redundancy/credibility.h"

#include <cmath>
#include <sstream>
#include <vector>

namespace smartred::redundancy {

ReputationBook::ReputationBook(double assumed_fault_fraction)
    : fault_fraction_(assumed_fault_fraction) {
  SMARTRED_EXPECT(assumed_fault_fraction > 0.0 && assumed_fault_fraction < 1.0,
                  "assumed fault fraction must be in (0, 1)");
}

void ReputationBook::record_spot_check(NodeId node, bool passed) {
  Record& record = records_[node];
  if (passed) {
    ++record.passed;
  } else {
    record.blacklisted = true;
  }
}

bool ReputationBook::blacklisted(NodeId node) const {
  const auto found = records_.find(node);
  return found != records_.end() && found->second.blacklisted;
}

double ReputationBook::credibility(NodeId node) const {
  const auto found = records_.find(node);
  const int passed = found == records_.end() ? 0 : found->second.passed;
  // Sarmenta's credibility metric (simplified): surviving spot-checks makes
  // it ever less likely the node is one of the assumed f-fraction saboteurs.
  return 1.0 - fault_fraction_ / (static_cast<double>(passed) + 1.0);
}

void ReputationBook::forget(NodeId node) { records_.erase(node); }

std::size_t ReputationBook::blacklisted_count() const {
  std::size_t count = 0;
  for (const auto& [node, record] : records_) {
    if (record.blacklisted) ++count;
  }
  return count;
}

CredibilityStrategy::CredibilityStrategy(
    std::shared_ptr<const ReputationBook> book, double threshold)
    : book_(std::move(book)), threshold_(threshold) {
  SMARTRED_EXPECT(book_ != nullptr, "a reputation book is required");
  SMARTRED_EXPECT(threshold >= 0.5 && threshold < 1.0,
                  "threshold must be in [0.5, 1)");
}

double CredibilityStrategy::posterior(std::span<const Vote> votes,
                                      ResultValue value) const {
  SMARTRED_EXPECT(!votes.empty(), "posterior needs at least one vote");
  // Binary collusion worst case: a vote either endorses `value` or endorses
  // the (single) rival answer. Log-space product of per-vote likelihoods.
  double log_for = 0.0;
  double log_against = 0.0;
  for (const Vote& vote : votes) {
    if (book_->blacklisted(vote.node)) continue;  // voided vote
    const double cr = book_->credibility(vote.node);
    if (vote.value == value) {
      log_for += std::log(cr);
      log_against += std::log1p(-cr);
    } else {
      log_for += std::log1p(-cr);
      log_against += std::log(cr);
    }
  }
  return 1.0 / (1.0 + std::exp(log_against - log_for));
}

Decision CredibilityStrategy::decide(std::span<const Vote> votes) {
  // Count only votes from nodes that are still in good standing.
  VoteTally tally;
  for (const Vote& vote : votes) {
    if (!book_->blacklisted(vote.node)) tally.add(vote.value);
  }
  if (tally.total() == 0) return Decision::dispatch(1);
  const ResultValue leader = tally.leader();
  if (posterior(votes, leader) >= threshold_) {
    return Decision::accept(leader, Decision::Reason::kConfidenceReached);
  }
  // Unlike the margin rule, required future credibility is not predictable
  // (it depends on which nodes answer next), so grow one job at a time.
  return Decision::dispatch(1);
}

std::string CredibilityStrategy::name() const {
  std::ostringstream out;
  out << "credibility(threshold=" << threshold_ << ")";
  return out.str();
}

}  // namespace smartred::redundancy
