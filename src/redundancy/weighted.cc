#include "redundancy/weighted.h"

#include <cmath>
#include <sstream>

namespace smartred::redundancy {
namespace {

// Same boundary slack as the margin rule and the naive algorithm (see
// analysis::margin_for_confidence): thresholds are met up to 1e-12.
constexpr double kThresholdSlack = 1e-12;

double logit(double p) { return std::log(p) - std::log1p(-p); }

}  // namespace

WeightedIterative::WeightedIterative(ReliabilityLookup lookup,
                                     double typical_reliability,
                                     double threshold)
    : lookup_(std::move(lookup)),
      typical_reliability_(typical_reliability),
      threshold_(threshold) {
  SMARTRED_EXPECT(lookup_ != nullptr, "a reliability lookup is required");
  SMARTRED_EXPECT(typical_reliability > 0.5 && typical_reliability < 1.0,
                  "typical reliability r must be in (0.5, 1)");
  SMARTRED_EXPECT(threshold >= 0.5 && threshold < 1.0,
                  "threshold must be in [0.5, 1)");
}

double WeightedIterative::llr(std::span<const Vote> votes,
                              ResultValue value) const {
  // SoA split of the fold: the lookup/logit pass (indirect call + two logs
  // per vote, irreducibly scalar) fills parallel stack arrays of weights
  // and values, so the accumulation pass is a dense branch-free
  // multiply-add the vectorizer can chew on instead of a per-vote
  // sign branch interleaved with calls.
  constexpr std::size_t kChunk = 128;
  double weights[kChunk];
  ResultValue values[kChunk];
  double total = 0.0;
  const std::size_t n = votes.size();
  for (std::size_t base = 0; base < n; base += kChunk) {
    const std::size_t chunk = std::min(kChunk, n - base);
    for (std::size_t j = 0; j < chunk; ++j) {
      const Vote& vote = votes[base + j];
      const double r = lookup_(vote.node);
      SMARTRED_EXPECT(r > 0.5 && r < 1.0,
                      "node reliability lookup must return values in (0.5, 1)");
      weights[j] = logit(r);
      values[j] = vote.value;
    }
    for (std::size_t j = 0; j < chunk; ++j) {
      total += values[j] == value ? weights[j] : -weights[j];
    }
  }
  return total;
}

double WeightedIterative::posterior(std::span<const Vote> votes,
                                    ResultValue value) const {
  return 1.0 / (1.0 + std::exp(-llr(votes, value)));
}

Decision WeightedIterative::decide(std::span<const Vote> votes) {
  const double per_vote_gain = logit(typical_reliability_);
  const double needed_llr = logit(threshold_);
  if (votes.empty()) {
    const int wave = std::max(
        1, static_cast<int>(std::ceil(needed_llr / per_vote_gain - 1e-9)));
    return Decision::dispatch(wave);
  }
  const VoteTally tally{votes};
  const ResultValue leader = tally.leader();
  const double current = llr(votes, leader);
  if (current >= needed_llr - kThresholdSlack) {
    return Decision::accept(leader, Decision::Reason::kConfidenceReached);
  }
  // Minimum number of typical-quality agreeing votes closing the gap —
  // exactly the weighted analogue of the margin rule's d − (a − b).
  const double deficit = needed_llr - current;
  const int wave = std::max(
      1, static_cast<int>(std::ceil(deficit / per_vote_gain - 1e-9)));
  return Decision::dispatch(wave);
}

std::string WeightedIterative::name() const {
  std::ostringstream out;
  out << "weighted-iterative(R=" << threshold_ << ")";
  return out.str();
}

}  // namespace smartred::redundancy
