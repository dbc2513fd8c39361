#include "redundancy/iterative_naive.h"

#include <cmath>
#include <sstream>

namespace smartred::redundancy {
namespace {

// Thresholds are met up to this slack. When the target R mathematically
// equals an achievable confidence (e.g. R = r with one vote), the two
// log-space evaluations of q can straddle R by an ulp; the slack keeps the
// integer search stable and consistent with analysis::margin_for_confidence,
// which applies the same slack.
constexpr double kThresholdSlack = 1e-12;

}  // namespace

IterativeNaive::IterativeNaive(double reliability,
                               double confidence_threshold)
    : r_(reliability), threshold_(confidence_threshold) {
  SMARTRED_EXPECT(reliability > 0.5 && reliability < 1.0,
                  "naive iterative redundancy needs r in (0.5, 1)");
  SMARTRED_EXPECT(confidence_threshold >= 0.5 && confidence_threshold < 1.0,
                  "confidence threshold must be in [0.5, 1)");
}

double IterativeNaive::confidence(int majority, int minority) const {
  SMARTRED_EXPECT(majority >= 0 && minority >= 0, "counts are non-negative");
  // q(r, a, b) collapses to 1 / (1 + rho^(a−b)) with rho = (1−r)/r — the
  // margin-only dependence of Theorem 1 — but we evaluate the *defining*
  // expression here so the equivalence test against the simple algorithm is
  // not circular. Computed in log space for stability at large counts.
  const double log_r = std::log(r_);
  const double log_w = std::log1p(-r_);
  const double log_right = static_cast<double>(majority) * log_r +
                           static_cast<double>(minority) * log_w;
  const double log_wrong = static_cast<double>(minority) * log_r +
                           static_cast<double>(majority) * log_w;
  // q = e^right / (e^right + e^wrong) = 1 / (1 + e^(wrong-right)).
  return 1.0 / (1.0 + std::exp(log_wrong - log_right));
}

int IterativeNaive::required_majority(int minority) const {
  SMARTRED_EXPECT(minority >= 0, "minority count is non-negative");
  // Test consecutive a values (paper §3.3). Termination: q(r, a, b) -> 1 as
  // a -> inf for r > 0.5, so some a always reaches the threshold.
  int a = minority;
  while (confidence(a, minority) < threshold_ - kThresholdSlack) ++a;
  return a;
}

Decision IterativeNaive::decide(std::span<const Vote> votes) {
  const VoteTally tally{votes};
  if (tally.total() == 0) {
    return Decision::dispatch(required_majority(0));
  }
  const int majority = tally.leader_count();
  // The binary worst case lumps every non-leader vote into one colluding
  // minority value; with non-binary results this is conservative (§5.3).
  const int minority = tally.minority_total();
  if (confidence(majority, minority) >= threshold_ - kThresholdSlack) {
    return Decision::accept(tally.leader(),
                            Decision::Reason::kConfidenceReached);
  }
  // Dispatch the minimum number of jobs that, if they all agreed with the
  // current majority, would reach the confidence threshold.
  return Decision::dispatch(required_majority(minority) - majority);
}

std::string IterativeNaive::name() const {
  std::ostringstream out;
  out << "iterative-naive(r=" << r_ << ",R=" << threshold_ << ")";
  return out.str();
}

}  // namespace smartred::redundancy
