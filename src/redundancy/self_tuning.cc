#include "redundancy/self_tuning.h"

#include <algorithm>
#include <sstream>

#include "redundancy/analysis.h"

namespace smartred::redundancy {
namespace {

/// The margin to use given the estimator's current state. Uses the Wilson
/// *lower* confidence bound of r̂, not the point estimate: while the
/// estimate is noisy the derived margin stays conservative (a briefly
/// optimistic r̂ must not let tasks accept at too-small margins), and the
/// bound converges to r̂ as evidence accumulates.
int derive_margin(const ReliabilityEstimator& estimator,
                  const SelfTuningConfig& config) {
  if (!estimator.has_estimate() ||
      estimator.effective_votes() <
          static_cast<double>(config.warmup_votes)) {
    return config.initial_margin;
  }
  const double r_bound = estimator.interval(/*z=*/3.0).lo;
  if (r_bound < config.min_usable_estimate) return config.initial_margin;
  // Cap away from 1.0, where the derived margin collapses to 1 on noise.
  const double r_capped = std::min(r_bound, 0.9999);
  const int margin = analysis::margin_for_confidence(
      r_capped, config.target_reliability);
  return std::clamp(margin, 1, config.max_margin);
}

}  // namespace

SelfTuningIterative::SelfTuningIterative(const SelfTuningConfig& config)
    : estimator_(std::make_shared<ReliabilityEstimator>(config.forgetting)),
      config_(config) {
  SMARTRED_EXPECT(config.target_reliability >= 0.5 &&
                      config.target_reliability < 1.0,
                  "target reliability must be in [0.5, 1)");
  SMARTRED_EXPECT(config.initial_margin >= 1, "initial margin must be >= 1");
  SMARTRED_EXPECT(config.warmup_votes >= 1, "warmup must be >= 1 vote");
  SMARTRED_EXPECT(config.max_margin >= config.initial_margin,
                  "max margin must admit the initial margin");
  SMARTRED_EXPECT(config.min_usable_estimate > 0.5 &&
                      config.min_usable_estimate < 1.0,
                  "usable-estimate floor must be in (0.5, 1)");
}

int SelfTuningIterative::margin() const {
  return std::max(margin_floor_, derive_margin(*estimator_, config_));
}

Decision SelfTuningIterative::decide(std::span<const Vote> votes) {
  // Re-derive at every decision: tasks whose strategies were created
  // before the estimator warmed up pick up the learned margin as soon as
  // their first wave returns (the §3.3 naive algorithm's "reevaluates the
  // situation", applied to the estimate itself). Ratcheted: once this task
  // has run at a margin, it never accepts at a weaker one.
  const int target_margin = margin();
  margin_floor_ = target_margin;
  const VoteTally tally{votes};
  if (tally.total() == 0) {
    first_wave_ = target_margin;
    return Decision::dispatch(target_margin);
  }
  const int current = tally.margin();
  if (current >= target_margin) {
    const ResultValue accepted = tally.leader();
    if (!reported_) {
      // Feed back exactly once (drivers may re-consult with the same final
      // votes), and only the first-wave votes: they are a fixed-size
      // sample, untainted by the stopping rule.
      const int sample = std::min(first_wave_ > 0 ? first_wave_ : 1,
                                  tally.total());
      int agreeing = 0;
      for (int i = 0; i < sample; ++i) {
        if (votes[static_cast<std::size_t>(i)].value == accepted) ++agreeing;
      }
      estimator_->observe_votes(agreeing, sample);
      reported_ = true;
    }
    return Decision::accept(accepted, Decision::Reason::kConfidenceReached);
  }
  return Decision::dispatch(target_margin - current);
}

std::string SelfTuningIterative::name() const {
  std::ostringstream out;
  out << "self-tuning(R=" << config_.target_reliability << ")";
  return out.str();
}

}  // namespace smartred::redundancy
