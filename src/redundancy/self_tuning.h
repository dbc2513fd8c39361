// Self-tuning iterative redundancy: specify a target reliability, not a
// margin.
//
// The paper offers two ways to parameterize iterative redundancy (§3.3):
// give the margin d directly, or give a confidence threshold R — the latter
// requires r. This strategy closes the loop: it estimates r online from
// vote agreement (ReliabilityEstimator) and re-derives the margin
// d = d(r̂, R) for every new task, so an operator can say "99% per task"
// and the system adapts as the pool's quality drifts — the "more adaptive"
// claim of the paper's abstract, made concrete.
//
// Until enough votes have been observed (or whenever the estimate falls
// below the usable range r > 0.5), the strategy falls back to a
// conservative initial margin.
#pragma once

#include <memory>

#include "redundancy/estimator.h"
#include "redundancy/strategy.h"

namespace smartred::redundancy {

struct SelfTuningConfig {
  /// Desired per-task reliability, in [0.5, 1).
  double target_reliability = 0.99;
  /// Margin used until the estimator warms up. >= 1.
  int initial_margin = 6;
  /// Votes the estimator must have seen before r̂ is trusted. >= 1.
  /// Deliberately large: in concurrent substrates the earliest-completing
  /// tasks are disproportionately unanimous (short), so a small sample is
  /// *biased*, not merely noisy, and no confidence interval fixes that —
  /// only letting the completion mix become representative does.
  int warmup_votes = 2'000;
  /// Upper bound on the derived margin (a safety valve against estimates
  /// barely above 0.5 demanding enormous margins). >= initial_margin.
  int max_margin = 64;
  /// Estimates at or below this are unusable (voting cannot reach any
  /// target when r <= 0.5); the initial margin is used instead.
  double min_usable_estimate = 0.55;
  /// Estimator forgetting factor, (0, 1]; < 1 tracks drifting pools.
  double forgetting = 1.0;
};

/// Per-task engine: a margin rule whose margin is re-derived from the
/// shared estimator at every decision — so a task created before the
/// estimator warmed up still benefits from what other tasks learned by the
/// time its waves return (substrates typically create all task strategies
/// up front). Two statistical safeguards, both load-bearing:
///
///  * Only the task's FIRST-WAVE votes feed the estimator. Agreement over
///    full margin-stopped tallies overestimates r by (2r−1)ρ^d/(1−ρ^d)
///    (optional stopping: agreement at the stop is exactly (n+d)/2n); the
///    fixed-size first wave reduces, though cannot eliminate, the
///    inflation — any agreement-with-accepted estimate inherits a bias of
///    order the per-task failure odds, which self-tuning's own margins keep
///    tiny (characterized in tests/sampling_bias_test.cc).
///  * A task's margin never decreases over its lifetime: estimator noise
///    must not let an in-flight task accept at a weaker margin than it was
///    created with.
class SelfTuningIterative final : public RedundancyStrategy {
 public:
  /// Per-task fields (first-wave size, margin floor): each task needs its
  /// own instance.
  static constexpr bool kStateless = false;

  /// Creates the estimator that every copy of this instance shares.
  explicit SelfTuningIterative(const SelfTuningConfig& config);

  Decision decide(std::span<const Vote> votes) override;

  /// Clears the per-task fields (first-wave size, margin floor, reported
  /// flag) to exactly their freshly-constructed values — the constructor
  /// reads nothing from the estimator, so a reset instance is
  /// indistinguishable from a make() one.
  void reset() override {
    first_wave_ = 0;
    margin_floor_ = 0;
    reported_ = false;
  }

  /// The margin a decision made right now would use; for an instance that
  /// has not decided yet, the margin the next task would use.
  [[nodiscard]] int margin() const;

  /// The shared estimator (e.g. to pre-seed it or read r̂).
  [[nodiscard]] ReliabilityEstimator& estimator() const {
    return *estimator_;
  }

  [[nodiscard]] std::string name() const;

 private:
  std::shared_ptr<ReliabilityEstimator> estimator_;
  SelfTuningConfig config_;
  int first_wave_ = 0;     ///< size of this task's first dispatch
  int margin_floor_ = 0;   ///< the margin never drops below this
  bool reported_ = false;
};

using SelfTuningFactory = PrototypeFactory<SelfTuningIterative>;

}  // namespace smartred::redundancy
