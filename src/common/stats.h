// Streaming statistics and confidence intervals used by the simulation
// metrics and the benchmark harnesses.
#pragma once

#include <cstddef>
#include <cstdint>

namespace smartred::stats {

/// Numerically stable (Welford) accumulator for mean / variance / extrema.
/// Accepts observations one at a time; O(1) memory.
class StreamingStats {
 public:
  void add(double x);

  /// Merges another accumulator into this one (parallel-friendly).
  void merge(const StreamingStats& other);

  [[nodiscard]] std::size_t count() const { return count_; }
  /// Mean of the observations. Requires count() > 0.
  [[nodiscard]] double mean() const;
  /// Unbiased sample variance. Requires count() > 1.
  [[nodiscard]] double variance() const;
  /// Sample standard deviation. Requires count() > 1.
  [[nodiscard]] double stddev() const;
  /// Smallest observation. Requires count() > 0.
  [[nodiscard]] double min() const;
  /// Largest observation. Requires count() > 0.
  [[nodiscard]] double max() const;
  /// Sum of all observations (0 when empty).
  [[nodiscard]] double sum() const { return mean_ * static_cast<double>(count_); }

  /// Half-width of the normal-approximation confidence interval on the mean,
  /// i.e. z * stddev / sqrt(n). Requires count() > 1.
  [[nodiscard]] double ci_halfwidth(double z = 1.96) const;

  /// Raw Welford accumulator state, exposed for exact serialization
  /// (checkpoint/restart). The moments are implementation state — only
  /// meaningful for rebuilding a bit-identical accumulator via from_raw().
  struct Raw {
    std::uint64_t count = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  [[nodiscard]] Raw raw() const;
  /// The accumulator whose raw() equals `raw` — every future add()/merge()
  /// then proceeds bit-identically to the original instance's.
  [[nodiscard]] static StreamingStats from_raw(const Raw& raw);

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Streaming quantile estimator: the P² algorithm (Jain & Chlamtac 1985).
/// Tracks one quantile of a data stream in O(1) memory and O(1) time per
/// observation by maintaining five markers whose heights approximate the
/// quantile curve with piecewise-parabolic interpolation. Deterministic:
/// the estimate depends only on the observation sequence.
class P2Quantile {
 public:
  /// Requires quantile strictly inside (0, 1).
  explicit P2Quantile(double quantile);

  void add(double x);

  [[nodiscard]] std::size_t count() const { return count_; }
  /// Current estimate of the tracked quantile. Until five observations have
  /// arrived this is the exact sample quantile of what has been seen.
  /// Requires count() > 0.
  [[nodiscard]] double estimate() const;

 private:
  double quantile_;
  std::size_t count_ = 0;
  double heights_[5] = {};        ///< marker heights (sorted)
  double positions_[5] = {};      ///< actual marker positions (1-based)
  double desired_[5] = {};        ///< desired marker positions
  double increments_[5] = {};     ///< per-observation desired-position steps
};

/// A closed interval [lo, hi], as returned by the interval estimators.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  [[nodiscard]] bool contains(double x) const { return lo <= x && x <= hi; }
  [[nodiscard]] double width() const { return hi - lo; }
  [[nodiscard]] double midpoint() const { return (lo + hi) / 2.0; }
};

/// Wilson score interval for a binomial proportion with `successes` out of
/// `trials` at normal quantile `z` (default 95%). Well-behaved for
/// proportions near 0 or 1, unlike the Wald interval. Requires trials > 0.
[[nodiscard]] Interval wilson_interval(std::size_t successes,
                                       std::size_t trials, double z = 1.96);

}  // namespace smartred::stats
