#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/expect.h"

namespace smartred::stats {

void StreamingStats::add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void StreamingStats::merge(const StreamingStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(count_);
  const auto nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double StreamingStats::mean() const {
  SMARTRED_EXPECT(count_ > 0, "mean() of empty accumulator");
  return mean_;
}

double StreamingStats::variance() const {
  SMARTRED_EXPECT(count_ > 1, "variance() requires at least two samples");
  return m2_ / static_cast<double>(count_ - 1);
}

double StreamingStats::stddev() const { return std::sqrt(variance()); }

double StreamingStats::min() const {
  SMARTRED_EXPECT(count_ > 0, "min() of empty accumulator");
  return min_;
}

double StreamingStats::max() const {
  SMARTRED_EXPECT(count_ > 0, "max() of empty accumulator");
  return max_;
}

double StreamingStats::ci_halfwidth(double z) const {
  return z * stddev() / std::sqrt(static_cast<double>(count_));
}

StreamingStats::Raw StreamingStats::raw() const {
  return Raw{static_cast<std::uint64_t>(count_), mean_, m2_, min_, max_};
}

StreamingStats StreamingStats::from_raw(const Raw& raw) {
  StreamingStats stats;
  stats.count_ = static_cast<std::size_t>(raw.count);
  stats.mean_ = raw.mean;
  stats.m2_ = raw.m2;
  stats.min_ = raw.min;
  stats.max_ = raw.max;
  return stats;
}

P2Quantile::P2Quantile(double quantile) : quantile_(quantile) {
  SMARTRED_EXPECT(quantile > 0.0 && quantile < 1.0,
                  "tracked quantile must be strictly inside (0, 1)");
  const double p = quantile;
  desired_[0] = 1.0;
  desired_[1] = 1.0 + 2.0 * p;
  desired_[2] = 1.0 + 4.0 * p;
  desired_[3] = 3.0 + 2.0 * p;
  desired_[4] = 5.0;
  increments_[0] = 0.0;
  increments_[1] = p / 2.0;
  increments_[2] = p;
  increments_[3] = (1.0 + p) / 2.0;
  increments_[4] = 1.0;
  for (int i = 0; i < 5; ++i) positions_[i] = static_cast<double>(i + 1);
}

void P2Quantile::add(double x) {
  ++count_;
  if (count_ <= 5) {
    heights_[count_ - 1] = x;
    std::sort(heights_, heights_ + count_);
    return;
  }
  // Find the cell k such that heights_[k] <= x < heights_[k+1], extending
  // the extreme markers when x falls outside the observed range.
  int k;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= heights_[k + 1]) ++k;
  }
  for (int i = k + 1; i < 5; ++i) positions_[i] += 1.0;
  for (int i = 0; i < 5; ++i) desired_[i] += increments_[i];
  // Adjust the three interior markers toward their desired positions with
  // the piecewise-parabolic (P²) height update, falling back to linear
  // interpolation when the parabola would break marker monotonicity.
  for (int i = 1; i <= 3; ++i) {
    const double d = desired_[i] - positions_[i];
    const double below = positions_[i] - positions_[i - 1];
    const double above = positions_[i + 1] - positions_[i];
    if ((d >= 1.0 && above > 1.0) || (d <= -1.0 && below > 1.0)) {
      const double sign = d >= 1.0 ? 1.0 : -1.0;
      const double hp = heights_[i + 1];
      const double hm = heights_[i - 1];
      const double h = heights_[i];
      const double pp = positions_[i + 1];
      const double pm = positions_[i - 1];
      const double p = positions_[i];
      double candidate = h + sign / (pp - pm) *
                                 ((p - pm + sign) * (hp - h) / (pp - p) +
                                  (pp - p - sign) * (h - hm) / (p - pm));
      if (candidate <= hm || candidate >= hp) {
        const int j = i + static_cast<int>(sign);
        candidate = h + sign * (heights_[j] - h) / (positions_[j] - p);
      }
      heights_[i] = candidate;
      positions_[i] = p + sign;
    }
  }
}

double P2Quantile::estimate() const {
  SMARTRED_EXPECT(count_ > 0, "estimate() of an empty quantile tracker");
  if (count_ >= 5) return heights_[2];
  // Exact sample quantile (nearest-rank with interpolation-free clamp)
  // over the sorted prefix.
  const auto n = static_cast<double>(count_);
  auto rank = static_cast<long long>(std::ceil(quantile_ * n)) - 1;
  rank = std::clamp<long long>(rank, 0, static_cast<long long>(count_) - 1);
  return heights_[rank];
}

Interval wilson_interval(std::size_t successes, std::size_t trials, double z) {
  SMARTRED_EXPECT(trials > 0, "wilson_interval() requires trials > 0");
  SMARTRED_EXPECT(successes <= trials, "successes cannot exceed trials");
  const auto n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  return {std::max(0.0, center - half), std::min(1.0, center + half)};
}

}  // namespace smartred::stats
