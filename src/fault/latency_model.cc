#include "fault/latency_model.h"

#include <cmath>

#include "common/expect.h"

namespace smartred::fault {

UniformLatency::UniformLatency(double lo, double hi) : lo_(lo), hi_(hi) {
  SMARTRED_EXPECT(lo > 0.0 && lo <= hi,
                  "uniform latency bounds must satisfy 0 < lo <= hi");
}

double UniformLatency::sample(redundancy::NodeId /*node*/,
                              std::uint64_t /*task*/, rng::Stream& rng) {
  return rng.uniform(lo_, hi_);
}

LognormalLatency::LognormalLatency(double mean, double sigma)
    : mu_(std::log(mean) - sigma * sigma / 2.0), sigma_(sigma) {
  SMARTRED_EXPECT(mean > 0.0, "lognormal latency mean must be positive");
  SMARTRED_EXPECT(sigma >= 0.0, "lognormal sigma must be non-negative");
}

double LognormalLatency::sample(redundancy::NodeId /*node*/,
                                std::uint64_t /*task*/, rng::Stream& rng) {
  return rng.lognormal(mu_, sigma_);
}

ParetoLatency::ParetoLatency(double scale, double alpha)
    : scale_(scale), alpha_(alpha) {
  SMARTRED_EXPECT(scale > 0.0, "pareto scale must be positive");
  SMARTRED_EXPECT(alpha > 0.0, "pareto shape must be positive");
}

double ParetoLatency::sample(redundancy::NodeId /*node*/,
                             std::uint64_t /*task*/, rng::Stream& rng) {
  // Inverse-CDF: x_m * (1 - u)^(-1/alpha), u uniform in [0, 1).
  const double u = rng.uniform01();
  return scale_ * std::pow(1.0 - u, -1.0 / alpha_);
}

SlowNodeLatency::SlowNodeLatency(LatencyModel& base, double slow_fraction,
                                 double slowdown, rng::Stream seed_stream)
    : base_(base),
      slow_fraction_(slow_fraction),
      slowdown_(slowdown),
      seed_stream_(seed_stream) {
  SMARTRED_EXPECT(slow_fraction >= 0.0 && slow_fraction <= 1.0,
                  "slow fraction must be in [0, 1]");
  SMARTRED_EXPECT(slowdown >= 1.0, "slowdown factor must be >= 1");
}

bool SlowNodeLatency::is_slow(redundancy::NodeId node) const {
  rng::Stream node_rng = seed_stream_.fork(node);
  return node_rng.bernoulli(slow_fraction_);
}

double SlowNodeLatency::sample(redundancy::NodeId node, std::uint64_t task,
                               rng::Stream& rng) {
  const double base = base_.sample(node, task, rng);
  return is_slow(node) ? base * slowdown_ : base;
}

TransientStallLatency::TransientStallLatency(LatencyModel& base,
                                             double stall_prob,
                                             double stall_mean)
    : base_(base), stall_prob_(stall_prob), stall_mean_(stall_mean) {
  SMARTRED_EXPECT(stall_prob >= 0.0 && stall_prob <= 1.0,
                  "stall probability must be in [0, 1]");
  SMARTRED_EXPECT(stall_mean > 0.0, "stall mean must be positive");
}

double TransientStallLatency::sample(redundancy::NodeId node,
                                     std::uint64_t task, rng::Stream& rng) {
  const double base = base_.sample(node, task, rng);
  if (!rng.bernoulli(stall_prob_)) return base;
  return base + rng.exponential(stall_mean_);
}

}  // namespace smartred::fault
