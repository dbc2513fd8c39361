// Job-latency models: how long a job's base duration is.
//
// The paper's XDEVS setup (§4.1) draws job durations uniform in [0.5, 1.5]
// time units. Real volunteer pools are instead dominated by stragglers:
// heavy-tailed per-job latency (Behrouzi-Far & Soljanin, arXiv:1808.02838;
// Peng, Soljanin & Whiting, arXiv:2010.02147), persistently slow nodes, and
// transient stalls. A LatencyModel decides the *base* duration of one job
// attempt — before the workload's per-task work weight is applied — so the
// same redundancy strategies can be evaluated under any latency regime. The
// substrate never sees which model is active.
//
// Determinism: models draw from the rng stream the substrate supplies (one
// draw sequence per run); per-node traits (e.g. which nodes are slow) are
// drawn from a private seed stream forked by node id, so they are a pure
// function of (seed, node id) and do not depend on query order — the same
// scheme ReliabilityAssigner uses.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "redundancy/types.h"

namespace smartred::fault {

/// Decides the base duration of one job attempt. Implementations must be
/// deterministic given the supplied rng stream and their own seed.
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;

  /// Base duration (in simulated time units, before work-weight scaling) of
  /// one attempt of `task` on `node`. Must return a positive value.
  [[nodiscard]] virtual double sample(redundancy::NodeId node,
                                      std::uint64_t task,
                                      rng::Stream& rng) = 0;

 protected:
  LatencyModel() = default;
  LatencyModel(const LatencyModel&) = default;
  LatencyModel& operator=(const LatencyModel&) = default;
};

/// The paper's default: U[lo, hi). With lo = 0.5, hi = 1.5 this reproduces
/// the §4.1 XDEVS draw exactly (same rng consumption as the inlined draw
/// it replaces, so seeded runs are unchanged).
class UniformLatency final : public LatencyModel {
 public:
  /// Requires 0 < lo <= hi.
  UniformLatency(double lo, double hi);

  double sample(redundancy::NodeId node, std::uint64_t task,
                rng::Stream& rng) override;

 private:
  double lo_;
  double hi_;
};

/// Log-normal latency: exp(N(mu, sigma)) scaled so that the distribution
/// mean equals `mean` — the classic mildly-heavy tail observed in shared
/// clusters. sigma controls tail weight (sigma = 0 degenerates to the
/// constant `mean`).
class LognormalLatency final : public LatencyModel {
 public:
  /// Requires mean > 0 and sigma >= 0.
  LognormalLatency(double mean, double sigma);

  double sample(redundancy::NodeId node, std::uint64_t task,
                rng::Stream& rng) override;

 private:
  double mu_;
  double sigma_;
};

/// Pareto (power-law) latency with scale x_m and shape alpha: the
/// archetypal straggler tail. alpha <= 1 has infinite mean; the evaluation
/// uses alpha in (1, 3] where the mean exists but the tail still dominates
/// response time.
class ParetoLatency final : public LatencyModel {
 public:
  /// Requires scale > 0 and alpha > 0.
  ParetoLatency(double scale, double alpha);

  double sample(redundancy::NodeId node, std::uint64_t task,
                rng::Stream& rng) override;

 private:
  double scale_;
  double alpha_;
};

/// A fraction of the pool is persistently slow: every attempt on a slow
/// node takes `slowdown` times the base model's draw. Which nodes are slow
/// is decided per node id (a pure function of the seed and the id), so
/// churned-in nodes get stable designations. Models degraded hosts — thermal
/// throttling, background load, failing disks.
class SlowNodeLatency final : public LatencyModel {
 public:
  /// `base` must outlive this model. Requires slow_fraction in [0, 1] and
  /// slowdown >= 1.
  SlowNodeLatency(LatencyModel& base, double slow_fraction, double slowdown,
                  rng::Stream seed_stream);

  double sample(redundancy::NodeId node, std::uint64_t task,
                rng::Stream& rng) override;

  /// Whether `node` is designated slow.
  [[nodiscard]] bool is_slow(redundancy::NodeId node) const;

 private:
  LatencyModel& base_;
  double slow_fraction_;
  double slowdown_;
  rng::Stream seed_stream_;
};

/// Transient stalls: with probability `stall_prob` an attempt is delayed by
/// an additional Exp(stall_mean) pause on top of the base draw — paging,
/// GC, a user reclaiming their machine for a while. Stalls hit attempts
/// independently (any node can stall), unlike SlowNodeLatency's persistent
/// designation.
class TransientStallLatency final : public LatencyModel {
 public:
  /// `base` must outlive this model. Requires stall_prob in [0, 1] and
  /// stall_mean > 0.
  TransientStallLatency(LatencyModel& base, double stall_prob,
                        double stall_mean);

  double sample(redundancy::NodeId node, std::uint64_t task,
                rng::Stream& rng) override;

 private:
  LatencyModel& base_;
  double stall_prob_;
  double stall_mean_;
};

}  // namespace smartred::fault
