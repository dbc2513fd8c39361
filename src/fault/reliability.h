// Node-reliability distributions.
//
// The paper's core analysis assumes one average reliability r for the whole
// pool (assumption 1, §2.3); §5.3 relaxes this to heterogeneous per-node
// reliabilities. A ReliabilityDistribution describes the pool;
// a ReliabilityAssigner deterministically samples one value per node id (a
// pure function of its seed and the id), so churned-in nodes get stable
// reliabilities without any global ordering dependence.
#pragma once

#include <variant>

#include "common/rng.h"
#include "redundancy/types.h"

namespace smartred::fault {

/// Every node has the same reliability.
struct ConstantReliability {
  double value = 0.7;
};

/// Reliability uniform in [lo, hi].
struct UniformReliability {
  double lo = 0.5;
  double hi = 0.9;
};

/// A `good_fraction` of nodes have reliability `good`, the rest `bad`
/// (models a pool with a malicious/broken minority).
struct TwoPointReliability {
  double good_fraction = 0.8;
  double good = 0.95;
  double bad = 0.2;
};

using ReliabilityDistribution =
    std::variant<ConstantReliability, UniformReliability, TwoPointReliability>;

/// Mean reliability of the distribution (the r that enters the formulas).
[[nodiscard]] double mean_reliability(const ReliabilityDistribution& dist);

/// Draws one reliability from the distribution.
[[nodiscard]] double sample_reliability(const ReliabilityDistribution& dist,
                                        rng::Stream& rng);

/// Deterministic per-node reliability: the value for a node id is sampled
/// from the distribution with the seed stream forked by the node id, so it
/// does not depend on query order.
class ReliabilityAssigner {
 public:
  ReliabilityAssigner(ReliabilityDistribution dist, rng::Stream seed_stream);

  [[nodiscard]] double reliability(redundancy::NodeId node) const;

  /// The distribution mean (not the empirical mean of sampled nodes).
  [[nodiscard]] double mean() const { return mean_reliability(dist_); }

 private:
  ReliabilityDistribution dist_;
  rng::Stream seed_stream_;
};

}  // namespace smartred::fault
