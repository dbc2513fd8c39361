#include "fault/reliability.h"

#include "common/expect.h"

namespace smartred::fault {
namespace {

struct MeanVisitor {
  double operator()(const ConstantReliability& dist) const {
    return dist.value;
  }
  double operator()(const UniformReliability& dist) const {
    return (dist.lo + dist.hi) / 2.0;
  }
  double operator()(const TwoPointReliability& dist) const {
    return dist.good_fraction * dist.good +
           (1.0 - dist.good_fraction) * dist.bad;
  }
};

struct SampleVisitor {
  rng::Stream& rng;

  double operator()(const ConstantReliability& dist) const {
    return dist.value;
  }
  double operator()(const UniformReliability& dist) const {
    SMARTRED_EXPECT(dist.lo <= dist.hi, "uniform reliability needs lo <= hi");
    return rng.uniform(dist.lo, dist.hi);
  }
  double operator()(const TwoPointReliability& dist) const {
    return rng.bernoulli(dist.good_fraction) ? dist.good : dist.bad;
  }
};

}  // namespace

double mean_reliability(const ReliabilityDistribution& dist) {
  return std::visit(MeanVisitor{}, dist);
}

double sample_reliability(const ReliabilityDistribution& dist,
                          rng::Stream& rng) {
  return std::visit(SampleVisitor{rng}, dist);
}

ReliabilityAssigner::ReliabilityAssigner(ReliabilityDistribution dist,
                                         rng::Stream seed_stream)
    : dist_(dist), seed_stream_(seed_stream) {}

double ReliabilityAssigner::reliability(redundancy::NodeId node) const {
  rng::Stream node_rng = seed_stream_.fork(std::uint64_t{node});
  return sample_reliability(dist_, node_rng);
}

}  // namespace smartred::fault
