#include "fault/failure_model.h"

#include "common/expect.h"

namespace smartred::fault {
namespace {

/// The colluding wrong answer for a task: one fixed value distinct from the
/// correct one, shared by all colluders (the paper's worst case).
redundancy::ResultValue colluding_wrong(redundancy::ResultValue correct) {
  // Coded-piece values span the full 32-bit range; wrap instead of
  // overflowing signed arithmetic.
  return static_cast<redundancy::ResultValue>(
      static_cast<std::uint32_t>(correct) + 1U);
}

}  // namespace

ByzantineCollusion::ByzantineCollusion(ReliabilityAssigner assigner)
    : assigner_(std::move(assigner)) {}

redundancy::ResultValue ByzantineCollusion::report(
    redundancy::NodeId node, std::uint64_t /*task*/,
    redundancy::ResultValue correct, rng::Stream& rng) {
  if (rng.bernoulli(assigner_.reliability(node))) return correct;
  return colluding_wrong(correct);
}

ScatteredWrong::ScatteredWrong(ReliabilityAssigner assigner, int spread)
    : assigner_(std::move(assigner)), spread_(spread) {
  SMARTRED_EXPECT(spread >= 1, "wrong-answer spread must be >= 1");
}

redundancy::ResultValue ScatteredWrong::report(redundancy::NodeId node,
                                               std::uint64_t /*task*/,
                                               redundancy::ResultValue correct,
                                               rng::Stream& rng) {
  if (rng.bernoulli(assigner_.reliability(node))) return correct;
  const auto offset = static_cast<std::uint32_t>(
      rng.uniform_int(1, static_cast<std::uint64_t>(spread_)));
  return static_cast<redundancy::ResultValue>(
      static_cast<std::uint32_t>(correct) + offset);
}

CorrelatedClusters::CorrelatedClusters(ReliabilityAssigner assigner,
                                       int clusters,
                                       double cluster_failure_prob,
                                       rng::Stream cluster_seed)
    : assigner_(std::move(assigner)),
      clusters_(clusters),
      cluster_failure_prob_(cluster_failure_prob),
      cluster_seed_(cluster_seed) {
  SMARTRED_EXPECT(clusters >= 1, "need at least one cluster");
  SMARTRED_EXPECT(cluster_failure_prob >= 0.0 && cluster_failure_prob <= 1.0,
                  "cluster failure probability must be in [0, 1]");
}

int CorrelatedClusters::cluster_of(redundancy::NodeId node) const {
  return static_cast<int>(node % static_cast<redundancy::NodeId>(clusters_));
}

double CorrelatedClusters::effective_reliability() const {
  return (1.0 - cluster_failure_prob_) * assigner_.mean();
}

redundancy::ResultValue CorrelatedClusters::report(
    redundancy::NodeId node, std::uint64_t task,
    redundancy::ResultValue correct, rng::Stream& rng) {
  // The shared cluster event is keyed by (task, cluster) so every member of
  // the cluster sees the same draw regardless of evaluation order.
  rng::Stream event_rng = cluster_seed_.fork(task).fork(
      static_cast<std::uint64_t>(cluster_of(node)));
  if (event_rng.bernoulli(cluster_failure_prob_)) {
    return colluding_wrong(correct);  // whole cluster fails, colluding
  }
  if (rng.bernoulli(assigner_.reliability(node))) return correct;
  return colluding_wrong(correct);
}

}  // namespace smartred::fault
