// Failure models: what a node actually reports for a job.
//
// The paper's threat model (§2.2) is Byzantine with worst-case collusion —
// every failing node reports the *same* wrong value, which reduces to binary
// results. §5.3 relaxes this to non-binary results (scattered or partially
// colluding wrong answers, where plurality voting helps) and to correlated
// failures. Each relaxation is one FailureModel implementation; the
// strategies never see which model is active.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "fault/reliability.h"
#include "redundancy/types.h"

namespace smartred::fault {

/// Decides the value a node reports for one job. Implementations own all
/// randomness relevant to failures; the `rng` argument is the per-job
/// stream supplied by the substrate.
class FailureModel {
 public:
  virtual ~FailureModel() = default;

  /// The value node `node` reports for task `task` whose true answer is
  /// `correct`.
  [[nodiscard]] virtual redundancy::ResultValue report(
      redundancy::NodeId node, std::uint64_t task,
      redundancy::ResultValue correct, rng::Stream& rng) = 0;

 protected:
  FailureModel() = default;
  FailureModel(const FailureModel&) = default;
  FailureModel& operator=(const FailureModel&) = default;
};

/// The worst case of §2.2: a failing node always reports the one colluding
/// wrong value for the task (here: correct + 1), so results are effectively
/// binary. Per-node reliabilities come from a ReliabilityAssigner, making
/// this one model cover both the homogeneous analysis case and the
/// heterogeneous relaxation of §5.3.
class ByzantineCollusion final : public FailureModel {
 public:
  explicit ByzantineCollusion(ReliabilityAssigner assigner);

  redundancy::ResultValue report(redundancy::NodeId node, std::uint64_t task,
                                 redundancy::ResultValue correct,
                                 rng::Stream& rng) override;

 private:
  ReliabilityAssigner assigner_;
};

/// Non-binary relaxation (§5.3): a failing node reports a wrong value
/// chosen uniformly from `spread` distinct wrong answers. With spread > 1
/// wrong votes scatter and plurality voting identifies the correct value
/// more easily — the paper's "binary is the worst case" claim.
class ScatteredWrong final : public FailureModel {
 public:
  /// Requires spread >= 1 (spread == 1 reduces to full collusion).
  ScatteredWrong(ReliabilityAssigner assigner, int spread);

  redundancy::ResultValue report(redundancy::NodeId node, std::uint64_t task,
                                 redundancy::ResultValue correct,
                                 rng::Stream& rng) override;

 private:
  ReliabilityAssigner assigner_;
  int spread_;
};

/// Correlated failures (§5.3): nodes belong to clusters (e.g. geographic
/// sites); for each (task, cluster) pair there is a shared failure event
/// with probability `cluster_failure_prob` that makes every member fail on
/// that task, on top of each node's independent failure probability.
/// Cluster draws are keyed deterministically by (task, cluster), so they do
/// not depend on evaluation order. Failures collude (binary worst case).
class CorrelatedClusters final : public FailureModel {
 public:
  /// Requires clusters >= 1 and cluster_failure_prob in [0, 1].
  CorrelatedClusters(ReliabilityAssigner assigner, int clusters,
                     double cluster_failure_prob, rng::Stream cluster_seed);

  redundancy::ResultValue report(redundancy::NodeId node, std::uint64_t task,
                                 redundancy::ResultValue correct,
                                 rng::Stream& rng) override;

  /// The cluster a node belongs to (round-robin by id).
  [[nodiscard]] int cluster_of(redundancy::NodeId node) const;

  /// Effective per-job reliability implied by the layered model:
  /// (1 − q) * r_independent.
  [[nodiscard]] double effective_reliability() const;

 private:
  ReliabilityAssigner assigner_;
  int clusters_;
  double cluster_failure_prob_;
  rng::Stream cluster_seed_;
};

}  // namespace smartred::fault
