// Credibility-based fault tolerance — the related-work comparator of §5.1
// and [27] (Sarmenta, "Sabotage-tolerance mechanisms for volunteer computing
// systems", FGCS 2002), reimplemented in simplified but faithful form.
//
// The system spot-checks nodes with jobs whose answer is already known and
// maintains a per-node *credibility* that grows with survived spot-checks;
// a result is accepted once the Bayesian posterior of its vote group —
// weighting each vote by its node's credibility — clears a threshold. Nodes
// caught by a spot-check are blacklisted.
//
// The paper's argument, which the A6 ablation bench reproduces: this scheme
// (a) pays for spot-check jobs that do no useful work, (b) must store
// per-node history, and (c) is defeated by nodes that earn credibility and
// then cheat, or that shed a bad reputation by rejoining under a fresh
// identity — while iterative redundancy needs none of the machinery.
#pragma once

#include <memory>
#include <unordered_map>

#include "redundancy/strategy.h"

namespace smartred::redundancy {

/// Per-node spot-check history and blacklist. Shared by all per-task
/// strategy instances of one CredibilityFactory and updated by the driving
/// substrate as spot-check results arrive.
class ReputationBook {
 public:
  /// `assumed_fault_fraction` is Sarmenta's f: the assumed upper bound on
  /// the fraction of faulty nodes, which bounds how much a node with no
  /// history is trusted. Requires f in (0, 1).
  explicit ReputationBook(double assumed_fault_fraction);

  /// Records a spot-check outcome. A failed spot-check blacklists the node.
  void record_spot_check(NodeId node, bool passed);

  /// Blacklisted nodes should no longer receive jobs; their votes count for
  /// nothing.
  [[nodiscard]] bool blacklisted(NodeId node) const;

  /// Credibility = P[this node's job result is correct], estimated as
  /// 1 − f / (passed_spot_checks + 1). New nodes start at 1 − f.
  [[nodiscard]] double credibility(NodeId node) const;

  /// Simulates identity churn: the node rejoins under a new identity, so
  /// its history (including a blacklist entry) is forgotten.
  void forget(NodeId node);

  [[nodiscard]] std::size_t blacklisted_count() const;

 private:
  struct Record {
    int passed = 0;
    bool blacklisted = false;
  };

  double fault_fraction_;
  std::unordered_map<NodeId, Record> records_;
};

/// Accepts a result once the credibility-weighted posterior of its vote
/// group reaches the threshold; otherwise dispatches one more job.
class CredibilityStrategy final : public RedundancyStrategy {
 public:
  /// All mutable state lives in the shared book, which the substrate
  /// updates regardless of how many instances exist.
  static constexpr bool kStateless = true;

  /// Requires threshold in [0.5, 1).
  CredibilityStrategy(std::shared_ptr<const ReputationBook> book,
                      double threshold);

  Decision decide(std::span<const Vote> votes) override;

  /// Posterior probability that `value` is the correct answer given the
  /// votes, treating each vote as independently correct with its node's
  /// credibility and normalizing over the values present (binary collusion
  /// worst case: every non-matching vote endorses the rival value).
  [[nodiscard]] double posterior(std::span<const Vote> votes,
                                 ResultValue value) const;

  [[nodiscard]] std::string name() const;

 private:
  std::shared_ptr<const ReputationBook> book_;
  double threshold_;
};

using CredibilityFactory = PrototypeFactory<CredibilityStrategy>;

}  // namespace smartred::redundancy
