// BOINC-style adaptive replication — the related-work comparator of §5.1.
//
// BOINC "prevents replication of a task if a trusted node returns its
// result": a node becomes trusted after a run of consecutively validated
// results, and a trusted node's answer is then accepted without any vote.
// Untrusted nodes fall back to quorum-2 replication.
//
// The paper's criticism, reproduced by the A6 ablation bench: a patient
// malicious node can *earn* trust by answering correctly until trusted and
// then report wrong results that are accepted unchecked — and each wrong
// result that slips through is itself recorded as "validated", keeping the
// node trusted. Iterative redundancy has no per-node state to poison.
#pragma once

#include <memory>
#include <unordered_map>

#include "redundancy/strategy.h"

namespace smartred::redundancy {

/// Per-node record of consecutively validated results. Shared by all task
/// strategy instances of one AdaptiveFactory; the driving substrate calls
/// record_validated() as tasks complete.
class TrustBook {
 public:
  /// A node is trusted after `threshold` consecutive validated results.
  /// Requires threshold >= 1.
  explicit TrustBook(int threshold);

  /// Records the outcome of validating one of `node`'s results. `valid`
  /// means the result agreed with the accepted answer (or was accepted
  /// unchecked — BOINC cannot tell the difference, which is the
  /// vulnerability). An invalid result resets the run.
  void record_validated(NodeId node, bool valid);

  [[nodiscard]] bool trusted(NodeId node) const;
  [[nodiscard]] int consecutive_valid(NodeId node) const;
  [[nodiscard]] int threshold() const { return threshold_; }

  /// Identity churn: the node rejoins under a new identity.
  void forget(NodeId node);

 private:
  int threshold_;
  std::unordered_map<NodeId, int> streaks_;
};

/// Accepts a single result from a trusted node immediately; otherwise
/// replicates until some value has `quorum` matching votes.
class AdaptiveReplication final : public RedundancyStrategy {
 public:
  /// All mutable state lives in the shared book, which the substrate
  /// updates regardless of how many instances exist.
  static constexpr bool kStateless = true;

  /// Requires quorum >= 2.
  AdaptiveReplication(std::shared_ptr<const TrustBook> book, int quorum);

  Decision decide(std::span<const Vote> votes) override;

  [[nodiscard]] std::string name() const;

 private:
  std::shared_ptr<const TrustBook> book_;
  int quorum_;
};

using AdaptiveFactory = PrototypeFactory<AdaptiveReplication>;

}  // namespace smartred::redundancy
