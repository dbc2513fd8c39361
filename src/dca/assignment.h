// Pluggable task-to-worker assignment (ROADMAP item 4).
//
// The paper's model assigns every job to a uniformly random idle node, and
// that stays the default — none of the reproduced figures depend on
// anything smarter. But Behrouzi-Far & Soljanin (arXiv:1808.02838) show
// assignment policy dominates completion time once node service rates are
// heterogeneous, and Peng, Soljanin & Whiting (arXiv:2010.02147) show the
// diversity/parallelism trade-off behind `coded:g` is mediated by *which*
// workers receive the redundant pieces. AssignmentPolicy is the seam for
// that study: the substrate asks it to pick a node per staged copy and
// feeds every lifecycle transition back through hooks, so policies can
// maintain O(1) mirrors of whatever signal they rank nodes by (outstanding
// work, estimated reliability, suspected collusion group).
//
// The discipline mirrors the PR 3 redundancy strategies: policies are
// plain objects built from string specs ("least-outstanding",
// "stratified:tiers=4,late=2") with the same did-you-mean SpecError UX,
// reset() returns them to their initial state for reuse across shards, and
// the uniform policy reproduces the paper's single uniform draw over the
// idle set bit for bit, so every seed-pinned aggregate survives the
// redesign.
//
// Contract (see DESIGN §12 for the full ordering rules):
//  - select() must not mutate the pool; it returns an *idle* node id (one
//    it found via pool.idle_ids()) or nullopt to decline — a declined copy
//    stays queued and is retried on the next assignment pass.
//  - bind() is called once per run, after the initial pool is built and
//    before any select(); policies seed their mirrors from it.
//  - Hooks fire after the pool transition they describe: on_dispatch after
//    the node was acquired, on_complete after it was released back to the
//    idle set, on_quarantine/on_readmit/on_join/on_leave after the
//    corresponding pool mutation.
//  - on_task_decided fires when a task accepts a value (plain replication
//    only — under an encoding strategy votes are piece values and
//    agreement with the accepted task value means nothing); its votes span
//    dies with the call. on_task_settled fires for every task, accepted or
//    aborted, and is the place to drop per-task scratch.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "dca/node_pool.h"
#include "redundancy/types.h"

namespace smartred::dca {

/// What the dispatcher knows about the copy it is placing.
struct AssignContext {
  std::uint64_t task = 0;
  /// The wave this copy belongs to (1-based, as traced). Cartel-averse
  /// keys its co-assignment exclusion on (task, wave); stratified switches
  /// to high-reliability tiers for late waves.
  std::uint32_t wave = 0;
  /// Live pool size at selection time — the natural waiver scale for
  /// policies that decline (a policy must not hold out for more diversity
  /// than the pool can offer).
  std::size_t candidates = 0;
};

/// Stable discriminator for traces (obs::EventKind::kPolicyChosen carries
/// it) and quick kind checks without string comparison.
enum class PolicyKind : std::uint8_t {
  kUniform = 0,
  kLeastOutstanding = 1,
  kStratified = 2,
  kCartelAverse = 3,
  kCustom = 4,
};

class AssignmentPolicy {
 public:
  virtual ~AssignmentPolicy() = default;

  /// Picks an idle node for one staged copy, or nullopt to decline (the
  /// copy stays queued). Called only while pool.idle_ids() is non-empty.
  /// Must consume a deterministic number of rng draws per call for a given
  /// pool/mirror state — replication determinism rides on it.
  [[nodiscard]] virtual std::optional<redundancy::NodeId> select(
      const AssignContext& context, const NodePool& pool,
      rng::Stream& rng) = 0;

  /// Pull-substrate counterpart of select(): may this eligible client take
  /// a copy of this task? (boinc::Deployment has no pool — clients request
  /// work — so the policy vetoes rather than picks.) Default: yes.
  [[nodiscard]] virtual bool admit(const AssignContext& context,
                                   redundancy::NodeId client) {
    (void)context;
    (void)client;
    return true;
  }

  /// Seeds the policy's mirrors from the initial pool. Called once per
  /// run, before any select().
  virtual void bind(const NodePool& pool) { (void)pool; }

  // --- Lifecycle feedback (each fires after the pool transition) ---------
  virtual void on_join(redundancy::NodeId node) { (void)node; }
  virtual void on_leave(redundancy::NodeId node) { (void)node; }
  virtual void on_dispatch(redundancy::NodeId node,
                           const AssignContext& context) {
    (void)node;
    (void)context;
  }
  /// `on_time` is the deadline verdict of the completed copy (true when no
  /// deadline was armed). Late copies keep their debt in load-aware
  /// policies: the node is still holding the system up.
  virtual void on_complete(redundancy::NodeId node, bool on_time) {
    (void)node;
    (void)on_time;
  }
  virtual void on_quarantine(redundancy::NodeId node) { (void)node; }
  virtual void on_readmit(redundancy::NodeId node) { (void)node; }
  /// A task accepted `accepted` with these votes (plain replication only;
  /// never fired under an encoding strategy).
  virtual void on_task_decided(std::span<const redundancy::Vote> votes,
                               redundancy::ResultValue accepted) {
    (void)votes;
    (void)accepted;
  }
  /// The task reached a terminal state (accepted or aborted); drop any
  /// per-task scratch.
  virtual void on_task_settled(std::uint64_t task) { (void)task; }

  /// Returns the policy to its initial state (mirrors empty, learned
  /// signal forgotten) so one instance can be shared across shards.
  virtual void reset() {}

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual PolicyKind kind() const { return PolicyKind::kCustom; }
};

/// Builds a policy from a spec string:
///
///   uniform                      paper baseline (bit-identical legacy draw)
///   least-outstanding (lo)      fewest unreturned copies, O(1) via hooks
///   stratified[:tiers=4,late=2] reliability tiers; late waves prefer high-r
///   cartel-averse:groups=<int>  never co-assigns a wave within one group
///
/// An optional "assign:" prefix is accepted (the registry namespace used
/// in config files). Throws spec::SpecError on unknown policies or keys,
/// with a did-you-mean nudge.
[[nodiscard]] std::unique_ptr<AssignmentPolicy> make_policy(
    std::string_view spec);

}  // namespace smartred::dca
