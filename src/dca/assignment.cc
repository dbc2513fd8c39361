#include "dca/assignment.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <unordered_map>

#include "common/expect.h"
#include "common/spec.h"

namespace smartred::dca {
namespace {

using redundancy::NodeId;

/// Dense bucketed index over the idle nodes a policy ranks: each bucket is
/// a swap-removal vector (the NodePool idle-set trick, once per rank), and
/// a per-node slot table gives O(1) membership moves. Buckets are scanned
/// through lazily maintained lo/hi hints, so a pick is one hint walk plus
/// one rng draw; the slot table is indexed by node id (ids are dense and
/// never reused), so the steady state allocates nothing.
class IdleBuckets {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  explicit IdleBuckets(std::size_t bucket_count)
      : buckets_(bucket_count), lo_(bucket_count), hi_(0) {}

  void clear() {
    for (auto& bucket : buckets_) bucket.clear();
    slots_.clear();
    lo_ = buckets_.size();
    hi_ = 0;
  }

  [[nodiscard]] bool contains(NodeId node) const {
    return node < slots_.size() && slots_[node].bucket != kNone;
  }

  void insert(NodeId node, std::size_t bucket) {
    if (node >= slots_.size()) slots_.resize(node + 1);
    auto& ids = buckets_[bucket];
    slots_[node] = Slot{bucket, ids.size()};
    ids.push_back(node);
    lo_ = std::min(lo_, bucket);
    hi_ = std::max(hi_, bucket);
  }

  void remove(NodeId node) {
    if (!contains(node)) return;
    const Slot slot = slots_[node];
    auto& ids = buckets_[slot.bucket];
    const NodeId moved = ids.back();
    ids[slot.index] = moved;
    slots_[moved].index = slot.index;
    ids.pop_back();
    slots_[node].bucket = kNone;
  }

  void move(NodeId node, std::size_t bucket) {
    if (!contains(node) || slots_[node].bucket == bucket) return;
    remove(node);
    insert(node, bucket);
  }

  /// Uniform pick within the lowest non-empty bucket; one rng draw.
  /// Requires some node to be indexed.
  [[nodiscard]] NodeId pick_lowest(rng::Stream& rng) {
    while (buckets_[lo_].empty()) ++lo_;
    const auto& ids = buckets_[lo_];
    return ids[rng.index(ids.size())];
  }

  /// Uniform pick within the highest non-empty bucket; one rng draw.
  /// Requires some node to be indexed.
  [[nodiscard]] NodeId pick_highest(rng::Stream& rng) {
    while (buckets_[hi_].empty()) --hi_;
    const auto& ids = buckets_[hi_];
    return ids[rng.index(ids.size())];
  }

 private:
  struct Slot {
    std::size_t bucket = kNone;
    std::size_t index = 0;
  };

  std::vector<std::vector<NodeId>> buckets_;
  std::vector<Slot> slots_;  ///< indexed by node id; kNone when untracked
  std::size_t lo_;  ///< lower bound on the lowest non-empty bucket
  std::size_t hi_;  ///< upper bound on the highest non-empty bucket
};

/// The paper baseline: one uniform draw over the idle set — one RNG index
/// into NodePool::idle_ids(), the draw the seed-pinned runs were made with.
class UniformPolicy final : public AssignmentPolicy {
 public:
  std::optional<NodeId> select(const AssignContext& /*context*/,
                               const NodePool& pool,
                               rng::Stream& rng) override {
    const auto idle = pool.idle_ids();
    return idle[rng.index(idle.size())];
  }

  [[nodiscard]] std::string_view name() const override { return "uniform"; }
  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::kUniform;
  }
};

/// Load-aware: picks among the idle nodes with the fewest *unreturned*
/// copies. A node's debt is dispatches minus on-time completions — a late
/// or written-off copy (silent crash, churn loss) stays charged, so
/// persistently slow nodes sink to high-debt buckets and the drain phase
/// routes around them. All hook work is O(1).
class LeastOutstandingPolicy final : public AssignmentPolicy {
 public:
  /// Debt past this collapses into one bucket; ranking beyond it carries
  /// no signal worth the bucket-scan cost.
  static constexpr std::size_t kDebtCap = 63;

  LeastOutstandingPolicy() : buckets_(kDebtCap + 1) {}

  std::optional<NodeId> select(const AssignContext& /*context*/,
                               const NodePool& /*pool*/,
                               rng::Stream& rng) override {
    return buckets_.pick_lowest(rng);
  }

  void bind(const NodePool& pool) override {
    for (const NodeId node : pool.idle_ids()) {
      buckets_.insert(node, bucket_of(node));
    }
  }

  void on_join(NodeId node) override {
    buckets_.insert(node, bucket_of(node));
  }
  void on_leave(NodeId node) override { buckets_.remove(node); }
  void on_dispatch(NodeId node, const AssignContext& /*context*/) override {
    buckets_.remove(node);
    ++debt(node);
  }
  void on_complete(NodeId node, bool on_time) override {
    std::uint32_t& owed = debt(node);
    if (on_time && owed > 0) --owed;
    buckets_.insert(node, bucket_of(node));
  }
  void on_quarantine(NodeId node) override { buckets_.remove(node); }
  void on_readmit(NodeId node) override {
    buckets_.insert(node, bucket_of(node));
  }

  void reset() override {
    buckets_.clear();
    debt_.clear();
  }

  [[nodiscard]] std::string_view name() const override {
    return "least-outstanding";
  }
  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::kLeastOutstanding;
  }

 private:
  std::uint32_t& debt(NodeId node) {
    if (node >= debt_.size()) debt_.resize(node + 1, 0);
    return debt_[node];
  }
  [[nodiscard]] std::size_t bucket_of(NodeId node) {
    return std::min<std::size_t>(debt(node), kDebtCap);
  }

  IdleBuckets buckets_;
  std::vector<std::uint32_t> debt_;  ///< indexed by node id
};

/// Reliability tiers: per-node agreement-with-accepted counts (Laplace
/// smoothed, so unseen nodes land mid-tier) stratify the idle set into
/// `tiers` buckets; waves at index >= `late` draw from the highest
/// occupied tier, earlier waves stay uniform. The signal source mirrors
/// the credibility estimators: a vote matching the task's accepted value
/// counts as agreement. Never trained under an encoding strategy (votes
/// are piece values there), in which case every node stays mid-tier and
/// the policy degenerates to uniform-within-a-bucket.
class StratifiedPolicy final : public AssignmentPolicy {
 public:
  StratifiedPolicy(int tiers, int late)
      : tiers_(static_cast<std::size_t>(tiers)),
        late_(static_cast<std::uint32_t>(late)),
        buckets_(static_cast<std::size_t>(tiers)) {}

  std::optional<NodeId> select(const AssignContext& context,
                               const NodePool& pool,
                               rng::Stream& rng) override {
    if (context.wave < late_) {
      const auto idle = pool.idle_ids();
      return idle[rng.index(idle.size())];
    }
    return buckets_.pick_highest(rng);
  }

  bool admit(const AssignContext& context, NodeId client) override {
    if (context.wave < late_) return true;
    if (tier_of(client) > 0) return true;
    // Pull model: a bottom-tier client polling for a late wave is turned
    // away, but only until every candidate had a chance — after
    // `candidates` declines the task takes whoever asks, so a bottom-heavy
    // population still drains.
    if (++declines_[context.task] >= context.candidates) return true;
    return false;
  }

  void bind(const NodePool& pool) override {
    for (const NodeId node : pool.idle_ids()) {
      buckets_.insert(node, tier_of(node));
    }
  }

  void on_join(NodeId node) override { buckets_.insert(node, tier_of(node)); }
  void on_leave(NodeId node) override { buckets_.remove(node); }
  void on_dispatch(NodeId node, const AssignContext& /*context*/) override {
    buckets_.remove(node);
  }
  void on_complete(NodeId node, bool /*on_time*/) override {
    buckets_.insert(node, tier_of(node));
  }
  void on_quarantine(NodeId node) override { buckets_.remove(node); }
  void on_readmit(NodeId node) override {
    buckets_.insert(node, tier_of(node));
  }

  void on_task_decided(std::span<const redundancy::Vote> votes,
                       redundancy::ResultValue accepted) override {
    for (const redundancy::Vote& vote : votes) {
      Stats& stats = stats_of(vote.node);
      ++stats.total;
      if (vote.value == accepted) ++stats.agreeing;
      // Re-tier immediately when the node is sitting idle; busy nodes pick
      // up their new tier at the next on_complete insert.
      buckets_.move(vote.node, tier_of(vote.node));
    }
  }

  void on_task_settled(std::uint64_t task) override { declines_.erase(task); }

  void reset() override {
    buckets_.clear();
    stats_.clear();
    declines_.clear();
  }

  [[nodiscard]] std::string_view name() const override { return "stratified"; }
  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::kStratified;
  }

 private:
  struct Stats {
    std::uint32_t agreeing = 0;
    std::uint32_t total = 0;
  };

  Stats& stats_of(NodeId node) {
    if (node >= stats_.size()) stats_.resize(node + 1);
    return stats_[node];
  }

  /// Laplace-smoothed agreement score in (0, 1) mapped onto tier indexes;
  /// a never-seen node scores 0.5 and lands mid-tier.
  [[nodiscard]] std::size_t tier_of(NodeId node) {
    const Stats& stats = stats_of(node);
    const double score = (stats.agreeing + 1.0) / (stats.total + 2.0);
    return std::min(tiers_ - 1,
                    static_cast<std::size_t>(score *
                                             static_cast<double>(tiers_)));
  }

  std::size_t tiers_;
  std::uint32_t late_;
  IdleBuckets buckets_;
  std::vector<Stats> stats_;  ///< indexed by node id
  std::unordered_map<std::uint64_t, std::size_t> declines_;  ///< per task
};

/// Collusion-group diversity: nodes in one suspected cartel (group = node
/// id mod `groups`, matching CorrelatedClusters::cluster_of) never share a
/// wave. Composes with coded dispersal: each piece of a wave lands in a
/// distinct group, so one colluding cluster can corrupt at most one piece
/// per wave. When a wave has already touched every group with live
/// members, the constraint is waived rather than deadlocking the queue;
/// when eligible groups exist but none has an idle node, select() declines
/// and the copy waits for a release.
class CartelAversePolicy final : public AssignmentPolicy {
 public:
  explicit CartelAversePolicy(int groups)
      : groups_(static_cast<std::uint32_t>(groups)),
        group_live_(groups_, 0) {}

  std::optional<NodeId> select(const AssignContext& context,
                               const NodePool& pool,
                               rng::Stream& rng) override {
    const std::uint64_t used = used_mask(context);
    const auto idle = pool.idle_ids();
    if ((live_mask_ & ~used) == 0) {
      // Every live group is already in this wave; holding out would stall
      // the task forever.
      return idle[rng.index(idle.size())];
    }
    // Idle nodes are well mixed across groups, so a few rejection draws
    // almost always land outside the used set; the deterministic scan is
    // the rare-path fallback that keeps the worst case bounded.
    for (int attempt = 0; attempt < 8; ++attempt) {
      const NodeId node = idle[rng.index(idle.size())];
      if ((used >> group_of(node) & 1) == 0) return node;
    }
    for (const NodeId node : idle) {
      if ((used >> group_of(node) & 1) == 0) return node;
    }
    return std::nullopt;  // eligible groups are live but busy; wait
  }

  bool admit(const AssignContext& context, NodeId client) override {
    const std::uint64_t used = used_mask(context);
    if ((used >> group_of(client) & 1) == 0) return true;
    // Pull model has no live-group census; waive once the wave spans as
    // many groups as the population can offer.
    const auto spanned = static_cast<std::size_t>(std::popcount(used));
    return spanned >= std::min<std::size_t>(groups_, context.candidates);
  }

  void bind(const NodePool& pool) override {
    group_live_.assign(groups_, 0);
    live_mask_ = 0;
    for (const NodeId node : pool.live_ids()) add_live(node);
  }

  void on_join(NodeId node) override { add_live(node); }
  void on_leave(NodeId node) override {
    const std::uint32_t group = group_of(node);
    if (--group_live_[group] == 0) {
      live_mask_ &= ~(std::uint64_t{1} << group);
    }
  }
  void on_dispatch(NodeId node, const AssignContext& context) override {
    WaveUse& use = use_of(context);
    use.mask |= std::uint64_t{1} << group_of(node);
  }
  void on_task_settled(std::uint64_t task) override { used_.erase(task); }

  void reset() override {
    group_live_.assign(groups_, 0);
    live_mask_ = 0;
    used_.clear();
  }

  [[nodiscard]] std::string_view name() const override {
    return "cartel-averse";
  }
  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::kCartelAverse;
  }

 private:
  struct WaveUse {
    std::uint32_t wave = 0;
    std::uint64_t mask = 0;
  };

  [[nodiscard]] std::uint32_t group_of(NodeId node) const {
    return node % groups_;
  }

  void add_live(NodeId node) {
    const std::uint32_t group = group_of(node);
    ++group_live_[group];
    live_mask_ |= std::uint64_t{1} << group;
  }

  WaveUse& use_of(const AssignContext& context) {
    WaveUse& use = used_[context.task];
    if (use.wave != context.wave) {
      use.wave = context.wave;
      use.mask = 0;
    }
    return use;
  }

  [[nodiscard]] std::uint64_t used_mask(const AssignContext& context) {
    return use_of(context).mask;
  }

  std::uint32_t groups_;
  std::vector<std::uint32_t> group_live_;  ///< live-node census per group
  std::uint64_t live_mask_ = 0;            ///< groups with any live member
  std::unordered_map<std::uint64_t, WaveUse> used_;  ///< current-wave groups
};

const char* const kPolicyList =
    "uniform, least-outstanding (lo), stratified, cartel-averse (cartel)";

constexpr std::string_view kPolicyNames[] = {
    "uniform", "least-outstanding", "lo", "stratified",
    "cartel-averse", "cartel",
};

}  // namespace

std::unique_ptr<AssignmentPolicy> make_policy(std::string_view raw_spec) {
  std::string_view trimmed = raw_spec;
  if (trimmed.rfind("assign:", 0) == 0) trimmed.remove_prefix(7);
  const auto [policy, body] = spec::split(trimmed);
  spec::Params params("assignment policy '" + std::string(policy) + "'",
                      body);
  if (policy == "uniform") {
    params.finish("");
    return std::make_unique<UniformPolicy>();
  }
  if (policy == "least-outstanding" || policy == "lo") {
    params.finish("");
    return std::make_unique<LeastOutstandingPolicy>();
  }
  if (policy == "stratified") {
    const int tiers = params.get_int("tiers", 4);
    const int late = params.get_int("late", 2);
    params.finish("tiers, late");
    if (tiers < 1 || tiers > 64) {
      params.fail("tiers must be in [1, 64], got " + std::to_string(tiers));
    }
    if (late < 0) {
      params.fail("late must be >= 0, got " + std::to_string(late));
    }
    return std::make_unique<StratifiedPolicy>(tiers, late);
  }
  if (policy == "cartel-averse" || policy == "cartel") {
    const int groups = params.get_int("groups");
    params.finish("groups");
    if (groups < 1 || groups > 64) {
      params.fail("groups must be in [1, 64], got " + std::to_string(groups));
    }
    return std::make_unique<CartelAversePolicy>(groups);
  }
  throw spec::SpecError("unknown assignment policy '" + std::string(policy) +
                        "' (known: " + kPolicyList + ")" +
                        spec::did_you_mean(policy, kPolicyNames));
}

}  // namespace smartred::dca
