// The node pool of Figure 1: volunteer nodes that are selected at random,
// perform one job at a time, rejoin the pool afterwards, and may join or
// leave at any time. Nodes that repeatedly miss deadlines can additionally
// be *quarantined* — sidelined from the assignment rotation while staying
// in the pool — so a pool poisoned by slow or flaky volunteers degrades
// gracefully instead of re-sampling the same bad nodes.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "redundancy/types.h"

namespace smartred::dca {

/// Pool of volunteer nodes with O(1) uniform-random selection among idle
/// nodes (index-swap trick) and support for churn and quarantine.
class NodePool {
 public:
  /// Creates `initial_nodes` idle nodes: see join().
  explicit NodePool(std::size_t initial_nodes);

  /// Adds a new idle node and returns its fresh id.
  redundancy::NodeId join();

  /// Marks a specific idle node busy. Assignment policies pick a node from
  /// idle_ids() and the dispatcher claims it through here. Requires the
  /// node to be idle.
  void acquire(redundancy::NodeId node);

  /// Whether a node is present and idle (not busy, not quarantined).
  [[nodiscard]] bool is_idle(redundancy::NodeId node) const;

  /// The ids of all idle nodes, in pool order — a dense view backing O(1)
  /// uniform selection (`ids[rng.index(ids.size())]`). Invalidated by any
  /// mutating call.
  [[nodiscard]] std::span<const redundancy::NodeId> idle_ids() const {
    return idle_;
  }

  /// The ids of all live nodes (idle, busy, or quarantined), in pool
  /// order. Invalidated by join/leave.
  [[nodiscard]] std::span<const redundancy::NodeId> live_ids() const {
    return live_;
  }

  /// Returns a busy node to the idle set. A node that was removed while
  /// busy (leave/crash) is discarded instead. Requires the node to be busy.
  void release(redundancy::NodeId node);

  /// Removes a node from the pool (volunteer leaves or crashes). If it was
  /// busy, its in-flight job is the caller's problem (re-issue). Returns
  /// whether the node was busy. Requires the node to be present.
  bool leave(redundancy::NodeId node);

  /// Picks a uniformly random live node (idle, busy, or quarantined) — used
  /// to choose a churn victim. nullopt when the pool is empty.
  [[nodiscard]] std::optional<redundancy::NodeId> pick_any(rng::Stream& rng);

  // --- Quarantine: strike bookkeeping and sidelining -----------------------

  /// Records one deadline strike against a live node (missed deadline or
  /// silent failure). Returns the node's current consecutive-strike count.
  int add_strike(redundancy::NodeId node);

  /// Clears a live node's strikes (it met its deadline).
  void clear_strikes(redundancy::NodeId node);

  /// Sidelines a live node: it is taken out of the assignment rotation but
  /// remains in the pool (and can still churn out). Works on idle and busy
  /// nodes alike — a busy node's in-flight attempt is the caller's problem,
  /// exactly as with leave(). Resets the strike count and increments the
  /// node's quarantine round (which drives the caller's backoff schedule).
  /// Returns the new round number (1 for the first quarantine). Requires
  /// the node to be present and not already quarantined.
  int quarantine(redundancy::NodeId node);

  /// Returns a quarantined node to the idle rotation. Returns false when
  /// the node has meanwhile left the pool (churn) — a no-op in that case.
  /// Requires the node, if present, to be quarantined.
  bool readmit(redundancy::NodeId node);

  /// Whether a live node is currently quarantined. Requires the node to be
  /// present.
  [[nodiscard]] bool is_quarantined(redundancy::NodeId node) const;

  [[nodiscard]] std::size_t live_count() const { return records_.size(); }
  [[nodiscard]] std::size_t idle_count() const { return idle_.size(); }
  [[nodiscard]] std::size_t quarantined_count() const { return quarantined_; }
  [[nodiscard]] std::size_t busy_count() const {
    return records_.size() - idle_.size() - quarantined_;
  }

 private:
  struct Record {
    bool busy = false;
    bool quarantined = false;
    int strikes = 0;            ///< consecutive deadline strikes
    int quarantine_rounds = 0;  ///< times this node has been quarantined
    /// Position in idle_ when idle (not busy, not quarantined).
    std::size_t idle_slot = 0;
    /// Position in live_ (always valid while the node is in the pool).
    std::size_t live_slot = 0;
  };

  void remove_from_idle(redundancy::NodeId node);

  redundancy::NodeId next_id_ = 0;
  std::unordered_map<redundancy::NodeId, Record> records_;
  std::vector<redundancy::NodeId> idle_;
  std::vector<redundancy::NodeId> live_;
  std::size_t quarantined_ = 0;
};

}  // namespace smartred::dca
