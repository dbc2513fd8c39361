#include "dca/node_pool.h"

#include "common/expect.h"

namespace smartred::dca {

NodePool::NodePool(std::size_t initial_nodes) {
  records_.reserve(initial_nodes);
  idle_.reserve(initial_nodes);
  live_.reserve(initial_nodes);
  for (std::size_t i = 0; i < initial_nodes; ++i) join();
}

redundancy::NodeId NodePool::join() {
  const redundancy::NodeId id = next_id_++;
  Record record;
  record.idle_slot = idle_.size();
  record.live_slot = live_.size();
  idle_.push_back(id);
  live_.push_back(id);
  records_.emplace(id, record);
  return id;
}

void NodePool::acquire(redundancy::NodeId node) {
  remove_from_idle(node);
  records_.at(node).busy = true;
}

bool NodePool::is_idle(redundancy::NodeId node) const {
  const auto found = records_.find(node);
  if (found == records_.end()) return false;
  return !found->second.busy && !found->second.quarantined;
}

void NodePool::remove_from_idle(redundancy::NodeId node) {
  Record& record = records_.at(node);
  SMARTRED_EXPECT(!record.busy && !record.quarantined, "node is not idle");
  const std::size_t slot = record.idle_slot;
  const redundancy::NodeId moved = idle_.back();
  idle_[slot] = moved;
  records_.at(moved).idle_slot = slot;
  idle_.pop_back();
}

void NodePool::release(redundancy::NodeId node) {
  const auto found = records_.find(node);
  if (found == records_.end()) return;  // left the pool while busy
  Record& record = found->second;
  SMARTRED_EXPECT(record.busy, "release() of a node that is not busy");
  record.busy = false;
  record.idle_slot = idle_.size();
  idle_.push_back(node);
}

bool NodePool::leave(redundancy::NodeId node) {
  const auto found = records_.find(node);
  SMARTRED_EXPECT(found != records_.end(), "leave() of an unknown node");
  const Record& record = found->second;
  const bool was_busy = record.busy;
  if (record.quarantined) {
    --quarantined_;
  } else if (!was_busy) {
    remove_from_idle(node);
  }
  const std::size_t slot = record.live_slot;
  const redundancy::NodeId moved = live_.back();
  live_[slot] = moved;
  records_.at(moved).live_slot = slot;
  live_.pop_back();
  records_.erase(node);
  return was_busy;
}

std::optional<redundancy::NodeId> NodePool::pick_any(rng::Stream& rng) {
  if (live_.empty()) return std::nullopt;
  return live_[rng.index(live_.size())];
}

int NodePool::add_strike(redundancy::NodeId node) {
  const auto found = records_.find(node);
  SMARTRED_EXPECT(found != records_.end(), "add_strike() of an unknown node");
  return ++found->second.strikes;
}

void NodePool::clear_strikes(redundancy::NodeId node) {
  const auto found = records_.find(node);
  SMARTRED_EXPECT(found != records_.end(),
                  "clear_strikes() of an unknown node");
  found->second.strikes = 0;
}

int NodePool::quarantine(redundancy::NodeId node) {
  const auto found = records_.find(node);
  SMARTRED_EXPECT(found != records_.end(), "quarantine() of an unknown node");
  Record& record = found->second;
  SMARTRED_EXPECT(!record.quarantined, "node is already quarantined");
  if (record.busy) {
    record.busy = false;  // its in-flight attempt is the caller's problem
  } else {
    remove_from_idle(node);
  }
  record.quarantined = true;
  record.strikes = 0;
  ++quarantined_;
  return ++record.quarantine_rounds;
}

bool NodePool::readmit(redundancy::NodeId node) {
  const auto found = records_.find(node);
  if (found == records_.end()) return false;  // churned out while sidelined
  Record& record = found->second;
  SMARTRED_EXPECT(record.quarantined, "readmit() of a node not quarantined");
  record.quarantined = false;
  record.idle_slot = idle_.size();
  idle_.push_back(node);
  --quarantined_;
  return true;
}

bool NodePool::is_quarantined(redundancy::NodeId node) const {
  const auto found = records_.find(node);
  SMARTRED_EXPECT(found != records_.end(),
                  "is_quarantined() of an unknown node");
  return found->second.quarantined;
}

}  // namespace smartred::dca
