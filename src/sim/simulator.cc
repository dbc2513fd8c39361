#include "sim/simulator.h"

#include <algorithm>
#include <utility>

namespace smartred::sim {

bool Simulator::cancel(EventId id) {
  // Only events that are still pending can be cancelled; cancel-after-fire,
  // double-cancel, and forged/stale handles all fail the generation compare
  // (a pending slot's generation is odd and matches only the one handle
  // issued for the current occupancy). The heap cannot remove from the
  // middle, so the key is left behind as a tombstone: retiring the slot
  // clears its pending_meta record, and the orphaned key is discarded
  // lazily when it reaches the top.
  if (id.slot >= slots_.size()) return false;
  Slot& cell = slots_[id.slot];
  if (cell.generation != id.generation || (id.generation & 1u) == 0) {
    return false;
  }
  cell.action.reset();
  retire_slot(id.slot);
  --pending_;
  return true;
}

void Simulator::retire_slot(std::uint32_t slot) {
  Slot& cell = slots_[slot];
  ++cell.generation;  // even: free
  cell.pending_meta = kNoMeta;
  cell.next_free = free_head_;
  free_head_ = slot;
}

void Simulator::sift_down(std::size_t hole) {
  const std::size_t size = heap_.size();
  const HeapEntry entry = heap_[hole];
  for (;;) {
    const std::size_t first = kArity * hole + 1;
    if (first >= size) break;
    std::size_t best = first;
    const std::size_t limit = std::min(first + kArity, size);
    for (std::size_t child = first + 1; child < limit; ++child) {
      if (earlier(heap_[child], heap_[best])) best = child;
    }
    if (!earlier(heap_[best], entry)) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = entry;
}

void Simulator::heap_pop() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void Simulator::restore_heap(std::size_t staged) {
  const std::size_t size = heap_.size();
  const std::size_t appended = size - staged;
  // Per-key sift-up costs O(appended · depth) in the worst case but is
  // nearly O(appended) in practice (a random key stays near the leaves);
  // Floyd heapify is a guaranteed O(size) rebuild. Prefer the rebuild only
  // once the wave is a sizeable fraction of the whole backlog.
  if (appended < size / 4 + 8) {
    for (std::size_t i = staged; i < size; ++i) sift_up(i);
    return;
  }
  for (std::size_t hole = (size - 2) / kArity + 1; hole-- > 0;) {
    sift_down(hole);
  }
}

bool Simulator::execute_next() {
  while (!heap_.empty()) {
    const HeapEntry top = heap_.front();
    heap_pop();
    const std::uint32_t slot = top.slot();
    if (slots_[slot].pending_meta != top.meta) continue;  // tombstone
    // Move the action out and retire the slot *before* invoking: the action
    // may schedule new events, which may recycle this very slot or grow the
    // slab (invalidating Slot references, never the local).
    InlineAction action = std::move(slots_[slot].action);
    retire_slot(slot);
    --pending_;
    now_ = top.when();
    ++executed_;
    action();
    return true;
  }
  return false;
}

Time Simulator::run() {
  while (execute_next()) {
  }
  return now_;
}

std::uint64_t Simulator::step(std::uint64_t max_events) {
  std::uint64_t count = 0;
  while (count < max_events && execute_next()) ++count;
  return count;
}

}  // namespace smartred::sim
