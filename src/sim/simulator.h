// Discrete-event simulation kernel.
//
// This is the repository's stand-in for the XDEVS simulator the paper uses
// in Section 4.1: a deterministic event queue over continuous simulated
// time. Events scheduled for the same timestamp fire in FIFO scheduling
// order (stable by sequence number), which makes entire simulation runs
// reproducible from their RNG seed alone.
//
// The kernel is deliberately small: schedule / schedule_batch / cancel /
// run. The domain models (DCA task server, volunteer-computing clients) are
// ordinary objects that hold a Simulator& and schedule callbacks on
// themselves; there is no component/port framework to fight.
//
// Internals — generation-tagged slot arena (zero-allocation steady state):
//
//  * Event actions live in a recycled slab of fixed-size slots
//    (std::vector<Slot>, grown once and reused forever via an intrusive
//    free list). An action is a 48-byte small-buffer InlineAction, so
//    neither the slot nor the callback it stores ever touches the heap on
//    the steady-state schedule→fire path.
//  * Ordering is an implicit kArity-ary min-heap of packed 16-byte keys in
//    a second recycled vector — no node allocations, no per-event hashing.
//    A key is (when_bits, sequence·2^24 + slot): simulated time is
//    non-negative, so the IEEE-754 bit pattern of `when` orders exactly
//    like the double and the whole comparison is two integer compares.
//    Halving the entry size (24 → 16 bytes) keeps a 100k-event backlog
//    inside the fast cache levels and fits a whole sibling group in one
//    cache line, so a sift-down pays one dependent miss per level — this
//    is what the kernel-churn numbers in BENCH_kernel.json price.
//  * The packed key budgets 24 bits for the slot index (16.7M concurrently
//    pending events per simulator) and 40 bits for the sequence number
//    (1.1e12 schedules over one simulator's lifetime); both are enforced
//    with always-on checks, so exhaustion fails loudly instead of
//    reordering ties.
//  * EventId is {slot, generation}. Each slot carries a generation counter
//    that is incremented when the slot is allocated (odd = pending) and
//    again when it is retired (even = free). cancel() is a bounds check
//    plus a generation compare: stale handles — already fired, already
//    cancelled, recycled slot (the ABA case), or never issued — simply
//    fail the compare. A cancelled event's heap key stays in the heap as a
//    tombstone and is discarded when it reaches the top: each slot also
//    records the packed key of its *current* occupancy (pending_meta), so
//    a popped key is live exactly when it still matches its slot's record.
//  * schedule_batch() stages a whole wave of events — slots acquired and
//    keys appended in one pass — and restores the heap invariant once:
//    per-key sift-ups for small waves (exactly equivalent to sequential
//    pushes) or a single bottom-up Floyd heapify when the wave rivals the
//    existing backlog. Pop order depends only on the key total order, so
//    both restore paths are observably identical to sequential schedule()
//    calls.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/expect.h"
#include "sim/inline_action.h"

namespace smartred::obs {
class Recorder;
}

namespace smartred::sim {

/// Simulated time, in abstract "time units" (the paper's job durations are
/// uniform in [0.5, 1.5] of these units).
using Time = double;

/// Opaque handle identifying a scheduled event; usable with cancel().
/// A default-constructed EventId never identifies a live event.
struct EventId {
  std::uint32_t slot = 0;
  std::uint32_t generation = 0;  ///< odd while pending; 0 = never issued
  friend bool operator==(EventId, EventId) = default;
};

/// A discrete-event simulator.
///
/// Not thread-safe: a simulation run is a single logical thread of control
/// (real time is irrelevant, so there is nothing to parallelize inside one
/// run; experiments parallelize across runs).
class Simulator {
 public:
  /// Current simulated time. Starts at 0.
  [[nodiscard]] Time now() const { return now_; }

  /// Number of events executed so far (for throughput reporting).
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Number of events currently pending (scheduled, not yet fired or
  /// cancelled).
  [[nodiscard]] std::size_t pending() const { return pending_; }

  /// Schedules a callable to run `delay` time units from now.
  /// Requires delay >= 0. Returns a handle usable with cancel().
  ///
  /// The callable is placement-constructed directly into its arena slot
  /// (no intermediate InlineAction object, no relocation), and the whole
  /// fast path inlines at the call site.
  template <typename F>
    requires std::is_invocable_r_v<void, std::remove_cvref_t<F>&>
  EventId schedule(Time delay, F&& fn) {
    SMARTRED_EXPECT(delay >= 0.0, "cannot schedule an event in the past");
    const std::uint32_t slot = acquire_slot();
    slots_[slot].action.emplace(std::forward<F>(fn));
    const EventId id = stage_schedule(now_ + delay, slot);
    sift_up(heap_.size() - 1);
    return id;
  }

  /// Schedules `delays.size()` events in one bulk operation: all slots are
  /// acquired and all heap keys appended first, then the heap invariant is
  /// restored once (per-key sift-up for small waves, one bottom-up Floyd
  /// heapify when the wave rivals the backlog). Observable behavior —
  /// handles issued, sequence order, pop order — is identical to calling
  /// schedule(delays[i], make(i)) in index order; only the insertion cost
  /// changes. `make(i)` must return the i-th event's callable; when `ids`
  /// is non-null it receives one handle per event. Requires every delay
  /// >= 0.
  template <typename MakeAction>
    requires std::is_invocable_v<MakeAction&, std::size_t>
  void schedule_batch(std::span<const Time> delays, MakeAction&& make,
                      EventId* ids = nullptr) {
    const std::size_t count = delays.size();
    if (count == 0) return;
    const std::size_t staged = heap_.size();
    heap_.reserve(staged + count);
    for (std::size_t i = 0; i < count; ++i) {
      SMARTRED_EXPECT(delays[i] >= 0.0,
                      "cannot schedule an event in the past");
      const std::uint32_t slot = acquire_slot();
      slots_[slot].action.emplace(make(i));
      const EventId id = stage_schedule(now_ + delays[i], slot);
      if (ids != nullptr) ids[i] = id;
    }
    restore_heap(staged);
  }

  /// Cancels a pending event. Returns true if the event existed and had not
  /// yet fired; false otherwise (already fired, already cancelled, or
  /// unknown). Cancelling is O(1); the heap key is discarded lazily.
  bool cancel(EventId id);

  /// Runs until the event queue is empty. Returns the final simulated time.
  Time run();

  /// Executes at most `max_events` events. Returns the number executed
  /// (less than max_events only if the queue emptied).
  std::uint64_t step(std::uint64_t max_events);

  /// Attaches a flight recorder (or detaches with nullptr). The kernel
  /// itself never emits events — it only carries the pointer so domain
  /// models sharing this simulator find one sink without extra plumbing.
  /// The hot schedule→fire path is untouched either way.
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }
  /// The attached flight recorder, or nullptr when tracing is off.
  [[nodiscard]] obs::Recorder* recorder() const { return recorder_; }

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  /// Key packing: meta = sequence << kSlotBits | slot.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint32_t kMaxSlots = 1u << kSlotBits;
  static constexpr std::uint64_t kMaxSequence = 1ull << (64 - kSlotBits);
  /// A pending_meta value no live key ever carries (its sequence field
  /// would be out of range).
  static constexpr std::uint64_t kNoMeta = ~std::uint64_t{0};
  /// Heap fan-out. With 16-byte keys a 4-ary sibling group is exactly one
  /// cache line, so each sift-down level costs a single (dependent) miss.
  /// Measured on the churn bench at a 100k backlog: 4-ary beats both 8-ary
  /// (~+12%, two-line groups) and 16-ary (~2x, scan cost dominates).
  static constexpr std::size_t kArity = 4;

  /// One arena cell. Pending: generation odd, action set, pending_meta
  /// holding the packed key of the current occupancy. Free: generation
  /// even, action empty, pending_meta == kNoMeta, next_free linking the
  /// free list.
  struct Slot {
    InlineAction action;
    std::uint64_t pending_meta = kNoMeta;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNoSlot;
  };

  /// One packed min-heap key, 16 bytes. `when_bits` is the IEEE-754 bit
  /// pattern of the (non-negative, +0.0-canonicalized) timestamp, which
  /// orders identically to the double itself; `meta` is the sequence
  /// number in the high 40 bits (FIFO tie-break among equal timestamps)
  /// over the slot index in the low 24.
  struct HeapEntry {
    std::uint64_t when_bits;
    std::uint64_t meta;

    [[nodiscard]] std::uint32_t slot() const {
      return static_cast<std::uint32_t>(meta) & (kMaxSlots - 1u);
    }
    [[nodiscard]] Time when() const {
      return std::bit_cast<Time>(when_bits);
    }
  };
  static_assert(sizeof(HeapEntry) == 16, "heap keys must stay packed");

  /// Min-heap ordering: earliest time first, then lowest sequence. The
  /// sequence field sits above the slot field, so comparing `meta` whole
  /// compares sequences (which are unique).
  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.when_bits != b.when_bits) return a.when_bits < b.when_bits;
    return a.meta < b.meta;
  }

  /// Restores the heap invariant for the entry at `hole`, whose ancestors
  /// already satisfy it, by walking toward the root.
  void sift_up(std::size_t hole) {
    const HeapEntry entry = heap_[hole];
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / kArity;
      if (!earlier(entry, heap_[parent])) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = entry;
  }

  void sift_down(std::size_t hole);
  void heap_pop();
  /// Restores the heap invariant after entries [staged, heap_.size()) were
  /// appended raw: per-entry sift-ups in append order (exactly equivalent
  /// to sequential pushes) for small batches, one bottom-up Floyd heapify
  /// when the batch rivals the existing backlog.
  void restore_heap(std::size_t staged);

  /// Returns a free slot index, growing the slab only when the free list is
  /// empty.
  std::uint32_t acquire_slot() {
    std::uint32_t slot;
    if (free_head_ != kNoSlot) {
      slot = free_head_;
      free_head_ = slots_[slot].next_free;
    } else {
      SMARTRED_ENSURE(slots_.size() < kMaxSlots, "event arena exhausted");
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    ++slots_[slot].generation;  // odd: pending
    return slot;
  }

  /// Records the key for a just-filled slot, appends it to the heap
  /// WITHOUT restoring the heap invariant (the caller sifts or heapifies),
  /// and issues the slot's handle.
  EventId stage_schedule(Time when, std::uint32_t slot) {
    SMARTRED_ENSURE(next_sequence_ < kMaxSequence,
                    "event sequence space exhausted");
    // + 0.0 canonicalizes a -0.0 timestamp, whose sign bit would otherwise
    // wreck the bit-pattern ordering.
    const std::uint64_t when_bits = std::bit_cast<std::uint64_t>(when + 0.0);
    const std::uint64_t meta = (next_sequence_++ << kSlotBits) | slot;
    slots_[slot].pending_meta = meta;
    heap_.push_back(HeapEntry{when_bits, meta});
    ++pending_;
    return EventId{slot, slots_[slot].generation};
  }

  /// Marks the slot free (generation becomes even, key record cleared) and
  /// links it into the free list. Any outstanding EventId/heap key for it
  /// is now stale.
  void retire_slot(std::uint32_t slot);

  /// Pops and executes the next non-cancelled event, if any.
  /// Returns false when the queue is exhausted.
  bool execute_next();

  Time now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t pending_ = 0;
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  obs::Recorder* recorder_ = nullptr;
};

}  // namespace smartred::sim
