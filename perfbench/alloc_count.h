// Counting allocator: this binary replaces the global operator new so every
// heap allocation, from any thread and any library, is counted.
//
// Each thread increments its own cache-line-padded slot (no shared atomic
// on the allocation path, so two worker threads never contend here), and
// slots outlive their threads, so a total read after the workers joined is
// exact. The calling thread's own count is what the layer wrappers read
// before and after a seam call to attribute allocations to that seam.
#pragma once

#include <cstdint>

namespace perfbench::alloc {

/// Allocations made by the calling thread so far.
[[nodiscard]] std::uint64_t thread_count();

/// Allocations made by every thread of the process so far. Exact for
/// threads that have been joined; a live thread's count may lag.
[[nodiscard]] std::uint64_t total_count();

}  // namespace perfbench::alloc
