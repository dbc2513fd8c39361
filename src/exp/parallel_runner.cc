#include "exp/parallel_runner.h"

#include <cinttypes>
#include <cstdio>

namespace smartred::exp {

namespace {

/// Minimum wall-clock gap between progress reprints.
constexpr std::int64_t kPrintIntervalMs = 250;

/// Process-wide cooperative stop flag. Relaxed atomic ops only, so
/// request_stop() stays async-signal-safe.
std::atomic<bool> g_stop{false};

}  // namespace

void request_stop() noexcept { g_stop.store(true, std::memory_order_relaxed); }

bool stop_requested() noexcept {
  return g_stop.load(std::memory_order_relaxed);
}

void reset_stop() noexcept { g_stop.store(false, std::memory_order_relaxed); }

ProgressMeter::ProgressMeter(bool enabled, std::string_view label,
                             std::uint64_t total, std::uint64_t already_done)
    : enabled_(enabled),
      label_(label),
      total_(total),
      already_done_(already_done),
      done_(already_done) {
  if (enabled_) start_ = std::chrono::steady_clock::now();
}

void ProgressMeter::advance() {
  if (!enabled_) return;
  const std::uint64_t done = done_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::int64_t elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_)
          .count();
  std::int64_t last = last_print_ms_.load(std::memory_order_relaxed);
  if (elapsed_ms - last < kPrintIntervalMs) return;
  // Claim this reprint window; losers simply skip (another worker is
  // already printing a fresher state).
  if (!last_print_ms_.compare_exchange_strong(last, elapsed_ms,
                                              std::memory_order_relaxed)) {
    return;
  }
  print(done, /*final_line=*/false, /*interrupted=*/false);
}

void ProgressMeter::finish(bool interrupted) {
  if (!enabled_) return;
  print(done_.load(std::memory_order_relaxed), /*final_line=*/true,
        interrupted);
}

void ProgressMeter::print(std::uint64_t done, bool final_line,
                          bool interrupted) {
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  // Throughput/ETA cover this session's work only — a resumed run starts
  // its count at already_done_, which took no time in this process.
  const std::uint64_t done_here = done - already_done_;
  const double rate =
      elapsed > 0.0 ? static_cast<double>(done_here) / elapsed : 0.0;
  const double eta =
      rate > 0.0 ? static_cast<double>(total_ - done) / rate : 0.0;
  // One fprintf call so concurrent reprints never interleave mid-line; the
  // \r + trailing spaces overwrite any longer previous line.
  std::fprintf(stderr,
               "\r%s: %" PRIu64 "/%" PRIu64 " reps  %.1f rep/s  ETA %.1fs%s   %s",
               label_.c_str(), done, total_, rate, eta,
               interrupted ? "  [interrupted]" : "",
               final_line ? "\n" : "");
  if (!final_line) std::fflush(stderr);
}

unsigned resolve_threads(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? hardware : 1;
}

std::uint64_t partition_size(std::uint64_t total, std::uint64_t parts,
                             std::uint64_t index) {
  SMARTRED_EXPECT(parts > 0, "partition needs at least one part");
  SMARTRED_EXPECT(index < parts, "partition index out of range");
  return total / parts + (index < total % parts ? 1 : 0);
}

}  // namespace smartred::exp
