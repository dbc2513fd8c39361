// Scoped wall-clock phase profiler with the recorder's null-pointer
// discipline.
//
// Answers "where did the wall time go" for an experiment binary: setup vs.
// replication runs vs. the merge fold, and inside the DES task server the
// dispatch / collect / decide stages. This is *host* wall time, not
// simulated time — the one deliberately non-deterministic output in obs::
// (two runs of the same seed profile differently), which is why profiler
// data is reported separately and never mixed into the deterministic
// metric exports.
//
// Cost discipline mirrors obs::Recorder: emission sites hold a plain
// `PhaseProfiler*`, null by default, and ScopedPhase with a null profiler
// is one never-taken branch — no clock read, no atomic, no allocation.
// When enabled, the accumulators are relaxed atomics so replication
// workers can share one profiler without synchronization overhead beyond
// the additions themselves (per-phase totals are sums, so relaxed ordering
// is sufficient — there is no cross-phase invariant to order against).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ostream>

namespace smartred::obs {

/// The instrumented phases. Experiment-level phases first, then the task
/// server's per-event stages.
enum class Phase : std::size_t {
  kSetup = 0,   ///< runner preparation before workers start
  kRun,         ///< one replication's full execution
  kMerge,       ///< the index-ordered reduction fold
  kDispatch,    ///< task server: enqueueing waves / starting jobs
  kCollect,     ///< task server: completing jobs, recording votes
  kDecide,      ///< task server: consulting the redundancy strategy
  kSample,      ///< telemetry: periodic time-series sampling
  kExport,      ///< writing metric/trace files
  kCheckpointLoad,  ///< checkpoint recovery scan + record decode on resume
  kCheckpointSave,  ///< checkpoint encode + durable write-out
};
inline constexpr std::size_t kPhaseCount = 10;

/// Stable lowercase name of a phase ("setup", "run", ...).
[[nodiscard]] inline const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kSetup: return "setup";
    case Phase::kRun: return "run";
    case Phase::kMerge: return "merge";
    case Phase::kDispatch: return "dispatch";
    case Phase::kCollect: return "collect";
    case Phase::kDecide: return "decide";
    case Phase::kSample: return "sample";
    case Phase::kExport: return "export";
    case Phase::kCheckpointLoad: return "ckpt_load";
    case Phase::kCheckpointSave: return "ckpt_save";
  }
  return "unknown";
}

/// Accumulated wall time and entry counts per phase. Thread-safe for
/// concurrent add() from replication workers (relaxed atomics).
class PhaseProfiler {
 public:
  /// Adds one timed interval to `phase`.
  void add(Phase phase, std::uint64_t nanoseconds) {
    const auto i = static_cast<std::size_t>(phase);
    ns_[i].fetch_add(nanoseconds, std::memory_order_relaxed);
    calls_[i].fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t nanoseconds(Phase phase) const {
    return ns_[static_cast<std::size_t>(phase)].load(
        std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t calls(Phase phase) const {
    return calls_[static_cast<std::size_t>(phase)].load(
        std::memory_order_relaxed);
  }

  /// Writes a small fixed-format report of the non-empty phases. Times are
  /// inclusive: a dispatch scope nested inside a run scope counts in both.
  void report(std::ostream& out) const {
    out << "phase profile (wall time, inclusive):\n";
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      const std::uint64_t n = calls_[i].load(std::memory_order_relaxed);
      if (n == 0) continue;
      const std::uint64_t total =
          ns_[i].load(std::memory_order_relaxed);
      out << "  " << phase_name(static_cast<Phase>(i)) << ": "
          << static_cast<double>(total) / 1e6 << " ms over " << n
          << " calls (" << static_cast<double>(total) /
                               static_cast<double>(n) / 1e3
          << " us/call)\n";
    }
  }

 private:
  std::array<std::atomic<std::uint64_t>, kPhaseCount> ns_{};
  std::array<std::atomic<std::uint64_t>, kPhaseCount> calls_{};
};

/// RAII phase scope. A null profiler reads no clock and stores nothing —
/// the disabled path is a single branch at construction and destruction.
class ScopedPhase {
 public:
  ScopedPhase(PhaseProfiler* profiler, Phase phase)
      : profiler_(profiler), phase_(phase) {
    if (profiler_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

  ~ScopedPhase() {
    if (profiler_ != nullptr) {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      profiler_->add(
          phase_,
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                  .count()));
    }
  }

 private:
  PhaseProfiler* profiler_;
  Phase phase_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace smartred::obs
