// Per-layer tracing from outside the program.
//
// The traced run hands the substrates wrapped versions of every seam a
// caller can pass in (strategy factory and its strategies, assignment
// policy, failure model, latency model, workload) and wraps the runner's
// replication and merge callbacks. Each wrapper forwards every call
// unchanged — including stateless(), encoder(), eager(), kind(), reset(),
// bind() and every hook — so the simulated aggregates stay bit-identical,
// and around the call it:
//   * counts the call;
//   * counts the calling thread's allocations during the call;
//   * times the call with steady_clock, every kTimeStride-th call only (a
//     clock-read pair would dwarf the cheap calls), minus the calibrated
//     cost of the clock reads themselves;
//   * records a span when the call carries a task in the deterministic span
//     sample, or for every kSpanStride-th decide() of a run (decide() does
//     not carry its task).
// A layer's self time is its *.run span minus the (estimated) time of the
// seam calls made inside it and minus the wrappers' calibrated own cost.
// Allocation attribution is exact.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dca/assignment.h"
#include "dca/workload.h"
#include "fault/failure_model.h"
#include "fault/latency_model.h"
#include "redundancy/strategy.h"

namespace perfbench {

enum class Seam : std::size_t {
  kMake = 0,  ///< StrategyFactory::make
  kDecide,    ///< RedundancyStrategy::decide
  kReset,     ///< RedundancyStrategy::reset
  kSelect,    ///< AssignmentPolicy::select
  kAdmit,     ///< AssignmentPolicy::admit
  kHook,      ///< AssignmentPolicy bind/reset/on_* hooks
  kReport,    ///< FailureModel::report
  kLatency,   ///< LatencyModel::sample
  kWorkload,  ///< Workload task_count/correct_value/job_work
};
inline constexpr std::size_t kSeamCount = 9;

/// Monotonic wall clock in nanoseconds.
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Measures, once per process, the cost of a back-to-back clock-read pair
/// (timed seam samples subtract it) and the mean cost of one SeamScope
/// (self times subtract it per wrapped call, so the wrappers' own cost is
/// charged to neither the substrate nor the seam).
void calibrate();
[[nodiscard]] std::int64_t clock_overhead_ns();
[[nodiscard]] double scope_overhead_ns();

struct SeamStats {
  std::uint64_t calls = 0;
  std::uint64_t timed = 0;     ///< calls that were timed
  std::int64_t timed_ns = 0;   ///< total time of the timed calls
  std::uint64_t allocs = 0;    ///< allocations during every call

  /// Time of all calls, scaled up from the timed sample.
  [[nodiscard]] double estimated_ns() const {
    return timed == 0 ? 0.0
                      : static_cast<double>(timed_ns) *
                            static_cast<double>(calls) /
                            static_cast<double>(timed);
  }
  void add(const SeamStats& other) {
    calls += other.calls;
    timed += other.timed;
    timed_ns += other.timed_ns;
    allocs += other.allocs;
  }
};
using SeamTable = std::array<SeamStats, kSeamCount>;

/// One recorded interval. Spans of one task share (rep, task); task is -1
/// for spans that carry no task.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  const char* name = "";
  std::uint32_t rep = 0;
  std::int64_t task = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// What one traced replication measured.
struct RepLayers {
  std::uint32_t rep = 0;
  std::int64_t rep_ns = 0;       ///< whole replication callback
  std::int64_t run_ns = 0;       ///< inside the substrate's run()
  std::uint64_t run_allocs = 0;  ///< allocations inside run()
  std::uint64_t wrapper_allocs = 0;  ///< made by the wrappers inside run()
  std::uint64_t decode_rejects = 0;
  SeamTable in_run{};   ///< seam calls made inside run()
  SeamTable outside{};  ///< seam calls made outside run()
};

/// The per-layer record of one traced batch. Replications deposit into it
/// from worker threads (under its mutex, once per replication).
class BatchLayers {
 public:
  explicit BatchLayers(bool keep_spans);

  [[nodiscard]] bool keep_spans() const { return keep_spans_; }
  /// Id of the batch's root span (the timed phase); replications hang off
  /// it. The caller records the root span itself.
  [[nodiscard]] std::uint64_t root_span() const { return root_span_; }

  void deposit(const RepLayers& rep, std::vector<Span>&& spans);

  [[nodiscard]] const std::vector<RepLayers>& reps() const { return reps_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool keep_spans_;
  std::uint64_t root_span_ = 0;
  std::mutex mutex_;
  std::vector<RepLayers> reps_;
  std::vector<Span> spans_;
};

/// Wraps one replication callback: points the calling thread's seam
/// wrappers at this replication's record, times the replication as a
/// span, and deposits the record into `batch` at the end. A null batch
/// (the untraced run) makes every scope in this file a no-op.
class RepScope {
 public:
  RepScope(BatchLayers* batch, std::uint64_t rep);
  ~RepScope();
  RepScope(const RepScope&) = delete;
  RepScope& operator=(const RepScope&) = delete;

 private:
  BatchLayers* batch_;
  RepLayers layers_;
  std::vector<Span> spans_;
  std::uint64_t id_ = 0;
  std::int64_t start_ns_ = 0;
};

/// Wraps a substrate's run() call (dca.run, boinc.run, montecarlo.run).
class RunScope {
 public:
  explicit RunScope(const char* name);
  ~RunScope();
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

 private:
  const char* name_;
  bool active_;
  std::int64_t start_ns_ = 0;
  std::uint64_t start_allocs_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t id_ = 0;
};

/// Wraps one seam call. `task` is the task the call carries, or -1.
class SeamScope {
 public:
  SeamScope(Seam seam, std::int64_t task);
  ~SeamScope();
  SeamScope(const SeamScope&) = delete;
  SeamScope& operator=(const SeamScope&) = delete;

  /// Adds decode-verify rejections a decide() call reported.
  static void note_decode_rejects(std::int32_t rejects);
  /// Charges allocations the wrappers made themselves (a wrapped strategy
  /// object), so they are not counted as the substrate's own.
  static void note_wrapper_allocs(std::uint64_t allocs);

 private:
  SeamStats* stats_ = nullptr;
  Seam seam_;
  std::int64_t task_;
  bool timed_ = false;
  bool span_ = false;
  std::int64_t start_ns_ = 0;
  std::uint64_t start_allocs_ = 0;
};

// --- Seam wrappers ---------------------------------------------------------

class TracedFactory final : public smartred::redundancy::StrategyFactory {
 public:
  explicit TracedFactory(const smartred::redundancy::StrategyFactory& inner)
      : inner_(inner) {}

  [[nodiscard]] std::unique_ptr<smartred::redundancy::RedundancyStrategy>
  make() const override;
  [[nodiscard]] bool stateless() const override { return inner_.stateless(); }
  [[nodiscard]] const smartred::redundancy::TaskEncoder* encoder()
      const override {
    return inner_.encoder();
  }
  [[nodiscard]] bool eager() const override { return inner_.eager(); }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  const smartred::redundancy::StrategyFactory& inner_;
};

class TracedPolicy final : public smartred::dca::AssignmentPolicy {
 public:
  explicit TracedPolicy(std::unique_ptr<smartred::dca::AssignmentPolicy> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::optional<smartred::redundancy::NodeId> select(
      const smartred::dca::AssignContext& context,
      const smartred::dca::NodePool& pool,
      smartred::rng::Stream& rng) override;
  [[nodiscard]] bool admit(const smartred::dca::AssignContext& context,
                           smartred::redundancy::NodeId client) override;
  void bind(const smartred::dca::NodePool& pool) override;
  void on_join(smartred::redundancy::NodeId node) override;
  void on_leave(smartred::redundancy::NodeId node) override;
  void on_dispatch(smartred::redundancy::NodeId node,
                   const smartred::dca::AssignContext& context) override;
  void on_complete(smartred::redundancy::NodeId node, bool on_time) override;
  void on_quarantine(smartred::redundancy::NodeId node) override;
  void on_readmit(smartred::redundancy::NodeId node) override;
  void on_task_decided(std::span<const smartred::redundancy::Vote> votes,
                       smartred::redundancy::ResultValue accepted) override;
  void on_task_settled(std::uint64_t task) override;
  void reset() override;
  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  [[nodiscard]] smartred::dca::PolicyKind kind() const override {
    return inner_->kind();
  }

 private:
  std::unique_ptr<smartred::dca::AssignmentPolicy> inner_;
};

class TracedFailures final : public smartred::fault::FailureModel {
 public:
  explicit TracedFailures(smartred::fault::FailureModel& inner)
      : inner_(inner) {}

  smartred::redundancy::ResultValue report(
      smartred::redundancy::NodeId node, std::uint64_t task,
      smartred::redundancy::ResultValue correct,
      smartred::rng::Stream& rng) override;

 private:
  smartred::fault::FailureModel& inner_;
};

class TracedLatency final : public smartred::fault::LatencyModel {
 public:
  explicit TracedLatency(smartred::fault::LatencyModel& inner)
      : inner_(inner) {}

  double sample(smartred::redundancy::NodeId node, std::uint64_t task,
                smartred::rng::Stream& rng) override;

 private:
  smartred::fault::LatencyModel& inner_;
};

class TracedWorkload final : public smartred::dca::Workload {
 public:
  explicit TracedWorkload(const smartred::dca::Workload& inner)
      : inner_(inner) {}

  [[nodiscard]] std::uint64_t task_count() const override;
  [[nodiscard]] smartred::redundancy::ResultValue correct_value(
      std::uint64_t task) const override;
  [[nodiscard]] double job_work(std::uint64_t task) const override;

 private:
  const smartred::dca::Workload& inner_;
};

}  // namespace perfbench
