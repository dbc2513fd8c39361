// Workloads: what the computation's tasks actually are.
//
// The DCA (and the volunteer-computing substrate) execute a Workload's tasks
// as redundant jobs. The XDEVS evaluation uses a synthetic workload whose
// jobs "perform simulated work for a simulated period of time" (§4.1); the
// BOINC evaluation uses 3-SAT (src/sat provides that adapter).
#pragma once

#include <cstdint>

#include "redundancy/types.h"

namespace smartred::dca {

/// A computation decomposed into independent tasks. Implementations must be
/// deterministic: correct_value(t) is the ground truth the run's reliability
/// is scored against.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Number of tasks in the computation.
  [[nodiscard]] virtual std::uint64_t task_count() const = 0;

  /// Ground-truth answer of task `task`. Requires task < task_count().
  [[nodiscard]] virtual redundancy::ResultValue correct_value(
      std::uint64_t task) const = 0;

  /// Nominal work of one job of this task, in work units: a job takes
  /// (base duration) * work, divided by the client's speed under
  /// boinc::Deployment. The synthetic workload uses 1.0; CPU-heavy tasks
  /// can weigh more.
  [[nodiscard]] virtual double job_work(std::uint64_t task) const = 0;

 protected:
  Workload() = default;
  Workload(const Workload&) = default;
  Workload& operator=(const Workload&) = default;
};

/// The paper's XDEVS workload: jobs perform simulated work only. All tasks
/// share one correct value and unit work.
class SyntheticWorkload final : public Workload {
 public:
  explicit SyntheticWorkload(std::uint64_t tasks);

  [[nodiscard]] std::uint64_t task_count() const override;
  [[nodiscard]] redundancy::ResultValue correct_value(
      std::uint64_t task) const override;
  [[nodiscard]] double job_work(std::uint64_t task) const override;

 private:
  std::uint64_t tasks_;
};

}  // namespace smartred::dca
