// Workload adapter: 3-SAT range checks as DCA tasks.
#pragma once

#include <vector>

#include "dca/workload.h"
#include "sat/decompose.h"
#include "sat/formula.h"

namespace smartred::sat {

/// How a job's domain answer maps onto a ResultValue.
enum class ResultMode {
  /// Binary: 1 if the range contains a satisfying assignment, else 0 —
  /// the paper's worst case (a decision NP-complete problem, §2.3).
  kBinary,
  /// Non-binary (§5.3): the first satisfying assignment in the range
  /// (as its integer value), or −1 when none exists. Wrong answers can
  /// scatter, which plurality voting exploits.
  kFirstAssignment,
};

/// A 3-SAT instance decomposed into `task_count` range-check tasks.
///
/// The constructor solves every range by exhaustive evaluation (every
/// experiment touches every task), so a const workload is immutable and
/// safe to share across parallel replications.
class SatWorkload final : public dca::Workload {
 public:
  SatWorkload(Formula formula, std::uint64_t task_count,
              ResultMode mode = ResultMode::kBinary);

  [[nodiscard]] std::uint64_t task_count() const override;
  [[nodiscard]] redundancy::ResultValue correct_value(
      std::uint64_t task) const override;
  [[nodiscard]] double job_work(std::uint64_t task) const override;

  [[nodiscard]] const Formula& formula() const { return formula_; }
  [[nodiscard]] const AssignmentRange& range(std::uint64_t task) const;
  [[nodiscard]] ResultMode mode() const { return mode_; }

  /// Whether the whole instance is satisfiable, i.e. any task's ground
  /// truth is positive.
  [[nodiscard]] bool satisfiable() const;

 private:
  Formula formula_;
  std::vector<AssignmentRange> ranges_;
  ResultMode mode_;
  std::vector<redundancy::ResultValue> truth_;  ///< per-task ground truth
};

}  // namespace smartred::sat
