#include "sat/sat_workload.h"

#include <algorithm>
#include <optional>

#include "common/expect.h"

namespace smartred::sat {

SatWorkload::SatWorkload(Formula formula, std::uint64_t task_count,
                         ResultMode mode)
    : formula_(std::move(formula)),
      ranges_(decompose(formula_.num_vars(), task_count)),
      mode_(mode) {
  truth_.reserve(ranges_.size());
  for (const AssignmentRange& range : ranges_) {
    const std::optional<Assignment> found = find_satisfying(formula_, range);
    switch (mode_) {
      case ResultMode::kBinary:
        truth_.push_back(found.has_value() ? 1 : 0);
        break;
      case ResultMode::kFirstAssignment:
        truth_.push_back(found.has_value()
                             ? static_cast<redundancy::ResultValue>(*found)
                             : redundancy::ResultValue{-1});
        break;
    }
  }
}

std::uint64_t SatWorkload::task_count() const { return ranges_.size(); }

const AssignmentRange& SatWorkload::range(std::uint64_t task) const {
  SMARTRED_EXPECT(task < ranges_.size(), "task index out of range");
  return ranges_[task];
}

redundancy::ResultValue SatWorkload::correct_value(std::uint64_t task) const {
  SMARTRED_EXPECT(task < ranges_.size(), "task index out of range");
  return truth_[task];
}

double SatWorkload::job_work(std::uint64_t task) const {
  SMARTRED_EXPECT(task < ranges_.size(), "task index out of range");
  // Work is proportional to the number of assignments checked, normalized
  // so the average task weighs 1.0.
  const double average = static_cast<double>(formula_.assignment_count()) /
                         static_cast<double>(ranges_.size());
  return static_cast<double>(ranges_[task].size()) / average;
}

bool SatWorkload::satisfiable() const {
  return std::ranges::any_of(truth_, [&](redundancy::ResultValue value) {
    return mode_ == ResultMode::kBinary ? value == 1 : value >= 0;
  });
}

}  // namespace smartred::sat
