// 3-CNF Boolean formulas over up to 32 variables.
//
// The paper's BOINC deployment decomposes 22-variable 3-SAT instances into
// tasks that "test whether particular Boolean assignments satisfy a Boolean
// formula" (§4.1). Assignments are packed into a 32-bit word: bit v holds
// the value of variable v.
#pragma once

#include <cstdint>
#include <vector>

namespace smartred::sat {

/// A Boolean assignment: bit v is variable v's value.
using Assignment = std::uint32_t;

/// One literal: variable index plus polarity.
struct Literal {
  int var = 0;
  bool negated = false;

  /// Whether the literal is satisfied under `assignment`.
  [[nodiscard]] bool satisfied(Assignment assignment) const {
    const bool value = ((assignment >> var) & 1u) != 0;
    return value != negated;
  }

  friend bool operator==(const Literal&, const Literal&) = default;
};

/// A clause of exactly three literals over distinct variables.
struct Clause {
  Literal a;
  Literal b;
  Literal c;

  [[nodiscard]] bool satisfied(Assignment assignment) const {
    // Bitwise, not short-circuit: each literal is a coin flip, so a branch
    // per literal mispredicts often, and the range scan's speed then swings
    // by a quarter with where the linker happens to place it.
    return a.satisfied(assignment) | b.satisfied(assignment) |
           c.satisfied(assignment);
  }

  friend bool operator==(const Clause&, const Clause&) = default;
};

/// An immutable 3-CNF formula.
class Formula {
 public:
  /// Requires 1 <= num_vars <= 32, a non-empty clause list, and every
  /// clause's variables within [0, num_vars) and pairwise distinct.
  Formula(int num_vars, std::vector<Clause> clauses);

  [[nodiscard]] int num_vars() const { return num_vars_; }
  [[nodiscard]] const std::vector<Clause>& clauses() const { return clauses_; }

  /// Number of possible assignments: 2^num_vars.
  [[nodiscard]] std::uint64_t assignment_count() const {
    return std::uint64_t{1} << num_vars_;
  }

  /// Whether `assignment` satisfies every clause.
  [[nodiscard]] bool satisfied(Assignment assignment) const;

  /// Number of clauses `assignment` satisfies (for diagnostics/tests).
  [[nodiscard]] std::size_t satisfied_clause_count(Assignment assignment) const;

 private:
  int num_vars_;
  std::vector<Clause> clauses_;
};

}  // namespace smartred::sat
