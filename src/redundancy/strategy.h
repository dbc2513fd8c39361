// The redundancy-strategy interface: a per-task decision engine.
//
// A strategy is consulted in *waves*. The driver (Monte-Carlo sampler, DCA
// simulation, or volunteer-computing server) asks decide() with the votes
// received so far; the strategy answers either "dispatch n more jobs" or
// "accept this value". The first call — with no votes — yields the initial
// wave. This single interface is what lets one algorithm implementation run
// unchanged on all three of the paper's evaluation platforms.
//
// The three core techniques (traditional, progressive, iterative) are pure
// functions of the vote tally; the related-work comparators (credibility-
// based fault tolerance, adaptive replication) additionally read and update
// shared per-node reputation state, which is why decide() is non-const and
// why votes carry node ids.
#pragma once

#include <concepts>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "redundancy/types.h"

namespace smartred::redundancy {

/// What a strategy wants next for one task.
struct Decision {
  enum class Kind {
    kDispatch,  ///< run `jobs` more jobs, then consult the strategy again
    kAccept,    ///< done: `value` is the task's result
  };

  /// Why a value was accepted (or a task given up on) — one byte of
  /// explanation that traces and tests can assert on. Strategies set it on
  /// accept(); kNone keeps existing call sites source-compatible, and
  /// kBudgetExhausted is set by substrates when the per-task job cap aborts
  /// a task (a strategy itself never gives up).
  enum class Reason : std::uint8_t {
    kNone = 0,            ///< unspecified (legacy call sites, dispatches)
    kConfidenceReached,   ///< margin/posterior cleared the confidence bar
    kMajority,            ///< fixed-size vote completed with a majority
    kQuorum,              ///< some value reached the consensus quorum
    kTrustedNode,         ///< a trusted node's single result was accepted
    kBudgetExhausted,     ///< per-task job cap reached; task aborted
    kDecodeVerified,      ///< coded: a decoded codeword survived verification
    kAbandoned,           ///< run ended (pool starved) before a decision
  };

  Kind kind = Kind::kDispatch;
  int jobs = 0;             ///< valid when kind == kDispatch; always > 0
  ResultValue value = 0;    ///< valid when kind == kAccept
  Reason reason = Reason::kNone;  ///< why `value` was accepted
  /// Candidate codewords a coded strategy decoded and rejected during this
  /// decide() call (self-check or agreement failure — a Byzantine result
  /// caught before reconstruction). Zero for every non-coded strategy.
  /// Substrates surface it through metrics and the trace.
  std::int32_t decode_rejects = 0;

  static Decision dispatch(int jobs) {
    SMARTRED_EXPECT(jobs > 0, "a dispatch decision must request jobs");
    return Decision{Kind::kDispatch, jobs, 0, Reason::kNone};
  }
  static Decision accept(ResultValue value, Reason reason = Reason::kNone) {
    return Decision{Kind::kAccept, 0, value, reason};
  }

  [[nodiscard]] bool done() const { return kind == Kind::kAccept; }
};

/// Stable lower_snake_case name of a reason, for traces and table output.
[[nodiscard]] constexpr const char* to_string(Decision::Reason reason) {
  switch (reason) {
    case Decision::Reason::kNone: return "none";
    case Decision::Reason::kConfidenceReached: return "confidence_reached";
    case Decision::Reason::kMajority: return "majority";
    case Decision::Reason::kQuorum: return "quorum";
    case Decision::Reason::kTrustedNode: return "trusted_node";
    case Decision::Reason::kBudgetExhausted: return "budget_exhausted";
    case Decision::Reason::kDecodeVerified: return "decode_verified";
    case Decision::Reason::kAbandoned: return "abandoned";
  }
  return "unknown";
}

/// Maps a task's scalar result onto per-piece job values for strategies
/// that split a task into encoded pieces instead of replicating it whole.
/// Substrates consult the factory's encoder() (when non-null) at dispatch
/// and completion time: the j-th logical job a strategy ever requested for
/// a task (its *ordinal*, counted from 0 across waves) computes piece
/// piece_of(j), and a correct node reports job_value(task_value, j).
/// Implementations are immutable and shared across tasks and threads.
class TaskEncoder {
 public:
  virtual ~TaskEncoder() = default;

  /// Number of distinct pieces n; piece indices are [0, n).
  [[nodiscard]] virtual int pieces() const = 0;
  /// The piece the `ordinal`-th dispatched job computes. Requires
  /// ordinal >= 0.
  [[nodiscard]] virtual int piece_of(int ordinal) const = 0;
  /// What a correct node reports for the `ordinal`-th job of a task whose
  /// true result is `task_value`.
  [[nodiscard]] virtual ResultValue job_value(ResultValue task_value,
                                              int ordinal) const = 0;

 protected:
  TaskEncoder() = default;
  TaskEncoder(const TaskEncoder&) = default;
  TaskEncoder& operator=(const TaskEncoder&) = default;
};

/// Per-task decision engine. Instances are created per task by a
/// StrategyFactory and consulted once per completed wave.
class RedundancyStrategy {
 public:
  virtual ~RedundancyStrategy() = default;

  /// Given all votes returned so far for this task (in arrival order),
  /// returns the next action. Contract: when `votes` is empty the decision
  /// is always kDispatch (every technique runs at least one job).
  /// Drivers must pass a superset of the votes of the previous call.
  virtual Decision decide(std::span<const Vote> votes) = 0;

  /// Restores the freshly-constructed state, so one instance can be reused
  /// for the next task instead of allocating a new engine per task (the
  /// Monte-Carlo sampler processes tasks strictly one at a time and
  /// exploits this on its hot loop). Most strategies are pure functions of
  /// the vote tally (plus shared books) and inherit this no-op; a strategy
  /// with per-task fields must override it to match what its constructor
  /// establishes exactly — reuse must be indistinguishable from make().
  virtual void reset() {}

 protected:
  RedundancyStrategy() = default;
  RedundancyStrategy(const RedundancyStrategy&) = default;
  RedundancyStrategy& operator=(const RedundancyStrategy&) = default;
};

/// Creates per-task strategy instances. A factory also names the technique
/// and reports its configured parameter for logging and table output.
/// PrototypeFactory below serves every technique but the coded one.
class StrategyFactory {
 public:
  virtual ~StrategyFactory() = default;

  /// A fresh decision engine for one task.
  [[nodiscard]] virtual std::unique_ptr<RedundancyStrategy> make() const = 0;

  /// True when instances from make() carry no mutable per-task state, i.e.
  /// decide() depends only on the votes passed in (and on shared books the
  /// substrate updates independently). A concurrent substrate may then
  /// consult ONE instance for any number of in-flight tasks instead of
  /// allocating one per task. Stateful strategies (self-tuning: first-wave
  /// size, margin floor) must answer `false`; sequential drivers
  /// can still reuse a single instance via RedundancyStrategy::reset().
  [[nodiscard]] virtual bool stateless() const { return false; }

  /// Non-null when this technique splits tasks into encoded pieces: the
  /// substrate must assign each logical job its dispatch ordinal, have a
  /// correct node report job_value(task_value, ordinal), and stamp the
  /// resulting Vote with piece_of(ordinal). Null (the default) keeps the
  /// replicate-whole-tasks contract unchanged. The encoder is owned by the
  /// factory and immutable, so one pointer serves all tasks and threads.
  [[nodiscard]] virtual const TaskEncoder* encoder() const { return nullptr; }

  /// True when the strategy wants decide() consulted after *every* vote
  /// rather than only at wave boundaries. An accept mid-wave settles the
  /// task immediately (outstanding copies are discarded on completion); a
  /// dispatch answer while jobs are still outstanding is ignored. Coded
  /// strategies opt in — accepting on the k-th fastest of n pieces, not
  /// the slowest, is where their straggler win comes from.
  [[nodiscard]] virtual bool eager() const { return false; }

  /// Technique name, e.g. "traditional(k=19)".
  [[nodiscard]] virtual std::string name() const = 0;

 protected:
  StrategyFactory() = default;
  StrategyFactory(const StrategyFactory&) = default;
  StrategyFactory& operator=(const StrategyFactory&) = default;
};

/// The factory of a technique whose strategy is a copyable value: it holds
/// one prototype, checked once by the strategy's own constructor, and
/// make() returns a copy of it. `Strategy` declares
/// `static constexpr bool kStateless` (the answer of stateless()) and
/// `std::string name() const`. Each technique names its instantiation, e.g.
/// `using IterativeFactory = PrototypeFactory<IterativeRedundancy>`.
/// CodedFactory is written by hand: it alone supplies an encoder and asks
/// for eager consultation.
template <typename Strategy>
class PrototypeFactory final : public StrategyFactory {
 public:
  /// Builds the prototype from the strategy's constructor arguments.
  template <typename... Args>
    requires std::constructible_from<Strategy, Args...>
  explicit PrototypeFactory(Args&&... args)
      : prototype_(std::forward<Args>(args)...) {}

  [[nodiscard]] std::unique_ptr<RedundancyStrategy> make() const override {
    return std::make_unique<Strategy>(prototype_);
  }
  [[nodiscard]] bool stateless() const override {
    return Strategy::kStateless;
  }
  [[nodiscard]] std::string name() const override {
    return prototype_.name();
  }

  /// The instance every make() copies: its parameters and shared books.
  [[nodiscard]] const Strategy& prototype() const { return prototype_; }

 private:
  Strategy prototype_;
};

}  // namespace smartred::redundancy
