// The assignment-policy redesign's contract tests.
//
// Three layers: (1) the uniform policy is a *refactor*, not a behavior
// change — the seed-7 determinism pins must hold bit-for-bit when the
// legacy draw runs through the policy seam; (2) every policy preserves the
// parallel-runner determinism contract (merged aggregates identical at any
// thread count); (3) the stateful policies maintain their mirrors exactly —
// least-outstanding's debt ranking is checked against an independently
// maintained reference model under fuzzed lifecycle traffic, and
// cartel-averse never co-assigns a collusion group within one wave.
#include "dca/assignment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "boinc/deployment.h"
#include "boinc/profile.h"
#include "common/rng.h"
#include "common/spec.h"
#include "dca/task_server.h"
#include "dca/workload.h"
#include "exp/parallel_runner.h"
#include "fault/failure_model.h"
#include "obs/trace.h"
#include "redundancy/iterative.h"
#include "sim/simulator.h"

namespace smartred::dca {
namespace {

/// The determinism_test pinned scenario, with the assignment policy taken
/// from `spec` (or an externally owned `policy` when non-null).
RunMetrics pinned_run(const std::string& spec,
                      AssignmentPolicy* policy = nullptr,
                      obs::Recorder* recorder = nullptr) {
  sim::Simulator simulator;
  simulator.set_recorder(recorder);
  DcaConfig config;
  config.nodes = 200;
  config.seed = 7;
  config.assignment_spec = spec;
  config.assignment = policy;
  const redundancy::IterativeFactory factory(4);
  const SyntheticWorkload workload(400);
  fault::ByzantineCollusion failures(fault::ReliabilityAssigner(
      fault::ConstantReliability{0.7}, rng::Stream(7)));
  TaskServer server(simulator, config, factory, workload, failures);
  return RunMetrics(server.run());
}

void expect_pinned(const RunMetrics& metrics) {
  EXPECT_EQ(metrics.tasks_total, 400u);
  EXPECT_EQ(metrics.tasks_aborted, 0u);
  EXPECT_EQ(metrics.tasks_correct, 392u);
  EXPECT_EQ(metrics.jobs_dispatched, 3576u);
  EXPECT_DOUBLE_EQ(metrics.makespan, 25.371052742587459);
  EXPECT_DOUBLE_EQ(metrics.response_time.mean(), 8.2202844792206236);
}

// Routing node selection through the policy seam with the uniform policy
// reproduces the original single-draw trajectory bit for bit — same pins
// as determinism_test, unmodified.
TEST(AssignmentTest, UniformSpecReproducesPinnedSeed7Aggregates) {
  expect_pinned(pinned_run("uniform"));
}

TEST(AssignmentTest, EmptySpecDefaultsToUniform) {
  expect_pinned(pinned_run(""));
}

TEST(AssignmentTest, AssignPrefixIsAccepted) {
  expect_pinned(pinned_run("assign:uniform"));
}

// An externally owned policy instance is reset() and bound by the server,
// so a shared instance reproduces the spec-built run exactly.
TEST(AssignmentTest, ExternallyOwnedPolicyMatchesSpecBuilt) {
  const auto policy = make_policy("uniform");
  // Dirty the instance across a first run; reset() must scrub it.
  expect_pinned(pinned_run("", policy.get()));
  expect_pinned(pinned_run("", policy.get()));
}

// The run-level kPolicyChosen event and one kNodeAssigned event per
// physical dispatch land in the trace; tracing stays read-only.
TEST(AssignmentTest, TraceCarriesPolicyAndAssignmentEvents) {
  obs::Recorder recorder(1u << 17);
  const RunMetrics metrics = pinned_run("uniform", nullptr, &recorder);
  expect_pinned(metrics);
  EXPECT_EQ(recorder.dropped(), 0u);
  std::uint64_t chosen = 0;
  std::uint64_t assigned = 0;
  recorder.for_each([&](const obs::TraceEvent& event) {
    if (event.kind == obs::EventKind::kPolicyChosen) {
      ++chosen;
      EXPECT_EQ(event.arg,
                static_cast<std::int64_t>(PolicyKind::kUniform));
    }
    if (event.kind == obs::EventKind::kNodeAssigned) ++assigned;
  });
  EXPECT_EQ(chosen, 1u);
  EXPECT_EQ(assigned, metrics.jobs_dispatched);
}

/// A stress scenario exercising every policy hook at once: churn, silent
/// nodes, quarantine, speculation, and adaptive deadlines.
RunMetrics stress_rep(const std::string& spec, std::uint64_t tasks,
                      std::uint64_t seed) {
  sim::Simulator simulator;
  DcaConfig config;
  config.nodes = 60;
  config.seed = seed;
  config.assignment_spec = spec;
  config.silent_prob = 0.02;
  config.timeout = 8.0;
  config.churn.join_rate = 1.0;
  config.churn.leave_rate = 1.0;
  config.deadline.adaptive = true;
  config.speculation.enabled = true;
  config.quarantine.enabled = true;
  const redundancy::IterativeFactory factory(3);
  const SyntheticWorkload workload(tasks);
  fault::ByzantineCollusion failures(fault::ReliabilityAssigner(
      fault::ConstantReliability{0.8}, rng::Stream(rng::derive_seed(seed,
                                                                    1))));
  TaskServer server(simulator, config, factory, workload, failures);
  return RunMetrics(server.run());
}

RunMetrics merged_stress(const std::string& spec, unsigned threads) {
  exp::RunnerConfig plan;
  plan.replications = 6;
  plan.threads = threads;
  plan.master_seed = 21;
  exp::ParallelRunner runner(plan);
  return runner.run_merged(
      [&](std::uint64_t /*rep*/, std::uint64_t rep_seed) {
        return stress_rep(spec, 80, rep_seed);
      },
      [](RunMetrics& into, const RunMetrics& from) { into.merge(from); });
}

// Every policy must keep the replication functions pure: merged aggregates
// are bit-identical at any thread count, including the histograms.
TEST(AssignmentTest, EveryPolicyIsThreadCountInvariant) {
  for (const std::string spec :
       {"uniform", "least-outstanding", "stratified:tiers=4,late=2",
        "cartel-averse:groups=6"}) {
    SCOPED_TRACE(spec);
    const RunMetrics one = merged_stress(spec, 1);
    const RunMetrics many = merged_stress(spec, 4);
    EXPECT_EQ(one.tasks_correct, many.tasks_correct);
    EXPECT_EQ(one.jobs_dispatched, many.jobs_dispatched);
    EXPECT_EQ(one.jobs_lost, many.jobs_lost);
    EXPECT_EQ(one.nodes_quarantined, many.nodes_quarantined);
    EXPECT_DOUBLE_EQ(one.makespan, many.makespan);
    EXPECT_DOUBLE_EQ(one.response_time.mean(), many.response_time.mean());
    EXPECT_EQ(one.response_time_hist, many.response_time_hist);
    EXPECT_TRUE(one.jobs_conserved());
  }
}

// Integration: least-outstanding survives the full lifecycle storm
// (speculation, quarantine, churn, silent nodes) with conserved jobs and
// every task settled.
TEST(AssignmentTest, LeastOutstandingSurvivesLifecycleStorm) {
  const RunMetrics metrics = stress_rep("least-outstanding", 200, 5);
  EXPECT_EQ(metrics.tasks_total, 200u);
  EXPECT_GT(metrics.tasks_correct, 150u);
  EXPECT_TRUE(metrics.jobs_conserved());
  EXPECT_GT(metrics.jobs_dispatched, 0u);
}

// Direct-drive fuzz of the least-outstanding mirror against an
// independently maintained reference model: after any interleaving of
// dispatch/complete/join/leave/quarantine/readmit traffic, select() must
// return an *idle* node whose capped debt is minimal over the idle set.
TEST(AssignmentTest, LeastOutstandingRanksByReferenceDebtModel) {
  constexpr std::uint32_t kDebtCap = 63;
  NodePool pool(24);
  const auto policy = make_policy("least-outstanding");
  policy->reset();
  policy->bind(pool);
  rng::Stream rng(99);
  rng::Stream fuzz(7);

  std::vector<std::uint32_t> debt(24, 0);     // reference model, by node id
  std::vector<redundancy::NodeId> busy;
  std::vector<redundancy::NodeId> quarantined;
  const auto capped = [&](redundancy::NodeId node) {
    return std::min(debt[node], kDebtCap);
  };

  for (int step = 0; step < 20'000; ++step) {
    const double dice = fuzz.uniform01();
    if (dice < 0.45 && pool.idle_count() > 0) {
      const AssignContext context{static_cast<std::uint64_t>(step), 0,
                                  pool.live_count()};
      const auto node = policy->select(context, pool, rng);
      ASSERT_TRUE(node.has_value());
      ASSERT_TRUE(pool.is_idle(*node));
      std::uint32_t best = kDebtCap + 1;
      for (const redundancy::NodeId idle : pool.idle_ids()) {
        best = std::min(best, capped(idle));
      }
      ASSERT_EQ(capped(*node), best)
          << "select() returned a node outside the minimal debt bucket";
      pool.acquire(*node);
      policy->on_dispatch(*node, context);
      ++debt[*node];
      busy.push_back(*node);
    } else if (dice < 0.80 && !busy.empty()) {
      const std::size_t pick = fuzz.index(busy.size());
      const redundancy::NodeId node = busy[pick];
      busy[pick] = busy.back();
      busy.pop_back();
      const bool on_time = fuzz.bernoulli(0.7);
      pool.release(node);
      policy->on_complete(node, on_time);
      if (on_time && debt[node] > 0) --debt[node];
    } else if (dice < 0.86 && pool.idle_count() > 1) {
      const auto idle = pool.idle_ids();
      const redundancy::NodeId node = idle[fuzz.index(idle.size())];
      pool.quarantine(node);
      policy->on_quarantine(node);
      quarantined.push_back(node);
    } else if (dice < 0.92 && !quarantined.empty()) {
      const std::size_t pick = fuzz.index(quarantined.size());
      const redundancy::NodeId node = quarantined[pick];
      quarantined[pick] = quarantined.back();
      quarantined.pop_back();
      ASSERT_TRUE(pool.readmit(node));
      policy->on_readmit(node);
    } else if (dice < 0.96 && pool.idle_count() > 1) {
      const auto idle = pool.idle_ids();
      const redundancy::NodeId node = idle[fuzz.index(idle.size())];
      pool.leave(node);
      policy->on_leave(node);
    } else {
      const redundancy::NodeId node = pool.join();
      policy->on_join(node);
      if (node >= debt.size()) debt.resize(node + 1, 0);
      debt[node] = 0;
    }
  }
}

// Cartel-averse: across 10k fuzzed waves, two copies of the same wave
// never land in one collusion group (group = node id mod groups) as long
// as unused groups remain live — the coverage waiver is unreachable here
// because wave width never exceeds the group count.
TEST(AssignmentTest, CartelAverseNeverCoAssignsAGroupWithinAWave) {
  constexpr std::uint32_t kGroups = 8;
  NodePool pool(64);  // eight nodes per group
  const auto policy = make_policy("cartel-averse:groups=8");
  policy->reset();
  policy->bind(pool);
  rng::Stream rng(4);
  rng::Stream fuzz(11);

  std::vector<redundancy::NodeId> busy;
  std::uint64_t waves_placed = 0;
  for (std::uint64_t wave = 0; wave < 10'000; ++wave) {
    const std::uint64_t task = wave / 3;  // several waves per task
    const std::size_t width = 1 + fuzz.index(kGroups);
    std::set<std::uint32_t> groups_used;
    for (std::size_t i = 0; i < width && pool.idle_count() > 0; ++i) {
      const AssignContext context{task, static_cast<std::uint32_t>(wave),
                                  pool.live_count()};
      const auto node = policy->select(context, pool, rng);
      if (!node.has_value()) break;  // eligible groups all busy: declined
      const std::uint32_t group = *node % kGroups;
      ASSERT_TRUE(groups_used.insert(group).second)
          << "wave " << wave << " placed two copies in group " << group;
      pool.acquire(*node);
      policy->on_dispatch(*node, context);
      busy.push_back(*node);
    }
    if (!groups_used.empty()) ++waves_placed;
    // Release a random half of the in-flight copies so later waves see a
    // mixed idle set (and some selects are forced to decline).
    std::size_t keep = busy.size() / 2;
    while (busy.size() > keep) {
      const std::size_t pick = fuzz.index(busy.size());
      const redundancy::NodeId node = busy[pick];
      busy[pick] = busy.back();
      busy.pop_back();
      pool.release(node);
      policy->on_complete(node, true);
    }
    if (task % 7 == 0) policy->on_task_settled(task);
  }
  EXPECT_GT(waves_placed, 9'000u);
}

// The pull substrate: stratified and cartel-averse veto via admit() but
// must never livelock a BOINC run — the decline waivers guarantee every
// task eventually drains even on a bottom-heavy population.
TEST(AssignmentTest, PullSubstrateDrainsUnderVetoPolicies) {
  for (const std::string spec :
       {"stratified:tiers=4,late=1", "cartel-averse:groups=4"}) {
    SCOPED_TRACE(spec);
    sim::Simulator simulator;
    boinc::BoincConfig config;
    config.seed = 31;
    config.assignment_spec = spec;
    const redundancy::IterativeFactory factory(3);
    const SyntheticWorkload workload(40);
    boinc::Deployment deployment(simulator, config,
                                 boinc::uniform_profiles(12, 0.8), factory,
                                 workload);
    const RunMetrics& metrics = deployment.run();
    EXPECT_EQ(metrics.tasks_total, 40u);
    EXPECT_EQ(metrics.tasks_aborted, 0u);
    EXPECT_TRUE(metrics.jobs_conserved());
  }
}

// --- Spec registry UX ------------------------------------------------------

TEST(AssignmentSpecTest, UnknownPolicyGetsDidYouMean) {
  try {
    (void)make_policy("least-outstandng");
    FAIL() << "expected SpecError";
  } catch (const spec::SpecError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("unknown assignment policy 'least-outstandng'"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("did you mean 'least-outstanding'?"),
              std::string::npos)
        << what;
  }
}

TEST(AssignmentSpecTest, CartelAverseRequiresGroups) {
  try {
    (void)make_policy("cartel-averse");
    FAIL() << "expected SpecError";
  } catch (const spec::SpecError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("assignment policy 'cartel-averse'"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("missing required key 'groups'"), std::string::npos)
        << what;
  }
}

TEST(AssignmentSpecTest, UnknownKeyIsRejected) {
  EXPECT_THROW((void)make_policy("uniform:k=3"), spec::SpecError);
  EXPECT_THROW((void)make_policy("stratified:tires=4"), spec::SpecError);
}

TEST(AssignmentSpecTest, BoundsAreValidated) {
  EXPECT_THROW((void)make_policy("stratified:tiers=0"), spec::SpecError);
  EXPECT_THROW((void)make_policy("stratified:tiers=65"), spec::SpecError);
  EXPECT_THROW((void)make_policy("stratified:late=-1"), spec::SpecError);
  EXPECT_THROW((void)make_policy("cartel-averse:groups=0"), spec::SpecError);
  EXPECT_THROW((void)make_policy("cartel-averse:groups=65"),
               spec::SpecError);
}

TEST(AssignmentSpecTest, AliasesResolve) {
  EXPECT_EQ(make_policy("lo")->name(), "least-outstanding");
  EXPECT_EQ(make_policy("cartel:groups=4")->name(), "cartel-averse");
  EXPECT_EQ(make_policy("assign:lo")->kind(),
            PolicyKind::kLeastOutstanding);
}

}  // namespace
}  // namespace smartred::dca
