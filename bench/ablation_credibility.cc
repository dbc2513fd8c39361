// Ablation A6 (paper §5.1 / related work [27]): reputation-based schemes
// versus iterative redundancy under patient attackers.
//
// Pool: honest-but-faulty nodes (reliability r) plus a malicious fraction
// that behaves correctly for a learning phase, then colludes on the wrong
// answer; an attacker caught by a spot-check re-registers under a fresh
// identity (identity churn). Three validators face the same pool:
//
//   IR        — the margin rule; no per-node state at all.
//   CRED      — credibility-based fault tolerance: spot-checks (rate q,
//               known-answer jobs that add cost but no votes), per-node
//               credibility, blacklisting, Bayesian acceptance threshold.
//   ADAPT     — BOINC-style adaptive replication: nodes trusted after a
//               streak of validated results; trusted results accepted
//               unchecked (and recorded as validated — the flaw).
//
// The paper's argument, measured: reputation schemes pay spot-check
// overhead and storage yet lose reliability to attackers who earn trust
// and to identity churn, while iterative redundancy's guarantees depend
// only on the fraction of wrong votes.
// Like ablation_selftuning, this bench is one sequential run per
// validator, so it takes no --reps or --threads: all three validators
// thread per-node state (trust books, reputation books, attacker job
// counters) through every task in order.
#include <iostream>
#include <unordered_map>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/table.h"
#include "harness.h"
#include "redundancy/adaptive.h"
#include "redundancy/analysis.h"
#include "redundancy/credibility.h"
#include "redundancy/iterative.h"
#include "redundancy/strategy.h"

namespace {

using namespace smartred;            // NOLINT(build/namespaces) — bench main
using redundancy::NodeId;
using redundancy::ResultValue;
using redundancy::Vote;

constexpr ResultValue kRight = 1;
constexpr ResultValue kWrong = 0;

/// One volunteer slot. Identity churn swaps in a fresh NodeId while the
/// underlying (still malicious) volunteer stays.
struct Volunteer {
  NodeId id;
  bool malicious;
  int jobs_done = 0;
};

struct PoolState {
  std::vector<Volunteer> volunteers;
  NodeId next_id;
};

PoolState make_pool(std::size_t size, double malicious_fraction,
                    rng::Stream& rng) {
  PoolState pool;
  pool.volunteers.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    pool.volunteers.push_back(
        Volunteer{static_cast<NodeId>(i), rng.bernoulli(malicious_fraction)});
  }
  pool.next_id = static_cast<NodeId>(size);
  return pool;
}

struct Scenario {
  std::uint64_t tasks = 5'000;
  std::size_t pool_size = 200;
  double honest_reliability = 0.95;
  double malicious_fraction = 0.2;
  int learning_phase_jobs = 30;  ///< attacker behaves until this many jobs
  double spot_check_rate = 0.1;
  std::uint64_t seed = 1;
};

/// What a volunteer answers right now (attackers turn after the phase).
bool answers_correctly(const Volunteer& volunteer, double honest_reliability,
                       int learning_phase, rng::Stream& rng) {
  if (volunteer.malicious && volunteer.jobs_done >= learning_phase) {
    return false;  // patient attacker, now colluding
  }
  return rng.bernoulli(honest_reliability);
}

struct Outcome {
  double reliability = 0.0;
  double cost = 0.0;     ///< jobs + spot-checks per task
  long long churns = 0;  ///< identity re-registrations
};

/// Runs the margin rule or adaptive replication (no spot-checks).
Outcome run_plain(redundancy::StrategyFactory& factory, const Scenario& s,
                  redundancy::TrustBook* trust_book) {
  rng::Stream rng(s.seed);
  PoolState pool = make_pool(s.pool_size, s.malicious_fraction, rng);
  std::uint64_t correct = 0;
  std::uint64_t jobs = 0;
  for (std::uint64_t task = 0; task < s.tasks; ++task) {
    auto strategy = factory.make();
    std::vector<Vote> votes;
    redundancy::Decision decision = strategy->decide(votes);
    while (!decision.done()) {
      for (int j = 0; j < decision.jobs; ++j) {
        Volunteer& volunteer =
            pool.volunteers[rng.index(pool.volunteers.size())];
        const bool ok = answers_correctly(volunteer, s.honest_reliability,
                                          s.learning_phase_jobs, rng);
        ++volunteer.jobs_done;
        ++jobs;
        votes.push_back(Vote{volunteer.id, ok ? kRight : kWrong});
      }
      decision = strategy->decide(votes);
    }
    if (decision.value == kRight) ++correct;
    if (trust_book != nullptr) {
      // BOINC validation: votes matching the accepted value are "valid" —
      // including a wrong value accepted from a trusted node.
      for (const Vote& vote : votes) {
        trust_book->record_validated(vote.node,
                                     vote.value == decision.value);
      }
    }
  }
  return {static_cast<double>(correct) / static_cast<double>(s.tasks),
          static_cast<double>(jobs) / static_cast<double>(s.tasks), 0};
}

/// Runs credibility-based fault tolerance with spot-checks + blacklisting +
/// attacker identity churn.
Outcome run_credibility(const redundancy::CredibilityFactory& factory,
                        redundancy::ReputationBook& book, const Scenario& s) {
  rng::Stream rng(s.seed);
  PoolState pool = make_pool(s.pool_size, s.malicious_fraction, rng);
  std::uint64_t correct = 0;
  std::uint64_t jobs = 0;
  long long churns = 0;

  auto spot_check = [&](Volunteer& volunteer) {
    // Known-answer job: pure overhead; a lie is always detected.
    ++jobs;
    const bool ok = answers_correctly(volunteer, s.honest_reliability,
                                      s.learning_phase_jobs, rng);
    ++volunteer.jobs_done;
    book.record_spot_check(volunteer.id, ok);
    if (!ok) {
      // Blacklisted — the attacker simply re-registers (§5.1: "malicious
      // nodes that have developed a bad reputation can change their
      // identity").
      volunteer.id = pool.next_id++;
      volunteer.jobs_done = 0;
      ++churns;
    }
  };

  for (std::uint64_t task = 0; task < s.tasks; ++task) {
    auto strategy = factory.make();
    std::vector<Vote> votes;
    redundancy::Decision decision = strategy->decide(votes);
    int safety = 0;
    while (!decision.done() && ++safety < 200) {
      for (int j = 0; j < decision.jobs; ++j) {
        Volunteer& volunteer =
            pool.volunteers[rng.index(pool.volunteers.size())];
        if (rng.bernoulli(s.spot_check_rate)) spot_check(volunteer);
        const bool ok = answers_correctly(volunteer, s.honest_reliability,
                                          s.learning_phase_jobs, rng);
        ++volunteer.jobs_done;
        ++jobs;
        votes.push_back(Vote{volunteer.id, ok ? kRight : kWrong});
      }
      decision = strategy->decide(votes);
    }
    if (decision.done() && decision.value == kRight) ++correct;
  }
  return {static_cast<double>(correct) / static_cast<double>(s.tasks),
          static_cast<double>(jobs) / static_cast<double>(s.tasks), churns};
}

int run_bench(int argc, char** argv) {
  flags::Parser parser(
      "ablation_credibility",
      "A6 — credibility-based FT and adaptive replication vs. iterative "
      "redundancy under patient attackers with identity churn (§5.1)");
  const auto tasks = parser.add_int("tasks", 5'000, "tasks per validator");
  const auto malicious = parser.add_double("malicious", 0.2,
                                           "malicious pool fraction");
  const auto honest_r = parser.add_double("honest-reliability", 0.95,
                                          "honest node reliability");
  const auto d = parser.add_int("d", 6, "iterative margin");
  const auto seed = parser.add_int("seed", 9, "master seed");
  const auto csv = parser.add_string("csv", "", "CSV output path (optional)");
  parser.parse(argc, argv);

  Scenario scenario;
  scenario.tasks = static_cast<std::uint64_t>(*tasks);
  scenario.malicious_fraction = *malicious;
  scenario.honest_reliability = *honest_r;
  scenario.seed = static_cast<std::uint64_t>(*seed);

  table::banner(std::cout,
                "A6 — validators vs. patient attackers (malicious fraction " +
                    std::to_string(*malicious) + ")");
  table::Table out(
      {"validator", "reliability", "cost_per_task", "identity_churns",
       "per_node_state"});

  {
    redundancy::IterativeFactory factory(static_cast<int>(*d));
    const Outcome outcome = run_plain(factory, scenario, nullptr);
    out.add_row({std::string("IR(d=") + std::to_string(*d) + ")",
                 outcome.reliability, outcome.cost, outcome.churns,
                 std::string("none")});
  }
  {
    auto book = std::make_shared<redundancy::TrustBook>(10);
    redundancy::AdaptiveFactory factory(book, 2);
    const Outcome outcome = run_plain(factory, scenario, book.get());
    out.add_row({factory.name(), outcome.reliability, outcome.cost,
                 outcome.churns, std::string("trust streaks")});
  }
  {
    auto book =
        std::make_shared<redundancy::ReputationBook>(*malicious + 0.05);
    redundancy::CredibilityFactory factory(book, 0.99);
    const Outcome outcome = run_credibility(factory, *book, scenario);
    out.add_row({factory.name(), outcome.reliability, outcome.cost,
                 outcome.churns, std::string("spot-check history")});
  }

  bench::emit(out, *csv, "credibility");
  std::cout
      << "\nReading: iterative redundancy holds its Equation (6) guarantee "
         "with zero per-node state; adaptive replication is poisoned by "
         "attackers who earn trust and then lie (their lies validate "
         "themselves); credibility-based FT pays spot-check overhead and "
         "still leaks errors while attackers churn identities.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return smartred::bench::guarded_main(
      argc, argv, [&] { return run_bench(argc, argv); });
}
