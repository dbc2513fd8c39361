// Golden pins for the task lifecycle on both execution substrates.
//
// Three seeded runs, each with a flight recorder and a health sampler
// attached, pinned field by field: every RunMetrics counter, the makespan,
// the response-time mean and p99, a digest of every trace event's fields,
// and a digest of the exported time-series CSV. Together they freeze the
// observable contract of the per-task state machine — RNG draw order,
// kernel schedule/cancel order (time ties break by sequence number),
// policy-hook order, trace fields and series creation order — so a
// refactor of the lifecycle either reproduces these values or changed the
// simulation. The scenarios:
//   * boinc::Deployment on a 200-client PlanetLab pool, iterative:d=4;
//   * boinc::Deployment with eager coded:n=6,k=4,g=6 (per-report peeks);
//   * dca::TaskServer with eager coded redundancy at r = 0.9 under
//     collusion and the whole straggler stack (Pareto latency, churn,
//     silent nodes, speculation, quarantine, adaptive deadlines,
//     started-tasks-first, least-outstanding assignment).
// A fourth, unpinned run checks that the health sampler lets a run whose
// pool churned away drain and abandon its tasks.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "boinc/deployment.h"
#include "boinc/profile.h"
#include "dca/task_server.h"
#include "dca/workload.h"
#include "fault/failure_model.h"
#include "fault/latency_model.h"
#include "obs/export.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "redundancy/registry.h"
#include "sim/simulator.h"

namespace smartred {
namespace {

/// FNV-1a over 64-bit words: a digest that folds values, not raw bytes
/// (TraceEvent has padding, so hashing its object representation would
/// read indeterminate bytes).
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      state_ ^= (word >> (8 * byte)) & 0xffU;
      state_ *= 0x100000001b3ULL;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  [[nodiscard]] std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// Every RunMetrics counter, in declaration order.
std::array<std::uint64_t, 18> counters(const dca::RunMetrics& m) {
  return {m.tasks_total,       m.tasks_correct,
          m.tasks_aborted,     m.tasks_abandoned,
          m.decodes_rejected,  m.jobs_dispatched,
          m.jobs_completed,    m.jobs_correct,
          m.jobs_lost,         m.jobs_discarded,
          m.jobs_unrun,        m.jobs_speculative,
          m.jobs_timed_out,    m.nodes_joined,
          m.nodes_left,        m.nodes_quarantined,
          m.nodes_readmitted,
          static_cast<std::uint64_t>(m.max_jobs_single_task)};
}

/// What one traced, sampled run pins.
struct Observed {
  dca::RunMetrics metrics;
  std::vector<obs::TraceEvent> trace;
  std::string csv;
};

std::uint64_t trace_digest(const std::vector<obs::TraceEvent>& events) {
  Digest digest;
  for (const obs::TraceEvent& event : events) {
    digest.add(event.time);
    digest.add(event.task);
    digest.add(static_cast<std::uint64_t>(event.arg));
    digest.add(std::uint64_t{event.node});
    digest.add(std::uint64_t{event.rep});
    digest.add(std::uint64_t{event.wave});
    digest.add(static_cast<std::uint64_t>(event.kind));
    digest.add(std::uint64_t{event.reason});
  }
  return digest.value();
}

std::uint64_t csv_digest(const std::string& csv) {
  Digest digest;
  for (const char c : csv) digest.add(static_cast<std::uint64_t>(c));
  return digest.value();
}

/// Runs `run` with a fresh recorder and sampler attached and collects the
/// metrics, the trace and the exported time-series CSV.
template <typename Run>
Observed observe(Run&& run) {
  obs::Recorder recorder(1U << 18);
  obs::TimeSeriesRecorder timeseries;
  Observed observed;
  observed.metrics = run(&recorder, &timeseries);
  EXPECT_EQ(recorder.dropped(), 0U);
  observed.trace = recorder.snapshot();
  obs::PointSeries point{"golden", {}};
  for (const obs::TimeSeries& series : timeseries.series()) {
    point.series.push_back(obs::MergedSeries{0, series.name, series.samples});
  }
  std::ostringstream csv;
  obs::write_timeseries_csv(csv, std::span<const obs::PointSeries>(&point, 1));
  observed.csv = csv.str();
  return observed;
}

struct Golden {
  std::array<std::uint64_t, 18> counters;
  double makespan;
  double response_mean;
  double response_p99;
  std::uint64_t trace_events;
  std::uint64_t trace_digest;
  std::uint64_t csv_bytes;
  std::uint64_t csv_digest;
};

void expect_golden(const Observed& observed, const Golden& golden) {
  EXPECT_EQ(counters(observed.metrics), golden.counters);
  EXPECT_EQ(observed.metrics.makespan, golden.makespan);
  EXPECT_EQ(observed.metrics.response_time.mean(), golden.response_mean);
  EXPECT_EQ(observed.metrics.response_time_hist.quantile(0.99),
            golden.response_p99);
  EXPECT_EQ(observed.trace.size(), golden.trace_events);
  EXPECT_EQ(trace_digest(observed.trace), golden.trace_digest);
  EXPECT_EQ(observed.csv.size(), golden.csv_bytes);
  EXPECT_EQ(csv_digest(observed.csv), golden.csv_digest);
}

/// boinc::Deployment on 200 PlanetLab-like clients and 140 synthetic tasks.
Observed deployment_run(const std::string& spec, std::uint64_t seed,
                        int max_jobs_per_task = 10'000) {
  return observe([&](obs::Recorder* recorder,
                     obs::TimeSeriesRecorder* timeseries) {
    sim::Simulator simulator;
    simulator.set_recorder(recorder);
    rng::Stream profile_rng(seed);
    const auto profiles = boinc::planetlab_profiles(200, profile_rng);
    boinc::BoincConfig config;
    config.seed = seed;
    config.timeseries = timeseries;
    config.max_jobs_per_task = max_jobs_per_task;
    const auto factory = redundancy::make_strategy(spec);
    const dca::SyntheticWorkload workload(140);
    boinc::Deployment deployment(simulator, config, profiles, *factory,
                                 workload);
    return dca::RunMetrics(deployment.run());
  });
}

/// dca::TaskServer running eager coded redundancy under the straggler stack.
Observed stragglers_run() {
  return observe([](obs::Recorder* recorder,
                    obs::TimeSeriesRecorder* timeseries) {
    sim::Simulator simulator;
    simulator.set_recorder(recorder);
    dca::DcaConfig config;
    config.nodes = 120;
    config.seed = 11;
    config.timeout = 25.0;
    config.silent_prob = 0.02;
    config.queue_policy = dca::QueuePolicy::kStartedTasksFirst;
    config.churn.join_rate = 2.0;
    config.churn.leave_rate = 2.0;
    config.deadline.adaptive = true;
    config.deadline.quantile = 0.9;
    config.deadline.multiplier = 1.5;
    config.deadline.warmup = 50;
    config.speculation.enabled = true;
    config.speculation.max_copies = 2;
    config.quarantine.enabled = true;
    config.quarantine.backoff_base = 50.0;
    config.quarantine.backoff_cap = 800.0;
    config.max_jobs_per_task = 14;
    config.timeseries = timeseries;
    config.assignment_spec = "least-outstanding";
    fault::ParetoLatency latency(0.5, 1.5);
    config.latency = &latency;
    const auto factory = redundancy::make_strategy("coded:n=6,k=4,g=6");
    const dca::SyntheticWorkload workload(300);
    fault::ByzantineCollusion failures(fault::ReliabilityAssigner(
        fault::ConstantReliability{0.9}, rng::Stream(11)));
    dca::TaskServer server(simulator, config, *factory, workload, failures);
    return dca::RunMetrics(server.run());
  });
}

TEST(LifecycleGoldenTest, DeploymentIterative) {
  expect_golden(deployment_run("iterative:d=4", 1),
                Golden{{140, 136, 0, 0, 0, 1656, 1570, 1049, 86, 0, 0, 0, 0,
                        0, 0, 0, 0, 39},
                       107.24940449526102,  // the last settle
                       22.127753648341816,
                       100.0,
                       3961,
                       2042671856452502322ULL,
                       11824,
                       12226921957297363829ULL});
}

// A job cap of 60 makes some tasks abort, so the abort path is pinned too.
TEST(LifecycleGoldenTest, DeploymentEagerCoded) {
  expect_golden(deployment_run("coded:n=6,k=4,g=6", 2, 60),
                Golden{{140, 117, 23, 0, 5408, 4078, 3699, 2487, 158, 221, 0,
                        0, 0, 0, 0, 0, 0, 60},
                       199.86157282516237,  // the last settle
                       27.104457818989879,
                       108.0,
                       10883,
                       9956767954420207172ULL,
                       22158,
                       7971806333337330111ULL});
}

TEST(LifecycleGoldenTest, TaskServerStragglerStack) {
  const Observed observed = stragglers_run();
  // The scenario must exercise every straggler mechanism it pins.
  const dca::RunMetrics& m = observed.metrics;
  EXPECT_GT(m.tasks_aborted, 0U);
  EXPECT_GT(m.decodes_rejected, 0U);
  EXPECT_GT(m.jobs_speculative, 0U);
  EXPECT_GT(m.nodes_quarantined, 0U);
  EXPECT_GT(m.nodes_readmitted, 0U);
  EXPECT_GT(m.nodes_joined, 0U);
  EXPECT_GT(m.nodes_left, 0U);
  expect_golden(observed,
                Golden{{300, 261, 39, 0, 898, 2378, 1915, 1731, 102, 361, 0,
                        102, 151, 67, 82, 46, 26, 14},
                       36.829700512248507,
                       2.0898451680619559,
                       6.0,
                       5663,
                       // Re-pinned when kDeadlineFired and
                       // kSpeculationLaunched took the task's wave (one
                       // wave rule for every event that names a task);
                       // the events themselves did not change.
                       16090732901466263197ULL,
                       9237,
                       2894510455509820329ULL});
}

/// The time of the last kDecision or kTaskAborted event in a trace.
double last_settle(const std::vector<obs::TraceEvent>& trace) {
  double last = -1.0;
  for (const obs::TraceEvent& event : trace) {
    if (event.kind == obs::EventKind::kDecision ||
        event.kind == obs::EventKind::kTaskAborted) {
      last = event.time;
    }
  }
  return last;
}

// The makespan marks the end of useful work on both substrates: the last
// task's settle. Report-deadline timers, discarded stragglers and
// quarantine re-admissions that run on after it do not extend it — the
// rule RunMetrics::merge relies on when it takes the slowest replication.
TEST(LifecycleGoldenTest, MakespanIsTheLastSettleOnBothSubstrates) {
  for (const Observed& observed :
       {deployment_run("iterative:d=4", 1),
        deployment_run("coded:n=6,k=4,g=6", 2, 60), stragglers_run()}) {
    ASSERT_GT(observed.metrics.tasks_total, 0U);
    EXPECT_EQ(observed.metrics.makespan, last_settle(observed.trace));
  }
}

/// dca::TaskServer on three nodes that all churn away with no joins, so the
/// event queue drains with every task undecided and the run abandons them.
dca::RunMetrics drained_pool_run(obs::TimeSeriesRecorder* timeseries) {
  sim::Simulator simulator;
  dca::DcaConfig config;
  config.nodes = 3;
  config.timeout = 5.0;
  config.churn.leave_rate = 5.0;
  config.timeseries = timeseries;
  const auto factory = redundancy::make_strategy("iterative:d=4");
  const dca::SyntheticWorkload workload(200);
  fault::ByzantineCollusion failures(fault::ReliabilityAssigner(
      fault::ConstantReliability{0.7}, rng::Stream(5)));
  dca::TaskServer server(simulator, config, *factory, workload, failures);
  return dca::RunMetrics(server.run());
}

// The health sampler must not keep a drained run alive: it stops re-arming
// once it is the only pending event, so the sampled run abandons the same
// tasks as the unsampled one. Its makespan is the one observable a sample
// may move — the last sample sets the drain time — and by less than one
// sample interval.
TEST(LifecycleGoldenTest, SampledRunEndsWhenChurnDrainsThePool) {
  const dca::RunMetrics unsampled = drained_pool_run(nullptr);
  ASSERT_GT(unsampled.tasks_abandoned, 0U);
  obs::TimeSeriesRecorder timeseries;
  const dca::RunMetrics sampled = drained_pool_run(&timeseries);
  EXPECT_EQ(counters(sampled), counters(unsampled));
  EXPECT_GE(sampled.makespan, unsampled.makespan);
  EXPECT_LT(sampled.makespan, unsampled.makespan + 1.0);
}

}  // namespace
}  // namespace smartred
