// Shared experiment harness for the figure-reproduction and ablation
// benches: table/CSV emission, the sweep of data points every replicating
// bench runs through (bench::Sweep: its flags, seeds, telemetry and
// checkpoints), the straggler defences two benches share, and the guarded
// main every bench runs in.
//
// Every data point is the merge of `--reps` replications whose seeds are
// derived from one master seed; the merged aggregate is bit-identical for
// any --threads value (see src/exp/parallel_runner.h for the contract).
// A Sweep numbers its points in the order the bench runs them and seeds
// point n with derive_seed(--seed, n), so points get independent seed
// streams while staying reproducible from the single --seed flag.
#pragma once

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ckpt/sweep.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/spec.h"
#include "common/table.h"
#include "dca/assignment.h"
#include "dca/metrics.h"
#include "dca/task_server.h"
#include "dca/workload.h"
#include "exp/parallel_runner.h"
#include "fault/failure_model.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "redundancy/montecarlo.h"
#include "redundancy/strategy.h"
#include "sim/simulator.h"

namespace smartred::bench {

/// Prints a table and, when `csv_path` is non-empty, mirrors it to CSV
/// (suffixing `tag` before the extension so one binary can emit several
/// series files).
inline void emit(const table::Table& data, const std::string& csv_path,
                 const std::string& tag) {
  data.print(std::cout);
  if (csv_path.empty()) return;
  std::string path = csv_path;
  const auto dot = path.rfind('.');
  const std::string suffix = "_" + tag;
  if (dot == std::string::npos) {
    path += suffix;
  } else {
    path.insert(dot, suffix);
  }
  data.write_csv(path);
  std::cout << "(written to " << path << ")\n";
}

/// `value`, the parsed value of flag --`name`, as a count. A value below
/// `min` is a flags::ParseError (exit 2 under guarded_main), never coerced.
[[nodiscard]] inline std::uint64_t at_least(const char* name,
                                            std::int64_t value,
                                            std::int64_t min) {
  if (value < min) {
    std::string message = "--";
    message += name;
    message += " must be at least ";
    message += std::to_string(min);
    message += ", got ";
    message += std::to_string(value);
    throw flags::ParseError(message);
  }
  return static_cast<std::uint64_t>(value);
}

/// What one replication of a sweep point receives besides its seed: its
/// private flight-recorder ring and health-sampling recorder (each null
/// when the sweep has no such output), the shared phase profiler
/// (thread-safe; null when profiling is off), and the sweep's --policy.
struct RepTelemetry {
  obs::Recorder* trace = nullptr;
  obs::TimeSeriesRecorder* timeseries = nullptr;
  obs::PhaseProfiler* profile = nullptr;
  /// The --policy spec; empty (uniform) when the bench takes no --policy.
  std::string_view policy;

  /// Wires the handles into a dca::DcaConfig or boinc::BoincConfig, and
  /// writes the --policy spec into a config that names no assignment
  /// policy itself. The trace ring goes to the simulator instead
  /// (`simulator.set_recorder(telemetry.trace)`).
  template <typename Config>
  void apply(Config& config) const {
    config.timeseries = timeseries;
    if constexpr (requires { config.profile; }) config.profile = profile;
    if (config.assignment_spec.empty() && config.assignment == nullptr) {
      config.assignment_spec = policy;
    }
  }
};

/// The sweep flags a bench chooses: the defaults of --reps and --seed, and
/// whether it takes --policy (only benches whose points dispatch to nodes
/// do).
struct SweepFlags {
  std::int64_t reps = 8;
  std::int64_t seed = 1;
  bool policy = true;
};

/// The sweep of data points one bench runs. It owns the sweep flags:
/// --reps, --threads, --seed, --csv, the telemetry flags (--trace,
/// --trace-ring, --metrics, --progress, --profile), the crash-safety flags
/// (--checkpoint-dir, --checkpoint-every, --resume) and --policy. Each data
/// point is one call, which
///   * numbers the point n in call order and seeds it with
///     derive_seed(--seed, n) (call order must therefore be the same on
///     every run; a resume checks each checkpoint's number and label);
///   * runs its replications on --threads workers, resumable from the
///     point's checkpoint when --checkpoint-dir is set;
///   * hands each replication its RepTelemetry;
///   * records the merged aggregate for the --trace and --metrics outputs.
/// The destructor writes the enabled outputs:
///   * --trace=<path>: flight-recorder events — JSON lines when the path
///     ends in .jsonl, Chrome about:tracing JSON otherwise;
///   * --metrics=<path>: Prometheus text exposition of the per-point
///     aggregates (scalars, summaries, latency histograms) to <path> and
///     the health time-series to <path>.timeseries.csv;
///   * --profile: a wall-clock phase profile on stderr.
/// With these flags and --progress unset no collector is ever attached, so
/// instrumented and plain runs execute the exact same simulation code path.
class Sweep {
 public:
  /// Registers the sweep flags on `parser` after the bench's own, parses
  /// `argv`, and checks the values before any point runs: --reps below 1,
  /// negative --threads or --checkpoint-every, and --trace-ring below 1
  /// throw flags::ParseError; an unknown --policy throws the registry's
  /// spec::SpecError with its did-you-mean message.
  Sweep(flags::Parser& parser, int argc, const char* const* argv,
        SweepFlags defaults = {}) {
    const auto reps = parser.add_int("reps", defaults.reps,
                                     "replications merged per data point");
    const auto threads = parser.add_int(
        "threads", 0, "worker threads (0 = one per hardware thread)");
    const auto seed = parser.add_int("seed", defaults.seed, "master seed");
    const auto csv = parser.add_string("csv", "", "CSV output path (optional)");
    const auto trace = parser.add_string(
        "trace", "",
        "flight-recorder output path: *.jsonl for JSON lines, anything else "
        "for Chrome about:tracing JSON (optional)");
    const auto trace_ring = parser.add_int(
        "trace-ring",
        static_cast<std::int64_t>(obs::TraceCollector::kDefaultRingCapacity),
        "per-replication flight-recorder ring capacity, in events");
    const auto metrics = parser.add_string(
        "metrics", "",
        "telemetry output path: Prometheus text exposition to <path>, health "
        "time-series CSV to <path>.timeseries.csv (optional)");
    const auto progress = parser.add_bool(
        "progress", false,
        "live stderr progress line per data point (reps done, rep/s, ETA)");
    const auto profile = parser.add_bool(
        "profile", false, "print a wall-clock phase profile to stderr at exit");
    const auto checkpoint_dir = parser.add_string(
        "checkpoint-dir", "",
        "directory for crash-safe sweep checkpoints; enables checkpointing "
        "(optional)");
    const auto checkpoint_every = parser.add_int(
        "checkpoint-every", 1,
        "completed replications between checkpoint saves per data point "
        "(0 = save only at point completion or interruption)");
    const auto resume = parser.add_bool(
        "resume", false,
        "resume an interrupted sweep from --checkpoint-dir instead of "
        "starting it over");
    const auto policy =
        defaults.policy
            ? parser.add_string(
                  "policy", "uniform",
                  "task-to-worker assignment policy for DCA points: uniform, "
                  "least-outstanding, stratified[:tiers=T,late=W], "
                  "cartel-averse:groups=G (see dca::make_policy)")
            : nullptr;
    parser.parse(argc, argv);

    reps_ = at_least("reps", *reps, 1);
    threads_ = static_cast<unsigned>(at_least("threads", *threads, 0));
    const std::uint64_t every =
        at_least("checkpoint-every", *checkpoint_every, 0);
    trace_ring_ = at_least("trace-ring", *trace_ring, 1);
    if (policy != nullptr) {
      static_cast<void>(dca::make_policy(*policy));
      policy_ = *policy;
    }
    seed_ = static_cast<std::uint64_t>(*seed);
    csv_ = *csv;
    trace_path_ = *trace;
    metrics_path_ = *metrics;
    progress_ = *progress;
    if (!trace_path_.empty()) trace_.emplace(trace_ring_);
    if (!metrics_path_.empty()) timeseries_.emplace();
    if (*profile) profiler_.emplace();
    if (!checkpoint_dir->empty()) {
      checkpointer_.emplace(*checkpoint_dir, every, *resume);
    }
  }

  Sweep(const Sweep&) = delete;
  Sweep& operator=(const Sweep&) = delete;

  ~Sweep() {
    // A point an interrupt cut short still files what it traced.
    close_point({});
    write_trace();
    write_metrics();
    if (profiler_) profiler_->report(std::cerr);
  }

  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] const std::string& csv() const { return csv_; }
  [[nodiscard]] const std::string& policy() const { return policy_; }

  /// Runs the next point, named `label`, as --reps replications that each
  /// run the bench's whole workload: `run_rep(rep_seed, telemetry)` returns
  /// one replication's aggregate. It is called concurrently from worker
  /// threads, so it must depend only on its arguments.
  template <typename RunRep>
  auto replicate(std::string label, RunRep&& run_rep) {
    return run(std::move(label), reps_,
               [&](std::uint64_t, std::uint64_t rep_seed,
                   const RepTelemetry& telemetry) {
                 return run_rep(rep_seed, telemetry);
               });
  }

  /// Runs the next point, named `label`, as replications that together run
  /// `total_tasks` tasks, split as evenly as possible:
  /// `run_rep(rep_tasks, rep_seed, telemetry)` runs one share (called
  /// concurrently, like replicate()'s). A point with fewer tasks than
  /// --reps runs one replication per task, so none receives zero tasks.
  template <typename RunRep>
  auto replicate_tasks(std::string label, std::uint64_t total_tasks,
                       RunRep&& run_rep) {
    const std::uint64_t reps =
        std::min(reps_, std::max<std::uint64_t>(total_tasks, 1));
    return run(std::move(label), reps,
               [&](std::uint64_t rep, std::uint64_t rep_seed,
                   const RepTelemetry& telemetry) {
                 return run_rep(exp::partition_size(total_tasks, reps, rep),
                                rep_seed, telemetry);
               });
  }

  /// A DCA point with a caller-built failure model: `make_failures(rep_seed)`
  /// returns each replication's own model by value (failure models hold RNG
  /// state, so replications cannot share one). `base` must not carry a
  /// latency model for the same reason; replications needing one use
  /// replicate_tasks().
  template <typename MakeFailures>
  dca::RunMetrics dca_point(std::string label,
                            const redundancy::StrategyFactory& factory,
                            std::uint64_t total_tasks,
                            const dca::DcaConfig& base,
                            MakeFailures&& make_failures) {
    return replicate_tasks(
        std::move(label), total_tasks,
        [&](std::uint64_t rep_tasks, std::uint64_t rep_seed,
            const RepTelemetry& telemetry) {
          sim::Simulator simulator;
          simulator.set_recorder(telemetry.trace);
          dca::DcaConfig config = base;
          config.seed = rep_seed;
          telemetry.apply(config);
          const dca::SyntheticWorkload workload(rep_tasks);
          auto failures = make_failures(rep_seed);
          dca::TaskServer server(simulator, config, factory, workload,
                                 failures);
          return dca::RunMetrics(server.run());
        });
  }

  /// The canonical Figure 5(a)/6 point: constant node reliability under
  /// binary Byzantine collusion.
  dca::RunMetrics byzantine_dca(std::string label,
                                const redundancy::StrategyFactory& factory,
                                double reliability, std::uint64_t total_tasks,
                                const dca::DcaConfig& base) {
    return dca_point(std::move(label), factory, total_tasks, base,
                     [reliability](std::uint64_t rep_seed) {
                       return fault::ByzantineCollusion(
                           fault::ReliabilityAssigner(
                               fault::ConstantReliability{reliability},
                               rng::Stream(rng::derive_seed(rep_seed, 1))));
                     });
  }

  /// A Monte-Carlo point: `total_tasks` tasks sampled through `factory`'s
  /// strategy on an arbitrary vote source, shared across workers (so it
  /// must be thread-safe: pure captures, all randomness through the passed
  /// stream).
  redundancy::MonteCarloResult custom_mc(
      std::string label, const redundancy::StrategyFactory& factory,
      const redundancy::VoteSource& source, redundancy::ResultValue correct,
      std::uint64_t total_tasks, int max_jobs_per_task = 100'000) {
    return monte_carlo(std::move(label), total_tasks, max_jobs_per_task,
                       [&](const redundancy::MonteCarloConfig& config) {
                         return redundancy::run_custom(factory, source,
                                                       correct, config);
                       });
  }

  /// custom_mc() for the binary worst case at constant reliability.
  redundancy::MonteCarloResult binary_mc(
      std::string label, const redundancy::StrategyFactory& factory,
      double reliability, std::uint64_t total_tasks) {
    return monte_carlo(std::move(label), total_tasks, 100'000,
                       [&](const redundancy::MonteCarloConfig& config) {
                         return redundancy::run_binary(factory, reliability,
                                                       config);
                       });
  }

 private:
  template <typename Sample>
  redundancy::MonteCarloResult monte_carlo(std::string label,
                                           std::uint64_t total_tasks,
                                           int max_jobs_per_task,
                                           Sample&& sample) {
    return replicate_tasks(
        std::move(label), total_tasks,
        [&](std::uint64_t rep_tasks, std::uint64_t rep_seed,
            const RepTelemetry& telemetry) {
          redundancy::MonteCarloConfig config;
          config.tasks = rep_tasks;
          config.seed = rep_seed;
          config.max_jobs_per_task = max_jobs_per_task;
          config.recorder = telemetry.trace;
          config.timeseries = telemetry.timeseries;
          return sample(config);
        });
  }

  /// Numbers, seeds and runs the next point: `fn(rep, rep_seed, telemetry)`
  /// for each of `replications` replications, merged in index order.
  template <typename Fn>
  auto run(std::string label, std::uint64_t replications, Fn&& fn) {
    exp::RunnerConfig plan;
    plan.replications = replications;
    plan.threads = threads_;
    plan.master_seed = rng::derive_seed(seed_, next_point_++);
    plan.progress = progress_;
    plan.progress_label = label;
    if (checkpointer_) plan.checkpoint = &checkpointer_->plan_point(label);
    if (profiler_) plan.profile = &*profiler_;
    if (trace_) plan.trace = &*trace_;
    if (timeseries_) plan.timeseries = &*timeseries_;
    if (trace_ || timeseries_) open_point_ = std::move(label);
    exp::ParallelRunner runner(plan);
    auto aggregate = ckpt::run_resumable(
        runner, [&](std::uint64_t rep, std::uint64_t rep_seed) {
          RepTelemetry telemetry;
          if (trace_) telemetry.trace = &trace_->recorder(rep);
          if (timeseries_) telemetry.timeseries = &timeseries_->recorder(rep);
          telemetry.profile = plan.profile;
          telemetry.policy = policy_;
          return fn(rep, rep_seed, telemetry);
        });
    if (open_point_) close_point(obs::snapshot(aggregate));
    return aggregate;
  }

  /// Files the open point's trace and time series under its label, with
  /// `metrics` as its aggregate.
  void close_point(obs::MetricRegistry metrics) {
    if (!open_point_) return;
    if (trace_) {
      trace_points_.push_back(obs::PointTrace{
          *open_point_, trace_->merged(), metrics, trace_->dropped()});
    }
    if (timeseries_) {
      series_points_.push_back(
          obs::PointSeries{*open_point_, timeseries_->merged()});
      metric_points_.push_back(
          obs::MetricsPoint{std::move(*open_point_), std::move(metrics)});
    }
    open_point_.reset();
  }

  void write_trace() {
    if (!trace_) return;
    std::ofstream out(trace_path_);
    if (!out) {
      std::cerr << "trace: cannot open " << trace_path_ << " for writing\n";
      return;
    }
    const bool jsonl =
        trace_path_.size() >= 6 &&
        trace_path_.compare(trace_path_.size() - 6, 6, ".jsonl") == 0;
    if (jsonl) {
      obs::write_jsonl(out, trace_points_);
    } else {
      obs::write_chrome_trace(out, trace_points_);
    }
    std::cout << "(trace written to " << trace_path_ << ")\n";
    std::uint64_t dropped = 0;
    for (const obs::PointTrace& point : trace_points_) dropped += point.dropped;
    if (dropped > 0) {
      std::cerr << "warning: trace dropped " << dropped
                << " events to full rings (capacity " << trace_ring_
                << " events per replication) — raise --trace-ring or trace "
                   "a smaller run\n";
    }
  }

  void write_metrics() {
    if (!timeseries_) return;
    std::ofstream out(metrics_path_);
    if (!out) {
      std::cerr << "metrics: cannot open " << metrics_path_
                << " for writing\n";
      return;
    }
    obs::write_prometheus(out, metric_points_);
    std::cout << "(metrics written to " << metrics_path_ << ")\n";
    const std::string csv_path = metrics_path_ + ".timeseries.csv";
    std::ofstream csv(csv_path);
    if (!csv) {
      std::cerr << "metrics: cannot open " << csv_path << " for writing\n";
      return;
    }
    obs::write_timeseries_csv(csv, series_points_);
    std::cout << "(time series written to " << csv_path << ")\n";
  }

  std::uint64_t reps_ = 0;
  unsigned threads_ = 0;
  std::uint64_t seed_ = 0;
  std::string policy_;
  std::string csv_;
  std::string trace_path_;
  std::uint64_t trace_ring_ = 0;
  std::string metrics_path_;
  bool progress_ = false;
  /// Each collector exists only while its output is enabled.
  std::optional<obs::TraceCollector> trace_;
  std::optional<obs::TimeSeriesCollector> timeseries_;
  std::optional<obs::PhaseProfiler> profiler_;
  std::optional<ckpt::SweepCheckpointer> checkpointer_;
  std::uint64_t next_point_ = 0;
  /// Label of the point whose trace and series are not yet filed.
  std::optional<std::string> open_point_;
  std::vector<obs::PointTrace> trace_points_;
  std::vector<obs::MetricsPoint> metric_points_;
  std::vector<obs::PointSeries> series_points_;
};

/// The straggler stack fig7 and A12 run on top of their heavy-tailed
/// latency models: started-tasks-first queueing and a 25-unit timeout (the
/// fallback before adaptive deadlines warm up) and, with `defences`,
/// adaptive deadlines (the 0.9 quantile × 1.5 after 50 completions), up to
/// two speculative copies, and quarantine after 3 strikes (backoff 50,
/// doubling up to 800).
inline void straggler_stack(dca::DcaConfig& config, bool defences = true) {
  config.timeout = 25.0;
  config.queue_policy = dca::QueuePolicy::kStartedTasksFirst;
  if (!defences) return;
  config.deadline.adaptive = true;
  config.deadline.quantile = 0.9;
  config.deadline.multiplier = 1.5;
  config.deadline.warmup = 50;
  config.speculation.enabled = true;
  config.speculation.max_copies = 2;
  config.quarantine.enabled = true;
  config.quarantine.strike_threshold = 3;
  config.quarantine.backoff_base = 50.0;
  config.quarantine.backoff_factor = 2.0;
  config.quarantine.backoff_cap = 800.0;
}

/// Last shutdown signal delivered to this process (0 when none).
inline std::atomic<int> g_last_signal{0};

/// SIGINT/SIGTERM handler: records the signal, requests a cooperative stop
/// (workers finish their current replication, the in-flight point saves a
/// final checkpoint, pending telemetry exports flush during unwinding),
/// and re-arms the default disposition so a second signal kills
/// immediately. Async-signal-safe: two relaxed atomic stores + signal().
inline void shutdown_signal_handler(int sig) {
  g_last_signal.store(sig, std::memory_order_relaxed);
  exp::request_stop();
  std::signal(sig, SIG_DFL);
}

/// Wraps an experiment main: installs the graceful-shutdown handler, runs
/// `body()`, and turns an interrupted or unresumable sweep into a clean
/// nonzero exit. On interruption the stderr report names the exact resume
/// command. Sweep destructors run during the unwinding, so --trace/--metrics
/// outputs of completed points are still written. A mistyped flag or spec
/// prints its message and exits 2; a checkpoint error exits 1.
template <typename Body>
int guarded_main(int argc, char** argv, Body&& body) {
  std::signal(SIGINT, &shutdown_signal_handler);
  std::signal(SIGTERM, &shutdown_signal_handler);
  try {
    return body();
  } catch (const exp::StoppedError& stopped) {
    std::cerr << "\ninterrupted: " << stopped.what() << "\n";
    if (stopped.checkpointed()) {
      bool has_resume = false;
      std::cerr << "resume with:";
      for (int i = 0; i < argc; ++i) {
        std::cerr << " " << argv[i];
        if (std::string(argv[i]) == "--resume") has_resume = true;
      }
      if (!has_resume) std::cerr << " --resume";
      std::cerr << "\n";
    } else {
      std::cerr << "no checkpoint saved; rerun with --checkpoint-dir=<dir> "
                   "to make this sweep resumable\n";
    }
    const int sig = g_last_signal.load(std::memory_order_relaxed);
    return sig > 0 ? 128 + sig : 1;
  } catch (const ckpt::Error& error) {
    std::cerr << "checkpoint error: " << error.what() << "\n";
    return 1;
  } catch (const spec::SpecError& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 2;
  } catch (const flags::ParseError& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 2;
  }
}

}  // namespace smartred::bench
