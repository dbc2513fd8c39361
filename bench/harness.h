// Shared experiment harness for the figure-reproduction and ablation
// benches: table/CSV emission, the standard replication flags
// (--reps / --threads / --seed / --csv), and deterministic parallel
// replication of the two experiment drivers (the DES-backed DCA and the
// wave-level Monte-Carlo sampler) via exp::ParallelRunner.
//
// Every data point is the merge of `--reps` replications whose seeds are
// derived from one master seed; the merged aggregate is bit-identical for
// any --threads value (see src/exp/parallel_runner.h for the contract).
// Each bench numbers its data points and calls plan_point(flags, number) so
// that points get independent seed streams while staying reproducible from
// the single --seed flag.
#pragma once

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/sweep.h"
#include "common/flags.h"
#include "common/spec.h"
#include "dca/assignment.h"
#include "common/rng.h"
#include "common/table.h"
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

/// Handles to the standard replication flags every experiment binary takes.
struct ExperimentFlags {
  std::shared_ptr<std::int64_t> reps;
  std::shared_ptr<std::int64_t> threads;
  std::shared_ptr<std::int64_t> seed;
  std::shared_ptr<std::string> csv;
  std::shared_ptr<std::string> trace;
  std::shared_ptr<std::int64_t> trace_ring;
  std::shared_ptr<std::string> metrics;
  std::shared_ptr<bool> progress;
  std::shared_ptr<bool> profile;
  std::shared_ptr<std::string> checkpoint_dir;
  std::shared_ptr<std::int64_t> checkpoint_every;
  std::shared_ptr<bool> resume;
  std::shared_ptr<std::string> policy;
};

/// Registers --reps, --threads, --seed, --csv, the telemetry flags
/// (--trace, --trace-ring, --metrics, --progress, --profile), and the
/// crash-safety flags (--checkpoint-dir, --checkpoint-every, --resume) on
/// `parser`.
inline ExperimentFlags add_experiment_flags(flags::Parser& parser,
                                            std::int64_t default_reps = 8,
                                            std::int64_t default_seed = 1) {
  ExperimentFlags handles;
  handles.reps = parser.add_int("reps", default_reps,
                                "replications merged per data point");
  handles.threads = parser.add_int(
      "threads", 0, "worker threads (0 = one per hardware thread)");
  handles.seed = parser.add_int("seed", default_seed, "master seed");
  handles.csv = parser.add_string("csv", "", "CSV output path (optional)");
  handles.trace = parser.add_string(
      "trace", "",
      "flight-recorder output path: *.jsonl for JSON lines, anything else "
      "for Chrome about:tracing JSON (optional)");
  handles.trace_ring = parser.add_int(
      "trace-ring",
      static_cast<std::int64_t>(obs::TraceCollector::kDefaultRingCapacity),
      "per-replication flight-recorder ring capacity, in events");
  handles.metrics = parser.add_string(
      "metrics", "",
      "telemetry output path: Prometheus text exposition to <path>, health "
      "time-series CSV to <path>.timeseries.csv (optional)");
  handles.progress = parser.add_bool(
      "progress", false,
      "live stderr progress line per data point (reps done, rep/s, ETA)");
  handles.profile = parser.add_bool(
      "profile", false, "print a wall-clock phase profile to stderr at exit");
  handles.checkpoint_dir = parser.add_string(
      "checkpoint-dir", "",
      "directory for crash-safe sweep checkpoints; enables checkpointing "
      "(optional)");
  handles.checkpoint_every = parser.add_int(
      "checkpoint-every", 1,
      "completed replications between checkpoint saves per data point "
      "(0 = save only at point completion or interruption)");
  handles.resume = parser.add_bool(
      "resume", false,
      "resume an interrupted sweep from --checkpoint-dir instead of "
      "starting it over");
  handles.policy = parser.add_string(
      "policy", "uniform",
      "task-to-worker assignment policy for DCA points: uniform, "
      "least-outstanding, stratified[:tiers=T,late=W], "
      "cartel-averse:groups=G (see dca::make_policy)");
  return handles;
}

namespace detail {
/// The --policy spec in force for this process. plan_point() records it on
/// every data point, so any bench that plans points picks the flag up
/// without bench-side plumbing; RepTelemetry::apply() stamps it into DCA
/// configs that didn't choose a policy themselves.
inline std::string g_policy_spec = "uniform";  // NOLINT(cert-err58-cpp)
}  // namespace detail

/// Validates --policy eagerly — a typo fails here with the registry's
/// did-you-mean message before any replication runs — records it as the
/// process-wide default, and returns the spec for benches that also stamp
/// it into point labels (so the policy in force is echoed into CSV headers
/// and trace metadata).
[[nodiscard]] inline std::string resolve_policy(const ExperimentFlags& flags) {
  static_cast<void>(dca::make_policy(*flags.policy));
  detail::g_policy_spec = *flags.policy;
  return *flags.policy;
}

/// The validated --policy spec in force (for benches that build their
/// configs outside the RepTelemetry::apply path, e.g. the BOINC substrate).
[[nodiscard]] inline const std::string& active_policy() {
  return detail::g_policy_spec;
}

/// Per-binary telemetry session driving obs:: from the --trace, --metrics,
/// --progress, and --profile flags.
///
/// One session serves a whole bench run: for every data point the bench
/// wraps its runner plan with `session.plan(...)` (which attaches the
/// enabled collectors and names the point) and reports the point's merged
/// aggregate with `record_metrics(...)`. The destructor (or an explicit
/// finish()) writes every enabled output:
///   * --trace=<path>: flight-recorder events — JSON lines when the path
///     ends in .jsonl, Chrome about:tracing JSON otherwise;
///   * --metrics=<path>: Prometheus text exposition of the per-point
///     aggregates (scalars, summaries, latency histograms) to <path> and
///     the health time-series to <path>.timeseries.csv;
///   * --profile: a wall-clock phase profile on stderr;
///   * --progress: a live per-point stderr progress line during the runs.
/// With all flags unset every call is a no-op and no collector is ever
/// attached, so instrumented and plain runs execute the exact same
/// simulation code path.
class TelemetrySession {
 public:
  explicit TelemetrySession(const ExperimentFlags& flags)
      : trace_path_(*flags.trace),
        metrics_path_(*flags.metrics),
        ring_capacity_(*flags.trace_ring > 0
                           ? static_cast<std::size_t>(*flags.trace_ring)
                           : obs::TraceCollector::kDefaultRingCapacity),
        collector_(ring_capacity_),
        progress_(*flags.progress),
        profile_enabled_(*flags.profile) {
    if (!flags.checkpoint_dir->empty()) {
      checkpointer_.emplace(
          *flags.checkpoint_dir,
          *flags.checkpoint_every > 0
              ? static_cast<std::uint64_t>(*flags.checkpoint_every)
              : 0,
          *flags.resume);
    }
  }

  TelemetrySession(const TelemetrySession&) = delete;
  TelemetrySession& operator=(const TelemetrySession&) = delete;

  ~TelemetrySession() { finish(); }

  [[nodiscard]] bool tracing() const { return !trace_path_.empty(); }
  [[nodiscard]] bool metrics_enabled() const { return !metrics_path_.empty(); }

  /// Seals the previous point (if any), attaches the enabled collectors to
  /// `plan`, and names the point `label`. With --checkpoint-dir set, also
  /// attaches the point's crash-safe checkpoint handle — points are
  /// numbered in plan() call order, which therefore must be deterministic
  /// across runs (it is: every bench enumerates its sweep the same way).
  /// Returns `plan` unchanged when all telemetry is off.
  [[nodiscard]] exp::RunnerConfig plan(exp::RunnerConfig plan,
                                       std::string label) {
    if (checkpointer_.has_value()) {
      plan.checkpoint = &checkpointer_->plan_point(label);
    }
    if (progress_) {
      plan.progress = true;
      plan.progress_label = label;
    }
    if (profile_enabled_) plan.profile = &profiler_;
    if (tracing() || metrics_enabled()) {
      seal();
      pending_ = true;
      pending_label_ = std::move(label);
      if (tracing()) plan.trace = &collector_;
      if (metrics_enabled()) plan.timeseries = &timeseries_;
    }
    return plan;
  }

  /// Snapshots the current point's merged aggregates for the trace and
  /// metrics outputs.
  template <typename Aggregate>
  void record_metrics(const Aggregate& aggregate) {
    if (!pending_) return;
    pending_metrics_ = obs::snapshot(aggregate);
  }

  /// Seals the last point and writes all enabled outputs. Safe to call
  /// twice; the destructor calls it for benches that don't.
  void finish() {
    if (finished_) return;
    finished_ = true;
    seal();
    write_trace();
    write_metrics();
    if (profile_enabled_) profiler_.report(std::cerr);
  }

 private:
  void seal() {
    if (!pending_) return;
    if (tracing()) {
      points_.push_back(obs::PointTrace{pending_label_, collector_.merged(),
                                        pending_metrics_});
      points_.back().dropped = collector_.dropped();
    }
    if (metrics_enabled()) {
      series_points_.push_back(
          obs::PointSeries{pending_label_, timeseries_.merged()});
      metric_points_.push_back(
          obs::MetricsPoint{std::move(pending_label_),
                            std::move(pending_metrics_)});
    }
    pending_ = false;
    pending_label_.clear();
    pending_metrics_ = obs::MetricRegistry{};
  }

  void write_trace() {
    if (!tracing()) return;
    std::ofstream out(trace_path_);
    if (!out) {
      std::cerr << "trace: cannot open " << trace_path_ << " for writing\n";
      return;
    }
    const bool jsonl =
        trace_path_.size() >= 6 &&
        trace_path_.compare(trace_path_.size() - 6, 6, ".jsonl") == 0;
    if (jsonl) {
      obs::write_jsonl(out, points_);
    } else {
      obs::write_chrome_trace(out, points_);
    }
    std::cout << "(trace written to " << trace_path_ << ")\n";
    std::uint64_t dropped = 0;
    for (const obs::PointTrace& point : points_) dropped += point.dropped;
    if (dropped > 0) {
      std::cerr << "warning: trace dropped " << dropped
                << " events to full rings (capacity " << ring_capacity_
                << " events per replication) — raise --trace-ring or trace "
                   "a smaller run\n";
    }
  }

  void write_metrics() {
    if (!metrics_enabled()) return;
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

  std::string trace_path_;
  std::string metrics_path_;
  std::size_t ring_capacity_;
  obs::TraceCollector collector_;
  obs::TimeSeriesCollector timeseries_;
  obs::PhaseProfiler profiler_;
  std::optional<ckpt::SweepCheckpointer> checkpointer_;
  bool progress_;
  bool profile_enabled_;
  std::vector<obs::PointTrace> points_;
  std::vector<obs::MetricsPoint> metric_points_;
  std::vector<obs::PointSeries> series_points_;
  std::string pending_label_;
  obs::MetricRegistry pending_metrics_;
  bool pending_ = false;
  bool finished_ = false;
};

/// The runner configuration for data point number `point`: --reps
/// replications on --threads workers, with a master seed derived from
/// --seed so distinct points never share replication seed streams.
inline exp::RunnerConfig plan_point(const ExperimentFlags& flags,
                                    std::uint64_t point) {
  detail::g_policy_spec = resolve_policy(flags);
  exp::RunnerConfig config;
  config.replications =
      *flags.reps > 0 ? static_cast<std::uint64_t>(*flags.reps) : 1;
  config.threads = static_cast<unsigned>(*flags.threads);
  config.master_seed =
      rng::derive_seed(static_cast<std::uint64_t>(*flags.seed), point);
  return config;
}

/// `plan` with its replication count clamped so no replication receives
/// zero tasks (the drivers require at least one task per run). The clamp
/// depends only on the flags, never on thread scheduling.
[[nodiscard]] inline exp::RunnerConfig clamp_to_tasks(
    const exp::RunnerConfig& plan, std::uint64_t total_tasks) {
  exp::RunnerConfig effective = plan;
  effective.replications =
      std::min(plan.replications, std::max<std::uint64_t>(total_tasks, 1));
  return effective;
}

/// Per-replication telemetry handles handed to DCA replication functions:
/// this replication's private flight-recorder ring and health-sampling
/// recorder (each null when the plan carries no such collector), plus the
/// shared phase profiler (thread-safe; null when profiling is off).
struct RepTelemetry {
  obs::Recorder* trace = nullptr;
  obs::TimeSeriesRecorder* timeseries = nullptr;
  obs::PhaseProfiler* profile = nullptr;

  /// Wires the handles into a DCA server config, and stamps the --policy
  /// spec into configs that didn't choose an assignment policy themselves.
  void apply(dca::DcaConfig& config) const {
    config.timeseries = timeseries;
    config.profile = profile;
    if (config.assignment_spec.empty() && config.assignment == nullptr) {
      config.assignment_spec = detail::g_policy_spec;
    }
  }
};

/// The telemetry handles of replication `rep` under `plan`.
[[nodiscard]] inline RepTelemetry rep_telemetry(const exp::RunnerConfig& plan,
                                                std::uint64_t rep) {
  RepTelemetry telemetry;
  if (plan.trace != nullptr) telemetry.trace = &plan.trace->recorder(rep);
  if (plan.timeseries != nullptr) {
    telemetry.timeseries = &plan.timeseries->recorder(rep);
  }
  telemetry.profile = plan.profile;
  return telemetry;
}

/// Merged metrics of `plan.replications` DCA replications that together
/// simulate `total_tasks` tasks (split as evenly as possible).
/// `run_rep(rep_tasks, rep_seed, telemetry) -> dca::RunMetrics` must be
/// pure in its arguments — it is called concurrently from worker threads.
/// The telemetry carries this replication's private flight-recorder ring
/// (attach with `simulator.set_recorder(telemetry.trace)`) and health
/// sampler (wire with `telemetry.apply(config)`).
template <typename RunRep>
[[nodiscard]] dca::RunMetrics run_dca_replications(
    const exp::RunnerConfig& plan, std::uint64_t total_tasks,
    RunRep&& run_rep) {
  const exp::RunnerConfig effective = clamp_to_tasks(plan, total_tasks);
  exp::ParallelRunner runner(effective);
  return ckpt::run_resumable(
      runner, [&](std::uint64_t rep, std::uint64_t rep_seed) {
        return run_rep(
            exp::partition_size(total_tasks, effective.replications, rep),
            rep_seed, rep_telemetry(effective, rep));
      });
}

/// One replicated DCA data point with a caller-built failure model:
/// `make_failures(rep_seed)` returns the model by value (each replication
/// owns its own — failure models hold RNG state and are not shareable
/// across threads). `base` must not carry a latency model for the same
/// reason; replications needing one should use run_dca_replications.
template <typename MakeFailures>
[[nodiscard]] dca::RunMetrics run_dca_point(
    const exp::RunnerConfig& plan, const redundancy::StrategyFactory& factory,
    std::uint64_t total_tasks, const dca::DcaConfig& base,
    MakeFailures&& make_failures) {
  return run_dca_replications(
      plan, total_tasks,
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

/// The canonical Figure 5(a)/6 setup: constant node reliability `r` under
/// binary Byzantine collusion.
[[nodiscard]] inline dca::RunMetrics run_byzantine_dca(
    const exp::RunnerConfig& plan, const redundancy::StrategyFactory& factory,
    double reliability, std::uint64_t total_tasks,
    const dca::DcaConfig& base = {}) {
  return run_dca_point(plan, factory, total_tasks, base,
                       [reliability](std::uint64_t rep_seed) {
                         return fault::ByzantineCollusion(
                             fault::ReliabilityAssigner(
                                 fault::ConstantReliability{reliability},
                                 rng::Stream(rng::derive_seed(rep_seed, 1))));
                       });
}

/// Merged Monte-Carlo results of `plan.replications` replications that
/// together sample `total_tasks` tasks through `factory`'s strategy on
/// arbitrary vote sources. The source is shared across workers and must be
/// thread-safe (pure captures; all randomness through the passed stream).
[[nodiscard]] inline redundancy::MonteCarloResult run_custom_mc(
    const exp::RunnerConfig& plan, const redundancy::StrategyFactory& factory,
    const redundancy::VoteSource& source, redundancy::ResultValue correct,
    std::uint64_t total_tasks, int max_jobs_per_task = 100'000) {
  const exp::RunnerConfig effective = clamp_to_tasks(plan, total_tasks);
  exp::ParallelRunner runner(effective);
  return ckpt::run_resumable(
      runner, [&](std::uint64_t rep, std::uint64_t rep_seed) {
        redundancy::MonteCarloConfig config;
        config.tasks =
            exp::partition_size(total_tasks, effective.replications, rep);
        config.seed = rep_seed;
        config.max_jobs_per_task = max_jobs_per_task;
        const RepTelemetry telemetry = rep_telemetry(effective, rep);
        config.recorder = telemetry.trace;
        config.timeseries = telemetry.timeseries;
        return run_custom(factory, source, correct, config);
      });
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
/// command. TelemetrySession destructors run during the unwinding, so
/// --trace/--metrics outputs of completed points are still written. A
/// mistyped flag or spec prints its message and exits 2; a checkpoint
/// error exits 1.
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

/// run_custom_mc() for the binary worst case at constant reliability.
[[nodiscard]] inline redundancy::MonteCarloResult run_binary_mc(
    const exp::RunnerConfig& plan, const redundancy::StrategyFactory& factory,
    double reliability, std::uint64_t total_tasks,
    int max_jobs_per_task = 100'000) {
  const exp::RunnerConfig effective = clamp_to_tasks(plan, total_tasks);
  exp::ParallelRunner runner(effective);
  return ckpt::run_resumable(
      runner, [&](std::uint64_t rep, std::uint64_t rep_seed) {
        redundancy::MonteCarloConfig config;
        config.tasks =
            exp::partition_size(total_tasks, effective.replications, rep);
        config.seed = rep_seed;
        config.max_jobs_per_task = max_jobs_per_task;
        const RepTelemetry telemetry = rep_telemetry(effective, rep);
        config.recorder = telemetry.trace;
        config.timeseries = telemetry.timeseries;
        return run_binary(factory, reliability, config);
      });
}

}  // namespace smartred::bench
