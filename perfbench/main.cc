// perfbench: runs one benchmark workload for a fixed wall-clock budget and
// prints its metrics. perfbench/run.py builds this binary and drives it;
// see perfbench/README.md for the workloads, metrics and layer table.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--rev <git rev>] [--digest <source digest>]
//             [--spans-dir <dir>]
//   perfbench --self-test
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer table
// (--trace 1). The exit code is 0 only when every output check passed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "layers.h"
#include "provenance.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Every run measures at least this many batches (medians need them) and at
// most kMaxBatches (a safety cap for a very fast host).
constexpr std::size_t kMinBatches = 3;
constexpr std::size_t kMaxBatches = 200;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string rev = "none";
  std::string digest = "none";
  std::string spans_dir;
  bool self_test = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--rev R] [--digest D] [--spans-dir DIR]\n"
               "       perfbench --self-test\nworkloads:";
  for (const std::string& name : workload_names()) std::cerr << " " << name;
  std::cerr << "\n";
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& text, const std::string& flag) {
  try {
    std::size_t used = 0;
    const unsigned long long value = std::stoull(text, &used);
    if (used == text.size() && text[0] != '-') return value;
  } catch (const std::exception&) {
  }
  usage("bad value for " + flag + ": " + text);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      options.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = parse_uint(value, flag);
    } else if (flag == "--seconds") {
      options.seconds = static_cast<double>(parse_uint(value, flag));
      if (options.seconds < 1) usage("--seconds must be at least 1");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--rev") {
      options.rev = value;
    } else if (flag == "--digest") {
      options.digest = value;
    } else if (flag == "--spans-dir") {
      options.spans_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!options.self_test && !have_workload) usage("--workload is required");
  return options;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::string number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One timed batch: the workload's outcome plus the wall time and heap
/// allocations (all threads) of its timed phase.
struct TimedBatch {
  BatchOutcome outcome;
  std::int64_t start_ns = 0;
  std::int64_t wall_ns = 0;
  std::uint64_t allocs = 0;

  [[nodiscard]] double ns_per_job() const {
    return static_cast<double>(wall_ns) /
           static_cast<double>(std::max<std::uint64_t>(outcome.jobs, 1));
  }
};

TimedBatch timed_batch(Workload& workload, BatchLayers* layers) {
  TimedBatch batch;
  const std::uint64_t allocs = alloc::total_count();
  batch.start_ns = now_ns();
  batch.outcome = workload.run_batch(layers);
  batch.wall_ns = now_ns() - batch.start_ns;
  batch.allocs = alloc::total_count() - allocs;
  return batch;
}

/// Peak resident set of this process image, in MiB. Read from VmHWM, the
/// high-water mark of the current address space: getrusage()'s ru_maxrss
/// also keeps the launcher's peak from before exec(), which would make a
/// small workload report the size of the script that started it.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Set-up times of a run: every batch is preceded by a fresh set-up, so
/// the reported median samples set-up across the whole run (a burst of
/// back-to-back set-ups at process start would sample one moment of the
/// host, and a sub-millisecond set-up then reads one of two CPU states).
struct SetupTimes {
  std::vector<double> seconds;
  std::vector<double> solve_ms;
};

/// Runs set-up plus one batch, repeatedly, for `seconds` (at least
/// kMinBatches batches). With `layers` set, every batch is traced into a
/// fresh record appended there; only the first traced batch keeps spans.
/// With `peak_rss_after_first` set, stores the process's peak RSS once the
/// first batch is done.
std::vector<TimedBatch> run_for(
    Workload& workload, std::uint64_t seed, double seconds,
    SetupTimes& setups, std::vector<std::unique_ptr<BatchLayers>>* layers,
    double* peak_rss_after_first) {
  const std::int64_t end =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<TimedBatch> batches;
  do {
    const std::int64_t setup_start = now_ns();
    const std::int64_t solve_ns = workload.setup(seed);
    setups.seconds.push_back(static_cast<double>(now_ns() - setup_start) /
                             1e9);
    setups.solve_ms.push_back(static_cast<double>(solve_ns) / 1e6);
    BatchLayers* record = nullptr;
    if (layers != nullptr) {
      layers->push_back(std::make_unique<BatchLayers>(layers->empty()));
      record = layers->back().get();
    }
    batches.push_back(timed_batch(workload, record));
    if (peak_rss_after_first != nullptr && batches.size() == 1) {
      *peak_rss_after_first = peak_rss_mib();
    }
  } while ((now_ns() < end || batches.size() < kMinBatches) &&
           batches.size() < kMaxBatches);
  return batches;
}

/// The per-layer table of one traced batch.
std::vector<Metric> layer_metrics(const std::string& workload,
                                  const TimedBatch& batch,
                                  const BatchLayers& layers,
                                  double sat_solve_ms) {
  const BatchOutcome& out = batch.outcome;
  SeamTable in_run{};
  SeamTable all{};
  std::int64_t run_ns = 0;
  std::uint64_t run_allocs = 0;
  std::uint64_t wrapper_allocs = 0;
  std::uint64_t decode_rejects = 0;
  std::vector<double> rep_ms;
  double rep_ns_total = 0.0;
  for (const RepLayers& rep : layers.reps()) {
    for (std::size_t s = 0; s < kSeamCount; ++s) {
      in_run[s].add(rep.in_run[s]);
      all[s].add(rep.in_run[s]);
      all[s].add(rep.outside[s]);
    }
    run_ns += rep.run_ns;
    run_allocs += rep.run_allocs;
    wrapper_allocs += rep.wrapper_allocs;
    decode_rejects += rep.decode_rejects;
    rep_ms.push_back(static_cast<double>(rep.rep_ns) / 1e6);
    rep_ns_total += static_cast<double>(rep.rep_ns);
  }
  double seam_ns_in_run = 0.0;
  std::uint64_t seam_allocs_in_run = 0;
  for (const SeamStats& stats : in_run) {
    seam_ns_in_run += stats.estimated_ns() +
                      static_cast<double>(stats.calls) * scope_overhead_ns();
    seam_allocs_in_run += stats.allocs;
  }
  const auto jobs = static_cast<double>(std::max<std::uint64_t>(out.jobs, 1));
  const double self_ns_per_job =
      (static_cast<double>(run_ns) - seam_ns_in_run) / jobs;
  const double self_allocs_per_job =
      static_cast<double>(run_allocs - seam_allocs_in_run - wrapper_allocs) /
      jobs;
  const auto seam = [&all](Seam s) -> const SeamStats& {
    return all[static_cast<std::size_t>(s)];
  };
  const auto count = [](std::uint64_t value) {
    return static_cast<double>(value);
  };

  const bool dca = out.is_des && workload.rfind("dca", 0) == 0;
  const bool boinc = out.is_des && !dca;
  const bool mc = !out.is_des;
  const double useful =
      out.is_des && out.des.jobs_dispatched > 0
          ? count(out.des.jobs_completed) / count(out.des.jobs_dispatched)
          : 0.0;
  const unsigned busy_threads = static_cast<unsigned>(
      std::min<std::uint64_t>(out.threads, std::max<std::size_t>(
                                               layers.reps().size(), 1)));
  const double idle_share =
      out.runner_ns > 0
          ? 1.0 - rep_ns_total / (static_cast<double>(busy_threads) *
                                  static_cast<double>(out.runner_ns))
          : 0.0;
  const auto on = [](bool present, double value) {
    return present ? value : 0.0;
  };

  std::vector<Metric> m;
  m.push_back({"sim.events", count(out.sim_events), "count"});
  m.push_back({"sim.events_per_job", count(out.sim_events) / jobs,
               "events/job"});
  m.push_back({"dca.run_ms", on(dca, static_cast<double>(run_ns) / 1e6), "ms"});
  m.push_back({"dca.self_ns_per_job", on(dca, self_ns_per_job), "ns/job"});
  m.push_back(
      {"dca.self_allocs_per_job", on(dca, self_allocs_per_job), "allocs/job"});
  m.push_back({"dca.useful_ratio", on(dca, useful), "fraction"});
  m.push_back({"dca.jobs_lost", on(dca, count(out.des.jobs_lost)), "count"});
  m.push_back(
      {"dca.jobs_discarded", on(dca, count(out.des.jobs_discarded)), "count"});
  m.push_back({"dca.jobs_speculative",
               on(dca, count(out.des.jobs_speculative)), "count"});
  m.push_back(
      {"dca.jobs_timed_out", on(dca, count(out.des.jobs_timed_out)), "count"});
  m.push_back({"dca.nodes_quarantined",
               on(dca, count(out.des.nodes_quarantined)), "count"});
  m.push_back(
      {"dca.tasks_aborted", on(dca, count(out.des.tasks_aborted)), "count"});
  m.push_back(
      {"boinc.run_ms", on(boinc, static_cast<double>(run_ns) / 1e6), "ms"});
  m.push_back({"boinc.self_ns_per_job", on(boinc, self_ns_per_job), "ns/job"});
  m.push_back({"boinc.self_allocs_per_job", on(boinc, self_allocs_per_job),
               "allocs/job"});
  m.push_back({"boinc.useful_ratio", on(boinc, useful), "fraction"});
  m.push_back(
      {"boinc.jobs_lost", on(boinc, count(out.des.jobs_lost)), "count"});
  m.push_back(
      {"boinc.jobs_unrun", on(boinc, count(out.des.jobs_unrun)), "count"});
  m.push_back(
      {"redundancy.decide_calls", count(seam(Seam::kDecide).calls), "count"});
  m.push_back(
      {"redundancy.decide_ns", seam(Seam::kDecide).estimated_ns(), "ns"});
  m.push_back({"redundancy.decide_allocs", count(seam(Seam::kDecide).allocs),
               "count"});
  m.push_back({"redundancy.decode_rejects", count(decode_rejects), "count"});
  m.push_back({"redundancy.lifecycle_calls",
               count(seam(Seam::kMake).calls + seam(Seam::kReset).calls),
               "count"});
  m.push_back(
      {"montecarlo.run_ms", on(mc, static_cast<double>(run_ns) / 1e6), "ms"});
  m.push_back(
      {"montecarlo.self_ns_per_job", on(mc, self_ns_per_job), "ns/job"});
  m.push_back({"montecarlo.self_allocs_per_job", on(mc, self_allocs_per_job),
               "allocs/job"});
  m.push_back(
      {"policy.select_calls", count(seam(Seam::kSelect).calls), "count"});
  m.push_back({"policy.select_ns", seam(Seam::kSelect).estimated_ns(), "ns"});
  m.push_back({"policy.admit_calls", count(seam(Seam::kAdmit).calls), "count"});
  m.push_back({"policy.admit_ns", seam(Seam::kAdmit).estimated_ns(), "ns"});
  m.push_back({"policy.hook_calls", count(seam(Seam::kHook).calls), "count"});
  m.push_back({"policy.hook_ns", seam(Seam::kHook).estimated_ns(), "ns"});
  m.push_back({"policy.allocs",
               count(seam(Seam::kSelect).allocs + seam(Seam::kAdmit).allocs +
                     seam(Seam::kHook).allocs),
               "count"});
  m.push_back(
      {"fault.report_calls", count(seam(Seam::kReport).calls), "count"});
  m.push_back({"fault.report_ns", seam(Seam::kReport).estimated_ns(), "ns"});
  m.push_back(
      {"fault.latency_calls", count(seam(Seam::kLatency).calls), "count"});
  m.push_back({"fault.latency_ns", seam(Seam::kLatency).estimated_ns(), "ns"});
  m.push_back({"fault.allocs",
               count(seam(Seam::kReport).allocs + seam(Seam::kLatency).allocs),
               "count"});
  m.push_back({"workload.calls", count(seam(Seam::kWorkload).calls), "count"});
  m.push_back({"workload.ns", seam(Seam::kWorkload).estimated_ns(), "ns"});
  m.push_back(
      {"workload.allocs", count(seam(Seam::kWorkload).allocs), "count"});
  m.push_back({"sat.solve_ms", sat_solve_ms, "ms"});
  m.push_back({"exp.run_ms", static_cast<double>(out.runner_ns) / 1e6, "ms"});
  m.push_back({"exp.rep_ms_p50", median(rep_ms), "ms"});
  m.push_back({"exp.rep_ms_max",
               rep_ms.empty() ? 0.0
                              : *std::max_element(rep_ms.begin(), rep_ms.end()),
               "ms"});
  m.push_back({"exp.idle_share", idle_share, "fraction"});
  m.push_back({"exp.merge_ms", static_cast<double>(out.merge_ns) / 1e6, "ms"});
  m.push_back({"obs.trace_events", count(out.trace_events), "count"});
  m.push_back({"obs.trace_dropped", count(out.trace_dropped), "count"});
  m.push_back({"obs.samples", count(out.samples), "count"});
  m.push_back({"obs.profile_calls", count(out.profile_calls), "count"});
  m.push_back(
      {"obs.collect_ms", static_cast<double>(out.collect_ns) / 1e6, "ms"});
  m.push_back(
      {"obs.export_ms", static_cast<double>(out.export_ns) / 1e6, "ms"});
  return m;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += json_string(metrics[i].name) + ": {\"value\": " +
            number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

void write_spans(const std::string& dir, const std::string& workload,
                 std::uint64_t seed, const std::string& provenance,
                 const BatchLayers& layers, std::int64_t root_start,
                 std::int64_t root_end) {
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  const std::string path =
      dir + "/" + workload + "-seed" + std::to_string(seed) + ".jsonl";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perfbench: cannot write spans to " << path << "\n";
    return;
  }
  out << "{\"provenance\": " << provenance << "}\n";
  const auto write = [&](const Span& span) {
    out << "{\"id\": " << span.id << ", \"parent\": " << span.parent
        << ", \"name\": " << json_string(span.name) << ", \"rep\": "
        << span.rep << ", \"task\": " << span.task
        << ", \"start_ns\": " << span.start_ns - root_start
        << ", \"end_ns\": " << span.end_ns - root_start << "}\n";
  };
  write(Span{layers.root_span(), 0, "workload", 0, -1, root_start, root_end});
  for (const Span& span : layers.spans()) write(span);
  std::cout << "spans: " << layers.spans().size() + 1 << " written to "
            << path << "\n";
}

int run(const Options& options) {
  std::unique_ptr<Workload> workload = make_workload(options.workload, false);
  if (workload == nullptr) usage("unknown workload " + options.workload);

  RunIdentity identity;
  identity.workload = workload->name();
  identity.seed = options.seed;
  identity.strategy = workload->strategy_spec();
  identity.policy = workload->policy_spec();
  identity.threads = kWorkerThreads;
  identity.git_rev = options.rev;
  identity.source_digest = options.digest;
  const std::string provenance = provenance_json(identity);
  std::cout << "{\"provenance\": " << provenance << "}\n";

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto tally = [&](const std::vector<TimedBatch>& batches) {
    for (const TimedBatch& batch : batches) {
      attempted += batch.outcome.replications;
      failed += batch.outcome.failed;
      if (batch.outcome.failed > 0) {
        std::cout << "check replications: FAIL " << batch.outcome.failed
                  << " failed, first: " << batch.outcome.first_failure << "\n";
      }
    }
  };

  // The timed phase. A traced run spends half its budget untraced (the
  // reference for trace.overhead and the bit-identity check) and half
  // traced.
  const double untraced_seconds =
      options.trace ? options.seconds / 2.0 : options.seconds;
  // Peak RSS is read after set-up and one batch: the memory a process that
  // ran the workload once needed, whatever number of batches follows.
  SetupTimes setups;
  double peak_rss = 0.0;
  const std::vector<TimedBatch> untraced =
      run_for(*workload, options.seed, untraced_seconds, setups, nullptr,
              &peak_rss);
  tally(untraced);
  std::vector<std::unique_ptr<BatchLayers>> layers;
  std::vector<TimedBatch> traced;
  if (options.trace) {
    traced = run_for(*workload, options.seed, options.seconds / 2.0, setups,
                     &layers, nullptr);
    tally(traced);
  }

  // Determinism: every batch of a run is the same input, so every batch,
  // traced or not, must reproduce the first one's aggregates bit for bit.
  const BatchOutcome& first = untraced.front().outcome;
  std::size_t mismatched = 0;
  for (const std::vector<TimedBatch>* batches :
       {&untraced, static_cast<const std::vector<TimedBatch>*>(&traced)}) {
    for (const TimedBatch& batch : *batches) {
      if (batch.outcome.fingerprint != first.fingerprint) ++mismatched;
    }
  }
  std::cout << "check deterministic: " << (mismatched == 0 ? "PASS" : "FAIL")
            << " (" << untraced.size() << " untraced, " << traced.size()
            << " traced batches; " << mismatched << " differ from the first)\n";
  correct = correct && mismatched == 0;

  for (const CheckResult& check : workload->check(first, false)) {
    std::cout << "check " << check.name << ": "
              << (check.passed ? "PASS" : "FAIL") << " (" << check.detail
              << ")\n";
    correct = correct && check.passed;
  }
  correct = correct && failed == 0;

  std::vector<double> ns_per_job;
  std::vector<double> allocs_per_job;
  for (const TimedBatch& batch : untraced) {
    ns_per_job.push_back(batch.ns_per_job());
    allocs_per_job.push_back(
        static_cast<double>(batch.allocs) /
        static_cast<double>(std::max<std::uint64_t>(batch.outcome.jobs, 1)));
  }

  std::cout << "untraced batches, ns/job:";
  for (const double value : ns_per_job) std::cout << " " << value;
  std::cout << "\n";

  std::vector<Metric> metrics;
  if (!options.trace) {
    metrics.push_back({"ns_per_job", median(ns_per_job), "ns"});
    metrics.push_back({"allocs_per_job", median(allocs_per_job), "count"});
    metrics.push_back({"peak_rss_mb", peak_rss, "MiB"});
    metrics.push_back({"setup_s", median(setups.seconds), "s"});
    metrics.push_back({"pass_share",
                       attempted == 0 ? 0.0
                                      : static_cast<double>(attempted - failed) /
                                            static_cast<double>(attempted),
                       "fraction"});
    metrics.push_back({"sim_cost_factor", first.cost_factor(), "jobs/task"});
    metrics.push_back({"sim_reliability", first.reliability(), "fraction"});
    metrics.push_back({"sim_resp_p50", first.response_quantile(0.5), "tu"});
    metrics.push_back({"sim_resp_p99", first.response_quantile(0.99), "tu"});
    std::cout << "sim_resp samples: " << first.response_samples()
              << (first.is_des ? " tasks (simulated response time)"
                               : " tasks (jobs per task; Monte-Carlo has no "
                                 "clock)")
              << "\n";
  } else {
    // Each per-layer metric is the median over the traced batches.
    std::vector<std::vector<Metric>> tables;
    std::vector<double> traced_ns_per_job;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      tables.push_back(layer_metrics(workload->name(), traced[i], *layers[i],
                                     median(setups.solve_ms)));
      traced_ns_per_job.push_back(traced[i].ns_per_job());
    }
    for (std::size_t k = 0; k < tables.front().size(); ++k) {
      std::vector<double> values;
      for (const auto& table : tables) values.push_back(table[k].value);
      metrics.push_back(
          {tables.front()[k].name, median(values), tables.front()[k].unit});
    }
    metrics.push_back({"trace.overhead",
                       median(traced_ns_per_job) / median(ns_per_job) - 1.0,
                       "fraction"});
    metrics.push_back({"trace.clock_ns",
                       static_cast<double>(clock_overhead_ns()), "ns"});
    metrics.push_back({"trace.scope_ns", scope_overhead_ns(), "ns"});
    if (!options.spans_dir.empty()) {
      write_spans(options.spans_dir, workload->name(), options.seed,
                  provenance, *layers.front(), traced.front().start_ns,
                  traced.front().start_ns + traced.front().wall_ns);
    }
  }

  for (const Metric& metric : metrics) {
    if (!std::isfinite(metric.value)) {
      std::cout << "metric " << metric.name << " is not finite\n";
      correct = false;
    }
    std::cout << "  " << metric.name << " = " << number(metric.value) << " "
              << metric.unit << "\n";
  }
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parse(argc, argv);
  perfbench::calibrate();
  if (options.self_test) return perfbench::self_test();
  try {
    return perfbench::run(options);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
