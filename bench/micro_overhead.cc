// Micro-benchmarks (google-benchmark): the per-decision cost of each
// redundancy strategy, the naïve algorithm's probability computations, the
// DES kernel's event throughput, and the RNG. These quantify the paper's
// §5.1 point that iterative redundancy adds essentially no bookkeeping.
//
// The kernel-focused benchmarks (BM_KernelChurn, BM_KernelScheduleCancel,
// BM_RunBinaryMonteCarlo) exercise the two hot paths every figure bench
// spends its time in: the slot-arena DES kernel and the Monte-Carlo task
// loop. They are the numbers behind BENCH_kernel.json (see --json below).
//
// Besides the standard google-benchmark flags, this binary accepts
//   --json[=PATH]   append this run's ns/op (plus git rev and date) to a
//                   JSON array at PATH (default BENCH_kernel.json), creating
//                   the file if missing — the repo's tracked perf baseline.
//
// The binary links perfbench's counting operator new
// (perfbench/alloc_count.cc) so the kernel benchmarks can report
// allocs_per_event — the steady-state schedule→fire path must show 0.00
// there (zero-allocation hot path).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "dca/assignment.h"
#include "dca/node_pool.h"
#include "perfbench/alloc_count.h"
#include "redundancy/analysis.h"
#include "redundancy/coded.h"
#include "redundancy/iterative.h"
#include "redundancy/iterative_naive.h"
#include "redundancy/montecarlo.h"
#include "redundancy/progressive.h"
#include "redundancy/traditional.h"
#include "sim/simulator.h"

namespace {

using namespace smartred;  // NOLINT(build/namespaces) — bench main
using redundancy::NodeId;
using redundancy::ResultValue;
using redundancy::Vote;

std::vector<Vote> make_votes(int correct, int wrong) {
  std::vector<Vote> votes;
  NodeId node = 0;
  for (int i = 0; i < correct; ++i) votes.push_back({node++, 1});
  for (int i = 0; i < wrong; ++i) votes.push_back({node++, 0});
  return votes;
}

void BM_IterativeDecide(benchmark::State& state) {
  redundancy::IterativeRedundancy strategy(6);
  const auto votes = make_votes(static_cast<int>(state.range(0)),
                                static_cast<int>(state.range(0)) / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(strategy.decide(votes));
  }
}
BENCHMARK(BM_IterativeDecide)->Arg(4)->Arg(16)->Arg(64);

void BM_NaiveDecide(benchmark::State& state) {
  redundancy::IterativeNaive strategy(0.7, 0.99);
  const auto votes = make_votes(static_cast<int>(state.range(0)),
                                static_cast<int>(state.range(0)) / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(strategy.decide(votes));
  }
}
BENCHMARK(BM_NaiveDecide)->Arg(4)->Arg(16)->Arg(64);

void BM_ProgressiveDecide(benchmark::State& state) {
  redundancy::ProgressiveRedundancy strategy(19);
  const auto votes = make_votes(6, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(strategy.decide(votes));
  }
}
BENCHMARK(BM_ProgressiveDecide);

void BM_TraditionalDecide(benchmark::State& state) {
  redundancy::TraditionalRedundancy strategy(19);
  const auto votes = make_votes(12, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(strategy.decide(votes));
  }
}
BENCHMARK(BM_TraditionalDecide);

void BM_AnalysisIterativeCost(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        redundancy::analysis::iterative_cost(
            static_cast<int>(state.range(0)), 0.7));
  }
}
BENCHMARK(BM_AnalysisIterativeCost)->Arg(4)->Arg(10);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    std::uint64_t counter = 0;
    for (int i = 0; i < 10'000; ++i) {
      simulator.schedule(static_cast<double>(i % 97), [&counter] {
        ++counter;
      });
    }
    simulator.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SimulatorEventThroughput);

/// Self-sustaining event load: every fired event schedules its successor, so
/// the number of pending events stays constant — the classic "hold" workload
/// that measures steady-state schedule→fire churn at a given backlog.
struct ChurnLoad {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  std::uint64_t lcg = 0x243F6A8885A308D3ull;

  /// Cheap deterministic delay in [0, 100) — an LCG, so the benchmark never
  /// measures the production RNG.
  double next_delay() {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(lcg >> 11) * (100.0 / 9007199254740992.0);
  }

  /// Seeds the whole backlog through one bulk insertion (the heap is
  /// heapified once, not sifted n times).
  void seed(std::size_t n) {
    std::vector<double> delays(n);
    for (double& d : delays) d = next_delay();
    sim.schedule_batch(delays, [this](std::size_t) {
      return [this] { fire(); };
    });
  }
  void fire() {
    ++fired;
    sim.schedule(next_delay(), [this] { fire(); });
  }
};

/// Steady-state schedule→fire churn with range(0) events pending. This is
/// the kernel number the slot-arena rework targets; allocs_per_event must
/// read 0.00 once the arena has warmed up.
void BM_KernelChurn(benchmark::State& state) {
  constexpr std::uint64_t kBatch = 1024;
  ChurnLoad load;
  load.seed(static_cast<std::size_t>(state.range(0)));
  load.sim.step(kBatch);  // warm up: reach steady-state arena occupancy
  std::uint64_t allocations = 0;
  for (auto _ : state) {
    const std::uint64_t before =
        perfbench::alloc::total_count();
    load.sim.step(kBatch);
    allocations +=
        perfbench::alloc::total_count() - before;
  }
  const auto events =
      static_cast<std::uint64_t>(state.iterations()) * kBatch;
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["allocs_per_event"] =
      static_cast<double>(allocations) / static_cast<double>(events);
}
BENCHMARK(BM_KernelChurn)->Arg(1'000)->Arg(100'000);

/// Deadline-style schedule→cancel churn: per logical operation two events
/// are scheduled (a completion and its re-issue deadline) and one — ~50% of
/// all scheduled events — is cancelled before it can fire.
void BM_KernelScheduleCancel(benchmark::State& state) {
  constexpr std::uint64_t kBatch = 1024;
  sim::Simulator sim;
  std::uint64_t fired = 0;
  std::uint64_t lcg = 0x452821E638D01377ull;
  const auto next_delay = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(lcg >> 11) * (100.0 / 9007199254740992.0);
  };
  std::uint64_t allocations = 0;
  for (auto _ : state) {
    const std::uint64_t before =
        perfbench::alloc::total_count();
    for (std::uint64_t i = 0; i < kBatch; ++i) {
      sim.schedule(next_delay(), [&fired] { ++fired; });
      const sim::EventId deadline =
          sim.schedule(next_delay() + 100.0, [&fired] { ++fired; });
      sim.cancel(deadline);
    }
    sim.step(kBatch);
    allocations +=
        perfbench::alloc::total_count() - before;
  }
  const auto events =
      static_cast<std::uint64_t>(state.iterations()) * kBatch * 2;
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["allocs_per_event"] =
      static_cast<double>(allocations) / static_cast<double>(events);
}
BENCHMARK(BM_KernelScheduleCancel);

/// The full Monte-Carlo task loop of run_binary (the wave-level driver
/// behind Figure 3 validation and all closed-form cross-checks): iterative
/// redundancy d = 4 at r = 0.7. Reported per task.
void BM_RunBinaryMonteCarlo(benchmark::State& state) {
  constexpr std::uint64_t kTasks = 1024;
  const redundancy::IterativeFactory factory(4);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    redundancy::MonteCarloConfig config;
    config.tasks = kTasks;
    config.seed = seed++;
    benchmark::DoNotOptimize(run_binary(factory, 0.7, config));
  }
  const auto tasks =
      static_cast<std::uint64_t>(state.iterations()) * kTasks;
  state.SetItemsProcessed(static_cast<std::int64_t>(tasks));
  state.counters["tasks_per_sec"] = benchmark::Counter(
      static_cast<double>(tasks), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RunBinaryMonteCarlo);

/// The coded hot path: encode a task into an (8, 4) codeword, then decode
/// from the four parity shares (the worst case — no systematic shortcut)
/// including the mix32 self-check. Reported per encode+decode round trip;
/// allocs_per_op must read 0.00 — the codec works entirely on stack
/// scratch.
void BM_CodedEncodeDecode(benchmark::State& state) {
  const redundancy::Codec codec(8, 4);
  std::array<ResultValue, 8> pieces{};
  std::array<redundancy::Codec::Share, 4> shares{};
  ResultValue value = 0x5EED;
  std::uint64_t allocations = 0;
  for (auto _ : state) {
    const std::uint64_t before =
        perfbench::alloc::total_count();
    codec.encode(value, pieces);
    for (int i = 0; i < 4; ++i) {
      shares[static_cast<std::size_t>(i)] =
          redundancy::Codec::Share{4 + i,
                                   pieces[static_cast<std::size_t>(4 + i)]};
    }
    const auto decoded = codec.decode(shares);
    benchmark::DoNotOptimize(decoded);
    value = static_cast<ResultValue>(
        static_cast<std::uint32_t>(value) * 2654435761u + 1u);
    allocations +=
        perfbench::alloc::total_count() - before;
  }
  state.counters["allocs_per_op"] =
      static_cast<double>(allocations) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_CodedEncodeDecode);

/// One full decide() consultation of the coded engine at the accept point:
/// six votes in (five settled pieces), decode-verify, accept.
void BM_CodedDecide(benchmark::State& state) {
  redundancy::CodedConfig config;  // n=6, k=4, g=6, d=1, v=1
  redundancy::CodedRedundancy strategy(config);
  const redundancy::Codec codec(6, 4);
  std::vector<Vote> votes;
  for (int piece = 0; piece < 6; ++piece) {
    votes.push_back(Vote{static_cast<NodeId>(piece),
                         codec.piece(12345, piece),
                         piece});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(strategy.decide(votes));
  }
}
BENCHMARK(BM_CodedDecide);

void BM_RngUniform(benchmark::State& state) {
  rng::Stream stream(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stream.uniform01());
  }
}
BENCHMARK(BM_RngUniform);

void BM_RngBernoulli(benchmark::State& state) {
  rng::Stream stream(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stream.bernoulli(0.7));
  }
}
BENCHMARK(BM_RngBernoulli);

/// 64-wide bit-sliced Bernoulli expansion against the binary digits of p:
/// the batched sampler behind run_binary's outcome masks. Reported per
/// outcome (1024 per iteration); compare against BM_RngBernoulli for the
/// per-draw speedup.
void BM_RngBernoulliBatch(benchmark::State& state) {
  constexpr std::size_t kDraws = 1024;
  rng::Stream stream(1);
  bool out[kDraws];
  std::uint64_t allocations = 0;
  for (auto _ : state) {
    const std::uint64_t before =
        perfbench::alloc::total_count();
    stream.bernoulli_batch(0.7, kDraws, out);
    benchmark::DoNotOptimize(out);
    allocations +=
        perfbench::alloc::total_count() - before;
  }
  const auto draws =
      static_cast<std::uint64_t>(state.iterations()) * kDraws;
  state.SetItemsProcessed(static_cast<std::int64_t>(draws));
  state.counters["allocs_per_op"] =
      static_cast<double>(allocations) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_RngBernoulliBatch);

/// SoA wave fold: one VoteTally::fold over range(0) votes (worst-case
/// binary split between two values) followed by the single standing()
/// scan the iterative engine makes per decide(). Reported per vote;
/// allocs_per_op must read 0.00 at the inline width (the two-value wave
/// never spills).
void BM_VoteFold(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<Vote> votes(n);
  for (std::size_t i = 0; i < n; ++i) {
    votes[i] = Vote{static_cast<NodeId>(i),
                    static_cast<ResultValue>(i % 2 == 0 ? 42 : 7), 0};
  }
  std::uint64_t allocations = 0;
  for (auto _ : state) {
    const std::uint64_t before =
        perfbench::alloc::total_count();
    redundancy::VoteTally tally{votes};
    benchmark::DoNotOptimize(tally.standing());
    allocations +=
        perfbench::alloc::total_count() - before;
  }
  const auto folded =
      static_cast<std::uint64_t>(state.iterations()) * n;
  state.SetItemsProcessed(static_cast<std::int64_t>(folded));
  state.counters["allocs_per_op"] =
      static_cast<double>(allocations) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_VoteFold)->Arg(8)->Arg(64)->Arg(512);

/// Bulk event insertion: schedule_batch() of range(0) events into an empty
/// heap (reserve + stage + one heapify), then drain. The per-event cost
/// should sit well under one-at-a-time schedule() at the same backlog;
/// allocs_per_event must amortize to ~0 once the arena and heap have
/// warmed up.
void BM_KernelScheduleBatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  std::uint64_t fired = 0;
  std::uint64_t lcg = 0x13198A2E03707344ull;
  std::vector<double> delays(n);
  std::uint64_t allocations = 0;
  for (auto _ : state) {
    for (double& d : delays) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      d = static_cast<double>(lcg >> 11) * (100.0 / 9007199254740992.0);
    }
    const std::uint64_t before =
        perfbench::alloc::total_count();
    sim.schedule_batch(delays, [&fired](std::size_t) {
      return [&fired] { ++fired; };
    });
    sim.run();
    allocations +=
        perfbench::alloc::total_count() - before;
  }
  const auto events =
      static_cast<std::uint64_t>(state.iterations()) * n;
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["allocs_per_event"] =
      static_cast<double>(allocations) / static_cast<double>(events);
}
BENCHMARK(BM_KernelScheduleBatch)->Arg(1'024)->Arg(16'384);

/// One task-to-worker assignment cycle on a 10k-node pool: the policy
/// selects an idle node, the dispatcher claims it and fires the dispatch
/// hook; once the 64-wide wave is out, every node completes on time and
/// returns through the completion hook. Reported per cycle;
/// allocs_per_op must read 0.00 — the selection structures (the pool's
/// dense idle view, least-outstanding's debt buckets) are preallocated
/// at bind() and only swap elements afterwards.
void BM_AssignWave(benchmark::State& state, const char* spec) {
  constexpr std::size_t kNodes = 10'000;
  constexpr std::size_t kWave = 64;
  dca::NodePool pool(kNodes);
  const auto policy = dca::make_policy(spec);
  policy->reset();
  policy->bind(pool);
  rng::Stream rng(1);
  std::array<redundancy::NodeId, kWave> picked{};
  std::uint64_t assigned = 0;
  std::uint64_t allocations = 0;
  for (auto _ : state) {
    const std::uint64_t before =
        perfbench::alloc::total_count();
    for (std::size_t i = 0; i < kWave; ++i) {
      const dca::AssignContext context{assigned++, 0, pool.live_count()};
      const redundancy::NodeId node =
          policy->select(context, pool, rng).value();
      pool.acquire(node);
      policy->on_dispatch(node, context);
      picked[i] = node;
    }
    for (const redundancy::NodeId node : picked) {
      pool.release(node);
      policy->on_complete(node, /*on_time=*/true);
    }
    allocations +=
        perfbench::alloc::total_count() - before;
  }
  const auto cycles =
      static_cast<std::uint64_t>(state.iterations()) * kWave;
  state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
  state.counters["assigns_per_sec"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
  state.counters["allocs_per_op"] =
      static_cast<double>(allocations) / static_cast<double>(cycles);
}
BENCHMARK_CAPTURE(BM_AssignWave, uniform, "uniform");
BENCHMARK_CAPTURE(BM_AssignWave, least_outstanding, "least-outstanding");

// --- --json support: the tracked perf trajectory -------------------------

/// One benchmark's headline number. ns_per_op is per *item* for benchmarks
/// that report items processed (events, tasks), per iteration otherwise.
struct JsonResult {
  std::string name;
  double ns_per_op = 0.0;
};

/// Console reporter that additionally collects each run's ns/op. With
/// --benchmark_repetitions, the *minimum* across repetitions is recorded
/// (under the benchmark's plain name): on a shared machine co-tenant
/// bursts only ever slow a run down, so the fastest repetition is the
/// closest estimate of unperturbed cost — medians still carry whatever
/// load the majority of repetitions saw (check_perf.py compares the same
/// statistic).
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      if (run.run_type == Run::RT_Aggregate) continue;  // display-only
      std::string name = run.benchmark_name();
      double ns = run.GetAdjustedRealTime();
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end() && items->second.value > 0.0) {
        ns = 1e9 / items->second.value;
      }
      const auto existing =
          std::find_if(results_.begin(), results_.end(),
                       [&](const JsonResult& r) { return r.name == name; });
      if (existing == results_.end()) {
        results_.push_back(JsonResult{std::move(name), ns});
      } else {
        existing->ns_per_op = std::min(existing->ns_per_op, ns);
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  [[nodiscard]] const std::vector<JsonResult>& results() const {
    return results_;
  }

 private:
  std::vector<JsonResult> results_;
};

#ifndef SMARTRED_GIT_REV
#define SMARTRED_GIT_REV "unknown"
#endif

std::string utc_timestamp() {
  char buf[32];
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// Appends one run object to the JSON array at `path` (creating `[...]` if
/// the file is missing or empty). The file stays a plain JSON array, one
/// object per recorded run — the repo's perf trajectory.
void append_json_run(const std::string& path,
                     const std::vector<JsonResult>& results) {
  std::string existing;
  {
    std::ifstream in(path);
    if (in) {
      existing.assign(std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>());
    }
  }
  // Drop everything after the closing bracket (trailing newline) and the
  // bracket itself so the new run object can be appended to the array.
  const auto bracket = existing.rfind(']');
  const bool has_entries =
      bracket != std::string::npos &&
      existing.find('{') != std::string::npos;
  std::string head = bracket == std::string::npos
                         ? std::string("[\n")
                         : existing.substr(0, bracket);
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << head;
  if (has_entries) out << ",\n";
  out << "  {\n"
      << "    \"git_rev\": \"" << SMARTRED_GIT_REV << "\",\n"
      << "    \"date\": \"" << utc_timestamp() << "\",\n"
      << "    \"benchmarks\": {\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    out << "      \"" << results[i].name
        << "\": {\"ns_per_op\": " << results[i].ns_per_op << "}";
    if (i + 1 < results.size()) out << ",";
    out << "\n";
  }
  out << "    }\n  }\n]\n";
  std::printf("(perf run appended to %s)\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      json_path = "BENCH_kernel.json";
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty()) append_json_run(json_path, reporter.results());
  return 0;
}
