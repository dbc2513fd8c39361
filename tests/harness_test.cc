// The bench harness: exit codes of bench::guarded_main, the wrapper every
// bench main runs in (a mistyped flag or spec prints its message and exits
// 2, a checkpoint error exits 1, and a body that returns passes its code
// through), and bench::Sweep on tiny plans: point seeds and checkpoints,
// --policy, and the malformed flag values it rejects before any point runs.
#include "harness.h"

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <string>
#include <vector>

#include "boinc/deployment.h"
#include "ckpt/record.h"
#include "ckpt/store.h"
#include "ckpt/sweep.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/spec.h"
#include "redundancy/registry.h"

namespace smartred::bench {
namespace {

/// guarded_main's exit code for `body`; its stderr lands in `*err`.
int exit_code(auto&& body, std::string* err = nullptr) {
  char program[] = "bench";
  char* argv[] = {program, nullptr};
  testing::internal::CaptureStderr();
  const int code = guarded_main(1, argv, body);
  const std::string captured = testing::internal::GetCapturedStderr();
  if (err != nullptr) *err = captured;
  // guarded_main installs its shutdown handler; restore the defaults.
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  return code;
}

TEST(GuardedMainTest, PassesTheBodysExitCodeThrough) {
  EXPECT_EQ(exit_code([] { return 0; }), 0);
  EXPECT_EQ(exit_code([] { return 3; }), 3);
}

TEST(GuardedMainTest, MistypedFlagExitsTwoWithItsMessage) {
  std::string err;
  EXPECT_EQ(exit_code(
                [] {
                  flags::Parser parser("bench", "a bench under test");
                  const char* argv[] = {"bench", "--bogus=1"};
                  parser.parse(2, argv);
                  return 0;
                },
                &err),
            2);
  EXPECT_NE(err.find("error: unknown flag --bogus"), std::string::npos)
      << err;
}

TEST(GuardedMainTest, MalformedSpecExitsTwoWithItsMessage) {
  std::string err;
  EXPECT_EQ(exit_code(
                [] {
                  (void)redundancy::make_strategy("bogus:k=1");
                  return 0;
                },
                &err),
            2);
  EXPECT_NE(err.find("error: unknown redundancy technique 'bogus'"),
            std::string::npos)
      << err;
  // An out-of-range value takes the same path.
  EXPECT_EQ(exit_code(
                [] {
                  (void)redundancy::make_strategy("traditional:k=4");
                  return 0;
                },
                &err),
            2);
  EXPECT_NE(err.find("error: strategy spec 'traditional:k=4'"),
            std::string::npos)
      << err;
}

TEST(GuardedMainTest, CheckpointErrorExitsOne) {
  std::string err;
  EXPECT_EQ(exit_code([]() -> int { throw ckpt::Error("damaged record"); },
                      &err),
            1);
  EXPECT_NE(err.find("checkpoint error: damaged record"), std::string::npos)
      << err;
}

/// A Sweep over the command line `bench <args...>`.
Sweep make_sweep(const std::vector<std::string>& args,
                 SweepFlags defaults = {}) {
  flags::Parser parser("bench", "a bench under test");
  std::vector<const char*> argv = {"bench"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  return Sweep(parser, static_cast<int>(argv.size()), argv.data(), defaults);
}

class BenchSweepTest : public testing::Test {
 protected:
  BenchSweepTest() {
    dir_ = std::filesystem::path(testing::TempDir()) /
           ("bench_sweep_" + std::string(testing::UnitTest::GetInstance()
                                             ->current_test_info()
                                             ->name()));
    std::filesystem::remove_all(dir_);
  }
  ~BenchSweepTest() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(BenchSweepTest, PointsAreSeededInPlanOrder) {
  Sweep sweep = make_sweep({"--seed=7", "--reps=1", "--threads=1"});
  std::vector<std::uint64_t> seeds;
  for (const char* label : {"a", "b", "c"}) {
    (void)sweep.replicate(label, [&](std::uint64_t rep_seed,
                                     const RepTelemetry&) {
      seeds.push_back(rep_seed);
      return redundancy::MonteCarloResult{};
    });
  }
  ASSERT_EQ(seeds.size(), 3u);
  for (std::uint64_t n = 0; n < 3; ++n) {
    // Replication 0 of point n runs with derive_seed(master of n, 0).
    EXPECT_EQ(seeds[n], rng::derive_seed(rng::derive_seed(7, n), 0)) << n;
  }
}

TEST_F(BenchSweepTest, CheckpointsCarryThePointNumberAndLabel) {
  const auto factory = redundancy::make_strategy("iterative:d=2");
  const char* labels[] = {"a", "b", "c"};
  {
    Sweep sweep = make_sweep({"--seed=7", "--reps=2", "--threads=1",
                              "--checkpoint-dir=" + dir_.string()});
    for (const char* label : labels) {
      (void)sweep.binary_mc(label, *factory, 0.8, 20);
    }
  }
  // Each point's final record loads only under its own number and label.
  ckpt::Store store(dir_);
  for (std::uint64_t n = 0; n < 3; ++n) {
    ckpt::PointCheckpoint handle{&store, n, labels[n], 1, true};
    exp::RunnerConfig config;
    config.replications = 2;
    config.master_seed = rng::derive_seed(7, n);
    const auto progress =
        ckpt::load_point<redundancy::MonteCarloResult>(handle, config);
    ASSERT_TRUE(progress.has_value()) << n;
    EXPECT_TRUE(progress->complete) << n;
    EXPECT_EQ(progress->prefix->tasks, 20u) << n;
    handle.label = labels[(n + 1) % 3];
    EXPECT_THROW(
        (void)ckpt::load_point<redundancy::MonteCarloResult>(handle, config),
        ckpt::Error)
        << n;
  }
}

TEST_F(BenchSweepTest, UnknownPolicyFailsBeforeAnyPointRuns) {
  const std::string trace = (dir_ / "trace.jsonl").string();
  EXPECT_THROW((void)make_sweep({"--policy=bogus", "--trace=" + trace,
                                 "--checkpoint-dir=" + dir_.string()}),
               spec::SpecError);
  // Nothing was opened: no checkpoint directory, no trace file.
  EXPECT_FALSE(std::filesystem::exists(dir_));
}

TEST_F(BenchSweepTest, PolicyReachesConfigsThatNameNone) {
  Sweep sweep = make_sweep({"--policy=least-outstanding", "--reps=1"});
  EXPECT_EQ(sweep.policy(), "least-outstanding");
  dca::DcaConfig unnamed;
  dca::DcaConfig named;
  named.assignment_spec = "stratified:tiers=4,late=2";
  boinc::BoincConfig boinc;
  (void)sweep.replicate_tasks(
      "p", 10,
      [&](std::uint64_t, std::uint64_t, const RepTelemetry& telemetry) {
        telemetry.apply(unnamed);
        telemetry.apply(named);
        telemetry.apply(boinc);
        return redundancy::MonteCarloResult{};
      });
  EXPECT_EQ(unnamed.assignment_spec, "least-outstanding");
  EXPECT_EQ(named.assignment_spec, "stratified:tiers=4,late=2");
  EXPECT_EQ(boinc.assignment_spec, "least-outstanding");
}

TEST_F(BenchSweepTest, PolicyRunsTheDcaPointsItReaches) {
  // A DCA point under --policy matches the same point whose config names
  // that policy itself, and not the uniform default's point. Correlated
  // clusters on a two-point pool make the choice of nodes matter.
  const auto factory = redundancy::make_strategy("iterative:d=2");
  const auto point = [&](const std::vector<std::string>& args,
                         const std::string& spec) {
    dca::DcaConfig base;
    base.nodes = 100;
    base.assignment_spec = spec;
    Sweep sweep = make_sweep(args);
    return sweep.dca_point("p", *factory, 200, base, [](std::uint64_t seed) {
      return fault::CorrelatedClusters(
          fault::ReliabilityAssigner(
              fault::TwoPointReliability{0.9, 0.85, 0.35},
              rng::Stream(rng::derive_seed(seed, 1))),
          /*clusters=*/8, /*cluster_failure_prob=*/0.1,
          rng::Stream(rng::derive_seed(seed, 2)));
    });
  };
  const std::string policy = "cartel-averse:groups=8";
  const dca::RunMetrics by_flag = point({"--policy=" + policy}, "");
  const dca::RunMetrics by_config = point({}, policy);
  const dca::RunMetrics uniform = point({}, "");
  EXPECT_EQ(by_flag.jobs_dispatched, by_config.jobs_dispatched);
  EXPECT_EQ(by_flag.tasks_correct, by_config.tasks_correct);
  EXPECT_EQ(by_flag.response_time.mean(), by_config.response_time.mean());
  EXPECT_NE(uniform.response_time.mean(), by_config.response_time.mean());
}

TEST_F(BenchSweepTest, MonteCarloOnlyBenchesTakeNoPolicy) {
  EXPECT_THROW((void)make_sweep({"--policy=uniform"}, {.policy = false}),
               flags::ParseError);
  EXPECT_TRUE(make_sweep({}, {.policy = false}).policy().empty());
}

TEST_F(BenchSweepTest, MalformedSweepFlagsAreParseErrors) {
  for (const char* arg : {"--reps=0", "--reps=-3", "--threads=-1",
                          "--checkpoint-every=-1", "--trace-ring=0"}) {
    EXPECT_THROW((void)make_sweep({arg}), flags::ParseError) << arg;
  }
  // The smallest accepted values.
  EXPECT_NO_THROW((void)make_sweep({"--reps=1", "--threads=0",
                                    "--checkpoint-every=0",
                                    "--trace-ring=1"}));
}

TEST(AtLeastTest, NamesTheFlagItRejects) {
  try {
    (void)at_least("threads", -1, 0);
    FAIL() << "expected a ParseError";
  } catch (const flags::ParseError& error) {
    EXPECT_STREQ(error.what(), "--threads must be at least 0, got -1");
  }
  EXPECT_EQ(at_least("reps", 3, 1), 3u);
}

}  // namespace
}  // namespace smartred::bench
