// Exit codes of bench::guarded_main, the wrapper every bench main runs in:
// a mistyped flag or spec prints its message and exits 2, a checkpoint
// error exits 1, and a body that returns passes its code through.
#include "harness.h"

#include <gtest/gtest.h>

#include <csignal>
#include <string>

#include "ckpt/record.h"
#include "common/flags.h"
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

}  // namespace
}  // namespace smartred::bench
