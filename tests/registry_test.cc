// Tests for the string-keyed strategy registry: every technique spelled by
// spec, alias equivalence, and precise errors for malformed specs.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "redundancy/registry.h"
#include "redundancy/strategy.h"

namespace smartred::redundancy {
namespace {

/// The message a bad spec fails with, or "" if it unexpectedly succeeds.
std::string error_for(const std::string& spec) {
  try {
    (void)make_strategy(spec);
  } catch (const SpecError& error) {
    return error.what();
  }
  return "";
}

TEST(RegistryTest, BuildsEveryTechnique) {
  EXPECT_EQ(make_strategy("traditional:k=5")->name(), "traditional(k=5)");
  EXPECT_EQ(make_strategy("progressive:k=3")->name(), "progressive(k=3)");
  EXPECT_EQ(make_strategy("iterative:d=4")->name(), "iterative(d=4)");
  EXPECT_NE(make_strategy("naive:r=0.7,R=0.99"), nullptr);
  EXPECT_NE(make_strategy("weighted:r=0.7,R=0.99"), nullptr);
  EXPECT_NE(make_strategy("selftuning:R=0.999"), nullptr);
  EXPECT_NE(make_strategy("adaptive:quorum=3,trust=5"), nullptr);
  EXPECT_NE(make_strategy("credibility:threshold=0.99"), nullptr);
  EXPECT_EQ(make_strategy("coded:n=6,k=4,g=2")->name(),
            "coded(n=6,k=4,g=2,d=1,v=1)");
}

TEST(RegistryTest, AliasesNameTheSameFactory) {
  EXPECT_EQ(make_strategy("tr:k=5")->name(),
            make_strategy("traditional:k=5")->name());
  EXPECT_EQ(make_strategy("pr:k=5")->name(),
            make_strategy("progressive:k=5")->name());
  EXPECT_EQ(make_strategy("ir:d=2")->name(),
            make_strategy("iterative:d=2")->name());
}

TEST(RegistryTest, OptionalKeysFallBackToDefaults) {
  // selftuning needs only R; every tuning knob has a default.
  EXPECT_NE(make_strategy("selftuning:R=0.99,initial=8,warmup=500"),
            nullptr);
  EXPECT_NE(make_strategy("credibility:threshold=0.95,f=0.3"), nullptr);
}

TEST(RegistryTest, UnknownTechniqueListsKnownOnes) {
  const std::string message = error_for("bogus:k=1");
  EXPECT_NE(message.find("unknown redundancy technique 'bogus'"),
            std::string::npos);
  EXPECT_NE(message.find("iterative"), std::string::npos);
}

TEST(RegistryTest, UnknownKeyListsValidKeys) {
  const std::string message = error_for("iterative:d=4,z=1");
  EXPECT_NE(message.find("unknown key 'z'"), std::string::npos);
  EXPECT_NE(message.find("valid keys: d"), std::string::npos);
}

TEST(RegistryTest, MissingRequiredKeyIsAnError) {
  EXPECT_NE(error_for("iterative").find("missing required key 'd'"),
            std::string::npos);
  EXPECT_NE(error_for("naive:r=0.7").find("missing required key 'R'"),
            std::string::npos);
}

TEST(RegistryTest, DuplicateKeyIsAnError) {
  EXPECT_NE(error_for("iterative:d=1,d=2").find("duplicate key 'd'"),
            std::string::npos);
}

TEST(RegistryTest, MalformedValuesAreErrors) {
  EXPECT_NE(error_for("iterative:d=abc").find("not an integer"),
            std::string::npos);
  EXPECT_NE(error_for("naive:r=zap,R=0.9").find("not a number"),
            std::string::npos);
  EXPECT_NE(error_for("iterative:d").find("expected key=value"),
            std::string::npos);
}

TEST(RegistryTest, CodedDefaultsResolveFromNAndK) {
  // g defaults to n (one full wave), d to 1, v to min(1, n - k).
  EXPECT_EQ(make_strategy("coded:n=6,k=4")->name(),
            "coded(n=6,k=4,g=6,d=1,v=1)");
  // n == k leaves no verification headroom: v resolves to 0.
  EXPECT_EQ(make_strategy("coded:n=4,k=4")->name(),
            "coded(n=4,k=4,g=4,d=1,v=0)");
}

TEST(RegistryTest, CodedRejectsMalformedSpecsWithPreciseErrors) {
  EXPECT_NE(error_for("coded:n=4,k=6").find("k"), std::string::npos);
  EXPECT_NE(error_for("coded:n=6,k=4,g=4").find("divide"),
            std::string::npos);
  EXPECT_NE(error_for("coded:k=4").find("missing required key 'n'"),
            std::string::npos);
  EXPECT_NE(error_for("coded:n=6").find("missing required key 'k'"),
            std::string::npos);
  EXPECT_NE(error_for("coded:n=0,k=0").find("n"), std::string::npos);
  EXPECT_NE(error_for("coded:n=65,k=4").find("64"), std::string::npos);
  EXPECT_NE(error_for("coded:n=6,k=4,d=0").find("d"), std::string::npos);
  EXPECT_NE(error_for("coded:n=6,k=4,v=5").find("v"), std::string::npos);
  EXPECT_NE(error_for("coded:n=abc,k=4").find("not an integer"),
            std::string::npos);
  EXPECT_NE(error_for("coded:garbage").find("expected key=value"),
            std::string::npos);
}

TEST(RegistryTest, OutOfRangeValuesRaiseSpecErrorForEveryTechnique) {
  // Each value parses but its strategy's constructor rejects it; the
  // registry reports that as a SpecError naming the whole spec.
  const char* specs[] = {
      "traditional:k=4",           "progressive:k=0",
      "iterative:d=0",             "naive:r=0.4,R=0.9",
      "weighted:r=0.4,R=0.9",      "selftuning:R=1.5",
      "adaptive:quorum=1,trust=3", "credibility:threshold=1.5",
      "coded:n=6,k=4,v=-5",
  };
  for (const char* spec : specs) {
    EXPECT_THROW((void)make_strategy(spec), SpecError) << spec;
    const std::string message = error_for(spec);
    EXPECT_EQ(message.find(std::string("strategy spec '") + spec + "': "), 0u)
        << message;
    EXPECT_EQ(message.find("precondition failed"), std::string::npos)
        << message;
  }
}

TEST(RegistryTest, WeightedRangeErrorNamesItsKey) {
  // The registry passes r as both every node's reliability and the typical
  // reliability, so the constructor's message names the key r.
  EXPECT_EQ(error_for("weighted:r=0.4,R=0.9"),
            "strategy spec 'weighted:r=0.4,R=0.9': typical reliability r "
            "must be in (0.5, 1)");
}

TEST(RegistryTest, MisspelledKeysAndTechniquesSuggestCorrections) {
  // Unknown key within edit distance 2 of a valid one gets a suggestion.
  const std::string key_message = error_for("coded:n=6,k=4,gg=2");
  EXPECT_NE(key_message.find("unknown key 'gg'"), std::string::npos);
  EXPECT_NE(key_message.find("did you mean 'g'"), std::string::npos);
  // Misspelled technique likewise.
  const std::string tech_message = error_for("codde:n=6,k=4");
  EXPECT_NE(tech_message.find("unknown redundancy technique 'codde'"),
            std::string::npos);
  EXPECT_NE(tech_message.find("did you mean 'coded'"), std::string::npos);
  // Way-off names get the list but no bogus suggestion.
  EXPECT_EQ(error_for("zzzzzzzz:k=1").find("did you mean"),
            std::string::npos);
}

TEST(RegistryTest, EveryRegisteredKeyRoundTripsThroughMakeStrategy) {
  // Every spelling the registry accepts must build a live factory whose
  // make() yields a strategy that answers the empty-votes consultation.
  const char* specs[] = {
      "traditional:k=3",  "tr:k=3",         "progressive:k=3",
      "pr:k=3",           "iterative:d=2",  "ir:d=2",
      "naive:r=0.7,R=0.99", "weighted:r=0.7,R=0.99",
      "selftuning:R=0.999", "adaptive:quorum=3,trust=5",
      "credibility:threshold=0.99", "coded:n=6,k=4,g=2",
      "coded:n=1,k=1",    "coded:n=8,k=4,g=4,d=2,v=2",
  };
  for (const char* spec : specs) {
    const auto factory = make_strategy(spec);
    ASSERT_NE(factory, nullptr) << spec;
    const auto strategy = factory->make();
    ASSERT_NE(strategy, nullptr) << spec;
    const Decision first = strategy->decide({});
    EXPECT_EQ(first.kind, Decision::Kind::kDispatch) << spec;
    EXPECT_GE(first.jobs, 1) << spec;
  }
}

TEST(RegistryTest, FactorySurfaceOfEveryRegisteredKey) {
  // For every spelling above: the factory's name, whether one instance may
  // serve every task, whether it is consulted after every vote, and whether
  // it splits tasks into encoded pieces.
  struct Surface {
    const char* spec;
    const char* name;
    bool stateless;
    bool eager;
    bool encodes;
  };
  const Surface surfaces[] = {
      {"traditional:k=3", "traditional(k=3)", true, false, false},
      {"tr:k=3", "traditional(k=3)", true, false, false},
      {"progressive:k=3", "progressive(k=3)", true, false, false},
      {"pr:k=3", "progressive(k=3)", true, false, false},
      {"iterative:d=2", "iterative(d=2)", true, false, false},
      {"ir:d=2", "iterative(d=2)", true, false, false},
      {"naive:r=0.7,R=0.99", "iterative-naive(r=0.7,R=0.99)", true, false,
       false},
      {"weighted:r=0.7,R=0.99", "weighted-iterative(R=0.99)", true, false,
       false},
      {"selftuning:R=0.999", "self-tuning(R=0.999)", false, false, false},
      {"adaptive:quorum=3,trust=5", "adaptive(trust=5,quorum=3)", true, false,
       false},
      {"credibility:threshold=0.99", "credibility(threshold=0.99)", true,
       false, false},
      {"coded:n=6,k=4,g=2", "coded(n=6,k=4,g=2,d=1,v=1)", true, true, true},
      {"coded:n=1,k=1", "coded(n=1,k=1,g=1,d=1,v=0)", true, true, true},
      {"coded:n=8,k=4,g=4,d=2,v=2", "coded(n=8,k=4,g=4,d=2,v=2)", true, true,
       true},
  };
  for (const Surface& expected : surfaces) {
    const auto factory = make_strategy(expected.spec);
    EXPECT_EQ(factory->name(), expected.name) << expected.spec;
    EXPECT_EQ(factory->stateless(), expected.stateless) << expected.spec;
    EXPECT_EQ(factory->eager(), expected.eager) << expected.spec;
    EXPECT_EQ(factory->encoder() != nullptr, expected.encodes)
        << expected.spec;
  }
}

TEST(RegistryTest, BuiltStrategiesDecideWithReasons) {
  // A registry-built strategy behaves like the directly constructed one,
  // including the Decision::Reason it reports.
  const auto factory = make_strategy("traditional:k=1");
  const auto strategy = factory->make();
  const Decision first = strategy->decide({});
  ASSERT_EQ(first.kind, Decision::Kind::kDispatch);
  const Vote votes[] = {Vote{0, 1}};
  const Decision done = strategy->decide(votes);
  ASSERT_EQ(done.kind, Decision::Kind::kAccept);
  EXPECT_EQ(done.reason, Decision::Reason::kMajority);
}

}  // namespace
}  // namespace smartred::redundancy
