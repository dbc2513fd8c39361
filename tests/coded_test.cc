// Coded redundancy tests: codec algebra (any k of n reconstruct, fewer
// fail closed), the decide()-engine's decode-verify composition with
// per-piece voting, the iterative-redundancy degenerate case, a randomized
// differential sweep against the closed-form cost anchor, determinism
// pins, and end-to-end runs on both the DCA task server and the BOINC
// deployment.
#include "redundancy/coded.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "boinc/deployment.h"
#include "common/expect.h"
#include "common/rng.h"
#include "dca/task_server.h"
#include "dca/workload.h"
#include "exp/parallel_runner.h"
#include "fault/failure_model.h"
#include "obs/trace.h"
#include "redundancy/iterative.h"
#include "redundancy/montecarlo.h"
#include "redundancy/registry.h"

namespace smartred::redundancy {
namespace {

// The values most likely to expose byte-boundary or sign bugs in the
// byte-wise GF(2^8) arithmetic.
const ResultValue kEdgeValues[] = {
    0,  1,  -1, 42, std::numeric_limits<ResultValue>::max(),
    std::numeric_limits<ResultValue>::min(),
    static_cast<ResultValue>(0x7F80FF01), static_cast<ResultValue>(0xDEADBEEF),
};

/// Every size-k index subset of [0, n), lexicographic.
std::vector<std::vector<int>> k_subsets(int n, int k) {
  std::vector<std::vector<int>> out;
  std::vector<int> pick(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) pick[static_cast<std::size_t>(i)] = i;
  while (true) {
    out.push_back(pick);
    int i = k - 1;
    while (i >= 0 && pick[static_cast<std::size_t>(i)] == n - k + i) --i;
    if (i < 0) break;
    ++pick[static_cast<std::size_t>(i)];
    for (int j = i + 1; j < k; ++j) {
      pick[static_cast<std::size_t>(j)] =
          pick[static_cast<std::size_t>(j - 1)] + 1;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Codec properties

TEST(CodecTest, SystematicPiecesAreTheDataWords) {
  const Codec codec(8, 4);
  for (const ResultValue value : kEdgeValues) {
    EXPECT_EQ(codec.piece(value, 0), value);
    for (int i = 1; i < 4; ++i) {
      EXPECT_EQ(static_cast<std::uint32_t>(codec.piece(value, i)),
                coded_mix32(static_cast<std::uint32_t>(value),
                            static_cast<std::uint32_t>(i)));
    }
  }
}

TEST(CodecTest, EncodeMatchesPiecewiseEvaluation) {
  const Codec codec(6, 3);
  for (const ResultValue value : kEdgeValues) {
    std::vector<ResultValue> pieces(6);
    codec.encode(value, pieces);
    for (int i = 0; i < 6; ++i) {
      EXPECT_EQ(pieces[static_cast<std::size_t>(i)], codec.piece(value, i));
    }
  }
}

TEST(CodecTest, EveryKSubsetReconstructsExhaustively) {
  // For every small (n, k), every one of the C(n, k) share subsets must
  // reconstruct the value, the full codeword, and pass the self-check.
  for (int n = 1; n <= 6; ++n) {
    for (int k = 1; k <= n; ++k) {
      const Codec codec(n, k);
      for (const ResultValue value : kEdgeValues) {
        std::vector<ResultValue> pieces(static_cast<std::size_t>(n));
        codec.encode(value, pieces);
        for (const std::vector<int>& subset : k_subsets(n, k)) {
          std::vector<Codec::Share> shares;
          for (const int index : subset) {
            shares.push_back(Codec::Share{
                index, pieces[static_cast<std::size_t>(index)]});
          }
          const Codec::Decoded decoded = codec.decode(shares);
          ASSERT_EQ(decoded.value, value)
              << "n=" << n << " k=" << k << " value=" << value;
          ASSERT_TRUE(decoded.self_consistent);
          for (int i = 0; i < n; ++i) {
            ASSERT_EQ(decoded.codeword[static_cast<std::size_t>(i)],
                      pieces[static_cast<std::size_t>(i)]);
          }
        }
      }
    }
  }
}

TEST(CodecTest, RandomizedConfigsAnyKSubsetReconstructs) {
  rng::Stream rng(404);
  for (int trial = 0; trial < 300; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, kMaxCodedPieces));
    const int k = static_cast<int>(rng.uniform_int(1, static_cast<std::uint64_t>(n)));
    const Codec codec(n, k);
    const auto value =
        static_cast<ResultValue>(rng.uniform_int(0, 0xFFFFFFFFULL));
    std::vector<ResultValue> pieces(static_cast<std::size_t>(n));
    codec.encode(value, pieces);
    // Random k-subset via partial Fisher-Yates.
    std::vector<int> indices(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) indices[static_cast<std::size_t>(i)] = i;
    std::vector<Codec::Share> shares;
    for (int j = 0; j < k; ++j) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::uint64_t>(j),
                          static_cast<std::uint64_t>(n - 1)));
      std::swap(indices[static_cast<std::size_t>(j)], indices[pick]);
      const int index = indices[static_cast<std::size_t>(j)];
      shares.push_back(
          Codec::Share{index, pieces[static_cast<std::size_t>(index)]});
    }
    const Codec::Decoded decoded = codec.decode(shares);
    ASSERT_EQ(decoded.value, value) << "n=" << n << " k=" << k;
    ASSERT_TRUE(decoded.self_consistent);
  }
}

TEST(CodecTest, DecodeIsShareOrderInvariant) {
  const Codec codec(7, 4);
  const ResultValue value = static_cast<ResultValue>(0xCAFEF00D);
  std::vector<ResultValue> pieces(7);
  codec.encode(value, pieces);
  std::vector<Codec::Share> shares = {
      {6, pieces[6]}, {1, pieces[1]}, {4, pieces[4]}, {2, pieces[2]}};
  const Codec::Decoded forward = codec.decode(shares);
  std::reverse(shares.begin(), shares.end());
  const Codec::Decoded backward = codec.decode(shares);
  EXPECT_EQ(forward.value, backward.value);
  EXPECT_TRUE(forward.self_consistent);
  EXPECT_TRUE(backward.self_consistent);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(forward.codeword[static_cast<std::size_t>(i)],
              backward.codeword[static_cast<std::size_t>(i)]);
  }
}

TEST(CodecTest, FewerThanKSharesFailsClosed) {
  const Codec codec(6, 4);
  std::vector<ResultValue> pieces(6);
  codec.encode(77, pieces);
  std::vector<Codec::Share> shares;
  for (int i = 0; i < 3; ++i) {  // k - 1 shares
    shares.push_back(Codec::Share{i, pieces[static_cast<std::size_t>(i)]});
  }
  EXPECT_THROW((void)codec.decode(shares), PreconditionError);
  shares.clear();
  EXPECT_THROW((void)codec.decode(shares), PreconditionError);
}

TEST(CodecTest, DuplicateOrOutOfRangeSharesAreRejected) {
  const Codec codec(6, 2);
  std::vector<ResultValue> pieces(6);
  codec.encode(5, pieces);
  const std::vector<Codec::Share> duplicated = {{1, pieces[1]},
                                                {1, pieces[1]}};
  EXPECT_THROW((void)codec.decode(duplicated), PreconditionError);
  const std::vector<Codec::Share> out_of_range = {{0, pieces[0]}, {6, 0}};
  EXPECT_THROW((void)codec.decode(out_of_range), PreconditionError);
  EXPECT_THROW(Codec(4, 5), PreconditionError);
  EXPECT_THROW(Codec(0, 0), PreconditionError);
  EXPECT_THROW(Codec(kMaxCodedPieces + 1, 1), PreconditionError);
}

TEST(CodecTest, CorruptedShareNeverDecodesSelfConsistent) {
  // A corrupted share (for k >= 2) must trip the mix32 self-check — the
  // fail-closed property Byzantine detection rests on. Deterministic seed;
  // a silent pass here would be a ~2^-32 coincidence per word.
  rng::Stream rng(911);
  for (int trial = 0; trial < 300; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2, 16));
    const int k = static_cast<int>(rng.uniform_int(2, static_cast<std::uint64_t>(n)));
    const Codec codec(n, k);
    const auto value = static_cast<ResultValue>(rng.uniform_int(0, 1 << 30));
    std::vector<ResultValue> pieces(static_cast<std::size_t>(n));
    codec.encode(value, pieces);
    std::vector<Codec::Share> shares;
    for (int i = 0; i < k; ++i) {
      shares.push_back(Codec::Share{i, pieces[static_cast<std::size_t>(i)]});
    }
    const auto victim =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::uint64_t>(k - 1)));
    const auto flip = static_cast<ResultValue>(
        rng.uniform_int(1, 0xFFFFFFFFULL));
    shares[victim].value = static_cast<ResultValue>(
        static_cast<std::uint32_t>(shares[victim].value) ^
        static_cast<std::uint32_t>(flip));
    const Codec::Decoded decoded = codec.decode(shares);
    ASSERT_FALSE(decoded.self_consistent)
        << "n=" << n << " k=" << k << " corrupted share " << victim
        << " decoded silently";
  }
}

TEST(CodedMixTest, IsDeterministicAndIndexSensitive) {
  EXPECT_EQ(coded_mix32(123, 0), 123u);
  EXPECT_NE(coded_mix32(123, 1), coded_mix32(123, 2));
  EXPECT_NE(coded_mix32(123, 1), coded_mix32(124, 1));
  EXPECT_EQ(coded_mix32(123, 1), coded_mix32(123, 1));
}

// ---------------------------------------------------------------------------
// Configuration and closed-form anchors

TEST(CodedConfigTest, NormalizedResolvesVerifyDefault) {
  CodedConfig config;
  config.n = 6;
  config.k = 4;
  EXPECT_EQ(config.normalized().v, 1);
  config.k = 6;
  EXPECT_EQ(config.normalized().v, 0);
  config.v = 0;
  config.k = 4;
  EXPECT_EQ(config.normalized().v, 0);
}

TEST(CodedConfigTest, NormalizedRejectsInvalidShapes) {
  CodedConfig config;
  config.n = 6;
  config.k = 7;
  EXPECT_THROW((void)config.normalized(), PreconditionError);
  config.k = 4;
  config.g = 4;  // does not divide 6
  EXPECT_THROW((void)config.normalized(), PreconditionError);
  config.g = 6;
  config.d = 0;
  EXPECT_THROW((void)config.normalized(), PreconditionError);
  config.d = 1;
  config.v = 3;  // k + v > n
  EXPECT_THROW((void)config.normalized(), PreconditionError);
}

TEST(CodedMinJobsTest, MatchesHandComputedCases) {
  const auto min_jobs = [](int n, int k, int g, int d, int v) {
    CodedConfig config;
    config.n = n;
    config.k = k;
    config.g = g;
    config.d = d;
    config.v = v;
    return coded_min_jobs(config);
  };
  // need = k + v settled pieces; waves of g after d-1 full cycles.
  EXPECT_EQ(min_jobs(6, 4, 6, 1, -1), 6);   // one full wave covers need=5
  EXPECT_EQ(min_jobs(6, 4, 2, 1, -1), 6);   // ceil(5/2)=3 waves of 2
  EXPECT_EQ(min_jobs(6, 4, 1, 1, -1), 5);   // exactly need jobs
  EXPECT_EQ(min_jobs(6, 4, 3, 1, -1), 6);   // ceil(5/3)=2 waves of 3
  EXPECT_EQ(min_jobs(6, 4, 6, 2, -1), 12);  // one extra full cycle
  EXPECT_EQ(min_jobs(1, 1, 1, 3, 0), 3);    // iterative degenerate: d jobs
  EXPECT_EQ(min_jobs(8, 4, 4, 1, 2), 8);    // need=6, ceil(6/4)=2 waves
}

TEST(CodedMinJobsTest, FirstPassReliabilityIsPowerOfR) {
  CodedConfig config;
  config.n = 6;
  config.k = 4;
  config.g = 2;
  const int jobs = coded_min_jobs(config);
  EXPECT_DOUBLE_EQ(coded_first_pass_reliability(config, 1.0), 1.0);
  EXPECT_NEAR(coded_first_pass_reliability(config, 0.9),
              std::pow(0.9, jobs), 1e-12);
}

// ---------------------------------------------------------------------------
// Decision engine

CodedConfig make_config(int n, int k, int g, int d, int v) {
  CodedConfig config;
  config.n = n;
  config.k = k;
  config.g = g;
  config.d = d;
  config.v = v;
  return config;
}

/// `copies` correct votes for each piece in `pieces` of a task whose true
/// result is `value`, encoded with `codec`.
std::vector<Vote> correct_votes(const Codec& codec, ResultValue value,
                                const std::vector<int>& pieces,
                                int copies = 1) {
  std::vector<Vote> votes;
  NodeId node = 0;
  for (int copy = 0; copy < copies; ++copy) {
    for (const int piece : pieces) {
      votes.push_back(Vote{node++, codec.piece(value, piece), piece});
    }
  }
  return votes;
}

TEST(CodedStrategyTest, EmptyVotesDispatchOneWave) {
  CodedRedundancy strategy(make_config(6, 4, 2, 1, -1));
  const Decision decision = strategy.decide({});
  ASSERT_EQ(decision.kind, Decision::Kind::kDispatch);
  EXPECT_EQ(decision.jobs, 2);
}

TEST(CodedStrategyTest, AcceptsOnceKPlusVSettledPiecesAgree) {
  const CodedConfig config = make_config(6, 4, 6, 1, -1);  // need = 5
  CodedRedundancy strategy(config);
  const Codec codec(6, 4);
  const ResultValue value = static_cast<ResultValue>(0x5EEDF00D);
  const std::vector<Vote> votes =
      correct_votes(codec, value, {0, 1, 2, 3, 4});
  const Decision decision = strategy.decide(votes);
  ASSERT_EQ(decision.kind, Decision::Kind::kAccept);
  EXPECT_EQ(decision.value, value);
  EXPECT_EQ(decision.reason, Decision::Reason::kDecodeVerified);
  EXPECT_EQ(decision.decode_rejects, 0);
}

TEST(CodedStrategyTest, FewerThanKPlusVSettledNeverAccepts) {
  // k - 1 settled pieces (below even the reconstruction floor) and then
  // k + v - 1 settled pieces (reconstructible but unverifiable) both fail
  // closed into another dispatch.
  const CodedConfig config = make_config(6, 4, 2, 1, -1);  // need = 5
  CodedRedundancy strategy(config);
  const Codec codec(6, 4);
  for (const int settled : {3, 4}) {
    std::vector<int> pieces;
    for (int i = 0; i < settled; ++i) pieces.push_back(i);
    const Decision decision =
        strategy.decide(correct_votes(codec, 99, pieces));
    ASSERT_EQ(decision.kind, Decision::Kind::kDispatch) << settled;
    EXPECT_EQ(decision.jobs, 2);
  }
}

TEST(CodedStrategyTest, UnsettledMarginBlocksAcceptance) {
  // With d = 2 a single vote per piece leaves every piece unsettled.
  const CodedConfig config = make_config(6, 4, 6, 2, -1);
  CodedRedundancy strategy(config);
  const Codec codec(6, 4);
  const std::vector<Vote> one_each =
      correct_votes(codec, 7, {0, 1, 2, 3, 4, 5});
  EXPECT_EQ(strategy.decide(one_each).kind, Decision::Kind::kDispatch);
  const std::vector<Vote> two_each =
      correct_votes(codec, 7, {0, 1, 2, 3, 4, 5}, 2);
  EXPECT_EQ(strategy.decide(two_each).kind, Decision::Kind::kAccept);
}

TEST(CodedStrategyTest, WeakestCorruptedShareIsExcludedAndRecovered) {
  // Six settled pieces, one Byzantine with a *smaller* margin than the
  // honest five: the exclusion loop drops it and the retry accepts the
  // correct value, reporting the rejected candidate.
  const CodedConfig config = make_config(8, 4, 8, 1, -1);  // need = 5
  CodedRedundancy strategy(config);
  const Codec codec(8, 4);
  const ResultValue value = 1234;
  // Honest pieces 0, 2, 3, 4, 5 at margin 2; corrupted piece 1 at margin 1.
  std::vector<Vote> votes = correct_votes(codec, value, {0, 2, 3, 4, 5}, 2);
  votes.push_back(Vote{
      100,
      static_cast<ResultValue>(
          static_cast<std::uint32_t>(codec.piece(value, 1)) ^ 1U),
      1});
  const Decision decision = strategy.decide(votes);
  ASSERT_EQ(decision.kind, Decision::Kind::kAccept);
  EXPECT_EQ(decision.value, value);
  EXPECT_EQ(decision.reason, Decision::Reason::kDecodeVerified);
  EXPECT_GE(decision.decode_rejects, 1);
}

TEST(CodedStrategyTest, CorruptionWithoutHonestQuorumFailsClosed) {
  // Exactly need settled pieces, one corrupted at equal margin: no subset
  // can muster k + v agreeing pieces, so the engine must dispatch more
  // work rather than accept — and it reports how many candidates it
  // rejected on the way out.
  const CodedConfig config = make_config(6, 4, 6, 1, -1);  // need = 5
  CodedRedundancy strategy(config);
  const Codec codec(6, 4);
  const ResultValue value = 42;
  std::vector<Vote> votes = correct_votes(codec, value, {0, 2, 3, 4});
  votes.push_back(Vote{
      100,
      static_cast<ResultValue>(
          static_cast<std::uint32_t>(codec.piece(value, 1)) ^ 1U),
      1});
  const Decision decision = strategy.decide(votes);
  ASSERT_EQ(decision.kind, Decision::Kind::kDispatch);
  EXPECT_GE(decision.decode_rejects, 1);
}

TEST(CodedStrategyTest, DecisionIsVoteOrderInvariant) {
  const CodedConfig config = make_config(6, 4, 3, 1, -1);
  const Codec codec(6, 4);
  std::vector<Vote> votes = correct_votes(codec, 555, {0, 1, 2, 3, 4, 5});
  votes.push_back(Vote{
      50,
      static_cast<ResultValue>(
          static_cast<std::uint32_t>(codec.piece(555, 2)) ^ 1U),
      2});
  rng::Stream rng(13);
  CodedRedundancy reference(config);
  const Decision expected = reference.decide(votes);
  for (int shuffle = 0; shuffle < 20; ++shuffle) {
    for (std::size_t i = votes.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::uint64_t>(i - 1)));
      std::swap(votes[i - 1], votes[j]);
    }
    CodedRedundancy strategy(config);
    const Decision decision = strategy.decide(votes);
    ASSERT_EQ(decision.kind, expected.kind);
    ASSERT_EQ(decision.value, expected.value);
    ASSERT_EQ(decision.reason, expected.reason);
    ASSERT_EQ(decision.decode_rejects, expected.decode_rejects);
  }
}

TEST(CodedStrategyTest, RandomCorruptionNeverAcceptsWrongValue) {
  // Property: whatever subset of pieces an adversary settles on flipped
  // values, an accept (when it happens) always carries the true value —
  // corruption can delay the decision but never steer it. k >= 2 so the
  // self-check is live.
  rng::Stream rng(31337);
  for (int trial = 0; trial < 400; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2, 12));
    const int k = static_cast<int>(rng.uniform_int(2, static_cast<std::uint64_t>(n)));
    const std::vector<int> divisors = [n] {
      std::vector<int> out;
      for (int g = 1; g <= n; ++g) {
        if (n % g == 0) out.push_back(g);
      }
      return out;
    }();
    const int g = divisors[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::uint64_t>(divisors.size() - 1)))];
    const CodedConfig config = make_config(n, k, g, 1, -1);
    const Codec codec(n, k);
    const auto value = static_cast<ResultValue>(rng.uniform_int(0, 1 << 30));
    std::vector<Vote> votes;
    NodeId node = 0;
    for (int piece = 0; piece < n; ++piece) {
      const bool corrupt = rng.bernoulli(0.3);
      const auto piece_value = static_cast<std::uint32_t>(
          codec.piece(value, piece));
      votes.push_back(Vote{
          node++,
          static_cast<ResultValue>(corrupt ? piece_value ^ 1U : piece_value),
          piece});
    }
    CodedRedundancy strategy(config);
    const Decision decision = strategy.decide(votes);
    if (decision.done()) {
      ASSERT_EQ(decision.value, value)
          << "n=" << n << " k=" << k << " g=" << g
          << ": accepted a corrupted codeword";
    }
  }
}

// ---------------------------------------------------------------------------
// Degenerate-case equivalence: coded(1,1,1,d,0) is iterative(d)

TEST(CodedIterativeEquivalence, RunBinaryAggregatesMatchExactly) {
  // One piece, no parity, waves of one: the per-piece margin rule *is* the
  // iterative margin rule, consuming the identical vote stream (margin can
  // only reach d at an iterative batch boundary, so batching does not
  // change the first-passage job count).
  for (const int d : {1, 2, 3, 4}) {
    for (const double r : {0.6, 0.75, 0.9}) {
      MonteCarloConfig mc;
      mc.tasks = 3'000;
      mc.seed = 42 + static_cast<std::uint64_t>(d);
      const auto coded =
          run_binary(CodedFactory(make_config(1, 1, 1, d, 0)), r, mc);
      const auto iterative = run_binary(IterativeFactory(d), r, mc);
      SCOPED_TRACE(testing::Message() << "d=" << d << " r=" << r);
      EXPECT_EQ(coded.jobs_total, iterative.jobs_total);
      EXPECT_EQ(coded.tasks_correct, iterative.tasks_correct);
      EXPECT_EQ(coded.tasks_aborted, iterative.tasks_aborted);
      EXPECT_EQ(coded.max_jobs_single_task, iterative.max_jobs_single_task);
    }
  }
}

// ---------------------------------------------------------------------------
// Differential sweep: Monte-Carlo vs. closed-form anchors on 200 random
// configurations, fanned across the parallel runner.

struct CodedSweepMeasurement {
  CodedConfig config;
  double r = 1.0;
  std::uint64_t tasks = 0;
  std::uint64_t tasks_correct = 0;
  std::uint64_t tasks_aborted = 0;
  std::uint64_t jobs_total = 0;
  double jobs_min = 0.0;
  double reliability = 0.0;
};

std::vector<CodedSweepMeasurement> run_coded_sweep(bool perfect) {
  constexpr std::uint64_t kConfigs = 200;
  constexpr std::uint64_t kTasks = 400;
  // Config generation is itself seeded, so the sweep is reproducible.
  std::vector<CodedSweepMeasurement> setups(kConfigs);
  rng::Stream gen(perfect ? 8'001 : 8'002);
  for (auto& setup : setups) {
    const int n = static_cast<int>(gen.uniform_int(2, 12));
    const int k = static_cast<int>(gen.uniform_int(2, static_cast<std::uint64_t>(n)));
    std::vector<int> divisors;
    for (int g = 1; g <= n; ++g) {
      if (n % g == 0) divisors.push_back(g);
    }
    const int g = divisors[static_cast<std::size_t>(gen.uniform_int(
        0, static_cast<std::uint64_t>(divisors.size() - 1)))];
    const int d = static_cast<int>(gen.uniform_int(1, 3));
    setup.config = make_config(n, k, g, d, -1);
    setup.r = perfect ? 1.0 : gen.uniform(0.65, 0.95);
    setup.tasks = kTasks;
  }

  exp::RunnerConfig plan;
  plan.replications = kConfigs;
  plan.master_seed = perfect ? 616 : 617;
  exp::ParallelRunner runner(plan);
  return runner.run([&](std::uint64_t index, std::uint64_t seed) {
    CodedSweepMeasurement m = setups[index];
    MonteCarloConfig mc;
    mc.tasks = kTasks;
    mc.seed = seed;
    const auto result = run_binary(CodedFactory(m.config), m.r, mc);
    m.tasks_correct = result.tasks_correct;
    m.tasks_aborted = result.tasks_aborted;
    m.jobs_total = result.jobs_total;
    m.jobs_min = result.jobs_per_task.min();
    m.reliability = result.reliability();
    return m;
  });
}

TEST(CodedDifferentialSweep, PerfectReliabilityMatchesClosedFormExactly) {
  // r = 1: every task accepts at the first opportunity, so the measured
  // jobs per task equal coded_min_jobs exactly — no statistical slack.
  for (const CodedSweepMeasurement& m : run_coded_sweep(/*perfect=*/true)) {
    SCOPED_TRACE(testing::Message()
                 << "n=" << m.config.n << " k=" << m.config.k
                 << " g=" << m.config.g << " d=" << m.config.d);
    const auto min_jobs =
        static_cast<std::uint64_t>(coded_min_jobs(m.config));
    EXPECT_EQ(m.jobs_total, m.tasks * min_jobs);
    EXPECT_EQ(m.tasks_correct, m.tasks);
    EXPECT_EQ(m.tasks_aborted, 0u);
    EXPECT_DOUBLE_EQ(m.reliability, 1.0);
  }
}

TEST(CodedDifferentialSweep, RandomReliabilityNeverAcceptsWrong) {
  // Under per-piece collusion with k >= 2, a wrong accept would need the
  // flipped leaders to lie on a self-consistent alternative codeword — a
  // ~2^-32 event the deterministic seeds never hit. So every task either
  // accepts the correct value or aborts, never accepts wrong; and no task
  // can finish below the closed-form minimum job count.
  for (const CodedSweepMeasurement& m : run_coded_sweep(/*perfect=*/false)) {
    SCOPED_TRACE(testing::Message()
                 << "n=" << m.config.n << " k=" << m.config.k
                 << " g=" << m.config.g << " d=" << m.config.d
                 << " r=" << m.r);
    EXPECT_EQ(m.tasks_correct + m.tasks_aborted, m.tasks);
    EXPECT_GE(m.jobs_min,
              static_cast<double>(coded_min_jobs(m.config)));
    // First-pass acceptance lower-bounds the measured reliability
    // (5-sigma binomial slack on 400 tasks).
    const double bound = coded_first_pass_reliability(m.config, m.r);
    const double sigma = std::sqrt(bound * (1.0 - bound) /
                                   static_cast<double>(m.tasks));
    EXPECT_GE(m.reliability, bound - 5.0 * sigma - 3.0 / 400.0);
  }
}

// ---------------------------------------------------------------------------
// Determinism pins

TEST(CodedDeterminism, SweepIsThreadCountInvariant) {
  const auto sweep = [](unsigned threads) {
    exp::RunnerConfig plan;
    plan.replications = 12;
    plan.threads = threads;
    plan.master_seed = 7;
    exp::ParallelRunner runner(plan);
    return runner.run([](std::uint64_t index, std::uint64_t seed) {
      MonteCarloConfig mc;
      mc.tasks = 400;
      mc.seed = seed;
      const auto result = run_binary(
          CodedFactory(make_config(6, 4, 1 + static_cast<int>(index % 2),
                                   1 + static_cast<int>(index % 3) / 2, -1)),
          0.8, mc);
      return std::pair<std::uint64_t, double>{result.jobs_total,
                                              result.reliability()};
    });
  };
  const auto one = sweep(1);
  const auto sixteen = sweep(16);
  ASSERT_EQ(one.size(), sixteen.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].first, sixteen[i].first);
    EXPECT_EQ(one[i].second, sixteen[i].second);
  }
}

TEST(CodedDeterminism, Seed7AggregatesArePinned) {
  // Golden aggregates for the canonical config: any change to the codec,
  // the engine, or the Monte-Carlo vote accounting shows up here.
  // (Re-pinned once when run_binary switched to batched bernoulli_mask64
  // outcomes — same distribution, different draw order; DESIGN §11.)
  MonteCarloConfig mc;
  mc.tasks = 2'000;
  mc.seed = 7;
  const auto result =
      run_binary(CodedFactory(make_config(6, 4, 2, 1, -1)), 0.8, mc);
  EXPECT_EQ(result.tasks, 2'000u);
  EXPECT_EQ(result.jobs_total, 24'908u);
  EXPECT_EQ(result.tasks_correct, 2'000u);
  EXPECT_EQ(result.tasks_aborted, 0u);
}

// ---------------------------------------------------------------------------
// Substrate integration: DCA task server and BOINC deployment

dca::DcaConfig coded_dca_config(std::size_t nodes, std::uint64_t seed) {
  dca::DcaConfig config;
  config.nodes = nodes;
  config.seed = seed;
  return config;
}

fault::ByzantineCollusion coded_collusion(double r, std::uint64_t seed = 5) {
  return fault::ByzantineCollusion(fault::ReliabilityAssigner(
      fault::ConstantReliability{r}, rng::Stream(seed)));
}

TEST(CodedTaskServerTest, PerfectPoolAcceptsEagerlyAtMinCost) {
  sim::Simulator simulator;
  const CodedFactory factory(make_config(6, 4, 6, 1, -1));
  const dca::SyntheticWorkload workload(300);
  auto failures = coded_collusion(1.0);
  dca::TaskServer server(simulator, coded_dca_config(200, 1), factory,
                         workload, failures);
  const dca::RunMetrics& metrics = server.run();
  EXPECT_EQ(metrics.tasks_total, 300u);
  EXPECT_EQ(metrics.tasks_correct, 300u);
  EXPECT_EQ(metrics.tasks_aborted, 0u);
  // One wave of g = 6 per task; the eager engine accepts on the 5th vote
  // (k + v = 5) and the leftover copy is discarded, not wasted as a wave.
  EXPECT_EQ(metrics.jobs_dispatched, 300u * 6u);
  EXPECT_EQ(metrics.jobs_discarded, 300u);
  EXPECT_TRUE(metrics.jobs_conserved());
  EXPECT_EQ(metrics.decodes_rejected, 0u);
  for (std::uint64_t task = 0; task < 300; ++task) {
    const auto accepted = server.accepted_value(task);
    ASSERT_TRUE(accepted.has_value());
    EXPECT_EQ(*accepted, workload.correct_value(task));
  }
}

TEST(CodedTaskServerTest, ByzantineMixSurvivesWithDecodeRejects) {
  sim::Simulator simulator;
  obs::Recorder recorder(1u << 16);
  simulator.set_recorder(&recorder);
  const CodedFactory factory(make_config(6, 4, 6, 1, -1));
  const dca::SyntheticWorkload workload(500);
  auto failures = coded_collusion(0.7);
  dca::TaskServer server(simulator, coded_dca_config(200, 3), factory,
                         workload, failures);
  const dca::RunMetrics& metrics = server.run();
  EXPECT_EQ(metrics.tasks_correct + metrics.tasks_aborted, 500u);
  // 30% wrong votes at margin 1 settle wrong leaders constantly — the
  // decode-verify step must be rejecting candidates, and every rejection
  // reaches both the metric and the trace.
  EXPECT_GT(metrics.decodes_rejected, 0u);
  EXPECT_GT(metrics.reliability(), 0.99);
  EXPECT_TRUE(metrics.jobs_conserved());
  std::uint64_t traced_rejects = 0;
  recorder.for_each([&](const obs::TraceEvent& event) {
    if (event.kind == obs::EventKind::kDecodeRejected) {
      traced_rejects += static_cast<std::uint64_t>(event.arg);
    }
  });
  EXPECT_GT(traced_rejects, 0u);
}

TEST(CodedTaskServerTest, DeterministicGivenSeed) {
  const CodedFactory factory(make_config(8, 4, 4, 1, -1));
  const dca::SyntheticWorkload workload(200);
  dca::RunMetrics first;
  dca::RunMetrics second;
  for (dca::RunMetrics* out : {&first, &second}) {
    sim::Simulator simulator;
    auto failures = coded_collusion(0.8);
    dca::TaskServer server(simulator, coded_dca_config(100, 7), factory,
                           workload, failures);
    *out = server.run();
  }
  EXPECT_EQ(first.jobs_dispatched, second.jobs_dispatched);
  EXPECT_EQ(first.tasks_correct, second.tasks_correct);
  EXPECT_EQ(first.decodes_rejected, second.decodes_rejected);
  EXPECT_DOUBLE_EQ(first.makespan, second.makespan);
}

TEST(CodedBoincTest, ReliablePoolSolvesEverythingEagerly) {
  sim::Simulator simulator;
  const CodedFactory factory(make_config(6, 4, 6, 1, -1));
  const dca::SyntheticWorkload workload(120);
  boinc::BoincConfig config;
  config.seed = 11;
  boinc::Deployment deployment(simulator, config,
                               boinc::uniform_profiles(50, 1.0), factory,
                               workload);
  const dca::RunMetrics& metrics = deployment.run();
  EXPECT_EQ(metrics.tasks_correct, 120u);
  EXPECT_EQ(metrics.jobs_dispatched, 120u * 6u);
  EXPECT_EQ(metrics.jobs_discarded, 120u);
  EXPECT_TRUE(metrics.jobs_conserved());
  EXPECT_EQ(metrics.decodes_rejected, 0u);
}

TEST(CodedBoincTest, FaultyPoolStaysCorrectViaDecodeVerify) {
  sim::Simulator simulator;
  const CodedFactory factory(make_config(6, 4, 3, 1, -1));
  const dca::SyntheticWorkload workload(200);
  boinc::BoincConfig config;
  config.seed = 23;
  boinc::Deployment deployment(simulator, config,
                               boinc::uniform_profiles(60, 0.75), factory,
                               workload);
  const dca::RunMetrics& metrics = deployment.run();
  EXPECT_EQ(metrics.tasks_correct + metrics.tasks_aborted, 200u);
  EXPECT_GT(metrics.reliability(), 0.99);
  EXPECT_GT(metrics.decodes_rejected, 0u);
  EXPECT_TRUE(metrics.jobs_conserved());
}

// ---------------------------------------------------------------------------
// Registry integration

TEST(CodedRegistryTest, SpecRoundTripsThroughFactory) {
  const auto factory = make_strategy("coded:n=6,k=4,g=2");
  ASSERT_NE(factory, nullptr);
  EXPECT_EQ(factory->name(), "coded(n=6,k=4,g=2,d=1,v=1)");
  EXPECT_TRUE(factory->stateless());
  EXPECT_TRUE(factory->eager());
  ASSERT_NE(factory->encoder(), nullptr);
  EXPECT_EQ(factory->encoder()->pieces(), 6);
  EXPECT_EQ(factory->encoder()->piece_of(0), 0);
  EXPECT_EQ(factory->encoder()->piece_of(7), 1);
  // Piece 0 is systematic: the job value is the task value itself.
  EXPECT_EQ(factory->encoder()->job_value(99, 0), 99);
  EXPECT_EQ(factory->encoder()->job_value(99, 6), 99);
}

TEST(CodedRegistryTest, NonCodedFactoriesHaveNoEncoder) {
  const auto factory = make_strategy("iterative:d=2");
  EXPECT_EQ(factory->encoder(), nullptr);
  EXPECT_FALSE(factory->eager());
}

}  // namespace
}  // namespace smartred::redundancy
