// Crash-safety tests for the checkpoint subsystem: byte codecs, record
// framing, the one-file-per-epoch store under hostile input (truncation,
// bit flips, a killed save, version skew), and bit-identical resume
// through ckpt::run_resumable().
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "ckpt/codec.h"
#include "ckpt/record.h"
#include "ckpt/store.h"
#include "ckpt/sweep.h"
#include "common/binio.h"
#include "common/checksum.h"
#include "common/fileio.h"
#include "common/rng.h"
#include "common/stats.h"
#include "exp/parallel_runner.h"
#include "obs/histogram.h"

namespace smartred {
namespace {

namespace fs = std::filesystem;

// --- checksum ---------------------------------------------------------------

TEST(Crc32cTest, KnownAnswer) {
  // The CRC-32C check value from RFC 3720 §B.4 / the iSCSI test vector.
  const std::string data = "123456789";
  EXPECT_EQ(common::crc32c(data.data(), data.size()), 0xE3069283u);
}

TEST(Crc32cTest, ChainingMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = common::crc32c(data.data(), data.size());
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::uint32_t first = common::crc32c(data.data(), split);
    const std::uint32_t chained =
        common::crc32c(data.data() + split, data.size() - split, first);
    EXPECT_EQ(chained, whole) << "split at " << split;
  }
}

// --- binio ------------------------------------------------------------------

TEST(BinioTest, RoundTripsEveryPrimitive) {
  common::ByteWriter writer;
  writer.u8(0xAB);
  writer.u32(0xDEADBEEFu);
  writer.u64(0x0123456789ABCDEFull);
  writer.i64(-42);
  writer.f64(-0.0);
  writer.f64(std::numeric_limits<double>::infinity());
  writer.f64(std::numeric_limits<double>::quiet_NaN());
  writer.f64(0.1);
  writer.str("checkpoint");
  const std::vector<std::uint8_t> bytes = writer.take();

  common::ByteReader reader(bytes);
  EXPECT_EQ(reader.u8(), 0xAB);
  EXPECT_EQ(reader.u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.i64(), -42);
  // Bit patterns, not value comparison: -0.0 and NaN must survive exactly.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(reader.f64()),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(reader.f64(), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(reader.f64()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(reader.f64()),
            std::bit_cast<std::uint64_t>(0.1));
  EXPECT_EQ(reader.str(), "checkpoint");
  EXPECT_TRUE(reader.done());
}

TEST(BinioTest, ReaderRejectsTruncation) {
  common::ByteWriter writer;
  writer.u64(7);
  std::vector<std::uint8_t> bytes = writer.take();
  bytes.resize(5);
  common::ByteReader reader(bytes);
  EXPECT_THROW((void)reader.u64(), common::DecodeError);
}

TEST(BinioTest, ReaderRejectsHostileStringLength) {
  common::ByteWriter writer;
  writer.u64(std::numeric_limits<std::uint64_t>::max());  // absurd length
  const std::vector<std::uint8_t> bytes = writer.data();
  common::ByteReader reader(bytes);
  EXPECT_THROW((void)reader.str(), common::DecodeError);
}

// --- record framing ---------------------------------------------------------

std::vector<std::uint8_t> sample_payload() {
  common::ByteWriter writer;
  writer.str("payload");
  writer.u64(12345);
  return writer.take();
}

TEST(RecordTest, FrameRoundTrips) {
  const auto framed = ckpt::frame_record(0xFEEDFACEull, sample_payload());
  std::string why;
  const auto parsed = ckpt::parse_record(framed, &why);
  ASSERT_TRUE(parsed.has_value()) << why;
  EXPECT_EQ(parsed->fingerprint, 0xFEEDFACEull);
  EXPECT_EQ(parsed->payload, sample_payload());
}

TEST(RecordTest, RejectsTruncation) {
  auto framed = ckpt::frame_record(1, sample_payload());
  for (const std::size_t keep : {std::size_t{0}, std::size_t{3},
                                 framed.size() / 2, framed.size() - 1}) {
    std::vector<std::uint8_t> cut(framed.begin(),
                                  framed.begin() + static_cast<long>(keep));
    std::string why;
    EXPECT_FALSE(ckpt::parse_record(cut, &why).has_value())
        << "kept " << keep << " bytes";
    EXPECT_FALSE(why.empty());
  }
}

TEST(RecordTest, RejectsEveryPossibleBitFlip) {
  const auto framed = ckpt::frame_record(1, sample_payload());
  for (std::size_t i = 0; i < framed.size(); ++i) {
    auto corrupt = framed;
    corrupt[i] ^= 0x01;
    EXPECT_FALSE(ckpt::parse_record(corrupt).has_value())
        << "flip at byte " << i;
  }
}

TEST(RecordTest, RejectsVersionSkewSpecifically) {
  auto framed = ckpt::frame_record(1, sample_payload());
  // Bump the version field (bytes 4..7) and re-sign the frame so ONLY the
  // version is wrong — this must still be rejected, with a reason that
  // names the skew rather than a generic CRC failure.
  framed[4] = static_cast<std::uint8_t>(ckpt::kFormatVersion + 1);
  const std::uint32_t crc =
      common::crc32c(framed.data(), framed.size() - 4);
  for (int b = 0; b < 4; ++b) {
    framed[framed.size() - 4 + static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>(crc >> (8 * b));
  }
  std::string why;
  EXPECT_FALSE(ckpt::parse_record(framed, &why).has_value());
  EXPECT_NE(why.find("version"), std::string::npos) << why;
}

// --- codecs -----------------------------------------------------------------

template <typename T>
std::vector<std::uint8_t> encoded(const T& value) {
  common::ByteWriter writer;
  ckpt::Codec<T>::encode(writer, value);
  return writer.take();
}

template <typename T>
T decoded(const std::vector<std::uint8_t>& bytes) {
  common::ByteReader reader(bytes);
  T value = ckpt::Codec<T>::decode(reader);
  EXPECT_TRUE(reader.done()) << "codec left trailing bytes";
  return value;
}

TEST(CodecTest, StreamingStatsRoundTripIsBitExact) {
  stats::StreamingStats original;
  rng::Stream stream(7);
  for (int i = 0; i < 1000; ++i) original.add(stream.exponential(3.0));

  const auto restored = decoded<stats::StreamingStats>(encoded(original));
  const auto a = original.raw();
  const auto b = restored.raw();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mean),
            std::bit_cast<std::uint64_t>(b.mean));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.m2),
            std::bit_cast<std::uint64_t>(b.m2));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.min),
            std::bit_cast<std::uint64_t>(b.min));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.max),
            std::bit_cast<std::uint64_t>(b.max));

  // The stronger property run_resumable() rests on: merging into a
  // restored aggregate proceeds bit-identically to the original.
  stats::StreamingStats more;
  for (int i = 0; i < 100; ++i) more.add(stream.uniform(0.0, 9.0));
  stats::StreamingStats merged_original = original;
  stats::StreamingStats merged_restored = restored;
  merged_original.merge(more);
  merged_restored.merge(more);
  EXPECT_EQ(encoded(merged_original), encoded(merged_restored));
}

TEST(CodecTest, EmptyStreamingStatsRoundTrips) {
  const stats::StreamingStats empty;
  const auto restored = decoded<stats::StreamingStats>(encoded(empty));
  EXPECT_EQ(restored.count(), 0u);
}

TEST(CodecTest, HistogramRoundTripsSparsely) {
  obs::LogHistogram original;
  rng::Stream stream(11);
  for (int i = 0; i < 5000; ++i) original.add(stream.lognormal(0.0, 2.0));
  const auto restored = decoded<obs::LogHistogram>(encoded(original));
  EXPECT_TRUE(original == restored);
  // Sparse encoding: far fewer bytes than the dense ~1700-bucket layout.
  EXPECT_LT(encoded(original).size(), obs::LogHistogram::kBucketCount * 8);
}

TEST(CodecTest, EmptyHistogramRoundTrips) {
  const obs::LogHistogram empty;
  const auto restored = decoded<obs::LogHistogram>(encoded(empty));
  EXPECT_TRUE(empty == restored);
  EXPECT_EQ(encoded(empty).size(), 8u);  // just the zero count
}

TEST(CodecTest, HistogramDecodeRejectsBadBucketIndex) {
  common::ByteWriter writer;
  writer.u64(1);    // total
  writer.f64(1.0);  // min
  writer.f64(1.0);  // max
  writer.u64(1);    // one non-empty bucket ...
  writer.u64(obs::LogHistogram::kBucketCount);  // ... out of range
  writer.u64(1);
  const auto bytes = writer.take();
  common::ByteReader reader(bytes);
  EXPECT_THROW((void)ckpt::Codec<obs::LogHistogram>::decode(reader),
               ckpt::Error);
}

TEST(CodecTest, HistogramDecodeRejectsCountMismatch) {
  common::ByteWriter writer;
  writer.u64(5);    // claims 5 observations
  writer.f64(1.0);
  writer.f64(1.0);
  writer.u64(1);
  writer.u64(100);
  writer.u64(3);    // buckets only sum to 3
  const auto bytes = writer.take();
  common::ByteReader reader(bytes);
  EXPECT_THROW((void)ckpt::Codec<obs::LogHistogram>::decode(reader),
               ckpt::Error);
}

dca::RunMetrics sample_metrics(std::uint64_t seed) {
  dca::RunMetrics metrics;
  rng::Stream stream(seed);
  metrics.tasks_total = stream.uniform_int(1, 1000);
  metrics.tasks_correct = stream.uniform_int(1, 1000);
  metrics.jobs_dispatched = stream.uniform_int(1, 100000);
  metrics.jobs_lost = stream.uniform_int(0, 50);
  metrics.max_jobs_single_task = static_cast<int>(stream.uniform_int(1, 40));
  metrics.makespan = stream.exponential(100.0);
  for (int i = 0; i < 200; ++i) {
    const double response = stream.exponential(5.0);
    metrics.response_time.add(response);
    metrics.response_time_hist.add(response);
    metrics.jobs_per_task.add(stream.uniform(1.0, 30.0));
  }
  return metrics;
}

TEST(CodecTest, RunMetricsRoundTripIsByteStable) {
  const dca::RunMetrics original = sample_metrics(3);
  const auto bytes = encoded(original);
  const dca::RunMetrics restored = decoded<dca::RunMetrics>(bytes);
  // Byte-stability: re-encoding the decoded value reproduces the encoding
  // exactly, so every field (including all five summaries and all three
  // histograms) survived bit-for-bit.
  EXPECT_EQ(encoded(restored), bytes);

  // And merge() after restore matches merge() without the round trip.
  dca::RunMetrics merged_original = original;
  dca::RunMetrics merged_restored = restored;
  const dca::RunMetrics other = sample_metrics(4);
  merged_original.merge(other);
  merged_restored.merge(other);
  EXPECT_EQ(encoded(merged_original), encoded(merged_restored));
}

TEST(CodecTest, MonteCarloResultRoundTripIsByteStable) {
  redundancy::MonteCarloResult original;
  rng::Stream stream(5);
  original.tasks = 500;
  original.tasks_correct = 488;
  original.tasks_aborted = 2;
  original.jobs_total = 4321;
  original.max_jobs_single_task = 17;
  for (int i = 0; i < 500; ++i) {
    const double jobs = stream.uniform(1.0, 17.0);
    original.jobs_per_task.add(jobs);
    original.jobs_per_task_hist.add(jobs);
    original.waves_per_task.add(stream.uniform(1.0, 5.0));
  }
  const auto bytes = encoded(original);
  EXPECT_EQ(encoded(decoded<redundancy::MonteCarloResult>(bytes)), bytes);
}

// --- epoch store ------------------------------------------------------------

class StoreTest : public testing::Test {
 protected:
  StoreTest() {
    dir_ = fs::path(testing::TempDir()) /
           ("ckpt_store_" + std::string(testing::UnitTest::GetInstance()
                                            ->current_test_info()
                                            ->name()));
    fs::remove_all(dir_);
  }
  ~StoreTest() override { fs::remove_all(dir_); }

  ckpt::Store make_store() { return ckpt::Store(dir_); }

  /// A framed record around `size` random payload bytes.
  static std::vector<std::uint8_t> record_bytes(std::size_t size,
                                                std::uint64_t seed) {
    std::vector<std::uint8_t> bytes(size);
    rng::Stream stream(seed);
    for (auto& b : bytes) {
      b = static_cast<std::uint8_t>(stream.uniform_int(0, 255));
    }
    return ckpt::frame_record(seed, bytes);
  }

  fs::path dir_;
};

TEST_F(StoreTest, SaveLoadRoundTrips) {
  ckpt::Store store = make_store();
  const auto record = record_bytes(1000, 1);
  store.save(0, record);
  std::string diagnostics;
  const auto loaded = store.load(0, &diagnostics);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, record);
  EXPECT_TRUE(diagnostics.empty()) << diagnostics;
}

TEST_F(StoreTest, LoadsNewestEpochAndPrunesOldOnes) {
  ckpt::Store store = make_store();
  store.save(0, record_bytes(400, 1));
  store.save(0, record_bytes(500, 2));
  store.save(0, record_bytes(600, 3));
  const auto loaded = store.load(0);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, record_bytes(600, 3));
  // Two epochs are kept: epoch 1 is pruned, epochs 2 and 3 remain.
  EXPECT_FALSE(fs::exists(store.point_dir(0) / "e1.ckpt"));
  EXPECT_TRUE(fs::exists(store.point_dir(0) / "e2.ckpt"));
  EXPECT_TRUE(fs::exists(store.point_dir(0) / "e3.ckpt"));
}

TEST_F(StoreTest, PointsAreIndependent) {
  ckpt::Store store = make_store();
  store.save(0, record_bytes(100, 1));
  store.save(7, record_bytes(200, 2));
  EXPECT_EQ(*store.load(0), record_bytes(100, 1));
  EXPECT_EQ(*store.load(7), record_bytes(200, 2));
  store.reset_point(0);
  EXPECT_FALSE(store.load(0).has_value());
  EXPECT_TRUE(store.load(7).has_value());
}

TEST_F(StoreTest, FallsBackToOlderEpochWhenTwoShardsDie) {
  ckpt::Store store = make_store();
  store.save(0, record_bytes(500, 1));
  store.save(0, record_bytes(600, 2));
  // The newest epoch's file is torn: recovery must fall back to epoch 1.
  const fs::path newest = store.point_dir(0) / "e2.ckpt";
  fs::resize_file(newest, fs::file_size(newest) / 2);
  std::string diagnostics;
  const auto loaded = store.load(0, &diagnostics);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, record_bytes(500, 1));
  EXPECT_NE(diagnostics.find("older epoch"), std::string::npos)
      << diagnostics;
}

TEST_F(StoreTest, FallsBackWhenNewestManifestIsCorrupt) {
  ckpt::Store store = make_store();
  store.save(0, record_bytes(500, 1));
  store.save(0, record_bytes(600, 2));
  const fs::path newest = store.point_dir(0) / "e2.ckpt";
  auto bytes = *common::read_file(newest);
  bytes[bytes.size() / 2] ^= 0x01;
  common::atomic_write_file(newest, bytes);
  std::string diagnostics;
  const auto loaded = store.load(0, &diagnostics);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, record_bytes(500, 1));
}

TEST_F(StoreTest, ReturnsNothingWhenEveryEpochIsUnrecoverable) {
  ckpt::Store store = make_store();
  store.save(0, record_bytes(500, 1));
  fs::resize_file(store.point_dir(0) / "e1.ckpt", 3);
  std::string diagnostics;
  EXPECT_FALSE(store.load(0, &diagnostics).has_value());
  EXPECT_FALSE(diagnostics.empty());
}

TEST_F(StoreTest, SigkillMidSaveLeavesPreviousEpochIntact) {
  ckpt::Store store = make_store();
  const auto record = record_bytes(500, 1);
  store.save(0, record);
  // Simulate a SIGKILL mid-save of epoch 2: its tmp file is written, the
  // rename (the commit point) never happens.
  common::atomic_write_file(store.point_dir(0) / "e2.ckpt.tmp",
                            record_bytes(100, 9));
  std::string diagnostics;
  const auto loaded = store.load(0, &diagnostics);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, record);
  EXPECT_TRUE(diagnostics.empty()) << diagnostics;
}

// --- typed sweep layer ------------------------------------------------------

class SweepTest : public testing::Test {
 protected:
  SweepTest() {
    dir_ = fs::path(testing::TempDir()) /
           ("ckpt_sweep_" + std::string(testing::UnitTest::GetInstance()
                                            ->current_test_info()
                                            ->name()));
    fs::remove_all(dir_);
    exp::reset_stop();
  }
  ~SweepTest() override {
    fs::remove_all(dir_);
    exp::reset_stop();
  }

  // A deterministic replication function with real merge sensitivity: the
  // fold over StreamingStats is floating-point association-dependent, so
  // any deviation from strict index order shows up in the encoded bytes.
  static stats::StreamingStats replicate(std::uint64_t /*index*/,
                                         std::uint64_t seed) {
    stats::StreamingStats result;
    rng::Stream stream(seed);
    for (int i = 0; i < 50; ++i) result.add(stream.lognormal(0.0, 1.5));
    return result;
  }

  static exp::RunnerConfig base_plan(std::uint64_t reps, unsigned threads) {
    exp::RunnerConfig plan;
    plan.replications = reps;
    plan.threads = threads;
    plan.master_seed = 42;
    return plan;
  }

  fs::path dir_;
};

TEST_F(SweepTest, ResumableMatchesRunMergedWithoutCheckpoint) {
  exp::ParallelRunner reference(base_plan(16, 1));
  const auto expected = reference.run_merged(replicate);

  ckpt::SweepCheckpointer checkpointer(dir_, /*every=*/1,
                                       /*resume=*/false);
  exp::RunnerConfig plan = base_plan(16, 3);
  plan.checkpoint = &checkpointer.plan_point("point-a");
  exp::ParallelRunner runner(plan);
  const auto checkpointed = ckpt::run_resumable(runner, replicate);

  common::ByteWriter a, b;
  ckpt::Codec<stats::StreamingStats>::encode(a, expected);
  ckpt::Codec<stats::StreamingStats>::encode(b, checkpointed);
  EXPECT_EQ(a.data(), b.data());
}

TEST_F(SweepTest, StopSavesCheckpointAndResumeIsBitIdentical) {
  exp::ParallelRunner reference(base_plan(16, 1));
  const auto expected = reference.run_merged(replicate);

  // Interrupt deterministically after 5 completions (single worker).
  {
    ckpt::SweepCheckpointer checkpointer(dir_, 1, false);
    exp::RunnerConfig plan = base_plan(16, 1);
    plan.checkpoint = &checkpointer.plan_point("point-a");
    exp::ParallelRunner runner(plan);
    std::uint64_t calls = 0;
    try {
      (void)ckpt::run_resumable(
          runner, [&](std::uint64_t index, std::uint64_t seed) {
            if (++calls == 5) exp::request_stop();
            return replicate(index, seed);
          });
      FAIL() << "stop did not interrupt the run";
    } catch (const exp::StoppedError& stopped) {
      EXPECT_TRUE(stopped.checkpointed());
      EXPECT_EQ(stopped.completed(), 5u);
      EXPECT_EQ(stopped.total(), 16u);
    }
  }
  exp::reset_stop();

  // Resume on a different thread count; the merged fold must not notice.
  ckpt::SweepCheckpointer checkpointer(dir_, 1, /*resume=*/true);
  exp::RunnerConfig plan = base_plan(16, 4);
  plan.checkpoint = &checkpointer.plan_point("point-a");
  exp::ParallelRunner runner(plan);
  std::atomic<std::uint64_t> resumed_calls{0};
  const auto result =
      ckpt::run_resumable(runner, [&](std::uint64_t index, std::uint64_t seed) {
        resumed_calls.fetch_add(1, std::memory_order_relaxed);
        return replicate(index, seed);
      });
  EXPECT_EQ(resumed_calls.load(), 11u);  // only the missing replications re-ran

  common::ByteWriter a, b;
  ckpt::Codec<stats::StreamingStats>::encode(a, expected);
  ckpt::Codec<stats::StreamingStats>::encode(b, result);
  EXPECT_EQ(a.data(), b.data());
}

TEST_F(SweepTest, ResumingACompletePointRunsNothing) {
  {
    ckpt::SweepCheckpointer checkpointer(dir_, 1, false);
    exp::RunnerConfig plan = base_plan(8, 2);
    plan.checkpoint = &checkpointer.plan_point("point-a");
    exp::ParallelRunner runner(plan);
    (void)ckpt::run_resumable(runner, replicate);
  }
  ckpt::SweepCheckpointer checkpointer(dir_, 1, true);
  exp::RunnerConfig plan = base_plan(8, 2);
  plan.checkpoint = &checkpointer.plan_point("point-a");
  exp::ParallelRunner runner(plan);
  const auto result =
      ckpt::run_resumable(runner, [](std::uint64_t, std::uint64_t) {
        ADD_FAILURE() << "complete point must not re-run replications";
        return stats::StreamingStats{};
      });
  EXPECT_EQ(result.count(), 8u * 50u);
}

TEST_F(SweepTest, RefusesCheckpointFromDifferentConfiguration) {
  {
    ckpt::SweepCheckpointer checkpointer(dir_, 1, false);
    exp::RunnerConfig plan = base_plan(8, 1);
    plan.checkpoint = &checkpointer.plan_point("point-a");
    exp::ParallelRunner runner(plan);
    (void)ckpt::run_resumable(runner, replicate);
  }
  // Same directory, different master seed: resuming must refuse, not
  // silently blend two experiments.
  ckpt::SweepCheckpointer checkpointer(dir_, 1, true);
  exp::RunnerConfig plan = base_plan(8, 1);
  plan.master_seed = 43;
  plan.checkpoint = &checkpointer.plan_point("point-a");
  exp::ParallelRunner runner(plan);
  EXPECT_THROW((void)ckpt::run_resumable(runner, replicate), ckpt::Error);
}

TEST_F(SweepTest, RefusesCheckpointWithRelabeledPoint) {
  {
    ckpt::SweepCheckpointer checkpointer(dir_, 1, false);
    exp::RunnerConfig plan = base_plan(8, 1);
    plan.checkpoint = &checkpointer.plan_point("point-a");
    exp::ParallelRunner runner(plan);
    (void)ckpt::run_resumable(runner, replicate);
  }
  ckpt::SweepCheckpointer checkpointer(dir_, 1, true);
  exp::RunnerConfig plan = base_plan(8, 1);
  plan.checkpoint = &checkpointer.plan_point("point-b");  // sweep reshaped
  exp::ParallelRunner runner(plan);
  EXPECT_THROW((void)ckpt::run_resumable(runner, replicate), ckpt::Error);
}

TEST_F(SweepTest, FreshRunWipesStaleStateAndVersionSkewIsRefused) {
  // Write a version-skewed record by hand.
  {
    ckpt::Store store(dir_);
    auto framed = ckpt::frame_record(
        ckpt::point_fingerprint(
            ckpt::Codec<stats::StreamingStats>::kName, 8, 42, 0, "point-a"),
        sample_payload());
    framed[4] = static_cast<std::uint8_t>(ckpt::kFormatVersion + 1);
    const std::uint32_t crc =
        common::crc32c(framed.data(), framed.size() - 4);
    for (int b = 0; b < 4; ++b) {
      framed[framed.size() - 4 + static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(crc >> (8 * b));
    }
    store.save(0, framed);
  }
  // Resuming over it refuses cleanly...
  {
    ckpt::SweepCheckpointer checkpointer(dir_, 1, true);
    exp::RunnerConfig plan = base_plan(8, 1);
    plan.checkpoint = &checkpointer.plan_point("point-a");
    exp::ParallelRunner runner(plan);
    EXPECT_THROW((void)ckpt::run_resumable(runner, replicate), ckpt::Error);
  }
  // ...and a fresh (non-resume) run wipes it and proceeds.
  ckpt::SweepCheckpointer checkpointer(dir_, 1, false);
  exp::RunnerConfig plan = base_plan(8, 1);
  plan.checkpoint = &checkpointer.plan_point("point-a");
  exp::ParallelRunner runner(plan);
  const auto result = ckpt::run_resumable(runner, replicate);
  EXPECT_EQ(result.count(), 8u * 50u);
}

}  // namespace
}  // namespace smartred
