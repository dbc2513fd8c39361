// Crash-safe sweep checkpointing over exp::ParallelRunner.
//
// A sweep is a sequence of data points, each the index-ordered merge of N
// replications. The checkpoint of a point is its *sweep cursor state*:
//
//   absorbed   how many replications [0, absorbed) are folded into `prefix`
//   prefix     the left-to-right merge of exactly those replications
//   extras     completed replications beyond the cursor, stored
//              individually, keyed by replication index
//   complete   whether prefix is the point's final merged aggregate
//
// Replication seeds are counter-derived (rng::derive_seed(master, i)), so
// the cursor and the extras' indices are the only "rng state" a resume
// needs: every not-yet-completed replication is simply re-run from its
// index. Because the prefix only ever advances by merging extras in strict
// index order — the exact fold run_merged() performs — the resumed final
// aggregate is bit-identical to an uninterrupted run at any --threads, no
// matter when (or how often) the process was killed.
//
// Layering: PointProgress<Result> is encoded by ckpt/codec.h, framed by
// ckpt/record.h (version + fingerprint + CRC), and made durable by
// ckpt/store.h as one file per save. run_resumable() is the drop-in
// replacement for runner.run_merged() that the bench harness uses; with no
// checkpoint attached it forwards to run_merged() untouched.
#pragma once

#include <cstdint>
#include <deque>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "ckpt/codec.h"
#include "ckpt/record.h"
#include "ckpt/store.h"
#include "common/binio.h"
#include "common/expect.h"
#include "exp/parallel_runner.h"
#include "obs/profile.h"

namespace smartred::ckpt {

/// Per-point checkpoint handle, attached to exp::RunnerConfig::checkpoint.
/// Plain data; owned by a SweepCheckpointer which keeps it alive for the
/// duration of the point's run.
struct PointCheckpoint {
  Store* store = nullptr;
  /// Sweep ordinal of this point — position in the bench's plan order,
  /// which must be identical across the original and resumed runs.
  std::uint64_t point = 0;
  /// Human-readable point name (typically the strategy spec); verified on
  /// resume so a reordered sweep is refused, not mis-resumed.
  std::string label;
  /// Completed replications between checkpoint saves; 0 saves only at
  /// completion or interruption.
  std::uint64_t every = 1;
  /// Whether to load existing state (true) or start the point fresh.
  bool resume = false;
};

/// Identity hash of a point's run configuration. Any mismatch — different
/// seed, replication count, sweep position, label, or result type — means
/// the checkpoint belongs to a different experiment and must not be
/// resumed from.
[[nodiscard]] std::uint64_t point_fingerprint(const char* codec_name,
                                              std::uint64_t replications,
                                              std::uint64_t master_seed,
                                              std::uint64_t point,
                                              const std::string& label);

/// Owns the store and hands out stable PointCheckpoint handles in sweep
/// order. One per experiment binary.
class SweepCheckpointer {
 public:
  SweepCheckpointer(std::filesystem::path dir, std::uint64_t every,
                    bool resume)
      : store_(std::move(dir)), every_(every), resume_(resume) {}

  SweepCheckpointer(const SweepCheckpointer&) = delete;
  SweepCheckpointer& operator=(const SweepCheckpointer&) = delete;

  /// The checkpoint handle of the next sweep point. Points are numbered in
  /// call order; a fresh (non-resume) run wipes the point's prior state so
  /// stale epochs from older runs can never shadow new ones.
  PointCheckpoint& plan_point(std::string label) {
    PointCheckpoint handle;
    handle.store = &store_;
    handle.point = next_point_++;
    handle.label = std::move(label);
    handle.every = every_;
    handle.resume = resume_;
    if (!resume_) store_.reset_point(handle.point);
    points_.push_back(std::move(handle));
    return points_.back();
  }

 private:
  Store store_;
  std::uint64_t every_;
  bool resume_;
  std::uint64_t next_point_ = 0;
  /// deque: handles must keep stable addresses across plan_point calls.
  std::deque<PointCheckpoint> points_;
};

/// The sweep cursor state of one in-flight (or finished) point.
template <typename Result>
struct PointProgress {
  std::uint64_t absorbed = 0;          ///< sweep cursor: prefix size
  std::optional<Result> prefix;        ///< fold of replications [0, absorbed)
  std::map<std::uint64_t, Result> extras;  ///< completed, not yet absorbed
  bool complete = false;

  /// Replications finished (absorbed or pending absorption).
  [[nodiscard]] std::uint64_t completed() const {
    return absorbed + extras.size();
  }
};

/// Advances the sweep cursor: merges every extra that is contiguous with
/// the prefix, in strict index order — the same left-to-right fold
/// run_merged() performs, which is what keeps resumed aggregates
/// bit-identical.
template <typename Result>
void absorb(PointProgress<Result>& progress) {
  auto it = progress.extras.begin();
  while (it != progress.extras.end() && it->first == progress.absorbed) {
    if (progress.prefix.has_value()) {
      progress.prefix->merge(it->second);
    } else {
      progress.prefix.emplace(std::move(it->second));
    }
    ++progress.absorbed;
    it = progress.extras.erase(it);
  }
}

/// Serializes a point's progress (identity header + cursor + aggregates).
template <typename Result>
[[nodiscard]] std::vector<std::uint8_t> encode_point(
    const PointCheckpoint& checkpoint, const exp::RunnerConfig& config,
    const PointProgress<Result>& progress) {
  common::ByteWriter writer;
  writer.str(Codec<Result>::kName);
  writer.u64(config.replications);
  writer.u64(config.master_seed);
  writer.u64(checkpoint.point);
  writer.str(checkpoint.label);
  writer.u8(progress.complete ? 1 : 0);
  writer.u64(progress.absorbed);
  writer.u8(progress.prefix.has_value() ? 1 : 0);
  if (progress.prefix.has_value()) {
    Codec<Result>::encode(writer, *progress.prefix);
  }
  writer.u64(progress.extras.size());
  for (const auto& [index, result] : progress.extras) {
    writer.u64(index);
    Codec<Result>::encode(writer, result);
  }
  return writer.take();
}

/// Frames and commits a point's progress as the point's next epoch.
template <typename Result>
void save_point(const PointCheckpoint& checkpoint,
                const exp::RunnerConfig& config,
                const PointProgress<Result>& progress) {
  const std::uint64_t fingerprint = point_fingerprint(
      Codec<Result>::kName, config.replications, config.master_seed,
      checkpoint.point, checkpoint.label);
  checkpoint.store->save(
      checkpoint.point,
      frame_record(fingerprint, encode_point(checkpoint, config, progress)));
}

/// Recovers a point's newest usable progress. Returns nullopt when the
/// point has no checkpoint (fresh start); throws Error when a checkpoint
/// exists but cannot be trusted — version skew, configuration mismatch, or
/// a malformed payload. Damaged epochs the store skipped on the way to an
/// older one are reported on stderr.
template <typename Result>
[[nodiscard]] std::optional<PointProgress<Result>> load_point(
    const PointCheckpoint& checkpoint, const exp::RunnerConfig& config) {
  std::string diagnostics;
  const auto bytes = checkpoint.store->load(checkpoint.point, &diagnostics);
  if (!diagnostics.empty()) {
    std::cerr << "checkpoint recovery:\n" << diagnostics << "\n";
  }
  if (!bytes) return std::nullopt;
  std::string why;
  const auto framed = parse_record(*bytes, &why);
  if (!framed) {
    throw Error("checkpoint for point " + std::to_string(checkpoint.point) +
                " is unusable (" + why + "); refusing to resume");
  }
  const std::uint64_t expected = point_fingerprint(
      Codec<Result>::kName, config.replications, config.master_seed,
      checkpoint.point, checkpoint.label);
  if (framed->fingerprint != expected) {
    throw Error(
        "checkpoint for point " + std::to_string(checkpoint.point) +
        " ('" + checkpoint.label + "') was written by a different run "
        "configuration (seed, --reps, sweep shape, or result type changed); "
        "refusing to resume");
  }
  try {
    common::ByteReader reader(framed->payload);
    PointProgress<Result> progress;
    const std::string codec_name = reader.str();
    const std::uint64_t replications = reader.u64();
    const std::uint64_t master_seed = reader.u64();
    const std::uint64_t point = reader.u64();
    const std::string label = reader.str();
    if (codec_name != Codec<Result>::kName ||
        replications != config.replications ||
        master_seed != config.master_seed || point != checkpoint.point ||
        label != checkpoint.label) {
      throw Error("checkpoint identity header does not match this run; "
                  "refusing to resume");
    }
    progress.complete = reader.u8() != 0;
    progress.absorbed = reader.u64();
    if (reader.u8() != 0) {
      progress.prefix.emplace(Codec<Result>::decode(reader));
    }
    const std::uint64_t extras = reader.u64();
    for (std::uint64_t e = 0; e < extras; ++e) {
      const std::uint64_t index = reader.u64();
      progress.extras.emplace(index, Codec<Result>::decode(reader));
    }
    if (progress.absorbed > config.replications ||
        progress.completed() > config.replications ||
        (progress.absorbed > 0) != progress.prefix.has_value() ||
        (progress.complete &&
         progress.absorbed != config.replications)) {
      throw Error("checkpoint cursor is inconsistent with the replication "
                  "count; refusing to resume");
    }
    return progress;
  } catch (const common::DecodeError& error) {
    throw Error(std::string("checkpoint payload malformed: ") + error.what());
  }
}

/// Drop-in replacement for runner.run_merged(fn) with crash-safe resume.
/// With no checkpoint attached to the runner's config this is exactly
/// run_merged(). With one attached, completed replications are
/// checkpointed every `every` completions; an interrupted run saves its
/// cursor and throws exp::StoppedError; a resumed run re-runs only the
/// missing replication indices and folds them with the checkpointed state
/// in the same strict index order — bit-identical to an uninterrupted run.
template <typename Fn>
[[nodiscard]] auto run_resumable(exp::ParallelRunner& runner, Fn&& fn)
    -> std::invoke_result_t<Fn&, std::uint64_t, std::uint64_t> {
  using Result = std::invoke_result_t<Fn&, std::uint64_t, std::uint64_t>;
  const exp::RunnerConfig& config = runner.config();
  const PointCheckpoint* checkpoint = config.checkpoint;
  if (checkpoint == nullptr || checkpoint->store == nullptr) {
    return runner.run_merged(std::forward<Fn>(fn));
  }
  const std::uint64_t n = config.replications;
  PointProgress<Result> progress;
  {
    const obs::ScopedPhase loading(config.profile,
                                   obs::Phase::kCheckpointLoad);
    if (checkpoint->resume) {
      if (auto loaded = load_point<Result>(*checkpoint, config)) {
        progress = std::move(*loaded);
      }
    }
  }
  if (progress.complete) {
    SMARTRED_ENSURE(progress.prefix.has_value(),
                    "a complete checkpoint carries the merged aggregate");
    return std::move(*progress.prefix);
  }

  std::vector<std::uint64_t> todo;
  todo.reserve(static_cast<std::size_t>(n - progress.completed()));
  for (std::uint64_t i = progress.absorbed; i < n; ++i) {
    if (progress.extras.find(i) == progress.extras.end()) todo.push_back(i);
  }
  std::uint64_t since_save = 0;
  const exp::SubsetOutcome outcome = runner.run_subset(
      todo, n - todo.size(), std::forward<Fn>(fn),
      [&](std::uint64_t index, Result&& result) {
        progress.extras.emplace(index, std::move(result));
        if (checkpoint->every > 0 && ++since_save >= checkpoint->every) {
          absorb(progress);
          const obs::ScopedPhase saving(config.profile,
                                        obs::Phase::kCheckpointSave);
          save_point(*checkpoint, config, progress);
          since_save = 0;
        }
      });
  absorb(progress);
  if (outcome.stopped && progress.absorbed < n) {
    {
      const obs::ScopedPhase saving(config.profile,
                                    obs::Phase::kCheckpointSave);
      save_point(*checkpoint, config, progress);
    }
    throw exp::StoppedError(
        "point '" + checkpoint->label + "' stopped after " +
            std::to_string(progress.completed()) + " of " + std::to_string(n) +
            " replications; checkpoint saved",
        progress.completed(), n, /*checkpointed=*/true);
  }
  SMARTRED_ENSURE(progress.absorbed == n && progress.extras.empty(),
                  "sweep cursor reconciles with the replication count");
  progress.complete = true;
  {
    const obs::ScopedPhase saving(config.profile,
                                  obs::Phase::kCheckpointSave);
    save_point(*checkpoint, config, progress);
  }
  return std::move(*progress.prefix);
}

}  // namespace smartred::ckpt
