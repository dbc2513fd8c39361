// Checkpoint store: one CRC-framed file per epoch.
//
// Each save of a point writes the framed record (ckpt/record.h) as
// `point-<N>/e<E>.ckpt` through common::atomic_write_file: tmp sibling,
// fsync, rename, directory fsync. The rename is the commit point, so a
// SIGKILL mid-save leaves at most a stale `e<E>.ckpt.tmp` and the previous
// epoch current. The newest two epochs are kept.
//
// Recovery scans the epoch files newest to oldest and returns the first
// whose frame is intact (ckpt::frame_intact: size and CRC-32C). A torn or
// bit-flipped file is diagnosed and skipped, so the cost of damage is
// re-running the replications since the older epoch. Second copies of a
// record in this same directory would share its one failure domain (the
// disk), and guard against nothing the CRC and the older epoch do not.
// Whether an intact record belongs to this format version and this run is
// for the typed layer (ckpt/sweep.h) to decide.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

namespace smartred::ckpt {

/// Byte-level checkpoint store. One instance per experiment binary;
/// save/load are called from one thread at a time (the parallel runner
/// serializes checkpoint work under its sink mutex).
class Store {
 public:
  /// Each sweep point gets a `point-<N>` subdirectory of `dir`.
  explicit Store(std::filesystem::path dir);

  [[nodiscard]] std::filesystem::path point_dir(std::uint64_t point) const;

  /// Commits `record` (a frame_record() output) as the next epoch of
  /// `point` and prunes all but the newest two epochs. Throws Error when
  /// the record cannot be made durable.
  void save(std::uint64_t point, const std::vector<std::uint8_t>& record);

  /// Newest record of `point` whose frame is intact, scanning epochs newest
  /// to oldest. Returns nullopt when no epoch survives; `diagnostics` (when
  /// non-null) collects one line per skipped epoch.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> load(
      std::uint64_t point, std::string* diagnostics = nullptr) const;

  /// Deletes all checkpoint state of `point` (fresh, non-resume runs).
  void reset_point(std::uint64_t point);

 private:
  std::filesystem::path dir_;
};

}  // namespace smartred::ckpt
