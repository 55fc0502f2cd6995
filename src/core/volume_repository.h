// VolumeRepository: the data-volume half of both back ends. The paper
// compares NTFS and SQL Server behind one get/put interface, and here
// they differ only in their store: FsRepository keeps files in an
// fs::FileStore, DbRepository keeps BLOBs in a db::BlobStore. Everything
// they do to the data volume underneath lives here, once:
//   * the device stack — BlockDevice (dedicated, or an owner's region
//     of a shared sim::SpindlePlane), the BufferPool fronting it, the
//     IoScheduler and its LatencyRecorder;
//   * the submission pipeline — SetQueueDepth, DrainIo, SettleIo and
//     FlushCache;
//   * Mount's preamble — the shared-spindle refusal, the power-cycle or
//     clean-flush step, the cold cache and recovery_seconds — around
//     one store-recovery step each back end supplies;
//   * the scrub loop and its cursor, around one repair step each back
//     end supplies;
//   * Fsck's payload verifier (the retain-mode FNV-1a re-read).
//
// Construction order is part of the charge model: the pool is attached
// before the back end builds its store (so every store path sees it),
// and the scheduler is attached — and ported onto the spindle plane —
// only after the store's format has charged synchronously.

#ifndef LOREPO_CORE_VOLUME_REPOSITORY_H_
#define LOREPO_CORE_VOLUME_REPOSITORY_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/object_repository.h"
#include "sim/block_device.h"
#include "sim/buffer_pool.h"
#include "sim/io_scheduler.h"
#include "sim/latency_recorder.h"
#include "sim/spindle_plane.h"
#include "util/units.h"

namespace lor {
namespace core {

/// The data volume both back ends configure the same way.
struct VolumeConfig {
  /// Data volume size.
  uint64_t volume_bytes = 40 * kGiB;
  /// Drive model; capacity is overridden per volume.
  sim::DiskParams disk = sim::DiskParams::St3400832as();
  /// Retain payload bytes (tests only).
  sim::DataMode data_mode = sim::DataMode::kMetadataOnly;
  /// Buffer pool fronting the data volume. Capacity 0 (the default)
  /// disables the pool entirely — the paper's cold-cache regime.
  sim::BufferPoolOptions cache;
  /// Shared-spindle binding. Non-null: the data volume is owner
  /// `spindle_owner`'s region of this plane (the plane's region size
  /// must equal volume_bytes) and the scheduler is ported onto it —
  /// `disk` and `data_mode` above are then ignored for the data volume,
  /// which shares the plane's hub disk. Null (default): dedicated
  /// spindle, bit-identical historical behavior. Crash simulation
  /// (Mount/recovery) is unavailable in shared mode.
  std::shared_ptr<sim::SpindlePlane> spindle;
  uint32_t spindle_owner = 0;
};

/// ObjectRepository over one simulated data volume.
class VolumeRepository : public ObjectRepository {
 public:
  uint64_t volume_bytes() const override { return device_->capacity(); }
  double now() const override { return scheduler_->Now(); }
  sim::IoStats device_stats() const override { return device_->stats(); }
  sim::BufferPoolStats cache_stats() const override { return pool_->stats(); }
  Status FlushCache() override;

  Status SetQueueDepth(
      uint32_t depth,
      sim::SchedPolicy policy = sim::SchedPolicy::kSptf) override;
  Status DrainIo() override;
  Status SettleIo() override;
  bool shared_spindle() const override { return scheduler_->port_mode(); }
  const sim::LatencyRecorder* latency_recorder() const override {
    return &latency_;
  }

  /// Crash recovery against the attached sim::FaultInjector's
  /// durability verdicts. When the injector tripped, the scheduler's
  /// dead queue is abandoned and the head position invalidated first,
  /// so calling Mount right after MaterializeCrash is the whole restart
  /// sequence; a clean remount writes dirty frames back first. Either
  /// way the cache starts cold, then the back end's RecoverStore runs.
  /// Recovery I/O is charged synchronously; recovery_seconds is the
  /// simulated elapsed time. NotSupported on a shared spindle.
  Result<MountReport> Mount() override;

  /// The one scrub loop: walks the sorted key space from the persistent
  /// cursor, re-reading each payload through the name-based Get (charged
  /// like any client read, typed errors included). A read that succeeded
  /// but bumped device_stats().media_read_errors needed media retries,
  /// and (when options.repair) goes to RepairScrubbed.
  Result<ScrubReport> Scrub(const ScrubOptions& options = {}) override;

  sim::BlockDevice* device() { return device_.get(); }
  sim::IoScheduler* io_scheduler() { return scheduler_.get(); }
  sim::BufferPool* buffer_pool() { return pool_.get(); }

 protected:
  /// Builds the data volume and attaches its (possibly disabled) pool.
  explicit VolumeRepository(const VolumeConfig& volume);

  /// Attaches the scheduler to the data volume and, on a shared
  /// spindle, ports it onto the plane. Back ends call this once their
  /// store has been built (its format charges synchronously).
  void AttachScheduler();

  /// Mount's store step: replays the store's journal or log and fills
  /// the report's store-specific fields. `power_cycled` is true when
  /// the attached injector tripped.
  virtual Status RecoverStore(bool power_cycled, MountReport* report) = 0;

  /// Scrub's repair step for `key`, whose read returned `payload` but
  /// needed media retries: rewrite the object onto fresh units and
  /// count what was repaired and quarantined into `report`.
  virtual void RepairScrubbed(const std::string& key,
                              const std::vector<uint8_t>& payload,
                              ScrubReport* report) = 0;

  /// Fsck's payload check: re-reads each (key, recorded FNV-1a hash)
  /// with `read` and reports kLostObject for a failed read and
  /// kTornPayload for a hash mismatch.
  void VerifyPayloads(
      const std::vector<std::pair<std::string, uint64_t>>& hashed,
      const std::function<Status(const std::string&, std::vector<uint8_t>*)>&
          read,
      FsckReport* report) const;

  /// Held here so the plane outlives the owner view and the scheduler
  /// that retires from it on destruction. Null on a dedicated spindle.
  std::shared_ptr<sim::SpindlePlane> spindle_;
  uint32_t spindle_owner_ = 0;
  std::unique_ptr<sim::BlockDevice> device_;
  /// Cache tier fronting device_. Always constructed (possibly
  /// disabled).
  std::unique_ptr<sim::BufferPool> pool_;
  sim::LatencyRecorder latency_;
  /// Owns the data volume's submission queue; attached to device_ for
  /// the repository's whole lifetime (disengaged = synchronous).
  std::unique_ptr<sim::IoScheduler> scheduler_;

 private:
  /// Background-scrubber resume point: the last key the previous Scrub
  /// pass examined (empty = start of the key space).
  std::string scrub_cursor_;
};

}  // namespace core
}  // namespace lor

#endif  // LOREPO_CORE_VOLUME_REPOSITORY_H_
