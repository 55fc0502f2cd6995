// DbRepository: the paper's database configuration (§4.2) — objects as
// out-of-row BLOBs in a SQL-Server-like engine running in bulk-logged
// mode, with the log on a dedicated drive.
//
// Access stack: StoreRepository holds the handle surface over the
// BlobStore handle table — Open pins the metadata row, the blob layout,
// and positioned metadata/blob-tree cursors, so Get/SafeWrite through
// the handle skip the per-operation query + row lookup — and the
// name-based mutations as open–op–release wrappers over the same
// tickets (the name-based Get is the store's own per-call query +
// lookup + read), charging exactly what the historical per-operation
// path charged. The safe write step is BlobStore::SafeWrite.
//
// The data volume, its queue, cache, Mount preamble and scrub loop are
// the shared VolumeRepository; this class adds the log volume, the BLOB
// engine's reads, its log-replay recovery step and its scrub repair
// step. The scheduler fronts the data volume only: the log stays a
// strictly-ordered synchronous append stream (bulk-logged commits are
// tiny and serialized by the engine), with commit waits charged to the
// op's chain as CPU.

#ifndef LOREPO_CORE_DB_REPOSITORY_H_
#define LOREPO_CORE_DB_REPOSITORY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/store_repository.h"
#include "db/blob_store.h"

namespace lor {
namespace core {

/// Configuration of the database-backed repository: the data volume
/// (VolumeConfig; the buffer pool fronts it alone — a strictly-ordered
/// log append stream gains nothing from one) plus the log volume and the
/// engine. The shared-spindle binding covers the data volume only: the
/// dedicated log device, when enabled, stays private to this shard —
/// its own spindle, its own clock — matching the paper's
/// log-on-a-separate-drive setup.
struct DbRepositoryConfig : VolumeConfig {
  /// Dedicated log volume size (0 disables the log device and charges
  /// commits as CPU only).
  uint64_t log_volume_bytes = 4 * kGiB;
  /// Engine tuning (write request size, bulk-logged mode, costs...).
  db::BlobStoreOptions store;
};

/// Database-backed ObjectRepository.
class DbRepository : public StoreRepository<db::BlobStore, db::BlobHandle> {
 public:
  explicit DbRepository(DbRepositoryConfig config = {});

  Status Get(const std::string& key,
             std::vector<uint8_t>* out = nullptr) override;
  Status Get(const ObjectHandle& handle,
             std::vector<uint8_t>* out = nullptr) override;
  Result<alloc::ExtentList> GetLayout(const std::string& key) const override;
  Result<alloc::ExtentList> GetLayout(
      const ObjectHandle& handle) const override;

  std::vector<std::string> ListKeys() const override;
  void VisitObjects(
      const std::function<void(const std::string& key,
                               const alloc::ExtentList& layout,
                               uint64_t size_bytes)>& visit) const override;
  uint64_t object_count() const override;
  uint64_t live_bytes() const override;
  uint64_t free_bytes() const override;
  std::string name() const override { return "database"; }

  /// Adds to the base verifier: payload FNV-1a checks under
  /// DataMode::kRetain (kTornPayload / kLostObject), and exact page
  /// accounting of live layouts against the LOB allocation unit
  /// (kLeakedExtent / kDoubleAllocated). Not meaningful while a crash
  /// window is armed — held pre-images look like leaks.
  Result<FsckReport> Fsck() override;

  db::BlobStore* blob_store() { return store_.get(); }
  /// Null when the configuration disables the dedicated log volume.
  sim::BlockDevice* log_device() { return log_device_.get(); }
  const DbRepositoryConfig& config() const { return config_; }

 protected:
  /// The safe write through the ticket (db::BlobStore::SafeWrite).
  Status WriteThrough(db::BlobHandle target, const std::string& key,
                      uint64_t size, std::span<const uint8_t> data) override;

  /// Checkpoint + log-tail replay (db::BlobStore::Recover). After a
  /// power cut the log spindle restarts cold too.
  Status RecoverStore(bool power_cycled, MountReport* report) override;

  /// Scrub's repair: marks the blob's pages pending-bad and supersedes
  /// it with a safe write of the scrubbed payload (the old pages divert
  /// to the allocation unit's quarantine list when freed).
  void RepairScrubbed(const std::string& key,
                      const std::vector<uint8_t>& payload,
                      ScrubReport* report) override;

 private:
  /// Converts a page-run layout into byte extents.
  Result<alloc::ExtentList> ScaleLayout(Result<db::BlobLayout> layout) const;

  DbRepositoryConfig config_;
  std::unique_ptr<sim::BlockDevice> log_device_;
};

}  // namespace core
}  // namespace lor

#endif  // LOREPO_CORE_DB_REPOSITORY_H_
