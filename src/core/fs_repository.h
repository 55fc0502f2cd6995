// FsRepository: the paper's filesystem configuration (§4.1) — one file
// per object on an otherwise-empty NTFS volume, updated with safe
// writes (write temp file, force it, atomically replace the target).
//
// The object-name → path metadata database the paper co-located on
// separate drives is modelled as per-operation CPU cost only (it stays
// cached and its I/O goes to other spindles).
//
// Access stack: StoreRepository holds the handle surface over the
// FileStore handle table — Open pins the file's MFT record and extent
// map, so Get/SafeWrite through the handle skip the per-operation
// open-by-name — and the name-based mutations as open–op–release
// wrappers over the same tickets. The name-based Get is the store's own
// per-call open–read–close session. Both charge exactly what the
// historical per-operation path charged. This class supplies the safe
// write step: stream into a temp file whose MFT record id comes from
// the store's recycle pool (so aging workloads rewrite a bounded set of
// record slots instead of marching fresh records through the MFT
// zone), then atomically replace the target.
//
// Temp names are `<key>.tmp<digits>`, and Mount's orphan sweep discards
// every file of that form, so Put, SafeWrite and OpenForWrite reject
// such keys with InvalidArgument before any I/O (CheckWriteKey).
//
// The data volume, its queue, cache, Mount preamble and scrub loop are
// the shared VolumeRepository; this class adds the file store's reads,
// its journal recovery step and its scrub repair step.

#ifndef LOREPO_CORE_FS_REPOSITORY_H_
#define LOREPO_CORE_FS_REPOSITORY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/store_repository.h"
#include "fs/file_store.h"

namespace lor {
namespace core {

/// Configuration of the filesystem-backed repository: the data volume
/// (VolumeConfig) plus the file store on it.
struct FsRepositoryConfig : VolumeConfig {
  /// Size of the application's append requests (64 KB in the paper).
  uint64_t write_request_bytes = 64 * kKiB;
  /// File store tuning.
  fs::FileStoreOptions store;
  /// When true, SafeWrite preallocates the temp file to its final size
  /// before streaming — the paper's proposed interface extension.
  bool preallocate_on_safe_write = false;
};

/// Filesystem-backed ObjectRepository.
class FsRepository : public StoreRepository<fs::FileStore, fs::FileHandle> {
 public:
  explicit FsRepository(FsRepositoryConfig config = {});

  /// Variant that injects a custom allocator (policy ablations).
  FsRepository(FsRepositoryConfig config,
               std::unique_ptr<alloc::ExtentAllocator> allocator);

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
  std::string name() const override { return "filesystem"; }

  /// Adds to the base verifier: payload FNV-1a checks under
  /// DataMode::kRetain (kTornPayload / kLostObject), typed allocator
  /// accounting (kLeakedExtent / kDoubleAllocated), and an orphan
  /// safe-write-temp scan (kOrphanTemp). Not meaningful while a crash
  /// window is armed (rollback holds look like leaks).
  Result<FsckReport> Fsck() override;

  fs::FileStore* store() { return store_.get(); }
  const FsRepositoryConfig& config() const { return config_; }

 protected:
  /// The safe-write cycle against an already-opened target ticket:
  /// create temp (recycled MFT record), optional preallocate, stream,
  /// fsync, atomic replace — all journal charges in one lazy-writer
  /// batch.
  Status WriteThrough(fs::FileHandle target, const std::string& key,
                      uint64_t size, std::span<const uint8_t> data) override;

  /// InvalidArgument for a key of the temp-name form: the orphan sweep
  /// would discard it at the next Mount.
  Status CheckWriteKey(const std::string& key) const override;

  /// Journal recovery (fs::FileStore::Recover); the orphan sweep
  /// discards every name of NextTempName's form.
  Status RecoverStore(bool power_cycled, MountReport* report) override;

  /// Scrub's repair: marks the file's clusters pending-bad and relocates
  /// it onto fresh ones (the old clusters divert to the quarantine
  /// list).
  void RepairScrubbed(const std::string& key,
                      const std::vector<uint8_t>& payload,
                      ScrubReport* report) override;

 private:
  /// Fresh safe-write temp name (counter keeps names collision-free
  /// against user keys and leftover temps).
  std::string NextTempName(const std::string& key);

  /// True for names of NextTempName's form — `.tmp` and one or more
  /// decimal digits at the end (Mount's orphan sweep and Fsck's orphan
  /// scan).
  static bool IsTempName(const std::string& name);

  /// Converts a byte-extent layout from cluster extents.
  Result<alloc::ExtentList> ScaleExtents(
      Result<alloc::ExtentList> extents) const;

  FsRepositoryConfig config_;
  uint64_t temp_counter_ = 0;
};

}  // namespace core
}  // namespace lor

#endif  // LOREPO_CORE_FS_REPOSITORY_H_
