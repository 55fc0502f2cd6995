// FileStore: an NTFS-like extent-based file store over a simulated block
// device.
//
// Behaviours modelled after the paper's description of NTFS (§2, §5.4):
//   * space for file data is allocated *as append requests arrive*, in
//     request-sized pieces, before the final file size is known;
//   * the allocator is a run cache ordered by (size desc, offset asc)
//     with contiguous-extension attempts on sequential appends;
//   * freed clusters become reusable only after the journal commit
//     interval elapses;
//   * a reserved zone at the front of the volume models the MFT; file
//     creates/opens/deletes read and write MFT records there, which is
//     where the filesystem's per-operation seek traffic comes from;
//   * MFT records of deleted files are recycled (NTFS reuses free
//     records before extending the MFT), so the safe-write temp cycle
//     rewrites a bounded set of record slots instead of marching new
//     records through the zone;
//   * `Preallocate` implements the paper's proposed interface extension
//     ("the ability to specify the size of the object before initial
//     space allocation") so its effect can be measured.
//
// Atomic replacement (ReplaceFile/rename) is provided so the repository
// layer can implement safe writes.
//
// Two access surfaces: the historical name-based operations (each call
// resolves the name), and a handle table — OpenRead/OpenWrite/CreateOpen
// return a FileHandle pinning the resolved FileInfo (cached extent map +
// MFT record), and the handle twins of Read/Append/Replace/Delete skip
// the per-operation name lookup. Handles are invalidated when their
// file's name is erased (Delete, or being the source of a Replace);
// stale use fails cleanly. Replace keeps the *target's* FileInfo
// address stable, so handles held across safe writes stay valid.

#ifndef LOREPO_FS_FILE_STORE_H_
#define LOREPO_FS_FILE_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "alloc/allocator.h"
#include "alloc/run_cache_allocator.h"
#include "core/fragmentation_tracker.h"
#include "core/handle_table.h"
#include "sim/block_device.h"
#include "sim/buffer_pool.h"
#include "sim/media_fault.h"
#include "sim/op_cost_model.h"
#include "util/fnv.h"
#include "util/result.h"
#include "util/status.h"

namespace lor {
namespace fs {

/// Configuration of a FileStore volume.
struct FileStoreOptions {
  /// Allocation unit. NTFS's default for large volumes is 4 KB.
  uint64_t cluster_bytes = 4096;
  /// Fraction of the volume reserved for the MFT zone.
  double mft_zone_fraction = 0.02;
  /// NTFS-like allocator tuning.
  alloc::RunCacheOptions alloc;
  /// Software-stack costs.
  sim::OpCostModel costs;
  /// Coalesce the journal records of one application-level batch (the
  /// repository's safe write: create temp file, stream appends, fsync,
  /// replace) into a single lazy-writer record and at most one flush,
  /// instead of charging a record per namespace operation. Models
  /// NTFS's lazy commit, which batches log records for transactions
  /// that complete within one flush interval. Off = the historical
  /// per-operation charging.
  bool batch_journal_charges = true;
  /// Retry/backoff policy for reads that fail with a typed media error
  /// (transient latent sector errors clear after a bounded number of
  /// attempts; persistent ones surface after max_attempts).
  sim::MediaRetryPolicy media_retry;
};

/// Per-file metadata (an MFT record, in spirit).
struct FileInfo {
  uint64_t id = 0;
  uint64_t size_bytes = 0;
  /// Physical layout, address-ordered by logical offset.
  alloc::ExtentList extents;
  /// Clusters allocated ahead of size_bytes (via Preallocate).
  uint64_t allocated_clusters = 0;
  /// Reads served from this file (heat for zone-placement tools).
  uint64_t read_count = 0;
  /// Last (fragment count, size) reported to the FragmentationTracker;
  /// the delta against the current layout is applied on every mutation.
  uint64_t tracked_fragments = 0;
  uint64_t tracked_bytes = 0;
  /// Streamed FNV-1a over every payload byte appended so far, valid
  /// while hash_valid. Timing-only workloads (empty data spans) and
  /// mid-file truncation invalidate it; the fsck verifier then skips
  /// the payload check for this file. Host-side only — maintaining it
  /// charges nothing.
  uint64_t payload_hash = kFnvBasis;
  bool hash_valid = true;
  /// Per-block end-to-end checksums: block_sums[i] is the FNV-1a of
  /// logical bytes [i*kChecksumBlockBytes, (i+1)*kChecksumBlockBytes);
  /// tail_hash is the streamed state of the final partial block. Reads
  /// under DataMode::kRetain verify every fully covered block when a
  /// media-fault model is attached. Validity rides hash_valid.
  std::vector<uint64_t> block_sums;
  uint64_t tail_hash = kFnvBasis;
};

/// Host-side mirror of one journal record, recorded only while an
/// armed sim::FaultInjector is attached to the device. Each entry is
/// stamped with the device-write sequence number of the journal record
/// that carries it (batched lazy-writer commits stamp every entry of
/// the batch with the one record's number); mount-time recovery asks
/// the injector which of those writes reached the platter.
struct RecoveryLogEntry {
  enum class Kind : uint8_t { kCreate, kDelete, kRename };
  Kind kind = Kind::kCreate;
  std::string name;    ///< Created / deleted / rename-target name.
  std::string source;  ///< Rename source name (kRename only).
  uint64_t file_id = 0;
  /// Pre-operation FileInfo of the file the operation destroyed
  /// (kDelete: the file itself; kRename: the replaced target). Its
  /// clusters are held out of the allocator while the window is open,
  /// so rollback can reinstate the layout without colliding with reuse.
  FileInfo prior;
  bool had_prior = false;
  /// FaultInjector sequence number of the journal record's device
  /// write; 0 while the (possibly batched) record is still pending —
  /// and forever when metadata charging is disabled, which the
  /// injector treats as vacuously durable.
  uint64_t commit_seq = 0;
};

/// What FileStore::Recover scanned, redid, and rolled back.
struct RecoveryStats {
  uint64_t entries_scanned = 0;
  uint64_t ops_redone = 0;
  uint64_t ops_rolled_back = 0;
  uint64_t orphan_temps_discarded = 0;
  /// Bytes of new-version content discarded by rollback + orphan sweep.
  uint64_t data_loss_bytes = 0;
};

/// Volume-wide statistics.
struct FileStoreStats {
  uint64_t file_count = 0;
  uint64_t live_bytes = 0;
  uint64_t creates = 0;
  uint64_t deletes = 0;
  uint64_t renames = 0;
  uint64_t appends = 0;
  uint64_t reads = 0;
};

/// Ticket for an entry in the FileStore handle table. Cheap to copy;
/// validity is checked on every use (slot + generation), so stale
/// tickets fail instead of touching reused slots.
struct FileHandle {
  uint64_t slot = 0;
  uint64_t gen = 0;  ///< 0 = invalid.
  bool valid() const { return gen != 0; }
};

/// An NTFS-like file store.
class FileStore {
 public:
  /// `allocator` may be null, in which case a RunCacheAllocator with
  /// `options.alloc` is created (the NTFS-like default). Injecting a
  /// different ExtentAllocator enables the policy ablations.
  FileStore(sim::BlockDevice* device, FileStoreOptions options = {},
            std::unique_ptr<alloc::ExtentAllocator> allocator = nullptr);

  // -- Namespace operations ------------------------------------------

  /// Creates an empty file. Charges the MFT record write and journal
  /// entry. Fails with AlreadyExists if the name is taken.
  Status Create(const std::string& name);

  /// Deletes a file; its clusters are freed (reuse deferred until the
  /// journal commits).
  Status Delete(const std::string& name);

  /// Atomically replaces `target` with `source` (ReplaceFile semantics):
  /// after the call, `target` has `source`'s contents and `source` is
  /// gone. `target` need not exist. The journal entry makes the switch
  /// atomic; the old contents' clusters are freed deferred.
  Status Replace(const std::string& source, const std::string& target);

  bool Exists(const std::string& name) const;

  // -- Handle table ----------------------------------------------------

  /// Opens an existing file for reading: one name resolution, charging
  /// the open CPU cost and the MFT record read that the name-based Read
  /// pays per call. NotFound when the name is missing.
  Result<FileHandle> OpenRead(const std::string& name);

  /// Opens a name for writing. The file need not exist — the handle is
  /// then unbound until a Replace targets it (the safe-write create
  /// path). Charges nothing: the write cycle carries its own metadata
  /// I/O, exactly as the name-based safe write always has.
  Result<FileHandle> OpenWrite(const std::string& name);

  /// Creates an empty file (identical charging and directory-index
  /// behaviour to Create) and returns a bound write handle for it — the
  /// safe-write temp path.
  Result<FileHandle> CreateOpen(const std::string& name);

  /// Closes a handle. Read handles charge the close CPU cost the
  /// name-based Read pays per call; closing a stale handle is an error.
  Status Close(FileHandle handle);

  /// True when the handle is currently bound to a live file.
  Result<bool> HandleBound(FileHandle handle) const;

  /// Handle twins of the data operations below: identical device and
  /// CPU charging minus the per-operation name resolution (and, for
  /// reads, minus the open/close + MFT-record charges already paid at
  /// OpenRead/Close).
  Status ReadAt(FileHandle handle, uint64_t offset, uint64_t length,
                std::vector<uint8_t>* out = nullptr);
  Status ReadAll(FileHandle handle, std::vector<uint8_t>* out = nullptr);
  Status AppendStream(FileHandle handle, uint64_t length,
                      uint64_t request_bytes,
                      std::span<const uint8_t> data = {});
  Status Preallocate(FileHandle handle, uint64_t final_size);
  Status Fsync(FileHandle handle);

  /// Replace through handles: `source` must be bound (the streamed
  /// temp); `target` may be unbound (first write of the key) and is
  /// bound to the renamed file afterwards. Consumes (closes) `source`.
  Status Replace(FileHandle source, FileHandle target);

  /// Deletes the handle's file and consumes the handle (other handles
  /// on the same name are invalidated). NotFound when unbound.
  Status Delete(FileHandle handle);

  Result<alloc::ExtentList> GetExtents(FileHandle handle) const;
  Result<uint64_t> GetSize(FileHandle handle) const;

  /// Open handle-table entries (tests / leak checks).
  uint64_t open_handle_count() const { return handles_.open_count(); }
  /// Recycled MFT record ids currently pooled (tests).
  uint64_t recycled_record_ids() const { return free_record_ids_.size(); }

  // -- Data operations -----------------------------------------------

  /// Appends `length` bytes to the file. `data` may be empty for
  /// timing-only workloads; if non-empty it must be exactly `length`
  /// bytes. Space is allocated *now*, for this request only, unless a
  /// preallocation covers it — this is the NTFS behaviour the paper
  /// identifies as a fragmentation source.
  Status Append(const std::string& name, uint64_t length,
                std::span<const uint8_t> data = {});

  /// Appends `length` bytes as a sequence of `request_bytes`-sized
  /// append requests — byte-for-byte the same allocation and charging
  /// behaviour as the equivalent Append loop, with one name lookup
  /// instead of one per request (the safe-write streaming hot path).
  /// Where the allocator extends at the hint, the whole requests the
  /// free run at the file's tail holds take their clusters in one
  /// Allocate call, which ends in the same layout and allocator state
  /// as one call per request. A stream that fails part way keeps the
  /// clusters of the bytes it wrote and releases the rest it took.
  Status AppendStream(const std::string& name, uint64_t length,
                      uint64_t request_bytes,
                      std::span<const uint8_t> data = {});

  /// Reads `length` bytes from `offset`. When `out` is non-null it
  /// receives the bytes (zeros on a metadata-only device).
  Status Read(const std::string& name, uint64_t offset, uint64_t length,
              std::vector<uint8_t>* out = nullptr);

  /// Reads the whole file.
  Status ReadAll(const std::string& name, std::vector<uint8_t>* out = nullptr);

  /// Reserves space for a file expected to reach `final_size` bytes, in
  /// as few extents as the allocator can manage. Subsequent appends
  /// consume the reservation instead of allocating. This is the paper's
  /// proposed API extension; NTFS itself cannot do this.
  Status Preallocate(const std::string& name, uint64_t final_size);

  /// Truncates the file to `new_size` bytes, releasing whole clusters
  /// beyond the boundary (deferred).
  Status Truncate(const std::string& name, uint64_t new_size);

  /// Forces the journal (data was already written through); charges the
  /// journal flush.
  Status Fsync(const std::string& name);

  /// Begins/ends coalescing journal charges (no-ops unless
  /// options().batch_journal_charges). While a batch is open, journal
  /// charges accumulate instead of hitting the device; EndJournalBatch
  /// writes one record (plus one flush if any batched charge asked for
  /// one). Used by the repository layer to charge a whole safe write
  /// as one lazy-writer commit. Batches do not nest.
  void BeginJournalBatch();
  void EndJournalBatch();

  /// Attempts to re-lay the file out in fewer fragments: allocates a
  /// fresh layout, copies the data across (charging the moves), and
  /// frees the old clusters. Returns true when the layout improved; the
  /// fresh allocation is released untouched when it would not help.
  Result<bool> DefragmentFile(const std::string& name);

  /// Moves the file into the lowest-addressed (outermost, fastest)
  /// contiguous free run that fits it — the migration primitive of
  /// zone-aware placement (paper §3.4). Returns true when the file
  /// moved (i.e. a fitting run existed below its current position).
  /// NotSupported when the allocator exposes no free-space map.
  Result<bool> PromoteToOuterZone(const std::string& name);

  /// Reads served from this file so far (heat signal).
  Result<uint64_t> GetReadCount(const std::string& name) const;

  // -- Media repair -----------------------------------------------------

  /// Marks every cluster of `name`'s current layout pending-bad: the
  /// next free of those clusters (delete, replace, truncate, or a data
  /// move) diverts them to the quarantine list instead of the
  /// allocator, retiring them from future allocation. The scrubber's
  /// redirect-repair path: mark, then RelocateFile.
  Status MarkFilePendingBad(const std::string& name);

  /// Moves the file onto a freshly allocated layout unconditionally
  /// (repair-by-rewrite; contrast DefragmentFile, which moves only when
  /// the layout improves). Returns false when no space for a full copy.
  Result<bool> RelocateFile(const std::string& name);

  /// Clusters retired from allocation after media errors.
  uint64_t quarantined_cluster_count() const {
    return quarantined_clusters_.size();
  }

  // -- Introspection ---------------------------------------------------

  /// Physical layout of a file (for the fragmentation analyzer).
  Result<alloc::ExtentList> GetExtents(const std::string& name) const;

  Result<uint64_t> GetSize(const std::string& name) const;

  /// All file names (unordered).
  std::vector<std::string> ListFiles() const;

  /// Visits every file without materializing a name list (unordered).
  void VisitFiles(
      const std::function<void(const std::string& name,
                               const FileInfo& info)>& visit) const;

  /// Incrementally maintained fragments-per-object accounting over all
  /// files; updated on every extent mutation.
  const core::FragmentationTracker& fragmentation_tracker() const {
    return tracker_;
  }

  const FileStoreStats& stats() const { return stats_; }
  /// Clusters held by directory index buffers (fsck accounting).
  uint64_t index_buffer_clusters() const {
    uint64_t total = 0;
    for (const alloc::Extent& e : index_buffers_) total += e.length;
    return total;
  }
  alloc::ExtentAllocator* allocator() { return allocator_.get(); }
  const FileStoreOptions& options() const { return options_; }
  uint64_t total_clusters() const { return total_clusters_; }
  uint64_t mft_clusters() const { return mft_clusters_; }
  sim::BlockDevice* device() { return device_; }

  // -- Crash recovery --------------------------------------------------

  /// Mount-time journal recovery after a materialized power cut.
  /// Replays the host-side journal mirror against the injector's
  /// durability verdicts: the committed operations are the longest
  /// prefix of records whose journal writes survived (the journal is
  /// sequential, so the first missing record truncates the log); they
  /// are redone (an idempotency check — the MFT writes of a committed
  /// op preceded its commit record inside the same op). Everything
  /// after the prefix is undone newest-first, then safe-write temps
  /// that survived (committed create, uncommitted rename) are swept,
  /// and the free-space state is rebuilt from the surviving layouts on
  /// a fresh run-cache allocator — an injected ablation allocator does
  /// not survive recovery. Charges the journal-region scan, per-entry
  /// and per-live-file MFT record I/O, and a closing checkpoint record,
  /// so recovery time scales with volume age. Open handles do not
  /// survive. `is_temp` identifies safe-write temp names.
  Result<RecoveryStats> Recover(
      const std::function<bool(const std::string&)>& is_temp);

  /// Closes a crash-observation window that ended without a crash:
  /// releases the clusters held for rollback back to the allocator and
  /// drops the journal mirror. Call after sim::FaultInjector::Disarm.
  void EndCrashWindow();

  /// Journal-mirror entries currently held (tests).
  uint64_t recovery_log_entries() const { return recovery_log_.size(); }

  /// Free + pending-free bytes available to file data.
  uint64_t FreeBytes() const;

  /// Verifies that no two files share clusters, extents are within the
  /// data zone, and sizes match layouts.
  Status CheckConsistency() const;

 private:
  /// Per-handle payload. `file` is null for unbound write handles
  /// (name opened for write before it exists). FileInfo addresses are
  /// stable (node-based map; Replace assigns into the target's node),
  /// so the pinned pointer survives safe writes on the name.
  struct OpenFilePayload {
    FileInfo* file = nullptr;
    bool read_session = false;
  };
  using OpenFileSlot = core::HandleTable<OpenFilePayload, FileHandle>::Slot;

  FileInfo* Find(const std::string& name);
  const FileInfo* Find(const std::string& name) const;

  /// Invalidates every open handle on `name` (delete / replace-source).
  void InvalidateHandles(const std::string& name);
  /// Binds unbound write handles on `name` to `file` (file creation).
  void BindHandles(const std::string& name, FileInfo* file);

  /// Shared core of the name- and handle-based Replace: `src` is the
  /// live file named `source`, `dst` the file named `target` or null.
  Status ReplaceImpl(const std::string& source, FileInfo* src,
                     const std::string& target, FileInfo* dst);

  /// Next MFT record id: a recycled one when available, else fresh.
  uint64_t TakeRecordId();
  void RecycleRecordId(uint64_t id);

  /// Create core: charging + emplacement; returns the new record.
  Result<FileInfo*> CreateImpl(const std::string& name);
  /// Preallocate core over an already-resolved file.
  Status PreallocateResolved(FileInfo* file, uint64_t final_size);

  /// Data read core over an already-resolved file (range check, device
  /// reads, media retry, checksum verify, stream penalty, read stats)
  /// — no open/MFT/close charges.
  Status ReadResolved(FileInfo* file, uint64_t offset, uint64_t length,
                      std::vector<uint8_t>* out);
  /// One read submission of the mapped range (stream window + vectored
  /// read, cache-routed unless bypass_pool). `out` is already sized.
  Status ReadRangeOnce(const FileInfo& file, uint64_t offset,
                       uint64_t length, std::vector<uint8_t>* out,
                       bool bypass_pool);
  /// Verifies every checksum block fully covered by [offset,
  /// offset+length) against the delivered bytes. On mismatch: drop the
  /// range's cached frames, re-read straight off the platter once, and
  /// fail typed Corruption if the bytes are still wrong.
  Status VerifyChecksums(FileInfo* file, uint64_t offset, uint64_t length,
                         std::vector<uint8_t>* out);
  /// AppendStream core over an already-resolved file.
  Status AppendStreamResolved(FileInfo* file, uint64_t length,
                              uint64_t request_bytes,
                              std::span<const uint8_t> data);

  /// Called when the next stream request must grow `file`: where the
  /// allocator extends at the hint, takes the clusters of every request
  /// of the `remaining` bytes that the free run at the tail holds
  /// whole, in one Allocate call. Takes nothing when the run cannot
  /// hold the next request; its own Allocate then leaves the run.
  Status ExtendStreamRun(FileInfo* file, uint64_t remaining,
                         uint64_t request_bytes);

  /// Frees `file`'s tail clusters beyond the first `keep`.
  Status TrimClusters(FileInfo* file, uint64_t keep);

  /// Re-reports `file`'s fragment count and size to the tracker after a
  /// layout or size mutation.
  void SyncTracker(FileInfo* file);

  /// One append request against an already-resolved file. AppendStream
  /// passes sync_tracker=false and re-syncs the fragmentation tracker
  /// once per stream instead of per request (the tracker is only read
  /// at checkpoints, never mid-call).
  Status AppendToFile(FileInfo* file, uint64_t length,
                      std::span<const uint8_t> data,
                      bool sync_tracker = true);

  /// Directory-index maintenance on a name insertion/removal: one 4 KB
  /// INDEX_ALLOCATION buffer is allocated from the data zone per
  /// kNamesPerIndexBuffer insertions, and the oldest is released per
  /// as many removals. The paper's setup keeps tens of thousands of
  /// files in a single directory, so its index buffers share the
  /// free-space pool with file data — a small but steady source of
  /// allocation interleaving.
  void NoteNameInsert();
  void NoteNameRemove();

  /// Charges the MFT record I/O for `file_id` (one small read or write
  /// at a deterministic slot in the MFT zone).
  void ChargeMftAccess(uint64_t file_id, bool write);
  /// Charges a journal append + optional flush.
  void ChargeJournal(bool flush);

  /// True while an armed fault injector is attached: namespace
  /// operations then mirror their journal records into recovery_log_
  /// and freed clusters are held instead of returned.
  bool CrashArmed() const;
  /// Stamps every pending journal-mirror entry with the sequence number
  /// of the journal record just written (one lazy-writer record commits
  /// the whole batch).
  void StampRecoveryLog();
  /// Rolls back one uncommitted journal-mirror entry.
  void UndoLogEntry(const RecoveryLogEntry& entry, RecoveryStats* out);
  /// Removes `id` from the recycled-record pool (a rollback
  /// resurrected its owner, so it is live again).
  void ReclaimRecordId(uint64_t id);
  /// Maps a logical byte range to physical byte runs into a
  /// caller-owned vector (cleared first). Locates the starting extent
  /// by walking from the tail, so mapping an appended range costs
  /// O(extents in range), not O(all extents).
  void MapRangeInto(const FileInfo& file, uint64_t offset, uint64_t length,
                    std::vector<std::pair<uint64_t, uint64_t>>* runs) const;
  /// Frees all clusters of `file` through the allocator.
  Status FreeFileClusters(const FileInfo& file);
  /// Frees one extent, diverting pending-bad clusters to the
  /// quarantine list instead of the allocator. Every cluster free in
  /// the store routes through here.
  Status FreeExtent(const alloc::Extent& e);
  /// The device's buffer pool when one is attached and enabled, else
  /// null — the single check that keeps cache-size-0 a true no-op.
  sim::BufferPool* ActivePool() const;
  /// Drops every cached frame of `extents` (delete/replace/truncate/
  /// defrag-move: the owner is gone, dirty content dies with it).
  void InvalidateExtents(const alloc::ExtentList& extents);
  /// Writes back `file`'s dirty cached frames (the fsync contract:
  /// data on the platter before the journal commit).
  Status FlushFileFrames(const FileInfo& file);
  /// Pins/unpins `file`'s resident frames (open handle = pin window).
  void PinFileFrames(const FileInfo& file);
  void UnpinFileFrames(const FileInfo& file);
  /// Copies `file`'s contents into the already-allocated `fresh` layout,
  /// frees the old clusters, and installs the new extents. Charges all
  /// the move I/O plus the metadata update.
  Status MoveFileData(FileInfo* file, alloc::ExtentList fresh);
  uint64_t ClustersFor(uint64_t bytes) const {
    return (bytes + options_.cluster_bytes - 1) / options_.cluster_bytes;
  }

  sim::BlockDevice* device_;
  FileStoreOptions options_;
  std::unique_ptr<alloc::ExtentAllocator> allocator_;
  std::unordered_map<std::string, FileInfo> files_;
  core::FragmentationTracker tracker_;
  FileStoreStats stats_;
  uint64_t total_clusters_ = 0;
  uint64_t mft_clusters_ = 0;
  uint64_t next_file_id_ = 1;
  uint64_t journal_cursor_ = 0;  ///< Rotating offset inside the journal.
  bool journal_batch_open_ = false;
  uint32_t batched_journal_records_ = 0;
  bool batched_journal_flush_ = false;
  /// Scratch for AppendToFile's range mapping (reused across appends).
  std::vector<std::pair<uint64_t, uint64_t>> append_runs_;
  /// Scratch for ReadResolved's / MoveFileData's range mapping (reused
  /// — no per-operation allocations on the read hot path).
  std::vector<std::pair<uint64_t, uint64_t>> read_runs_;
  /// Scratch for lowering a run list into one vectored submission;
  /// payload moves directly between caller buffers and the device, so
  /// there is no per-run staging vector anywhere on the data paths.
  std::vector<sim::IoSlice> io_slices_;
  /// Scratch for the buffer-pool twin of io_slices_ (cache-routed
  /// reads/appends when a pool is enabled).
  std::vector<sim::CacheSlice> cache_slices_;
  /// Open-handle table (slot/generation tickets + name index).
  core::HandleTable<OpenFilePayload, FileHandle> handles_;
  /// Open write handles whose file does not exist yet (payload.file is
  /// null); BindHandles skips its name lookup while this is zero.
  uint64_t unbound_handles_ = 0;
  /// MFT record ids freed by deletes/replacements, reused by creates.
  std::vector<uint64_t> free_record_ids_;
  std::vector<alloc::Extent> index_buffers_;  ///< Directory index, FIFO.
  uint64_t name_inserts_ = 0;
  uint64_t name_removes_ = 0;
  /// Host-side journal mirror + rollback holds, populated only while a
  /// crash window is armed (empty overhead otherwise).
  std::vector<RecoveryLogEntry> recovery_log_;
  std::vector<alloc::Extent> crash_held_;
  /// Clusters flagged by the scrubber while still owned by a live file;
  /// FreeExtent diverts them to quarantine when their owner lets go.
  std::unordered_set<uint64_t> pending_bad_clusters_;
  /// Clusters retired from allocation (never returned to the
  /// allocator; survive Recover's free-space rebuild).
  std::unordered_set<uint64_t> quarantined_clusters_;
};

}  // namespace fs
}  // namespace lor

#endif  // LOREPO_FS_FILE_STORE_H_
