#include "core/fs_repository.h"

#include <algorithm>
#include <cassert>

#include "sim/fault_injector.h"
#include "util/fnv.h"

namespace lor {
namespace core {

namespace {

/// Opens a journal batch for the enclosing scope: the whole temp-create
/// / stream / fsync / replace sequence commits as one lazy-writer
/// record (including the error paths).
struct JournalBatch {
  explicit JournalBatch(fs::FileStore* s) : store(s) {
    store->BeginJournalBatch();
  }
  ~JournalBatch() { store->EndJournalBatch(); }
  fs::FileStore* store;
};

}  // namespace

FsRepository::FsRepository(FsRepositoryConfig config)
    : FsRepository(std::move(config), nullptr) {}

FsRepository::FsRepository(FsRepositoryConfig config,
                           std::unique_ptr<alloc::ExtentAllocator> allocator)
    : config_(std::move(config)) {
  if (config_.spindle != nullptr) {
    // Shared spindle: the data volume is this owner's region of the
    // plane's hub disk. Format below still charges synchronously on
    // the hub clock — repositories construct serially, before any
    // plane traffic — and the scheduler is ported only afterwards.
    device_ = config_.spindle->CreateOwnerDevice(config_.spindle_owner);
    assert(device_->capacity() == config_.volume_bytes &&
           "plane region must match volume_bytes");
  } else {
    device_ = std::make_unique<sim::BlockDevice>(
        config_.disk.WithCapacity(config_.volume_bytes), config_.data_mode);
  }
  pool_ = std::make_unique<sim::BufferPool>(device_.get(), config_.cache);
  device_->AttachBufferPool(pool_.get());
  store_ = std::make_unique<fs::FileStore>(device_.get(), config_.store,
                                           std::move(allocator));
  scheduler_ = std::make_unique<sim::IoScheduler>(device_.get(), &latency_);
  device_->AttachScheduler(scheduler_.get());
  if (config_.spindle != nullptr) {
    scheduler_->AttachSpindle(config_.spindle.get(), config_.spindle_owner);
  }
}

Status FsRepository::SetQueueDepth(uint32_t depth, sim::SchedPolicy policy) {
  if (depth == 0) {
    return Status::InvalidArgument("queue depth must be at least 1");
  }
  if (depth == 1) return scheduler_->Disengage();
  return scheduler_->Engage(depth, policy);
}

Status FsRepository::DrainIo() {
  // Dirty cached frames are in-flight work too: push them onto the
  // queue, then drain it. CrashTortureRunner drains before arming the
  // injector, so the loss window never silently includes lazy
  // write-back state. In shared-spindle mode the flush must ride an op
  // scope so its charges queue on the plane instead of racing the hub
  // clock (Drain itself fences outside the scope).
  {
    sim::OpScope scope(scheduler_->port_mode() ? scheduler_.get() : nullptr,
                       sim::OpClass::kControl);
    LOR_RETURN_IF_ERROR(pool_->FlushAll());
  }
  scheduler_->Drain();
  return Status::OK();
}

Status FsRepository::SettleIo() {
  // Dedicated spindle: a phase that engaged the queue already drained
  // through SetQueueDepth(1), and a synchronous phase has nothing
  // outstanding — nothing to settle, and deliberately no cache flush
  // (phase boundaries never flushed historically).
  if (!scheduler_->port_mode()) return Status::OK();
  scheduler_->SettlePhase();
  return Status::OK();
}

bool FsRepository::shared_spindle() const { return scheduler_->port_mode(); }

Status FsRepository::FlushCache() {
  sim::OpScope scope(scheduler_->port_mode() ? scheduler_.get() : nullptr,
                     sim::OpClass::kControl);
  return pool_->FlushAll();
}

std::string FsRepository::NextTempName(const std::string& key) {
  // One allocation per safe write: size the name, then append.
  const std::string counter = std::to_string(temp_counter_++);
  std::string name;
  name.reserve(key.size() + 4 + counter.size());
  name.append(key).append(".tmp").append(counter);
  return name;
}

// -- Handle surface ----------------------------------------------------

Result<ObjectHandle> FsRepository::Open(const std::string& key) {
  sim::OpScope scope(scheduler_.get(), sim::OpClass::kControl);
  LOR_ASSIGN_OR_RETURN(fs::FileHandle fh, store_->OpenRead(key));
  return MakeHandle(key, /*writable=*/false, fh.slot, fh.gen);
}

Result<ObjectHandle> FsRepository::OpenForWrite(const std::string& key) {
  sim::OpScope scope(scheduler_.get(), sim::OpClass::kControl);
  LOR_ASSIGN_OR_RETURN(fs::FileHandle fh, store_->OpenWrite(key));
  return MakeHandle(key, /*writable=*/true, fh.slot, fh.gen);
}

Status FsRepository::Release(ObjectHandle* handle) {
  if (handle == nullptr) return Status::InvalidArgument("null handle");
  sim::OpScope scope(scheduler_.get(), sim::OpClass::kControl);
  LOR_RETURN_IF_ERROR(ValidateHandle(*handle));
  LOR_RETURN_IF_ERROR(store_->Close({handle->slot_, handle->gen_}));
  handle->owner_ = nullptr;
  handle->gen_ = 0;
  return Status::OK();
}

Status FsRepository::Get(const ObjectHandle& handle,
                         std::vector<uint8_t>* out) {
  sim::OpScope scope(scheduler_.get(), sim::OpClass::kGet);
  LOR_RETURN_IF_ERROR(ValidateHandle(handle));
  return store_->ReadAll(fs::FileHandle{handle.slot_, handle.gen_}, out);
}

Status FsRepository::SafeWriteThrough(fs::FileHandle target,
                                      const std::string& key, uint64_t size,
                                      std::span<const uint8_t> data) {
  if (!data.empty() && data.size() != size) {
    return Status::InvalidArgument("data size does not match object size");
  }
  // Validate the target ticket *before* the temp cycle: a stale handle
  // (e.g. the object was deleted by name) must fail here, not after a
  // fully streamed temp file would be left live with no owner.
  LOR_RETURN_IF_ERROR(store_->HandleBound(target).status());
  JournalBatch batch(store_.get());
  LOR_ASSIGN_OR_RETURN(fs::FileHandle temp,
                       store_->CreateOpen(NextTempName(key)));
  if (config_.preallocate_on_safe_write) {
    Status s = store_->Preallocate(temp, size);
    if (!s.ok()) {
      Status undo = store_->Delete(temp);
      (void)undo;
      return s;
    }
  }
  Status s = store_->AppendStream(temp, size, config_.write_request_bytes,
                                  data);
  if (!s.ok()) {
    Status undo = store_->Delete(temp);
    (void)undo;
    return s;
  }
  LOR_RETURN_IF_ERROR(store_->Fsync(temp));
  return store_->Replace(temp, target);
}

Status FsRepository::SafeWrite(const ObjectHandle& handle, uint64_t size,
                               std::span<const uint8_t> data) {
  sim::OpScope scope(scheduler_.get(), sim::OpClass::kSafeWrite);
  LOR_RETURN_IF_ERROR(ValidateHandle(handle, /*need_write=*/true));
  return SafeWriteThrough(fs::FileHandle{handle.slot_, handle.gen_},
                          handle.key_, size, data);
}

Status FsRepository::Delete(ObjectHandle* handle) {
  if (handle == nullptr) return Status::InvalidArgument("null handle");
  sim::OpScope scope(scheduler_.get(), sim::OpClass::kDelete);
  LOR_RETURN_IF_ERROR(ValidateHandle(*handle, /*need_write=*/true));
  LOR_RETURN_IF_ERROR(
      store_->Delete(fs::FileHandle{handle->slot_, handle->gen_}));
  handle->owner_ = nullptr;
  handle->gen_ = 0;
  return Status::OK();
}

Result<alloc::ExtentList> FsRepository::ScaleExtents(
    Result<alloc::ExtentList> extents) const {
  if (!extents.ok()) return extents.status();
  alloc::ExtentList bytes;
  bytes.reserve(extents->size());
  alloc::AppendScaledBytes(*extents, config_.store.cluster_bytes, &bytes);
  return bytes;
}

Result<alloc::ExtentList> FsRepository::GetLayout(
    const ObjectHandle& handle) const {
  LOR_RETURN_IF_ERROR(ValidateHandle(handle));
  return ScaleExtents(
      store_->GetExtents(fs::FileHandle{handle.slot_, handle.gen_}));
}

Result<uint64_t> FsRepository::GetSize(const ObjectHandle& handle) const {
  LOR_RETURN_IF_ERROR(ValidateHandle(handle));
  return store_->GetSize(fs::FileHandle{handle.slot_, handle.gen_});
}

// -- Name surface: thin open–op–release wrappers -----------------------

Status FsRepository::Put(const std::string& key, uint64_t size,
                         std::span<const uint8_t> data) {
  sim::OpScope scope(scheduler_.get(), sim::OpClass::kPut);
  LOR_ASSIGN_OR_RETURN(fs::FileHandle h, store_->OpenWrite(key));
  auto bound = store_->HandleBound(h);
  if (!bound.ok() || *bound) {
    Status c = store_->Close(h);
    (void)c;
    if (!bound.ok()) return bound.status();
    return Status::AlreadyExists("object exists: " + key);
  }
  Status s = SafeWriteThrough(h, key, size, data);
  Status c = store_->Close(h);
  return s.ok() ? c : s;
}

Status FsRepository::SafeWrite(const std::string& key, uint64_t size,
                               std::span<const uint8_t> data) {
  sim::OpScope scope(scheduler_.get(), sim::OpClass::kSafeWrite);
  LOR_ASSIGN_OR_RETURN(fs::FileHandle h, store_->OpenWrite(key));
  Status s = SafeWriteThrough(h, key, size, data);
  Status c = store_->Close(h);
  return s.ok() ? c : s;
}

Status FsRepository::Get(const std::string& key, std::vector<uint8_t>* out) {
  sim::OpScope scope(scheduler_.get(), sim::OpClass::kGet);
  // The store's name-based read is already the open–read–close session
  // (open CPU + MFT read, data, close CPU) — no handle-table entry
  // needed for a single-shot read.
  return store_->ReadAll(key, out);
}

Status FsRepository::Delete(const std::string& key) {
  sim::OpScope scope(scheduler_.get(), sim::OpClass::kDelete);
  return store_->Delete(key);
}

bool FsRepository::Exists(const std::string& key) const {
  return store_->Exists(key);
}

Result<alloc::ExtentList> FsRepository::GetLayout(
    const std::string& key) const {
  return ScaleExtents(store_->GetExtents(key));
}

Result<uint64_t> FsRepository::GetSize(const std::string& key) const {
  return store_->GetSize(key);
}

std::vector<std::string> FsRepository::ListKeys() const {
  return store_->ListFiles();
}

void FsRepository::VisitObjects(
    const std::function<void(const std::string& key,
                             const alloc::ExtentList& layout,
                             uint64_t size_bytes)>& visit) const {
  const uint64_t unit = config_.store.cluster_bytes;
  alloc::ExtentList bytes;  // Scratch reused across files.
  store_->VisitFiles([&](const std::string& name, const fs::FileInfo& info) {
    bytes.clear();
    alloc::AppendScaledBytes(info.extents, unit, &bytes);
    visit(name, bytes, info.size_bytes);
  });
}

const FragmentationTracker* FsRepository::fragmentation_tracker() const {
  return &store_->fragmentation_tracker();
}

uint64_t FsRepository::object_count() const {
  return store_->stats().file_count;
}

uint64_t FsRepository::live_bytes() const {
  return store_->stats().live_bytes;
}

uint64_t FsRepository::volume_bytes() const { return device_->capacity(); }

uint64_t FsRepository::free_bytes() const { return store_->FreeBytes(); }

double FsRepository::now() const { return scheduler_->Now(); }

sim::IoStats FsRepository::device_stats() const { return device_->stats(); }

Status FsRepository::CheckConsistency() const {
  return store_->CheckConsistency();
}

Result<MountReport> FsRepository::Mount() {
  if (scheduler_->port_mode()) {
    return Status::NotSupported(
        "crash simulation is per-spindle: Mount is unavailable in "
        "shared-spindle mode");
  }
  const double t0 = device_->clock().now();
  const sim::FaultInjector* injector = device_->fault_injector();
  if (injector != nullptr && injector->tripped()) {
    // The submission queue died with the power: its uncharged work
    // never happened, and the head position is unknown after restart.
    scheduler_->Abandon();
    device_->NotePowerCycle();
  } else {
    // Clean remount: dirty frames reach the platter before the cache
    // forgets them. After a crash they are (correctly) just lost.
    LOR_RETURN_IF_ERROR(pool_->FlushAll());
  }
  // DRAM died with the power too: mount starts cold.
  pool_->Reset();
  LOR_ASSIGN_OR_RETURN(fs::RecoveryStats rs, store_->Recover(IsTempName));
  MountReport report;
  report.entries_scanned = rs.entries_scanned;
  report.ops_redone = rs.ops_redone;
  report.ops_rolled_back = rs.ops_rolled_back;
  report.orphan_temps_discarded = rs.orphan_temps_discarded;
  report.data_loss_bytes = rs.data_loss_bytes;
  report.recovery_seconds = device_->clock().now() - t0;
  return report;
}

Result<FsckReport> FsRepository::Fsck() {
  LOR_ASSIGN_OR_RETURN(FsckReport report, ObjectRepository::Fsck());
  // Typed allocator accounting: every data-zone cluster is owned by a
  // live file, an index buffer, or the allocator (free or deferred).
  uint64_t owned = store_->index_buffer_clusters();
  store_->VisitFiles([&](const std::string&, const fs::FileInfo& info) {
    owned += info.allocated_clusters;
  });
  const uint64_t data_zone =
      store_->total_clusters() - store_->mft_clusters();
  const uint64_t unused = store_->allocator()->total_unused_clusters();
  // Clusters the scrubber retired after media errors: owned by nobody,
  // deliberately — reported, but not an issue.
  report.quarantined_units = store_->quarantined_cluster_count();
  const uint64_t accounted = owned + unused + report.quarantined_units;
  if (accounted < data_zone) {
    report.issues.push_back(
        {FsckIssue::Kind::kLeakedExtent,
         std::to_string(data_zone - accounted) +
             " clusters owned by no live object"});
  } else if (accounted > data_zone) {
    report.issues.push_back(
        {FsckIssue::Kind::kDoubleAllocated,
         std::to_string(accounted - data_zone) +
             " clusters claimed twice (object vs free space)"});
  }
  // Payload verification (only possible when the device retains bytes):
  // re-read every hashed file and check its streamed FNV-1a. Orphan
  // temps should not have survived recovery.
  const bool retain = device_->data_mode() == sim::DataMode::kRetain;
  std::vector<std::pair<std::string, uint64_t>> hashed;
  store_->VisitFiles([&](const std::string& name, const fs::FileInfo& info) {
    if (IsTempName(name)) {
      report.issues.push_back({FsckIssue::Kind::kOrphanTemp, name});
    }
    if (retain && info.hash_valid && info.size_bytes > 0) {
      hashed.emplace_back(name, info.payload_hash);
    }
  });
  std::vector<uint8_t> payload;
  for (const auto& [name, expected] : hashed) {
    payload.clear();
    const Status s = store_->ReadAll(name, &payload);
    if (!s.ok()) {
      report.issues.push_back(
          {FsckIssue::Kind::kLostObject, name + ": " + s.ToString()});
      continue;
    }
    ++report.payloads_hashed;
    if (Fnv(payload) != expected) {
      report.issues.push_back(
          {FsckIssue::Kind::kTornPayload, "payload hash mismatch: " + name});
    }
  }
  return report;
}

Result<ScrubReport> FsRepository::Scrub(const ScrubOptions& options) {
  ScrubReport report;
  std::vector<std::string> keys = store_->ListFiles();
  std::sort(keys.begin(), keys.end());
  if (keys.empty()) {
    scrub_cursor_.clear();
    return report;
  }
  size_t start = 0;
  if (!scrub_cursor_.empty()) {
    const auto it =
        std::upper_bound(keys.begin(), keys.end(), scrub_cursor_);
    start = static_cast<size_t>(it - keys.begin()) % keys.size();
  }
  const uint64_t budget =
      options.max_objects == 0 ? keys.size() : options.max_objects;
  const sim::MediaFaultModel* media = device_->media_faults();
  std::vector<uint8_t> payload;
  for (uint64_t i = 0; i < budget && i < keys.size(); ++i) {
    const std::string& key = keys[(start + i) % keys.size()];
    scrub_cursor_ = key;
    const uint64_t errors_before =
        media != nullptr ? media->stats().read_errors : 0;
    const Status read = Get(key, &payload);  // Charged like a client read.
    ++report.objects_scanned;
    if (read.ok()) {
      report.bytes_scanned += payload.size();
      // The read succeeded but needed media retries: a transient latent
      // sector error lives under this file. Repair by rewrite — move
      // the payload onto fresh clusters and retire the suspect ones.
      if (options.repair && media != nullptr &&
          media->stats().read_errors > errors_before) {
        sim::OpScope scope(scheduler_.get(), sim::OpClass::kControl);
        const uint64_t quarantined_before =
            store_->quarantined_cluster_count();
        if (store_->MarkFilePendingBad(key).ok()) {
          auto moved = store_->RelocateFile(key);
          if (moved.ok() && *moved) ++report.repaired;
        }
        report.quarantined_units +=
            store_->quarantined_cluster_count() - quarantined_before;
      }
    } else if (read.IsNotFound()) {
      continue;  // Deleted since the listing: not a media problem.
    } else if (read.IsCorruption()) {
      ++report.corruptions_detected;
      ++report.unrecoverable;
    } else if (read.IsIoError()) {
      ++report.read_errors;
      ++report.unrecoverable;
    } else {
      return read;  // The scrubber itself failed; surface it.
    }
    if (options.max_bytes != 0 && report.bytes_scanned >= options.max_bytes) {
      break;
    }
  }
  return report;
}

}  // namespace core
}  // namespace lor
