#include "core/fs_repository.h"

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
    : StoreRepository(config), config_(std::move(config)) {
  store_ = std::make_unique<fs::FileStore>(device_.get(), config_.store,
                                           std::move(allocator));
  AttachScheduler();
}

std::string FsRepository::NextTempName(const std::string& key) {
  // One allocation per safe write: size the name, then append.
  const std::string counter = std::to_string(temp_counter_++);
  std::string name;
  name.reserve(key.size() + 4 + counter.size());
  name.append(key).append(".tmp").append(counter);
  return name;
}

bool FsRepository::IsTempName(const std::string& name) {
  const size_t tmp = name.rfind(".tmp");
  return tmp != std::string::npos && tmp + 4 < name.size() &&
         name.find_first_not_of("0123456789", tmp + 4) == std::string::npos;
}

Status FsRepository::CheckWriteKey(const std::string& key) const {
  if (!IsTempName(key)) return Status::OK();
  return Status::InvalidArgument(
      "key has the safe-write temp form <name>.tmp<digits>: " + key);
}

// -- Reads and the safe-write step -------------------------------------

Status FsRepository::Get(const ObjectHandle& handle,
                         std::vector<uint8_t>* out) {
  sim::OpScope scope(scheduler_.get(), sim::OpClass::kGet);
  LOR_RETURN_IF_ERROR(ValidateHandle(handle));
  return store_->ReadAll(TicketOf(handle), out);
}

Status FsRepository::WriteThrough(fs::FileHandle target,
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
  return ScaleExtents(store_->GetExtents(TicketOf(handle)));
}

// -- Name surface --------------------------------------------------------

Status FsRepository::Get(const std::string& key, std::vector<uint8_t>* out) {
  sim::OpScope scope(scheduler_.get(), sim::OpClass::kGet);
  // The store's name-based read is already the open–read–close session
  // (open CPU + MFT read, data, close CPU) — no handle-table entry
  // needed for a single-shot read.
  return store_->ReadAll(key, out);
}

Result<alloc::ExtentList> FsRepository::GetLayout(
    const std::string& key) const {
  return ScaleExtents(store_->GetExtents(key));
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

uint64_t FsRepository::object_count() const {
  return store_->stats().file_count;
}

uint64_t FsRepository::live_bytes() const {
  return store_->stats().live_bytes;
}

uint64_t FsRepository::free_bytes() const { return store_->FreeBytes(); }

Status FsRepository::RecoverStore(bool /*power_cycled*/,
                                  MountReport* report) {
  LOR_ASSIGN_OR_RETURN(fs::RecoveryStats rs, store_->Recover(IsTempName));
  report->entries_scanned = rs.entries_scanned;
  report->ops_redone = rs.ops_redone;
  report->ops_rolled_back = rs.ops_rolled_back;
  report->orphan_temps_discarded = rs.orphan_temps_discarded;
  report->data_loss_bytes = rs.data_loss_bytes;
  return Status::OK();
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
  VerifyPayloads(
      hashed,
      [&](const std::string& name, std::vector<uint8_t>* out) {
        return store_->ReadAll(name, out);
      },
      &report);
  return report;
}

void FsRepository::RepairScrubbed(const std::string& key,
                                  const std::vector<uint8_t>& /*payload*/,
                                  ScrubReport* report) {
  // Repair by relocation: move the file onto fresh clusters and retire
  // the suspect ones.
  sim::OpScope scope(scheduler_.get(), sim::OpClass::kControl);
  const uint64_t quarantined_before = store_->quarantined_cluster_count();
  if (store_->MarkFilePendingBad(key).ok()) {
    auto moved = store_->RelocateFile(key);
    if (moved.ok() && *moved) ++report->repaired;
  }
  report->quarantined_units +=
      store_->quarantined_cluster_count() - quarantined_before;
}

}  // namespace core
}  // namespace lor
