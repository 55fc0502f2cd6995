#include "core/db_repository.h"

namespace lor {
namespace core {

DbRepository::DbRepository(DbRepositoryConfig config)
    : StoreRepository(config), config_(std::move(config)) {
  if (config_.log_volume_bytes > 0) {
    log_device_ = std::make_unique<sim::BlockDevice>(
        config_.disk.WithCapacity(config_.log_volume_bytes),
        sim::DataMode::kMetadataOnly);
  }
  store_ = std::make_unique<db::BlobStore>(device_.get(), log_device_.get(),
                                           config_.store);
  AttachScheduler();
}

// -- Reads and the safe-write step -------------------------------------

Status DbRepository::Get(const ObjectHandle& handle,
                         std::vector<uint8_t>* out) {
  sim::OpScope scope(scheduler_.get(), sim::OpClass::kGet);
  LOR_RETURN_IF_ERROR(ValidateHandle(handle));
  return store_->Get(TicketOf(handle), out);
}

Status DbRepository::WriteThrough(db::BlobHandle target,
                                  const std::string& /*key*/, uint64_t size,
                                  std::span<const uint8_t> data) {
  return store_->SafeWrite(target, size, data);
}

Result<alloc::ExtentList> DbRepository::ScaleLayout(
    Result<db::BlobLayout> layout) const {
  if (!layout.ok()) return layout.status();
  alloc::ExtentList bytes;
  bytes.reserve(layout->data_runs.size());
  alloc::AppendScaledBytes(layout->data_runs,
                           store_->page_file().page_bytes(), &bytes);
  return bytes;
}

Result<alloc::ExtentList> DbRepository::GetLayout(
    const ObjectHandle& handle) const {
  LOR_RETURN_IF_ERROR(ValidateHandle(handle));
  return ScaleLayout(store_->GetLayout(TicketOf(handle)));
}

// -- Name surface --------------------------------------------------------

Status DbRepository::Get(const std::string& key, std::vector<uint8_t>* out) {
  sim::OpScope scope(scheduler_.get(), sim::OpClass::kGet);
  // The store's per-key read already pays the query + row lookup every
  // call — no handle-table entry needed for a single-shot read.
  return store_->Get(key, out);
}

Result<alloc::ExtentList> DbRepository::GetLayout(
    const std::string& key) const {
  return ScaleLayout(store_->GetLayout(key));
}

std::vector<std::string> DbRepository::ListKeys() const {
  return store_->ListKeys();
}

void DbRepository::VisitObjects(
    const std::function<void(const std::string& key,
                             const alloc::ExtentList& layout,
                             uint64_t size_bytes)>& visit) const {
  const uint64_t unit = store_->page_file().page_bytes();
  alloc::ExtentList bytes;  // Scratch reused across objects.
  store_->VisitBlobs([&](const std::string& key, const db::BlobLayout& layout) {
    bytes.clear();
    alloc::AppendScaledBytes(layout.data_runs, unit, &bytes);
    visit(key, bytes, layout.data_bytes);
  });
}

uint64_t DbRepository::object_count() const {
  return store_->stats().object_count;
}

uint64_t DbRepository::live_bytes() const {
  return store_->stats().live_bytes;
}

uint64_t DbRepository::free_bytes() const {
  // Unused space = free extents inside the file plus the unallocated
  // remainder of the volume.
  return store_->FreeBytes() +
         (device_->capacity() - store_->page_file().file_bytes());
}

// -- Crash recovery & verification -------------------------------------

Status DbRepository::RecoverStore(bool power_cycled, MountReport* report) {
  // The power cut restarts the log spindle cold as well.
  if (power_cycled && log_device_ != nullptr) log_device_->NotePowerCycle();
  LOR_ASSIGN_OR_RETURN(db::BlobRecoveryStats rs, store_->Recover());
  report->entries_scanned = rs.entries_scanned;
  report->ops_redone = rs.ops_redone;
  report->ops_rolled_back = rs.ops_rolled_back + rs.torn_rolled_back;
  report->lost_objects = rs.lost_objects;
  report->data_loss_bytes = rs.data_loss_bytes;
  return Status::OK();
}

Result<FsckReport> DbRepository::Fsck() {
  LOR_ASSIGN_OR_RETURN(FsckReport report, ObjectRepository::Fsck());

  // Exact page accounting: every page the LOB allocation unit has
  // handed out must be referenced by exactly one live layout (data or
  // pointer page). Held rollback pre-images or forgotten frees surface
  // as leaks; a layout referencing unallocated pages is the double-
  // allocation hazard.
  uint64_t referenced = 0;
  std::vector<std::pair<std::string, uint64_t>> hashed;
  const bool retain = device_->data_mode() == sim::DataMode::kRetain;
  store_->VisitBlobs([&](const std::string& key,
                         const db::BlobLayout& layout) {
    referenced += layout.data_page_count() + layout.pointer_pages.size();
    if (retain && layout.hash_valid && layout.data_bytes > 0) {
      hashed.emplace_back(key, layout.payload_hash);
    }
  });
  const uint64_t allocated = store_->lob_unit().allocated_pages();
  if (allocated > referenced) {
    report.issues.push_back(
        {FsckIssue::Kind::kLeakedExtent,
         std::to_string(allocated - referenced) +
             " allocated LOB pages referenced by no live object"});
  } else if (referenced > allocated) {
    report.issues.push_back(
        {FsckIssue::Kind::kDoubleAllocated,
         std::to_string(referenced - allocated) +
             " live pages beyond the allocation unit's count"});
  }

  // Payload verification: re-read every object written with real bytes
  // and compare against the hash recorded at write time.
  VerifyPayloads(
      hashed,
      [&](const std::string& key, std::vector<uint8_t>* out) {
        return store_->Get(key, out);
      },
      &report);
  report.quarantined_units = store_->quarantined_page_count();
  return report;
}

void DbRepository::RepairScrubbed(const std::string& key,
                                  const std::vector<uint8_t>& payload,
                                  ScrubReport* report) {
  // Repair by supersession: safe-write the payload onto fresh pages and
  // retire the suspect ones via the quarantine divert at free time.
  sim::OpScope scope(scheduler_.get(), sim::OpClass::kControl);
  const uint64_t quarantined_before = store_->quarantined_page_count();
  if (store_->MarkPendingBad(key).ok()) {
    const Status moved = store_->Replace(key, payload.size(), payload);
    if (moved.ok()) ++report->repaired;
  }
  report->quarantined_units +=
      store_->quarantined_page_count() - quarantined_before;
}

}  // namespace core
}  // namespace lor
