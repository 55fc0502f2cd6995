#include "db/blob_store.h"

#include <algorithm>

#include "sim/fault_injector.h"
#include "util/fnv.h"

namespace lor {
namespace db {

namespace {
constexpr uint64_t kCommitRecordBytes = 4096;
}

BlobStore::BlobStore(sim::BlockDevice* device,
                     sim::BlockDevice* log_device, BlobStoreOptions options)
    : device_(device),
      log_device_(log_device),
      options_(options),
      page_file_(device, options.page_file),
      lob_unit_(&page_file_) {
  metadata_ = std::make_unique<MetadataTable>(&page_file_, &options_.costs,
                                              options_.ops_per_checkpoint);
}

uint64_t BlobStore::LogCommit(uint64_t payload_bytes) {
  const uint64_t record =
      kCommitRecordBytes + (options_.bulk_logged ? 0 : payload_bytes);
  ++stats_.log_records;
  stats_.log_bytes += record;
  if (CrashArmed()) window_log_bytes_ += record;
  device_->ChargeCpu(options_.costs.db_commit_s);
  if (log_device_ == nullptr) return 0;
  if (log_cursor_ + record > log_device_->capacity()) log_cursor_ = 0;
  // The transaction blocks until the log write completes, so the log
  // device's time is charged to the session clock as well.
  const double t0 = log_device_->clock().now();
  Status s = log_device_->Write(log_cursor_, record);
  (void)s;
  log_cursor_ += record;
  device_->ChargeCpu(log_device_->clock().now() - t0);
  // The log device has no scheduler, so the commit record is serviced
  // at submission: its sequence number decides commit durability.
  const sim::FaultInjector* injector = log_device_->fault_injector();
  return (injector != nullptr && injector->armed()) ? injector->last_seq()
                                                    : 0;
}

bool BlobStore::CrashArmed() const {
  const sim::FaultInjector* injector = device_->fault_injector();
  return injector != nullptr && injector->armed();
}

// -- Handle table ------------------------------------------------------

void BlobStore::InvalidateHandles(const std::string& key) {
  handles_.InvalidateAll(key);
}

void BlobStore::BindHandles(const std::string& key, BlobLayout* layout,
                            const ObjectRow* row) {
  handles_.ForEachOpen(key, [layout, row](OpenBlobEntry& entry) {
    if (entry.layout == nullptr) entry.layout = layout;
    entry.read_cursor = {};  // Fresh layout: positioned reads restart.
    if (row != nullptr) entry.row = *row;
  });
}

Result<BlobHandle> BlobStore::OpenRead(const std::string& key) {
  // The per-operation query + metadata-row resolution the name-based
  // Get pays on every call; reads through the handle skip both.
  device_->ChargeCpu(options_.costs.db_query_s);
  auto row = metadata_->Lookup(key);
  if (!row.ok()) return row.status();
  auto it = layouts_.find(key);
  if (it == layouts_.end()) {
    return Status::Corruption("row without layout: " + key);
  }
  OpenBlobEntry entry;
  entry.layout = &it->second;
  entry.row = *row;
  return handles_.Register(key, std::move(entry));
}

Result<BlobHandle> BlobStore::OpenWrite(const std::string& key) {
  device_->ChargeCpu(options_.costs.db_query_s);
  auto it = layouts_.find(key);
  OpenBlobEntry entry;
  entry.layout = it == layouts_.end() ? nullptr : &it->second;
  return handles_.Register(key, std::move(entry));
}

Status BlobStore::Close(BlobHandle handle) {
  if (handles_.Resolve(handle) == nullptr) {
    return Status::InvalidArgument("stale blob handle");
  }
  handles_.Release(handle.slot);
  return Status::OK();
}

Result<bool> BlobStore::HandleBound(BlobHandle handle) const {
  const OpenBlobSlot* slot = handles_.Resolve(handle);
  if (slot == nullptr) return Status::InvalidArgument("stale blob handle");
  return slot->entry.layout != nullptr;
}

Status BlobStore::Get(BlobHandle handle, std::vector<uint8_t>* out) {
  OpenBlobSlot* slot = handles_.Resolve(handle);
  if (slot == nullptr) return Status::InvalidArgument("stale blob handle");
  if (slot->entry.layout == nullptr) {
    return Status::NotFound("no object: " + slot->name);
  }
  LOR_RETURN_IF_ERROR(ReadVerified(slot->name, *slot->entry.layout, 0,
                                   slot->entry.layout->data_bytes, out,
                                   nullptr));
  ++stats_.gets;
  return Status::OK();
}

Status BlobStore::GetRange(BlobHandle handle, uint64_t offset,
                           uint64_t length, std::vector<uint8_t>* out) {
  OpenBlobSlot* slot = handles_.Resolve(handle);
  if (slot == nullptr) return Status::InvalidArgument("stale blob handle");
  if (slot->entry.layout == nullptr) {
    return Status::NotFound("no object: " + slot->name);
  }
  LOR_RETURN_IF_ERROR(ReadVerified(slot->name, *slot->entry.layout, offset,
                                   length, out, &slot->entry.read_cursor));
  ++stats_.gets;
  return Status::OK();
}

Status BlobStore::SafeWrite(BlobHandle handle, uint64_t size,
                            std::span<const uint8_t> data) {
  OpenBlobSlot* slot = handles_.Resolve(handle);
  if (slot == nullptr) return Status::InvalidArgument("stale blob handle");
  if (slot->entry.layout == nullptr) {
    return PutResolved(slot->name, size, data);
  }
  return ReplaceResolved(slot->name, &slot->entry, size, data);
}

Status BlobStore::Delete(BlobHandle handle) {
  OpenBlobSlot* slot = handles_.Resolve(handle);
  if (slot == nullptr) return Status::InvalidArgument("stale blob handle");
  if (slot->entry.layout == nullptr) {
    return Status::NotFound("no object: " + slot->name);
  }
  // No query charge: the handle already paid the row resolution at
  // open. The find supplies the erase iterator only.
  auto it = layouts_.find(slot->name);
  if (it == layouts_.end()) {
    return Status::Corruption("bound handle without layout: " + slot->name);
  }
  return DeleteResolved(it);
}

Result<BlobLayout> BlobStore::GetLayout(BlobHandle handle) const {
  const OpenBlobSlot* slot = handles_.Resolve(handle);
  if (slot == nullptr) return Status::InvalidArgument("stale blob handle");
  if (slot->entry.layout == nullptr) {
    return Status::NotFound("no object: " + slot->name);
  }
  return *slot->entry.layout;
}

Result<uint64_t> BlobStore::GetSize(BlobHandle handle) const {
  const OpenBlobSlot* slot = handles_.Resolve(handle);
  if (slot == nullptr) return Status::InvalidArgument("stale blob handle");
  if (slot->entry.layout == nullptr) {
    return Status::NotFound("no object: " + slot->name);
  }
  return slot->entry.layout->data_bytes;
}

Result<ObjectRow> BlobStore::Row(BlobHandle handle) const {
  const OpenBlobSlot* slot = handles_.Resolve(handle);
  if (slot == nullptr) return Status::InvalidArgument("stale blob handle");
  if (slot->entry.row.key.empty()) {
    return Status::NotFound("row not pinned: " + slot->name);
  }
  return slot->entry.row;
}

// -- Write paths -------------------------------------------------------

Status BlobStore::Put(const std::string& key, uint64_t size,
                      std::span<const uint8_t> data) {
  device_->ChargeCpu(options_.costs.db_query_s);
  if (layouts_.count(key) != 0) {
    return Status::AlreadyExists("object exists: " + key);
  }
  return PutResolved(key, size, data);
}

Status BlobStore::PutResolved(const std::string& key, uint64_t size,
                              std::span<const uint8_t> data) {
  const sim::FaultInjector* injector = device_->fault_injector();
  const bool armed = injector != nullptr && injector->armed();
  const uint64_t seq_before = armed ? injector->last_seq() : 0;
  auto layout = BlobBtree::Write(&page_file_, &lob_unit_, size, data,
                                 options_.write_request_bytes,
                                 options_.costs);
  if (!layout.ok()) return layout.status();
  const uint64_t seq_after = armed ? injector->last_seq() : 0;
  if (!data.empty()) {
    layout->payload_hash = Fnv(data);
    layout->hash_valid = true;
    layout->block_sums = FnvBlockSums(data);
  }

  ObjectRow row;
  row.key = key;
  row.blob_ref = layout->root_page();
  row.size_bytes = size;
  row.version = next_version_++;
  Status s = metadata_->Insert(row);
  if (!s.ok()) {
    Status undo = BlobBtree::Free(&lob_unit_, *layout);
    (void)undo;
    return s;
  }
  tracker_.Add(layout->Fragments(), size);
  auto it = layouts_.emplace(key, std::move(*layout)).first;
  BindHandles(key, &it->second, &row);
  const uint64_t commit_seq = LogCommit(size);
  if (armed) {
    BlobRecoveryEntry entry;
    entry.kind = BlobRecoveryEntry::Kind::kPut;
    entry.key = key;
    entry.new_root_page = it->second.root_page();
    entry.new_bytes = size;
    entry.data_seq_lo = seq_after > seq_before ? seq_before + 1 : 0;
    entry.data_seq_hi = seq_after;
    entry.commit_seq = commit_seq;
    if (!options_.bulk_logged && !data.empty()) {
      entry.payload.assign(data.begin(), data.end());
    }
    recovery_log_.push_back(std::move(entry));
  }
  ++stats_.puts;
  ++stats_.object_count;
  stats_.live_bytes += size;
  return Status::OK();
}

Status BlobStore::Replace(const std::string& key, uint64_t size,
                          std::span<const uint8_t> data) {
  device_->ChargeCpu(options_.costs.db_query_s);
  auto it = layouts_.find(key);
  if (it == layouts_.end()) {
    return Status::NotFound("no object: " + key);
  }
  // Route through a transient entry-shaped view so the name path and
  // the handle path are one implementation (no cursor reuse here: the
  // per-operation path re-descends, as it always has).
  OpenBlobEntry transient;
  transient.layout = &it->second;
  Status s = ReplaceResolved(key, &transient, size, data);
  return s;
}

Status BlobStore::ReplaceResolved(const std::string& key,
                                  OpenBlobEntry* entry, uint64_t size,
                                  std::span<const uint8_t> data) {
  const sim::FaultInjector* injector = device_->fault_injector();
  const bool armed = injector != nullptr && injector->armed();
  const uint64_t seq_before = armed ? injector->last_seq() : 0;
  auto layout = BlobBtree::Write(&page_file_, &lob_unit_, size, data,
                                 options_.write_request_bytes,
                                 options_.costs);
  if (!layout.ok()) return layout.status();
  const uint64_t seq_after = armed ? injector->last_seq() : 0;
  if (!data.empty()) {
    layout->payload_hash = Fnv(data);
    layout->hash_valid = true;
    layout->block_sums = FnvBlockSums(data);
  }

  ObjectRow row;
  row.key = key;
  row.blob_ref = layout->root_page();
  row.size_bytes = size;
  row.version = next_version_++;
  LOR_RETURN_IF_ERROR(metadata_->UpdateAt(&entry->row_cursor, row));

  // The old pages become reusable once the ghost-cleanup delay elapses.
  // While a crash window is armed they are held instead (kept allocated
  // in the recovery-log entry), so rollback can reinstate the old blob
  // without any page machinery.
  BlobLayout* target = entry->layout;
  const uint64_t old_size = target->data_bytes;
  const uint64_t old_fragments = target->Fragments();
  BlobRecoveryEntry rec;
  if (armed) {
    rec.kind = BlobRecoveryEntry::Kind::kReplace;
    rec.key = key;
    rec.old_layout = *target;
    rec.new_bytes = size;
    rec.data_seq_lo = seq_after > seq_before ? seq_before + 1 : 0;
    rec.data_seq_hi = seq_after;
    if (!options_.bulk_logged && !data.empty()) {
      rec.payload.assign(data.begin(), data.end());
    }
  } else {
    LOR_RETURN_IF_ERROR(BlobBtree::Free(&lob_unit_, *target));
  }
  tracker_.Update(old_fragments, old_size, layout->Fragments(), size);
  *target = std::move(*layout);
  // Every open handle on the key (this one included) restarts its
  // positioned reads against the fresh layout and sees the new row.
  BindHandles(key, target, &row);
  const uint64_t commit_seq = LogCommit(size);
  if (armed) {
    rec.new_root_page = target->root_page();
    rec.commit_seq = commit_seq;
    recovery_log_.push_back(std::move(rec));
  }
  ++stats_.replaces;
  stats_.live_bytes += size;
  stats_.live_bytes -= old_size;
  return Status::OK();
}

Status BlobStore::Get(const std::string& key, std::vector<uint8_t>* out) {
  device_->ChargeCpu(options_.costs.db_query_s);
  auto row = metadata_->Lookup(key);
  if (!row.ok()) return row.status();
  auto it = layouts_.find(key);
  if (it == layouts_.end()) {
    return Status::Corruption("row without layout: " + key);
  }
  LOR_RETURN_IF_ERROR(ReadVerified(key, it->second, 0, it->second.data_bytes,
                                   out, nullptr));
  ++stats_.gets;
  return Status::OK();
}

Status BlobStore::ReadVerified(const std::string& key,
                               const BlobLayout& layout, uint64_t offset,
                               uint64_t length, std::vector<uint8_t>* out,
                               BlobBtree::ReadCursor* cursor) {
  Status s = BlobBtree::ReadAt(&page_file_, layout, options_.costs, offset,
                               length, out, cursor);
  const sim::MediaRetryPolicy& retry = options_.media_retry;
  for (uint32_t attempt = 1; s.IsIoError() && attempt < retry.max_attempts;
       ++attempt) {
    // Linear backoff before re-driving the read (transient latent
    // sector errors clear after a few attempts).
    device_->ChargeCpu(retry.backoff_s * attempt);
    s = BlobBtree::ReadAt(&page_file_, layout, options_.costs, offset, length,
                          out, cursor);
  }
  LOR_RETURN_IF_ERROR(s);
  return VerifyChecksums(key, layout, offset, length, out);
}

Status BlobStore::VerifyChecksums(const std::string& key,
                                  const BlobLayout& layout, uint64_t offset,
                                  uint64_t length, std::vector<uint8_t>* out) {
  if (out == nullptr || length == 0 || !layout.hash_valid ||
      layout.block_sums.empty()) {
    return Status::OK();
  }
  if (device_->media_faults() == nullptr ||
      device_->data_mode() != sim::DataMode::kRetain) {
    return Status::OK();
  }
  // Verify every block sum whose block lies wholly inside the returned
  // range (the tail sum covers a partial block of the *object*, so it
  // qualifies whenever the range reaches the object's end).
  const uint64_t kB = kChecksumBlockBytes;
  const uint64_t end = offset + length;
  const uint64_t first = (offset + kB - 1) / kB;
  const auto verify = [&]() {
    for (uint64_t b = first; b < layout.block_sums.size(); ++b) {
      const uint64_t bstart = b * kB;
      const uint64_t bend = std::min(bstart + kB, layout.data_bytes);
      if (bend > end) break;
      const std::span<const uint8_t> got(out->data() + (bstart - offset),
                                         bend - bstart);
      if (Fnv(got) != layout.block_sums[b]) return false;
    }
    return true;
  };
  if (verify()) return Status::OK();
  // The mismatch could be a poisoned cached frame rather than the
  // medium: drop every cached page of the blob and re-drive the read
  // once from the device before declaring the blob corrupt.
  for (const alloc::Extent& run : layout.data_runs) {
    page_file_.InvalidatePages(run.start, run.length);
  }
  std::vector<uint8_t> fresh;
  LOR_RETURN_IF_ERROR(BlobBtree::ReadAt(&page_file_, layout, options_.costs,
                                        offset, length, &fresh, nullptr));
  *out = std::move(fresh);
  if (verify()) return Status::OK();
  return Status::Corruption("checksum mismatch in blob " + key);
}

Status BlobStore::MarkPendingBad(const std::string& key) {
  auto it = layouts_.find(key);
  if (it == layouts_.end()) {
    return Status::NotFound("no object: " + key);
  }
  for (const alloc::Extent& run : it->second.data_runs) {
    for (uint64_t p = run.start; p < run.end(); ++p) {
      lob_unit_.MarkPendingBad(p);
    }
  }
  for (const uint64_t p : it->second.pointer_pages) {
    lob_unit_.MarkPendingBad(p);
  }
  return Status::OK();
}

Status BlobStore::Delete(const std::string& key) {
  device_->ChargeCpu(options_.costs.db_query_s);
  auto it = layouts_.find(key);
  if (it == layouts_.end()) {
    return Status::NotFound("no object: " + key);
  }
  return DeleteResolved(it);
}

Status BlobStore::DeleteResolved(
    std::unordered_map<std::string, BlobLayout>::iterator it) {
  const std::string& key = it->first;
  const bool armed = CrashArmed();
  LOR_RETURN_IF_ERROR(metadata_->Delete(key));
  BlobRecoveryEntry rec;
  if (armed) {
    // Hold the pages: an uncommitted delete resurrects the blob intact.
    rec.kind = BlobRecoveryEntry::Kind::kDelete;
    rec.key = key;
    rec.old_layout = it->second;
  } else {
    LOR_RETURN_IF_ERROR(BlobBtree::Free(&lob_unit_, it->second));
  }
  stats_.live_bytes -= it->second.data_bytes;
  tracker_.Remove(it->second.Fragments(), it->second.data_bytes);
  InvalidateHandles(key);
  layouts_.erase(it);
  const uint64_t commit_seq = LogCommit(0);
  if (armed) {
    rec.commit_seq = commit_seq;
    recovery_log_.push_back(std::move(rec));
  }
  ++stats_.deletes;
  --stats_.object_count;
  if (++deletes_since_purge_ >= options_.deletes_per_ghost_purge) {
    deletes_since_purge_ = 0;
    metadata_->PurgeGhosts();
  }
  return Status::OK();
}

bool BlobStore::Exists(const std::string& key) const {
  return layouts_.count(key) != 0;
}

Result<BlobLayout> BlobStore::GetLayout(const std::string& key) const {
  auto it = layouts_.find(key);
  if (it == layouts_.end()) return Status::NotFound("no object: " + key);
  return it->second;
}

Result<uint64_t> BlobStore::GetSize(const std::string& key) const {
  auto it = layouts_.find(key);
  if (it == layouts_.end()) return Status::NotFound("no object: " + key);
  return it->second.data_bytes;
}

std::vector<std::string> BlobStore::ListKeys() const {
  return metadata_->ScanKeys();
}

void BlobStore::VisitBlobs(
    const std::function<void(const std::string& key, const BlobLayout& layout)>&
        visit) const {
  for (const auto& [key, layout] : layouts_) visit(key, layout);
}

Result<BlobStore::RebuildReport> BlobStore::RebuildTable() {
  if (CrashArmed()) {
    return Status::InvalidArgument(
        "table rebuild inside an armed crash window is not supported");
  }
  RebuildReport report;
  const double t0 = device_->clock().now();
  const std::vector<std::string> keys = ListKeys();
  if (keys.empty()) return report;

  for (const std::string& key : keys) {
    report.fragments_before +=
        static_cast<double>(layouts_.at(key).Fragments());
  }
  report.fragments_before /= static_cast<double>(keys.size());

  // A rebuild targets a fresh filegroup: grow a contiguous region big
  // enough for all live data and point the allocation scan at it so
  // copies land sequentially. (If the device cannot fit a full second
  // copy, the rebuild still proceeds, reusing freed space as it goes.)
  const uint64_t live_extents =
      (stats_.live_bytes + page_file_.extent_bytes() - 1) /
      page_file_.extent_bytes();
  page_file_.SeekScanCursorToEnd();
  page_file_.GrowBy(live_extents + live_extents / 16 + keys.size() / 4 + 1);
  lob_unit_.set_sequential_fill(true);

  const bool retain = device_->data_mode() == sim::DataMode::kRetain;
  auto copy_all = [&]() -> Status {
    for (const std::string& key : keys) {
      auto it = layouts_.find(key);
      std::vector<uint8_t> payload;
      LOR_RETURN_IF_ERROR(BlobBtree::Read(&page_file_, it->second,
                                          options_.costs,
                                          retain ? &payload : nullptr));
      auto fresh = BlobBtree::Write(&page_file_, &lob_unit_,
                                    it->second.data_bytes, payload,
                                    options_.write_request_bytes,
                                    options_.costs);
      if (!fresh.ok()) return fresh.status();
      // The copy carries the original bytes, so the recorded hashes
      // move with it.
      fresh->payload_hash = it->second.payload_hash;
      fresh->hash_valid = it->second.hash_valid;
      fresh->block_sums = it->second.block_sums;
      ObjectRow row;
      row.key = key;
      row.blob_ref = fresh->root_page();
      row.size_bytes = fresh->data_bytes;
      row.version = next_version_++;
      LOR_RETURN_IF_ERROR(metadata_->Update(row));
      const uint64_t old_fragments = it->second.Fragments();
      const uint64_t old_bytes = it->second.data_bytes;
      LOR_RETURN_IF_ERROR(BlobBtree::Free(&lob_unit_, it->second));
      tracker_.Update(old_fragments, old_bytes, fresh->Fragments(),
                      fresh->data_bytes);
      report.bytes_moved += fresh->data_bytes;
      ++report.objects_moved;
      it->second = std::move(*fresh);
      // Open handles keep their pinned layout pointer (the node is
      // assigned in place) but restart positioned reads and see the
      // rebuilt row.
      BindHandles(key, &it->second, &row);
      LogCommit(it->second.data_bytes);
    }
    return Status::OK();
  };
  Status copied = copy_all();
  lob_unit_.set_sequential_fill(false);
  LOR_RETURN_IF_ERROR(copied);

  for (const std::string& key : keys) {
    report.fragments_after +=
        static_cast<double>(layouts_.at(key).Fragments());
  }
  report.fragments_after /= static_cast<double>(keys.size());
  report.elapsed_seconds = device_->clock().now() - t0;
  return report;
}

Status BlobStore::CheckConsistency() const {
  // Page usage across layouts must be pairwise disjoint, every page's
  // extent must be live in the GAM, and rows must agree with layouts.
  std::vector<alloc::Extent> runs;
  for (const auto& [key, layout] : layouts_) {
    uint64_t pages = 0;
    for (const alloc::Extent& run : layout.data_runs) {
      pages += run.length;
      runs.push_back(run);
      for (uint64_t e = run.start / page_file_.pages_per_extent();
           e <= (run.end() - 1) / page_file_.pages_per_extent(); ++e) {
        if (page_file_.gam().IsFree(e)) {
          return Status::Corruption("live page in free extent: " + key);
        }
      }
    }
    for (uint64_t p : layout.pointer_pages) runs.push_back({p, 1});
    if (pages != BlobBtree::DataPagesFor(page_file_, layout.data_bytes)) {
      return Status::Corruption("layout page count mismatch: " + key);
    }
    auto row = metadata_->Lookup(key);
    if (!row.ok()) return Status::Corruption("layout without row: " + key);
    if (row->size_bytes != layout.data_bytes) {
      return Status::Corruption("row size disagrees with layout: " + key);
    }
  }
  std::sort(runs.begin(), runs.end(),
            [](const alloc::Extent& a, const alloc::Extent& b) {
              return a.start < b.start;
            });
  for (size_t i = 1; i < runs.size(); ++i) {
    if (runs[i].start < runs[i - 1].end()) {
      return Status::Corruption("blobs share pages");
    }
  }
  if (metadata_->size() != layouts_.size()) {
    return Status::Corruption("row count disagrees with layout count");
  }
  LOR_RETURN_IF_ERROR(lob_unit_.CheckConsistency());
  return metadata_->CheckConsistency();
}

// -- Crash recovery ----------------------------------------------------

void BlobStore::UndoEntry(const BlobRecoveryEntry& entry,
                          BlobRecoveryStats* stats) {
  switch (entry.kind) {
    case BlobRecoveryEntry::Kind::kPut: {
      auto it = layouts_.find(entry.key);
      if (it == layouts_.end()) return;
      stats->data_loss_bytes += it->second.data_bytes;
      stats_.live_bytes -= it->second.data_bytes;
      tracker_.Remove(it->second.Fragments(), it->second.data_bytes);
      Status freed = BlobBtree::Free(&lob_unit_, it->second);
      (void)freed;
      Status dropped = metadata_->Delete(entry.key);
      (void)dropped;
      InvalidateHandles(entry.key);
      layouts_.erase(it);
      --stats_.object_count;
      break;
    }
    case BlobRecoveryEntry::Kind::kReplace: {
      auto it = layouts_.find(entry.key);
      if (it == layouts_.end()) return;
      BlobLayout* target = &it->second;
      stats->data_loss_bytes += target->data_bytes;
      stats_.live_bytes += entry.old_layout.data_bytes;
      stats_.live_bytes -= target->data_bytes;
      tracker_.Update(target->Fragments(), target->data_bytes,
                      entry.old_layout.Fragments(),
                      entry.old_layout.data_bytes);
      Status freed = BlobBtree::Free(&lob_unit_, *target);
      (void)freed;
      // The old pages were held through the window, so reinstating the
      // blob is pointer surgery.
      *target = entry.old_layout;
      ObjectRow row;
      row.key = entry.key;
      row.blob_ref = target->root_page();
      row.size_bytes = target->data_bytes;
      row.version = next_version_++;
      Status repointed = metadata_->Update(row);
      (void)repointed;
      InvalidateHandles(entry.key);
      break;
    }
    case BlobRecoveryEntry::Kind::kDelete: {
      ObjectRow row;
      row.key = entry.key;
      row.blob_ref = entry.old_layout.root_page();
      row.size_bytes = entry.old_layout.data_bytes;
      row.version = next_version_++;
      // The delete left a ghost; Insert resurrects it in place (or
      // re-inserts if the ghost was purged meanwhile).
      Status resurrected = metadata_->Insert(row);
      (void)resurrected;
      tracker_.Add(entry.old_layout.Fragments(),
                   entry.old_layout.data_bytes);
      stats_.live_bytes += entry.old_layout.data_bytes;
      layouts_.emplace(entry.key, entry.old_layout);
      ++stats_.object_count;
      break;
    }
  }
}

Result<BlobRecoveryStats> BlobStore::Recover() {
  BlobRecoveryStats rs;
  rs.entries_scanned = recovery_log_.size();
  const sim::FaultInjector* injector = device_->fault_injector();

  // Analysis pass: re-read the metadata checkpoint pages, then the log
  // tail written since the window opened (the restart blocks on the log
  // device, so its time lands on the session clock like commits do).
  const MetadataTableStats ms = metadata_->stats();
  const uint64_t checkpoint_bytes =
      (ms.leaf_pages + ms.internal_pages) * page_file_.page_bytes();
  if (checkpoint_bytes > 0) {
    Status s = device_->Read(
        0, std::min(checkpoint_bytes, device_->capacity()));
    (void)s;
  }
  if (log_device_ != nullptr && window_log_bytes_ > 0) {
    const uint64_t tail = std::min(window_log_bytes_, log_device_->capacity());
    const uint64_t tail_start = log_cursor_ >= tail ? log_cursor_ - tail : 0;
    const double t0 = log_device_->clock().now();
    Status s = log_device_->Read(tail_start, tail);
    (void)s;
    device_->ChargeCpu(log_device_->clock().now() - t0);
  }

  // Commit prefix: the log is sequential, so the first commit record
  // that missed the cut truncates it — everything after is uncommitted
  // regardless of its own fate.
  auto durable = [injector](uint64_t seq) {
    return injector == nullptr || injector->IsDurable(seq);
  };
  size_t committed = 0;
  while (committed < recovery_log_.size() &&
         durable(recovery_log_[committed].commit_seq)) {
    ++committed;
  }

  // Forward redo pass over the committed prefix: one root-page read per
  // blob write (the page-LSN check a real redo performs), classifying
  // committed entries whose data pages missed the cut.
  std::vector<bool> torn(committed, false);
  for (size_t i = 0; i < committed; ++i) {
    const BlobRecoveryEntry& entry = recovery_log_[i];
    device_->ChargeCpu(options_.costs.db_query_s);
    if (entry.kind == BlobRecoveryEntry::Kind::kDelete) continue;
    Status s =
        device_->Read(entry.new_root_page * page_file_.page_bytes(),
                           page_file_.page_bytes());
    (void)s;
    if (injector != nullptr &&
        !injector->RangeDurable(entry.data_seq_lo, entry.data_seq_hi)) {
      torn[i] = true;
    }
  }

  // Frees the pre-image a replace/delete held through the window (the
  // deferred ghost-cleanup of a surviving committed entry).
  auto release_held = [this](const BlobRecoveryEntry& entry) {
    if (entry.kind == BlobRecoveryEntry::Kind::kPut) return;
    Status s = BlobBtree::Free(&lob_unit_, entry.old_layout);
    (void)s;
  };

  // Resolution in reverse (strict LIFO keeps chained operations on one
  // key coherent): undo the uncommitted suffix; in bulk-logged mode
  // roll back committed entries with lost data pages — the paper's
  // data-loss window — while fully-logged mode redoes them from the
  // log; release held pre-images of everything that survives.
  for (size_t i = recovery_log_.size(); i-- > 0;) {
    const BlobRecoveryEntry& entry = recovery_log_[i];
    if (i >= committed) {
      UndoEntry(entry, &rs);
      ++rs.ops_rolled_back;
      continue;
    }
    if (torn[i]) {
      auto it = layouts_.find(entry.key);
      const bool current = it != layouts_.end() &&
                           it->second.root_page() == entry.new_root_page;
      if (!current) {
        // A later committed write of the key superseded the torn image;
        // nothing reachable was lost.
        release_held(entry);
        ++rs.ops_redone;
        continue;
      }
      if (!options_.bulk_logged) {
        // Fully logged: the payload rode the commit record into the
        // log, so redo rewrites the blob from that image (the torn
        // on-disk copy is discarded, same as a rebuild copy).
        const BlobLayout stale = it->second;
        auto fresh = BlobBtree::Write(&page_file_, &lob_unit_,
                                      stale.data_bytes, entry.payload,
                                      options_.write_request_bytes,
                                      options_.costs);
        if (fresh.ok()) {
          if (!entry.payload.empty()) {
            fresh->payload_hash = Fnv(entry.payload);
            fresh->hash_valid = true;
            fresh->block_sums = FnvBlockSums(entry.payload);
          }
          ObjectRow row;
          row.key = entry.key;
          row.blob_ref = fresh->root_page();
          row.size_bytes = fresh->data_bytes;
          row.version = next_version_++;
          Status repointed = metadata_->Update(row);
          (void)repointed;
          tracker_.Update(stale.Fragments(), stale.data_bytes,
                          fresh->Fragments(), fresh->data_bytes);
          Status freed = BlobBtree::Free(&lob_unit_, stale);
          (void)freed;
          it->second = std::move(*fresh);
          InvalidateHandles(entry.key);
        }
        release_held(entry);
        ++rs.ops_redone;
        continue;
      }
      ++rs.torn_rolled_back;
      if (entry.kind == BlobRecoveryEntry::Kind::kPut) ++rs.lost_objects;
      UndoEntry(entry, &rs);
      continue;
    }
    ++rs.ops_redone;
    release_held(entry);
  }

  recovery_log_.clear();
  window_log_bytes_ = 0;
  // The completion record that ends crash recovery.
  LogCommit(0);
  return rs;
}

void BlobStore::EndCrashWindow() {
  for (const BlobRecoveryEntry& entry : recovery_log_) {
    if (entry.kind == BlobRecoveryEntry::Kind::kPut) continue;
    Status s = BlobBtree::Free(&lob_unit_, entry.old_layout);
    (void)s;
  }
  recovery_log_.clear();
  window_log_bytes_ = 0;
}

}  // namespace db
}  // namespace lor
