#include "core/object_repository.h"

#include <algorithm>

#include "core/fragmentation.h"

namespace lor {
namespace core {

// Default handle surface: name-routed handles (gen 0) that replay the
// resolution on every operation. Back ends with real handle tables
// (FsRepository, DbRepository) override it; wrapper repositories (e.g.
// workload::RecordingRepository) inherit it.

Status ObjectRepository::ValidateHandle(const ObjectHandle& handle,
                                        bool need_write) const {
  if (!handle.valid()) {
    return Status::InvalidArgument("invalid object handle");
  }
  if (handle.owner_ != this) {
    return Status::InvalidArgument(
        "object handle belongs to another repository");
  }
  if (need_write && !handle.writable_) {
    return Status::InvalidArgument(
        "object handle not opened for write: " + handle.key_);
  }
  return Status::OK();
}

ObjectHandle ObjectRepository::MakeHandle(const std::string& key,
                                          bool writable, uint64_t slot,
                                          uint64_t gen) const {
  ObjectHandle handle;
  handle.owner_ = this;
  handle.slot_ = slot;
  handle.gen_ = gen;
  handle.key_ = key;
  handle.writable_ = writable;
  return handle;
}

Result<FsckReport> ObjectRepository::Fsck() {
  FsckReport report;
  // Extent cross-check: no byte may belong to two objects. Works purely
  // through the name-routed introspection surface, so wrappers that
  // forward VisitObjects get a working verifier for free.
  std::vector<alloc::Extent> all;
  VisitObjects([&](const std::string&, const alloc::ExtentList& layout,
                   uint64_t) {
    ++report.objects_checked;
    all.insert(all.end(), layout.begin(), layout.end());
  });
  std::sort(all.begin(), all.end(),
            [](const alloc::Extent& a, const alloc::Extent& b) {
              return a.start < b.start;
            });
  for (size_t i = 1; i < all.size(); ++i) {
    if (all[i].start < all[i - 1].end()) {
      report.issues.push_back(
          {FsckIssue::Kind::kDoubleAllocated,
           "overlapping object extents at byte " +
               std::to_string(all[i].start)});
    }
  }
  // Tracker vs. full scan: the incrementally maintained counts must
  // match a from-scratch walk of every layout.
  if (const FragmentationTracker* tracker = fragmentation_tracker()) {
    const FragmentationReport scan = AnalyzeFragmentationFullScan(*this);
    const FragmentationReport snap = tracker->Snapshot();
    if (snap.objects != scan.objects ||
        snap.fragments_per_object != scan.fragments_per_object ||
        snap.max_fragments != scan.max_fragments) {
      report.issues.push_back(
          {FsckIssue::Kind::kAccounting,
           "fragmentation tracker diverges from full scan"});
    }
  }
  // Structural invariants (allocator accounting, shared clusters).
  const Status consistency = CheckConsistency();
  if (!consistency.ok()) {
    report.issues.push_back(
        {FsckIssue::Kind::kAccounting, consistency.ToString()});
  }
  return report;
}

Result<ScrubReport> ObjectRepository::Scrub(const ScrubOptions& options) {
  // Walks the sorted key space from the persistent cursor, re-reading
  // each payload through the public Get surface (charged like any
  // client read, typed errors included).
  ScrubReport report;
  std::vector<std::string> keys = ListKeys();
  std::sort(keys.begin(), keys.end());
  if (keys.empty()) {
    scrub_cursor_.clear();
    return report;
  }
  // Resume strictly after the cursor, wrapping at the end.
  size_t start = 0;
  if (!scrub_cursor_.empty()) {
    const auto it =
        std::upper_bound(keys.begin(), keys.end(), scrub_cursor_);
    start = static_cast<size_t>(it - keys.begin()) % keys.size();
  }
  const uint64_t budget =
      options.max_objects == 0 ? keys.size() : options.max_objects;
  std::vector<uint8_t> payload;
  for (uint64_t i = 0; i < budget && i < keys.size(); ++i) {
    const std::string& key = keys[(start + i) % keys.size()];
    scrub_cursor_ = key;
    const uint64_t errors_before = device_stats().media_read_errors;
    const Status read = Get(key, &payload);
    ++report.objects_scanned;
    if (read.ok()) {
      report.bytes_scanned += payload.size();
      // The read succeeded but needed media retries: a transient latent
      // sector error lives under this object.
      if (options.repair && device_stats().media_read_errors > errors_before) {
        RepairScrubbed(key, payload, &report);
      }
    } else if (read.IsNotFound()) {
      continue;  // Deleted since ListKeys: not a media problem.
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

void ObjectRepository::RepairScrubbed(const std::string& /*key*/,
                                      const std::vector<uint8_t>& /*payload*/,
                                      ScrubReport* /*report*/) {}

Result<ObjectHandle> ObjectRepository::Open(const std::string& key) {
  if (!Exists(key)) return Status::NotFound("no object: " + key);
  return MakeHandle(key, /*writable=*/false);
}

Result<ObjectHandle> ObjectRepository::OpenForWrite(const std::string& key) {
  return MakeHandle(key, /*writable=*/true);
}

Status ObjectRepository::Release(ObjectHandle* handle) {
  if (handle == nullptr) return Status::InvalidArgument("null handle");
  LOR_RETURN_IF_ERROR(ValidateHandle(*handle));
  handle->owner_ = nullptr;
  handle->gen_ = 0;
  return Status::OK();
}

Status ObjectRepository::Get(const ObjectHandle& handle,
                             std::vector<uint8_t>* out) {
  LOR_RETURN_IF_ERROR(ValidateHandle(handle));
  return Get(handle.key_, out);
}

Status ObjectRepository::SafeWrite(const ObjectHandle& handle, uint64_t size,
                                   std::span<const uint8_t> data) {
  LOR_RETURN_IF_ERROR(ValidateHandle(handle, /*need_write=*/true));
  return SafeWrite(handle.key_, size, data);
}

Status ObjectRepository::Delete(ObjectHandle* handle) {
  if (handle == nullptr) return Status::InvalidArgument("null handle");
  LOR_RETURN_IF_ERROR(ValidateHandle(*handle, /*need_write=*/true));
  LOR_RETURN_IF_ERROR(Delete(handle->key_));
  handle->owner_ = nullptr;
  handle->gen_ = 0;
  return Status::OK();
}

Result<alloc::ExtentList> ObjectRepository::GetLayout(
    const ObjectHandle& handle) const {
  LOR_RETURN_IF_ERROR(ValidateHandle(handle));
  return GetLayout(handle.key_);
}

Result<uint64_t> ObjectRepository::GetSize(const ObjectHandle& handle) const {
  LOR_RETURN_IF_ERROR(ValidateHandle(handle));
  return GetSize(handle.key_);
}

}  // namespace core
}  // namespace lor
