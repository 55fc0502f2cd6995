#include "core/object_repository.h"

#include <algorithm>

#include "core/fragmentation.h"

namespace lor {
namespace core {

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
  // through the name-routed introspection surface.
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

}  // namespace core
}  // namespace lor
