// DeferredFreeQueue: freed extents parked until the journal commits.
//
// NTFS requires the transactional log entry for a deletion to commit
// before the freed clusters can be reallocated (paper §2). The practical
// consequence for a safe-write workload is that a replacement object can
// never land in the hole its own delete just opened — a first-order
// driver of fragmentation that immediate-reuse allocators do not show.

#ifndef LOREPO_ALLOC_DEFERRED_FREE_QUEUE_H_
#define LOREPO_ALLOC_DEFERRED_FREE_QUEUE_H_

#include <cstdint>
#include <vector>

#include "alloc/extent.h"
#include "alloc/free_space_map.h"
#include "util/status.h"

namespace lor {
namespace alloc {

/// Holds freed extents for `commit_interval` ticks before releasing them
/// into a FreeSpaceMap.
class DeferredFreeQueue {
 public:
  /// `commit_interval` == 0 means frees are released on the next Tick.
  explicit DeferredFreeQueue(uint32_t commit_interval = 8)
      : commit_interval_(commit_interval) {}

  /// Parks an extent.
  void Defer(const Extent& extent) {
    pending_.push_back(extent);
    pending_clusters_ += extent.length;
  }

  /// Advances the tick counter; commits into `map` when the interval
  /// elapses. Returns the status of the commit (OK if nothing committed).
  Status Tick(FreeSpaceMap* map) {
    if (++ticks_since_commit_ > commit_interval_) {
      return Commit(map);
    }
    return Status::OK();
  }

  /// Releases all pending extents into `map` now, as one sorted,
  /// coalescing merge. A pending extent that overlaps free space (a
  /// double free) is dropped and reported; the others are released.
  Status Commit(FreeSpaceMap* map) {
    ticks_since_commit_ = 0;
    Status s = map->FreeAll(pending_);
    pending_.clear();
    pending_clusters_ = 0;
    return s;
  }

  uint64_t pending_clusters() const { return pending_clusters_; }
  size_t pending_count() const { return pending_.size(); }

 private:
  uint32_t commit_interval_;
  uint32_t ticks_since_commit_ = 0;
  std::vector<Extent> pending_;
  uint64_t pending_clusters_ = 0;
};

}  // namespace alloc
}  // namespace lor

#endif  // LOREPO_ALLOC_DEFERRED_FREE_QUEUE_H_
