// GamBitmap: a Global Allocation Map in the style of SQL Server's GAM
// pages — one bit per 64 KB extent, scanned lowest-first when an
// allocation is needed.
//
// The lowest-free-extent-first reuse discipline is the mechanism behind
// the paper's observation that SQL Server's BLOB fragmentation grows
// almost linearly with storage age: freed extents anywhere in the file
// are reused before the contiguous tail, so a replacement object is
// assembled from holes scattered across the whole file.

#ifndef LOREPO_DB_GAM_H_
#define LOREPO_DB_GAM_H_

#include <cstdint>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace lor {
namespace db {

/// Sentinel returned when no free extent exists.
inline constexpr uint64_t kNoExtent = ~0ULL;

/// Two-level bitmap over extent ids [0, capacity).
///
/// Level 0 stores one bit per extent (1 = free); level 1 stores one bit
/// per level-0 word (1 = word has a free bit), making the first-free
/// scan O(capacity / 4096) words in the worst case.
class GamBitmap {
 public:
  explicit GamBitmap(uint64_t capacity_extents);

  /// Total extents the map covers.
  uint64_t capacity() const { return capacity_; }
  uint64_t free_count() const { return free_count_; }

  /// Marks `count` extents starting at `first` free (file growth or
  /// deallocation). Fails if any extent is already free.
  Status Release(uint64_t first, uint64_t count);

  /// Claims the lowest free extent at or above `from`. Returns kNoExtent
  /// when none exists.
  uint64_t AllocateLowest(uint64_t from = 0);

  /// Lowest free extent at or above `from` without claiming it, or
  /// kNoExtent. O(capacity / 4096) worst case via the summary level.
  uint64_t FindLowestFree(uint64_t from = 0) const;

  /// Idempotently marks one extent free / not free, maintaining the
  /// free count. Unlike Release/AllocateSpecific these never fail,
  /// which lets callers (e.g. LobAllocationUnit's free-page index) use
  /// the bitmap as a plain membership index.
  void MarkFree(uint64_t extent);
  void MarkUsed(uint64_t extent);

  /// Claims a specific extent; fails if it is not free.
  Status AllocateSpecific(uint64_t extent);

  /// Claims up to `count` *consecutive* free extents starting at the
  /// lowest free extent >= `from`; returns the run (possibly shorter
  /// than `count`), or {kNoExtent, 0} when nothing is free. The run is
  /// exactly what AllocateLowest would claim on successive calls, each
  /// from just past the previous extent, until one is not adjacent.
  std::pair<uint64_t, uint64_t> AllocateRun(uint64_t count,
                                            uint64_t from = 0);

  bool IsFree(uint64_t extent) const;

  /// Verifies the summary level agrees with level 0 and the free count.
  Status CheckConsistency() const;

 private:
  void SetFree(uint64_t extent);
  void ClearFree(uint64_t extent);

  uint64_t capacity_;
  uint64_t free_count_ = 0;
  std::vector<uint64_t> bits_;     ///< 1 bit per extent; 1 = free.
  std::vector<uint64_t> summary_;  ///< 1 bit per bits_ word; 1 = any free.
};

}  // namespace db
}  // namespace lor

#endif  // LOREPO_DB_GAM_H_
