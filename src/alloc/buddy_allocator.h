// BuddyAllocator: power-of-two buddy-system allocation, the DTSS
// filesystem baseline the paper discusses (§3.4, Koch's TOCS paper).
// Every allocation is a single contiguous block, so external
// fragmentation never splits an object — at the cost of internal
// fragmentation (a 10 MB request consumes 16 MB).

#ifndef LOREPO_ALLOC_BUDDY_ALLOCATOR_H_
#define LOREPO_ALLOC_BUDDY_ALLOCATOR_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "alloc/allocator.h"

namespace lor {
namespace alloc {

/// Buddy-system allocator over [reserved, clusters).
///
/// Internally the space is rounded up to the next power of two; the
/// reserved head and the phantom tail are permanently marked allocated.
/// Each request is rounded up to a power-of-two order and served as one
/// block.
class BuddyAllocator : public ExtentAllocator {
 public:
  /// Manages clusters [reserved, clusters); [0, reserved) models the MFT
  /// zone and is never allocated to file data.
  explicit BuddyAllocator(uint64_t clusters, uint64_t reserved = 0);

  /// Allocates one block of at least `length` clusters (extend hints are
  /// meaningless under the buddy discipline and are ignored) and appends
  /// its first `length` clusters, the ones the caller asked for. The
  /// block's rounded-up rest stays with the allocator, counted by
  /// `internal_waste_clusters()`.
  Status Allocate(uint64_t length, uint64_t extend_hint,
                  ExtentList* out) override;
  bool extends_at_hint() const override { return false; }

  /// Frees an extent that exactly tiles the extents Allocate appended
  /// for consecutive live blocks (a caller's coalesced extent list frees
  /// as it stands). Anything else is InvalidArgument and frees nothing.
  Status Free(const Extent& extent) override;

  uint64_t free_clusters() const override { return free_clusters_; }
  /// Free blocks plus the internal waste of live ones: every managed
  /// cluster no caller holds.
  uint64_t total_unused_clusters() const override {
    return free_clusters_ + internal_waste_;
  }
  FreeSpaceStats FreeStats() const override;
  std::string name() const override { return "buddy"; }

  /// Clusters lost to power-of-two rounding across live allocations.
  uint64_t internal_waste_clusters() const { return internal_waste_; }

  /// Checks the free lists for overlaps/duplicates.
  Status CheckConsistency() const;

  static uint32_t OrderFor(uint64_t length);

 private:
  uint64_t BlockSize(uint32_t order) const { return 1ULL << order; }

  /// Removes the specific block [addr, addr + 2^order) from the free
  /// lists, splitting larger blocks as needed. `addr` must be inside a
  /// free block of order >= `order`.
  void CarveBlock(uint64_t addr, uint32_t order);

  /// Permanently claims [begin, end) as naturally aligned blocks.
  void ClaimRange(uint64_t begin, uint64_t end);

  uint32_t max_order_;
  uint64_t free_clusters_ = 0;
  uint64_t internal_waste_ = 0;
  /// Free block start offsets per order.
  std::vector<std::set<uint64_t>> free_lists_;
  /// Live allocations: start -> (order, requested length).
  std::map<uint64_t, std::pair<uint32_t, uint64_t>> live_;
};

}  // namespace alloc
}  // namespace lor

#endif  // LOREPO_ALLOC_BUDDY_ALLOCATOR_H_
