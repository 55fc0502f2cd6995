// PolicyAllocator: textbook first/best/worst/next-fit allocation over a
// FreeSpaceMap, with optional immediate or deferred free. These are the
// baseline policies from the theory literature the paper discusses
// (§3.2); the NTFS-like RunCacheAllocator is the production-path
// comparator.

#ifndef LOREPO_ALLOC_POLICY_ALLOCATOR_H_
#define LOREPO_ALLOC_POLICY_ALLOCATOR_H_

#include <cstdint>
#include <string>

#include "alloc/allocator.h"
#include "alloc/deferred_free_queue.h"

namespace lor {
namespace alloc {

/// Configuration for PolicyAllocator.
struct PolicyAllocatorOptions {
  FitPolicy policy = FitPolicy::kBestFit;
  /// Honour extend hints (contiguous file extension) before applying the
  /// fit policy.
  bool allow_extension = true;
  /// If true, freed space is reusable only after the commit interval.
  bool deferred_free = false;
  uint32_t commit_interval = 8;
};

/// Fit-policy allocator over a single free-space map.
class PolicyAllocator : public ExtentAllocator {
 public:
  /// Manages clusters [reserved, clusters); [0, reserved) is never
  /// handed out (metadata region).
  PolicyAllocator(uint64_t clusters, PolicyAllocatorOptions options,
                  uint64_t reserved = 0);

  Status Allocate(uint64_t length, uint64_t extend_hint,
                  ExtentList* out) override;
  bool extends_at_hint() const override { return options_.allow_extension; }
  Status Free(const Extent& extent) override;
  void Tick() override;
  void CommitPending() override;
  uint64_t free_clusters() const override { return map_.free_clusters(); }
  uint64_t total_unused_clusters() const override {
    return map_.free_clusters() + deferred_.pending_clusters();
  }
  FreeSpaceStats FreeStats() const override { return map_.Stats(); }
  std::string name() const override;

  const FreeSpaceMap& map() const { return map_; }
  FreeSpaceMap* mutable_map() { return &map_; }
  FreeSpaceMap* free_map() override { return &map_; }

 private:
  PolicyAllocatorOptions options_;
  FreeSpaceMap map_;
  DeferredFreeQueue deferred_;
  ExtentList acquired_;  ///< Allocate's scratch, reused across calls.
};

}  // namespace alloc
}  // namespace lor

#endif  // LOREPO_ALLOC_POLICY_ALLOCATOR_H_
