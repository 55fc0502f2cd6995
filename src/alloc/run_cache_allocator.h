// RunCacheAllocator: the NTFS-like allocation policy the paper describes
// in §2:
//
//   "NTFS allocates space for file stream data from a run-based lookup
//    cache. Runs of contiguous free clusters are ordered in decreasing
//    size and volume offset. NTFS attempts to satisfy a new space
//    allocation from the outer band. If that fails, large extents within
//    the free space cache are used. If that fails, the file is
//    fragmented. Additionally, the NTFS transactional log entry must be
//    committed before freed space can be reallocated after file
//    deletion."
//
// Concretely:
//   * the allocator sees only the `cache_size` largest free runs (the
//     run cache); smaller holes are invisible until they rank,
//   * within the cache it prefers the lowest-offset (outermost) run that
//     satisfies the request in one piece,
//   * if no cached run fits, the largest cached run is consumed whole
//     and the allocation continues — the file fragments,
//   * sequential appends extend the previous extent in place when the
//     following clusters are free (NTFS's aggressive contiguation),
//   * frees are deferred until the journal commit interval elapses.

#ifndef LOREPO_ALLOC_RUN_CACHE_ALLOCATOR_H_
#define LOREPO_ALLOC_RUN_CACHE_ALLOCATOR_H_

#include <cstdint>
#include <string>

#include "alloc/allocator.h"
#include "alloc/deferred_free_queue.h"

namespace lor {
namespace alloc {

/// How a fresh run is chosen when extension and the outer band fail.
enum class RunSelection {
  /// The default, matching NTFS's observed aging behaviour: each
  /// write-request-sized allocation is served from the *smallest*
  /// cached run that fits it. Because space is allocated per append
  /// request, before the file's final size is known (paper §5.4), small
  /// freed pieces keep circulating at write-request granularity — this
  /// is what drives the paper's one-fragment-per-64 KB convergence and
  /// makes constant-size workloads fragment like uniform ones.
  kBestFitCached,
  /// Bitmap scan from a moving cursor for every request (FindFreeRun
  /// from a volume hint). Ablation.
  kCursorSweep,
  /// Serve from the largest cached run (the literal reading of the
  /// run-cache description). Ablation; too conservative to reproduce
  /// the paper's aging curves on its own.
  kLargestFirst,
  /// The textbook fits of the theory literature (paper §3.2), in
  /// FitPolicy's order: every run is served by
  /// FreeSpaceMap::AllocateUpTo over the whole map, skipping the outer
  /// band and the run cache. Ablation baselines.
  kFirstFit,
  kBestFit,
  kWorstFit,
  kNextFit,
};

/// Tuning knobs for the NTFS-like policy.
struct RunCacheOptions {
  RunSelection selection = RunSelection::kBestFitCached;
  /// Number of largest runs visible to the allocator.
  uint32_t cache_size = 32;
  /// Honour extension hints (sequential-append contiguation).
  bool allow_extension = true;
  /// Defer frees until the journal commits.
  bool deferred_free = true;
  /// Allocator ticks between journal commits. NTFS's lazy writer
  /// commits every few seconds; at tens of milliseconds per operation
  /// and a few ticks per operation this is on the order of a hundred
  /// ticks.
  uint32_t commit_interval = 128;
  /// Fraction of the volume treated as the preferred "outer band":
  /// requests that fit entirely in a free run starting inside the band
  /// are placed there (lowest offset first) before the large-extent
  /// cache is consulted.
  double outer_band_fraction = 0.125;
};

/// NTFS-like run-cache allocator.
class RunCacheAllocator : public ExtentAllocator {
 public:
  /// Manages clusters [reserved, clusters); [0, reserved) models the MFT
  /// zone and is never allocated to file data.
  RunCacheAllocator(uint64_t clusters, RunCacheOptions options = {},
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
  FreeSpaceMap* free_map() override { return &map_; }

 private:
  /// Picks the run to serve a request of `length` clusters under the
  /// run-cache selections (not the textbook fits):
  ///   1. the lowest-offset cached run inside the outer band that fits
  ///      the request entirely (the "outer band" attempt), else
  ///   2. per `RunSelection` (sweep cursor / best-fit / largest), else
  ///   3. the largest cached run, consumed whole — the file fragments.
  /// Returns an empty extent when nothing is free.
  Extent TakeRun(uint64_t length);

  RunCacheOptions options_;
  FreeSpaceMap map_;
  DeferredFreeQueue deferred_;
  ExtentList acquired_;  ///< Allocate's scratch, reused across calls.
  uint64_t band_limit_ = 0;  ///< First cluster beyond the outer band.
  uint64_t sweep_cursor_ = 0;
};

}  // namespace alloc
}  // namespace lor

#endif  // LOREPO_ALLOC_RUN_CACHE_ALLOCATOR_H_
