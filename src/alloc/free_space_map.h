// FreeSpaceMap: a coalescing map of free cluster runs with pluggable fit
// policies. This is the mechanism underneath every allocator baseline;
// the NTFS-like run cache and the policy allocators are policies layered
// on top (the mechanism/policy split follows Wilson et al.'s malloc
// survey, which the paper cites).

#ifndef LOREPO_ALLOC_FREE_SPACE_MAP_H_
#define LOREPO_ALLOC_FREE_SPACE_MAP_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "alloc/extent.h"
#include "alloc/sorted_runs.h"
#include "util/result.h"
#include "util/status.h"

namespace lor {
namespace alloc {

/// Which free run a request is satisfied from.
enum class FitPolicy {
  kFirstFit,  ///< Lowest-addressed run that fits.
  kBestFit,   ///< Smallest run that fits (ties to lowest address).
  kWorstFit,  ///< Largest run (ties to highest address).
  kNextFit,   ///< First fit starting from a roving cursor.
};

std::string_view FitPolicyName(FitPolicy policy);

/// Aggregate description of free space, used by experiments.
struct FreeSpaceStats {
  uint64_t free_clusters = 0;
  uint64_t run_count = 0;
  uint64_t largest_run = 0;
  double mean_run = 0.0;
  /// 1 - largest_run/free_clusters; 0 when free space is one run.
  double external_fragmentation = 0.0;
};

/// The free runs of a volume, coalesced, in flat indexes that do not
/// allocate per operation. `runs_` holds every run in address order.
/// The size order, (length, start), is split at the 32nd largest run:
/// those runs sit in `top_`, a flat array the run cache scans, and the
/// rest in `by_size_`. Both `runs_` and `by_size_` are SortedRuns:
/// sorted 16-byte extents in blocks of at most 64 under a contiguous
/// array of block heads.
///
/// Per-operation cost for R runs:
///   * Free, AllocateAt, ExtendAt, AllocateFrom and best/worst fit: one
///     O(log R) descent per index plus a move within one block.
///     Shrinking a run from its head (every take) rewrites the address
///     entry in place and leaves the run's size entry under its old key.
///     A run shrunk by successive takes is re-keyed once, when the size
///     order is next read (the k largest runs, best/worst fit, Stats,
///     CheckConsistency) or written for another run; erasing or growing
///     it first uses the old key. The re-key rewrites the size entry in
///     place while the run keeps its rank, rotates it within its block
///     when it passes a few neighbours, and moves it only when it leaves
///     the block; a top run shifts within `top_` and trades places with
///     the largest of the rest when it drops below it.
///   * ExtendAt from the end of the last take (sequential extension):
///     no search. The map remembers where it last took from in each
///     index and checks those positions before descending; a position
///     is trusted only after its element is compared, so a stale one
///     costs one compare.
///   * First and next fit: a scan of the address index from the cursor
///     that skips every block whose largest run is too short.
///   * The k largest runs: `top_` in order, then the tail of `by_size_`
///     read backwards when k > 32.
///   * FreeAll (a journal commit): one sort of the batch and one
///     ascending, coalescing pass that merges it into the indexes.
/// Placement decisions depend only on the set of runs and the next-fit
/// cursor; AllocatorDecisionsArePinned (allocators_test) pins them.
///
/// Because of the deferred re-key, const readers of the size order
/// update `mutable` index state. That is safe because a map is confined
/// to one shard's thread; a map shared between threads needs a lock
/// around reads too.
class FreeSpaceMap {
 public:
  FreeSpaceMap() = default;

  /// Map with a single free run [0, clusters).
  explicit FreeSpaceMap(uint64_t clusters);

  /// Marks a run free, coalescing with neighbours. Double frees are
  /// rejected with InvalidArgument.
  Status Free(const Extent& extent);

  /// Frees a batch in one ascending pass: the batch is sorted and
  /// adjacent extents are joined before they merge into the map. The
  /// resulting map is the one freeing each extent in turn produces. An
  /// extent that overlaps free space or another extent of the batch is
  /// skipped and reported as InvalidArgument; the rest are still freed.
  Status FreeAll(std::span<const Extent> extents);

  /// Allocates exactly `length` contiguous clusters per `policy`, or
  /// NoSpace if no single run is large enough.
  Result<Extent> AllocateContiguous(uint64_t length, FitPolicy policy);

  /// Allocates up to `max_length` clusters from the run chosen by
  /// `policy` (taking the run's head). Returns an empty extent when the
  /// map is empty. Never splits across runs — callers loop to build
  /// multi-extent allocations.
  Extent AllocateUpTo(uint64_t max_length, FitPolicy policy);

  /// Cursor-sweep allocation: takes up to `max_length` clusters from
  /// the head of the first free run starting at or after `cursor`,
  /// wrapping to the lowest run when none follows. Any run qualifies
  /// regardless of size. Returns an empty extent when the map is empty.
  /// This models a bitmap scan from a moving allocation hint (the NTFS
  /// first-fit-from-hint behaviour).
  Extent AllocateFrom(uint64_t cursor, uint64_t max_length);

  /// Claims the specific range if (and only if) it is entirely free.
  Status AllocateAt(const Extent& extent);

  /// Extends an allocation in place: claims up to `max_length` clusters
  /// starting exactly at `start`, returning how many were claimed (0 if
  /// `start` is not free).
  uint64_t ExtendAt(uint64_t start, uint64_t max_length);

  /// Free clusters from `start` to the end of the run holding it (0 if
  /// `start` is not free): how many ExtendAt(start, ...) can claim.
  uint64_t FreeRunFrom(uint64_t start) const;

  /// True if every cluster of `extent` is free.
  bool IsFree(const Extent& extent) const;

  uint64_t free_clusters() const { return free_clusters_; }
  uint64_t run_count() const { return runs_.size(); }
  uint64_t largest_run() const;
  FreeSpaceStats Stats() const;

  /// All free runs in address order (for analysis and tests).
  std::vector<Extent> Snapshot() const;

  /// Up to `k` largest runs, ordered by decreasing size then increasing
  /// start — the ordering of NTFS's run cache.
  std::vector<Extent> LargestRuns(uint32_t k) const;

  /// Allocation-free walk over the same `k`-run subset LargestRuns
  /// returns, in (size desc, start desc) iteration order. `fn` returns
  /// false to stop early. Hot-path alternative for callers (the NTFS
  /// run cache) that only need one pass and no materialized vector;
  /// note the tie order differs from LargestRuns' sorted output.
  template <typename Fn>
  void ForEachLargestRun(uint32_t k, Fn&& fn) const {
    SettleSizeKey();
    const uint32_t top = std::min(k, top_count_);
    for (uint32_t i = 0; i < top; ++i) {
      if (!fn(top_[i])) return;
    }
    uint32_t seen = top;
    by_size_.ForEachReverse([&](const Extent& run) {
      return seen++ < k && fn(run);
    });
  }

  /// Checks internal invariants (index agreement, no adjacency); used by
  /// property tests.
  Status CheckConsistency() const;

 private:
  struct ByStart {
    bool operator()(const Extent& a, const Extent& b) const {
      return a.start < b.start;
    }
  };
  struct BySize {
    bool operator()(const Extent& a, const Extent& b) const {
      return a.length != b.length ? a.length < b.length : a.start < b.start;
    }
  };
  using AddressIndex = SortedRuns<ByStart>;
  using SizeIndex = SortedRuns<BySize>;
  using Pos = AddressIndex::Pos;

  /// Run containing `cluster`, or runs_.end().
  Pos Containing(uint64_t cluster) const;

  // The size order is split at the kTopRuns-th largest run: top_ holds
  // the largest runs, by_size_ the rest. These keep the split. They are
  // const because const readers settle a stale key (the index state is
  // mutable); `run` is the key a run sits under.
  /// True when the run `run` (which must be in the map) is a top run.
  bool InTop(const Extent& run) const;
  void TopInsert(const Extent& run) const;  ///< Requires a free top slot.
  void TopErase(const Extent& run) const;
  /// Moves the largest of the rest into the top's last slot.
  void PromoteRest() const;
  /// Position of `run` in by_size_ (checks last_size_ first).
  SizeIndex::Pos FindRest(const Extent& run) const;
  void SizeInsert(const Extent& run) const;
  void SizeErase(const Extent& run) const;
  void SizeRekey(const Extent& old, const Extent& run) const;
  /// Re-keys the run left under a stale size key, if any.
  void SettleSizeKey() const;
  /// The size key `run` sits under, which the caller is about to erase
  /// or replace; settles any other run's stale key first.
  Extent ClaimSizeKey(const Extent& run);
  /// Adds a run (no coalescing) before address position `at`.
  void InsertRun(Pos at, const Extent& run);
  /// Removes the run at `at` from both indexes.
  void EraseRun(Pos at);
  /// Replaces the run at `at` with `run`, which must keep its address
  /// rank; re-keys the size index.
  void ResizeRun(Pos at, const Extent& run);
  /// Chooses a run with length >= `length`, or runs_.end().
  Pos SelectRun(uint64_t length, FitPolicy policy) const;
  /// Address position of the largest run, or runs_.end().
  Pos LargestRun() const;
  /// Takes `take` clusters from the head of the run at `at`.
  Extent TakeFromRun(Pos at, uint64_t take);
  /// Lowest-addressed run starting at or after `cursor` with length >=
  /// `length`, or runs_.end().
  Pos FindFrom(uint64_t length, uint64_t cursor) const;

  /// The run-cache allocator's default cache size.
  static constexpr uint32_t kTopRuns = 32;

  AddressIndex runs_;
  /// The min(kTopRuns, R) largest runs, largest first in (length,
  /// start) order, in one flat array; every other run is in by_size_.
  mutable std::array<Extent, kTopRuns> top_{};
  mutable uint32_t top_count_ = 0;
  mutable SizeIndex by_size_;
  /// Where the last take happened in each index: checked before any
  /// descent, trusted only if the element there matches.
  Pos last_run_{};
  mutable SizeIndex::Pos last_size_{};
  /// The run last shrunk from its head (`stale_run_`) and the size key
  /// it still sits under (`stale_key_`; empty when every key is fresh).
  mutable Extent stale_key_{};
  mutable Extent stale_run_{};
  std::vector<Extent> batch_;  ///< FreeAll scratch.
  uint64_t free_clusters_ = 0;
  uint64_t next_fit_cursor_ = 0;
};

}  // namespace alloc
}  // namespace lor

#endif  // LOREPO_ALLOC_FREE_SPACE_MAP_H_
