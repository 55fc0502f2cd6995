#include "alloc/run_cache_allocator.h"

#include <algorithm>

namespace lor {
namespace alloc {
namespace {

constexpr bool IsTextbookFit(RunSelection selection) {
  return selection >= RunSelection::kFirstFit;
}

/// The FitPolicy a textbook-fit selection names.
constexpr FitPolicy TextbookFit(RunSelection selection) {
  return static_cast<FitPolicy>(static_cast<int>(selection) -
                                static_cast<int>(RunSelection::kFirstFit));
}
static_assert(TextbookFit(RunSelection::kFirstFit) == FitPolicy::kFirstFit);
static_assert(TextbookFit(RunSelection::kBestFit) == FitPolicy::kBestFit);
static_assert(TextbookFit(RunSelection::kWorstFit) == FitPolicy::kWorstFit);
static_assert(TextbookFit(RunSelection::kNextFit) == FitPolicy::kNextFit);

}  // namespace

RunCacheAllocator::RunCacheAllocator(uint64_t clusters,
                                     RunCacheOptions options,
                                     uint64_t reserved)
    : options_(options), map_(0), deferred_(options.commit_interval) {
  if (clusters > reserved) {
    Status s = map_.Free({reserved, clusters - reserved});
    (void)s;
  }
  band_limit_ =
      reserved + static_cast<uint64_t>(
                     static_cast<double>(clusters - reserved) *
                     options_.outer_band_fraction);
}

Extent RunCacheAllocator::TakeRun(uint64_t length) {
  // One allocation-free pass over the run cache (the `cache_size`
  // largest runs) computes every candidate the policy can pick:
  //   * outer: lowest-offset fitting run starting inside the outer band,
  //   * best:  snuggest fitting cached run (ties to the highest offset,
  //            matching the former size-descending rescan),
  //   * largest: the cache head (ties to the lowest cached offset),
  // exactly as the former materialize-and-sort selection chose them.
  constexpr uint64_t kNone = ~0ULL;
  bool any = false;
  uint64_t largest_length = 0;
  uint64_t largest_start = 0;
  uint64_t outer_start = kNone;
  uint64_t best_length = kNone;
  uint64_t best_start = kNone;
  // The walk is (length desc, start desc), so the runs that fit form a
  // prefix and the tie-breaks fall out of the order; the updates are
  // selects rather than branches.
  map_.ForEachLargestRun(options_.cache_size, [&](const Extent& run) {
    if (!any) {
      any = true;
      largest_length = run.length;
    }
    // Walk is start-descending within ties.
    largest_start =
        run.length == largest_length ? run.start : largest_start;
    // Nothing further fits; only the head's tie group is still needed.
    if (run.length < length) return run.length == largest_length;
    outer_start = std::min(
        outer_start, run.start < band_limit_ ? run.start : kNone);
    // First of a tie group = highest start.
    const bool snugger = run.length < best_length;
    best_length = snugger ? run.length : best_length;
    best_start = snugger ? run.start : best_start;
    return true;
  });
  if (!any) return Extent{};

  uint64_t chosen_start = outer_start;
  uint64_t take = length;

  if (chosen_start == kNone &&
      options_.selection == RunSelection::kCursorSweep) {
    Extent taken = map_.AllocateFrom(sweep_cursor_, length);
    if (!taken.empty()) sweep_cursor_ = taken.end();
    return taken;
  }

  if (chosen_start == kNone &&
      options_.selection == RunSelection::kBestFitCached) {
    chosen_start = best_start;
    // Nothing fits: fall through to consume the largest whole.
  }

  // Largest-first path: when even the largest run is smaller than the
  // request, it is consumed whole and the caller loops — the file
  // fragments.
  if (chosen_start == kNone) {
    chosen_start = largest_start;
    take = std::min(length, largest_length);
  }
  Extent result{chosen_start, take};
  Status s = map_.AllocateAt(result);
  if (!s.ok()) return Extent{};
  return result;
}

Status RunCacheAllocator::Allocate(uint64_t length, uint64_t extend_hint,
                                   ExtentList* out) {
  if (length == 0) return Status::InvalidArgument("zero-length allocation");
  if (length > map_.free_clusters()) {
    // Space pressure forces a journal commit before failing, as NTFS
    // does when the volume approaches full.
    LOR_RETURN_IF_ERROR(deferred_.Commit(&map_));
    if (length > map_.free_clusters()) {
      return Status::NoSpace("allocation exceeds free clusters");
    }
  }

  ExtentList& acquired = acquired_;
  acquired.clear();
  uint64_t remaining = length;

  if (options_.allow_extension && extend_hint != kNoHint) {
    const uint64_t got = map_.ExtendAt(extend_hint, remaining);
    if (got > 0) {
      acquired.push_back({extend_hint, got});
      remaining -= got;
    }
  }

  const bool textbook = IsTextbookFit(options_.selection);
  while (remaining > 0) {
    Extent e = textbook
                   ? map_.AllocateUpTo(remaining,
                                       TextbookFit(options_.selection))
                   : TakeRun(remaining);
    if (e.empty()) {
      for (const Extent& a : acquired) {
        Status s = map_.Free(a);
        (void)s;
      }
      return Status::NoSpace("free space exhausted mid-allocation");
    }
    acquired.push_back(e);
    remaining -= e.length;
  }

  for (const Extent& e : acquired) AppendCoalescing(out, e);
  return Status::OK();
}

Status RunCacheAllocator::Free(const Extent& extent) {
  if (extent.empty()) return Status::OK();
  if (options_.deferred_free) {
    deferred_.Defer(extent);
    return Status::OK();
  }
  return map_.Free(extent);
}

void RunCacheAllocator::Tick() {
  if (options_.deferred_free) {
    Status s = deferred_.Tick(&map_);
    (void)s;
  }
}

void RunCacheAllocator::CommitPending() {
  Status s = deferred_.Commit(&map_);
  (void)s;
}

std::string RunCacheAllocator::name() const {
  if (IsTextbookFit(options_.selection)) {
    return std::string(FitPolicyName(TextbookFit(options_.selection)));
  }
  return "ntfs-run-cache";
}

}  // namespace alloc
}  // namespace lor
