// LobAllocationUnit: page-granular allocation within extents owned by
// one allocation unit — SQL Server's IAM/PFS discipline for LOB data.
//
// Extents are acquired from the GAM (lowest-first from a scan hint) and
// *shared between blobs*: a blob's tail pages and the next blob's head
// pages can occupy the same extent. Pages freed by deletions leave
// partially-used extents whose free pages are reused by later writes
// (the page scan, too, resumes at the extent of the last allocation
// and wraps), so after churn a new blob's pages scatter across many
// partially-free extents — the sub-extent mixing that drives the
// paper's near-linear database fragmentation growth. A fully-freed
// extent is returned to the GAM (subject to the PageFile's
// deferred-release discipline).

#ifndef LOREPO_DB_LOB_ALLOCATION_UNIT_H_
#define LOREPO_DB_LOB_ALLOCATION_UNIT_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "alloc/extent.h"
#include "db/gam.h"
#include "db/page_file.h"
#include "util/result.h"
#include "util/status.h"

namespace lor {
namespace db {

/// One table's LOB allocation unit.
///
/// Bookkeeping is flat and O(1) per page operation: a per-extent free-
/// page bitmap indexed directly by extent id, plus a two-level bitmap
/// (GamBitmap reused as a membership index) over extents with free
/// pages so the from-hint scan is a summary-level word scan instead of
/// an ordered-set walk. This is the engine's hottest path — every blob
/// write and free goes through it page by page.
class LobAllocationUnit {
 public:
  explicit LobAllocationUnit(PageFile* file)
      : file_(file),
        bitmaps_(file->capacity_extents(), kUnowned),
        with_free_(file->capacity_extents()),
        pages_per_extent_(file->pages_per_extent()),
        all_free_(static_cast<uint16_t>((1u << pages_per_extent_) - 1)) {}

  /// Allocates one page, preferring free pages in owned extents before
  /// acquiring a new extent from the GAM.
  Result<uint64_t> AllocatePage();

  /// Allocates `count` pages — the identical page-id sequence, and the
  /// identical unit and file state, that `count` AllocatePage calls
  /// would produce, batched: one extent pick per owned extent, its free
  /// bits drained lowest-first as runs of set bits (countr_zero/
  /// countr_one), one AppendCoalescing per run. Once no owned extent has
  /// a free page, the whole fresh extents still needed come from one
  /// PageFile::AllocateExtentRun call (the same extents as that many
  /// AllocateExtent calls) and the leftover pages from one more extent.
  /// Appends the pages to `out` as coalesced page runs. On failure the
  /// pages acquired by this call are rolled back and `out` is untouched.
  Status AllocatePages(uint64_t count, alloc::ExtentList* out);

  /// Pages AllocatePages is certain to hand out without growing the
  /// data file: the free pages of owned extents (which PickExtent
  /// reaches before any fresh extent, unless in sequential fill) plus
  /// the GAM's free extents. A file growth charges a device write, so
  /// below this bound allocating early changes no charge.
  uint64_t pages_without_growth() const {
    return (sequential_fill_ ? 0 : reserved_free_) +
           file_->free_extents() * pages_per_extent_;
  }

  /// Frees one page; returns the extent to the GAM once it is entirely
  /// free.
  Status FreePage(uint64_t page_id);

  /// Frees a run of pages — equivalent to FreePage on each page of
  /// `run` in ascending order, batched: the whole run is checked first
  /// (on error nothing is freed), the buffer pool is invalidated once
  /// for the run, each extent's bitmap takes one mask, and the extents
  /// left entirely free (consecutive, since only the first and last can
  /// keep used pages) go back in one PageFile::FreeExtents call.
  Status FreePages(const alloc::Extent& run);

  /// Pages currently allocated through this unit.
  uint64_t allocated_pages() const { return allocated_pages_; }
  /// Free pages inside owned (partially used) extents.
  uint64_t reserved_free_pages() const { return reserved_free_; }
  /// Extents currently owned by the unit.
  uint64_t owned_extents() const { return owned_count_; }

  // -- Media quarantine ------------------------------------------------

  /// Marks a page pending-bad: when it is next freed (the repair path
  /// supersedes the blob with a safe write, then frees the old pages),
  /// it diverts to the quarantine list instead of becoming reusable.
  /// Its bitmap bit stays "used", so the page is never re-issued and
  /// its extent never returns to the GAM.
  void MarkPendingBad(uint64_t page_id) { pending_bad_pages_.insert(page_id); }

  /// Drops pending-bad marks that never reached a free (e.g. a repair
  /// whose rewrite failed and left the old blob in place).
  void ClearPendingBad() { pending_bad_pages_.clear(); }

  uint64_t pending_bad_count() const { return pending_bad_pages_.size(); }
  uint64_t quarantined_page_count() const { return quarantined_pages_.size(); }
  bool IsQuarantined(uint64_t page_id) const {
    return quarantined_pages_.count(page_id) != 0;
  }

  /// Sequential-fill mode for table rebuilds: while enabled, page
  /// allocation never reuses free pages in old partially-used extents;
  /// it only fills the tail of the most recently acquired extent or
  /// acquires a fresh one, so copies land contiguously.
  void set_sequential_fill(bool on) { sequential_fill_ = on; }

  /// Verifies internal bookkeeping (bitmaps vs counters vs index).
  Status CheckConsistency() const;

 private:
  /// Sentinel bitmap value for extents the unit does not own. Owned
  /// extents hold their free-page bits (bit i = page i of extent free);
  /// 0 means owned and fully used.
  static constexpr uint16_t kUnowned = 0xFFFF;

  /// Picks an owned extent with at least one free page, or returns
  /// kNoExtent: the first at or after the extent of the most recent
  /// allocation, wrapping — SQL Server caches allocation hints per unit
  /// rather than re-scanning from the front each time.
  uint64_t PickExtent();

  PageFile* file_;
  /// Free-page bitmap per extent id, kUnowned where not owned. Only
  /// extents with used pages are owned; an extent whose pages are all
  /// free is released back to the GAM.
  std::vector<uint16_t> bitmaps_;
  /// Membership index over extents with at least one free page.
  GamBitmap with_free_;
  /// Cached geometry: page <-> extent translation runs on every page
  /// operation, so avoid re-deriving it through the file.
  uint64_t pages_per_extent_;
  uint16_t all_free_;
  uint64_t hint_extent_ = 0;
  uint64_t allocated_pages_ = 0;
  uint64_t reserved_free_ = 0;
  uint64_t owned_count_ = 0;
  bool sequential_fill_ = false;
  /// Pages marked bad whose free has not happened yet (scrub state).
  std::unordered_set<uint64_t> pending_bad_pages_;
  /// Retired bad pages: bitmap bit held "used" forever, counted apart
  /// from allocated_pages_ (no blob owns them).
  std::unordered_set<uint64_t> quarantined_pages_;
};

}  // namespace db
}  // namespace lor

#endif  // LOREPO_DB_LOB_ALLOCATION_UNIT_H_
