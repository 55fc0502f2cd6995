// PageFile: the database data file — a page/extent space on the
// simulated device with SQL-Server-like autogrow and GAM allocation.
//
// Pages are 8 KB and extents are 8 pages (64 KB), as in SQL Server. The
// file starts small and grows by a fixed fraction whenever the GAM has
// no free extent, up to the device capacity. During bulk load this
// yields purely sequential allocation at the tail; after deletions the
// GAM scan resumes from the last allocated extent and wraps (SQL Server
// caches per-allocation-unit hints rather than rescanning from extent 0
// every time), handing back the first free extents past the hint.

#ifndef LOREPO_DB_PAGE_FILE_H_
#define LOREPO_DB_PAGE_FILE_H_

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "db/gam.h"
#include "sim/block_device.h"
#include "sim/buffer_pool.h"
#include "util/result.h"
#include "util/status.h"

namespace lor {
namespace db {

/// Configuration of the data file.
struct PageFileOptions {
  uint64_t page_bytes = 8192;
  uint64_t pages_per_extent = 8;  ///< 64 KB extents.
  /// Autogrow increment as a fraction of current file size (SQL Server's
  /// default growth setting).
  double autogrow_fraction = 0.10;
  /// Initial file size.
  uint64_t initial_bytes = 32 * kMiB;
  /// Cap on file size; 0 means the device capacity.
  uint64_t max_bytes = 0;
  /// Deferred deallocation: freed extents become reusable only after
  /// this many further extent *allocations* (SQL Server's deferred-drop
  /// and ghost-cleanup tasks release space asynchronously, so holes can
  /// open up in the middle of another object's streamed write). 0 =
  /// immediate release.
  uint32_t deferred_free_allocations = 16;
};

/// Counters for file maintenance activity.
struct PageFileStats {
  uint64_t growths = 0;
  uint64_t extents_allocated = 0;
  uint64_t extents_freed = 0;
};

/// Page/extent space on a block device.
class PageFile {
 public:
  PageFile(sim::BlockDevice* device, PageFileOptions options = {});

  uint64_t page_bytes() const { return options_.page_bytes; }
  uint64_t pages_per_extent() const { return options_.pages_per_extent; }
  uint64_t extent_bytes() const {
    return options_.page_bytes * options_.pages_per_extent;
  }
  /// Extents currently inside the file.
  uint64_t file_extents() const { return file_extents_; }
  /// Largest extent count the device can ever hold.
  uint64_t capacity_extents() const { return capacity_extents_; }
  uint64_t free_extents() const { return gam_.free_count(); }

  /// Byte offset of a page on the device.
  uint64_t PageOffset(uint64_t page_id) const {
    return page_id * options_.page_bytes;
  }
  /// First page of an extent.
  uint64_t ExtentFirstPage(uint64_t extent_id) const {
    return extent_id * options_.pages_per_extent;
  }

  /// Allocates the first free extent at or after the scan hint
  /// (wrapping), growing the file if necessary.
  Result<uint64_t> AllocateExtent();

  /// Allocates up to `count` (>= 1) consecutive extents: the first free
  /// run at or after the scan hint, wrapping, growing the file if
  /// nothing is free. The run may be shorter than requested; it stops at
  /// the first extent that is not free and before the next deferred free
  /// comes due. Its extents, and the state left behind, are exactly those
  /// of as many AllocateExtent calls.
  Result<std::pair<uint64_t, uint64_t>> AllocateExtentRun(uint64_t count);

  /// Returns `count` extents starting at `first` to the free pool.
  /// With deferred deallocation configured the extents only become
  /// allocatable after the configured number of further allocations.
  Status FreeExtents(uint64_t first, uint64_t count);

  /// Releases every pending deferred free immediately (the engine does
  /// this under space pressure before reporting an out-of-space error).
  /// Like every release of pending frees, it drops an entry whose GAM
  /// release fails (a double free) and reports the first such error
  /// once; the other entries are still released.
  Status ReleaseAllPending();

  /// Moves the GAM scan hint past the end of the file so subsequent
  /// allocations grow the file and land sequentially — how a rebuild
  /// into a fresh filegroup behaves.
  void SeekScanCursorToEnd() { scan_cursor_ = file_extents_; }

  /// Explicitly grows the file by up to `extents` (capped by the device
  /// capacity), returning how many were added. The new region is
  /// contiguous free space at the old end of file.
  uint64_t GrowBy(uint64_t extents);

  /// Extents freed but not yet reusable.
  uint64_t pending_free_extents() const { return pending_extents_; }

  /// Free now + pending + room the file could still grow into.
  uint64_t unused_extents() const {
    return gam_.free_count() + pending_extents_ +
           (capacity_extents_ - file_extents_);
  }

  /// Reads `count` pages starting at `first_page` as one device request.
  /// `out` receives raw page images when non-null.
  Status ReadPages(uint64_t first_page, uint64_t count,
                   std::vector<uint8_t>* out = nullptr);

  /// Writes `count` pages starting at `first_page` as one device
  /// request. `data` must be empty or exactly count * page_bytes.
  Status WritePages(uint64_t first_page, uint64_t count,
                    std::span<const uint8_t> data = {});

  /// One contiguous page run of a vectored submission. `src`/`dst` may
  /// be null (timing-only); when non-null they must cover
  /// `count * page_bytes()` bytes.
  struct PageRun {
    uint64_t first_page = 0;
    uint64_t count = 0;
    const uint8_t* src = nullptr;  ///< WritePagesV payload source.
    uint8_t* dst = nullptr;        ///< ReadPagesV payload destination.
  };

  /// Issues every run as one vectored device request: the whole batch
  /// is validated first, then charged exactly as the equivalent
  /// ReadPages-per-run loop (zero-count runs are skipped).
  Status ReadPagesV(std::span<const PageRun> runs);

  /// WritePagesV twin of ReadPagesV.
  Status WritePagesV(std::span<const PageRun> runs);

  /// Drops any cached frames covering `count` pages from `first_page` —
  /// called by every free path before pages change owner, so a stale
  /// (or dirty) frame can never be served to, or flushed over, the next
  /// allocation. No-op without an active buffer pool.
  void InvalidatePages(uint64_t first_page, uint64_t count);

  /// Reusable scratch for callers composing PageRun batch plans
  /// (BlobBtree's write slices and read-ahead). Contents are call-local
  /// — cleared by the borrower, never read across PageFile calls
  /// (ReadPagesV/WritePagesV lower into their own slice scratch).
  std::vector<PageRun>& plan_scratch() { return plan_scratch_; }

  const GamBitmap& gam() const { return gam_; }
  const PageFileStats& stats() const { return stats_; }
  sim::BlockDevice* device() { return device_; }

  /// File bytes currently allocated from the device.
  uint64_t file_bytes() const { return file_extents_ * extent_bytes(); }

 private:
  /// The device's buffer pool when one is attached and enabled, else
  /// null — the single check that keeps cache-size-0 a true no-op
  /// (disabled pools leave every call on its historical device path).
  sim::BufferPool* ActivePool() const;
  /// Grows the file by the autogrow increment; NoSpace at the cap.
  Status Grow();
  /// Validates `runs` and lowers them into `io_slices_`.
  Status CollectSlices(std::span<const PageRun> runs, bool write);
  /// Releases, oldest first, the deferred frees due by `due`.
  Status ReleasePending(uint64_t due);

  struct PendingFree {
    uint64_t due;  ///< alloc_counter_ value at which this releases.
    uint64_t first;
    uint64_t count;
  };

  sim::BlockDevice* device_;
  PageFileOptions options_;
  GamBitmap gam_;
  uint64_t file_extents_ = 0;
  uint64_t capacity_extents_ = 0;
  PageFileStats stats_;
  std::deque<PendingFree> pending_;  ///< FIFO by due time.
  uint64_t pending_extents_ = 0;
  uint64_t alloc_counter_ = 0;
  uint64_t scan_cursor_ = 0;  ///< GAM scan hint (last allocation end).
  /// Scratch for the vectored submissions (reused across calls).
  std::vector<sim::IoSlice> io_slices_;
  /// Scratch for pool-routed submissions.
  std::vector<sim::CacheSlice> cache_slices_;
  /// Batch-plan scratch loaned out via plan_scratch().
  std::vector<PageRun> plan_scratch_;
};

}  // namespace db
}  // namespace lor

#endif  // LOREPO_DB_PAGE_FILE_H_
