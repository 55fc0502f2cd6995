// BlobBtree: Exodus-style B-tree storage of large objects (the design
// SQL Server adopted for its BLOB storage; the paper cites Carey et
// al.'s EXODUS paper and Biliris's measurements of it).
//
// A BLOB is a sequence of 8 KB data pages plus a tree of pointer pages
// above them. Data pages are allocated extent-at-a-time from the GAM
// (lowest-free-first), which is exactly the reuse pattern that causes
// the database's fragmentation growth. Pointer pages are written with
// real serialized child references so the tree structure on "disk" can
// be independently re-parsed and verified.
//
// Caching model: pointer pages are assumed hot in the buffer pool
// (they are a few KB per multi-MB object), so traversals charge CPU per
// page; data pages always charge device reads, coalesced across
// physically contiguous page runs (read-ahead).

#ifndef LOREPO_DB_BLOB_BTREE_H_
#define LOREPO_DB_BLOB_BTREE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "alloc/extent.h"
#include "db/lob_allocation_unit.h"
#include "db/page_file.h"
#include "sim/op_cost_model.h"
#include "util/result.h"
#include "util/status.h"

namespace lor {
namespace db {

/// Physical description of one stored BLOB. Pages are allocated from a
/// LobAllocationUnit, so extents can be shared with other blobs; the
/// layout therefore tracks pages, not extents.
struct BlobLayout {
  /// Bytes of application data.
  uint64_t data_bytes = 0;
  /// Data pages in logical order, as page-unit extents (coalesced).
  alloc::ExtentList data_runs;
  /// Pointer (tree) pages, bottom-up then root last. Empty for single-
  /// page blobs, whose root is the lone data page.
  std::vector<uint64_t> pointer_pages;
  /// FNV-1a of the payload recorded at write time (host-side state for
  /// the crash-consistency fsck; charges nothing). Valid only when the
  /// blob was written with real bytes (DataMode::kRetain workloads).
  uint64_t payload_hash = 0;
  bool hash_valid = false;
  /// Per-block media checksums: one FNV-1a sum per kChecksumBlockBytes
  /// of payload, partial tail included (util/fnv.h). Recorded alongside
  /// payload_hash under the same validity flag; the read path verifies
  /// the sums covering the returned range so range reads do not need
  /// the whole object.
  std::vector<uint64_t> block_sums;

  uint64_t data_page_count() const { return TotalLength(data_runs); }
  uint64_t root_page() const {
    return pointer_pages.empty()
               ? (data_runs.empty() ? 0 : data_runs.front().start)
               : pointer_pages.back();
  }
  /// The paper's fragments/object metric over the data pages.
  uint64_t Fragments() const { return alloc::CountFragments(data_runs); }
};

/// Builder/reader for Exodus-style blob trees over a PageFile.
class BlobBtree {
 public:
  /// Bytes of payload per 8 KB data page (96-byte header).
  static uint64_t PayloadPerPage(const PageFile& file) {
    return file.page_bytes() - kPageHeaderBytes;
  }
  /// Child references per pointer page.
  static uint64_t Fanout(const PageFile& file) {
    return (file.page_bytes() - kPageHeaderBytes) / sizeof(uint64_t);
  }

  /// Number of data pages a blob of `nbytes` occupies.
  static uint64_t DataPagesFor(const PageFile& file, uint64_t nbytes);

  /// Allocates space for and writes a blob of `nbytes` through `unit`.
  ///
  /// `data` may be empty (timing-only) or exactly `nbytes`. The write is
  /// performed in `write_request_bytes` slices, as the client streams
  /// it, one vectored page write per slice; pages come from the unit
  /// in slice order, so the write request size shapes the physical
  /// layout (paper §5.4). When the unit and the GAM certainly hold the
  /// blob, its pages are allocated in one call — the unit changes only
  /// through AllocatePages, so the page sequence is the per-slice one —
  /// otherwise slice by slice, so growth and NoSpace land where they
  /// always did. A failed write frees every page the blob took.
  /// `costs` provides the client-stack bandwidth cap.
  static Result<BlobLayout> Write(PageFile* file, LobAllocationUnit* unit,
                                  uint64_t nbytes,
                                  std::span<const uint8_t> data,
                                  uint64_t write_request_bytes,
                                  const sim::OpCostModel& costs);

  /// Reads a blob back. Charges per-page CPU and coalesced device
  /// reads; fills `out` with the payload bytes when non-null.
  static Status Read(PageFile* file, const BlobLayout& layout,
                     const sim::OpCostModel& costs,
                     std::vector<uint8_t>* out = nullptr);

  /// A read cursor positioned inside a blob's data-page runs. A ReadAt
  /// resuming where the previous one stopped skips the pointer-page
  /// descent and the run scan — the sequential-read fast path an open
  /// handle keeps across calls. Invalidated by the owner whenever the
  /// layout it indexes into is replaced.
  struct ReadCursor {
    bool valid = false;
    uint64_t next_page = 0;   ///< Logical data-page index after the last read.
    size_t run_index = 0;     ///< Run containing next_page...
    uint64_t page_in_run = 0; ///< ...and the page offset inside it.
  };

  /// Reads `length` payload bytes starting at byte `offset`. Identical
  /// charging to Read for a whole-object pass (pointer-page descent +
  /// per-page CPU + coalesced device reads + stream penalty on the
  /// bytes delivered); with a `cursor` still positioned at `offset`,
  /// the descent and run scan are skipped.
  static Status ReadAt(PageFile* file, const BlobLayout& layout,
                       const sim::OpCostModel& costs, uint64_t offset,
                       uint64_t length, std::vector<uint8_t>* out = nullptr,
                       ReadCursor* cursor = nullptr);

  /// Frees every page of the blob back to the allocation unit (which
  /// returns fully-freed extents to the GAM).
  static Status Free(LobAllocationUnit* unit, const BlobLayout& layout);

  /// Re-parses the pointer pages from the device (kRetain mode only)
  /// and verifies they describe exactly `layout`'s data pages. Used by
  /// integrity tests.
  static Status VerifyTree(PageFile* file, const BlobLayout& layout);

  static constexpr uint64_t kPageHeaderBytes = 96;
};

}  // namespace db
}  // namespace lor

#endif  // LOREPO_DB_BLOB_BTREE_H_
