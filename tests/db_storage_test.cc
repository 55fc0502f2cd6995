// Tests for PageFile, BlobBtree, and MetadataTable.

#include <gtest/gtest.h>

#include <bit>
#include <iterator>
#include <memory>

#include "db/blob_btree.h"
#include "db/lob_allocation_unit.h"
#include "db/metadata_table.h"
#include "db/page_file.h"
#include "sim/buffer_pool.h"
#include "util/fnv.h"
#include "util/random.h"

namespace lor {
namespace db {
namespace {

std::unique_ptr<sim::BlockDevice> MakeDevice(
    uint64_t capacity = 512 * kMiB,
    sim::DataMode mode = sim::DataMode::kMetadataOnly) {
  return std::make_unique<sim::BlockDevice>(
      sim::DiskParams::St3400832as().WithCapacity(capacity), mode);
}

std::vector<uint8_t> Pattern(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> data(n);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  return data;
}

struct BlobRig {
  PageFile file;
  LobAllocationUnit unit;
  explicit BlobRig(sim::BlockDevice* dev, PageFileOptions opts = {})
      : file(dev, opts), unit(&file) {}
};

TEST(PageFileTest, InitialSizeAndGeometry) {
  auto dev = MakeDevice();
  PageFile file(dev.get());
  EXPECT_EQ(file.page_bytes(), 8192u);
  EXPECT_EQ(file.extent_bytes(), 64 * kKiB);
  EXPECT_EQ(file.file_bytes(), 32 * kMiB);
  EXPECT_EQ(file.free_extents(), 32 * kMiB / (64 * kKiB));
}

TEST(PageFileTest, AllocateSequentialOnFreshFile) {
  auto dev = MakeDevice();
  PageFile file(dev.get());
  for (uint64_t i = 0; i < 10; ++i) {
    auto e = file.AllocateExtent();
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(*e, i);
  }
}

TEST(PageFileTest, AutogrowWhenExhausted) {
  auto dev = MakeDevice();
  PageFileOptions opts;
  opts.initial_bytes = kMiB;  // 16 extents.
  PageFile file(dev.get(), opts);
  for (int i = 0; i < 16; ++i) ASSERT_TRUE(file.AllocateExtent().ok());
  EXPECT_EQ(file.free_extents(), 0u);
  auto e = file.AllocateExtent();
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(file.stats().growths, 1u);
  EXPECT_GT(file.file_bytes(), kMiB);
}

TEST(PageFileTest, GrowthCappedByDevice) {
  auto dev = MakeDevice(4 * kMiB);
  PageFileOptions opts;
  opts.initial_bytes = 4 * kMiB;
  PageFile file(dev.get(), opts);
  const uint64_t total = file.capacity_extents();
  for (uint64_t i = 0; i < total; ++i) {
    ASSERT_TRUE(file.AllocateExtent().ok());
  }
  EXPECT_TRUE(file.AllocateExtent().status().IsNoSpace());
}

TEST(PageFileTest, FreeAndReuseLowest) {
  auto dev = MakeDevice();
  PageFileOptions opts;
  opts.deferred_free_allocations = 0;  // Immediate release.
  // Eight extents and no autogrow: the hint scan wraps onto the holes.
  opts.initial_bytes = 8 * 64 * kKiB;
  opts.max_bytes = opts.initial_bytes;
  PageFile file(dev.get(), opts);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(file.AllocateExtent().ok());
  ASSERT_TRUE(file.FreeExtents(2, 1).ok());
  ASSERT_TRUE(file.FreeExtents(5, 2).ok());
  auto e = file.AllocateExtent();
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(*e, 2u);
}

TEST(PageFileTest, DeferredFreeDelaysReuse) {
  auto dev = MakeDevice();
  PageFileOptions opts;
  opts.deferred_free_allocations = 4;
  // Twelve extents and no autogrow: four stay free for the delay, then
  // the hint scan wraps onto the released hole.
  opts.initial_bytes = 12 * 64 * kKiB;
  opts.max_bytes = opts.initial_bytes;
  PageFile file(dev.get(), opts);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(file.AllocateExtent().ok());
  ASSERT_TRUE(file.FreeExtents(2, 1).ok());
  EXPECT_EQ(file.pending_free_extents(), 1u);
  // The freed extent is invisible for the next 4 allocations.
  for (int i = 0; i < 4; ++i) {
    auto e = file.AllocateExtent();
    ASSERT_TRUE(e.ok());
    EXPECT_NE(*e, 2u);
  }
  auto e = file.AllocateExtent();
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(*e, 2u);
  EXPECT_EQ(file.pending_free_extents(), 0u);
}

TEST(PageFileTest, ReleaseAllPendingUnderPressure) {
  auto dev = MakeDevice(4 * kMiB);
  PageFileOptions opts;
  opts.initial_bytes = 4 * kMiB;
  opts.deferred_free_allocations = 1000;
  PageFile file(dev.get(), opts);
  const uint64_t total = file.capacity_extents();
  for (uint64_t i = 0; i < total; ++i) ASSERT_TRUE(file.AllocateExtent().ok());
  ASSERT_TRUE(file.FreeExtents(0, 1).ok());
  // The pending extent must be force-released rather than failing.
  EXPECT_TRUE(file.AllocateExtent().ok());
  EXPECT_TRUE(file.AllocateExtent().status().IsNoSpace());
}

TEST(PageFileTest, FailedDeferredReleaseIsReportedOnceAndDropped) {
  // Freeing extent 2 twice queues a release that fails when it comes
  // due. That allocation reports the error; the entry leaves the queue,
  // the good entries are released, and later allocations succeed.
  auto dev = MakeDevice();
  PageFileOptions opts;
  opts.deferred_free_allocations = 4;
  PageFile file(dev.get(), opts);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(file.AllocateExtent().ok());
  ASSERT_TRUE(file.FreeExtents(2, 1).ok());
  ASSERT_TRUE(file.FreeExtents(3, 1).ok());
  ASSERT_TRUE(file.FreeExtents(2, 1).ok());
  EXPECT_EQ(file.pending_free_extents(), 3u);
  int failures = 0;
  for (int i = 0; i < 60; ++i) {
    auto e = file.AllocateExtent();
    if (!e.ok()) {
      EXPECT_TRUE(e.status().IsInvalidArgument()) << e.status().ToString();
      ++failures;
    }
  }
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(file.pending_free_extents(), 0u);
  EXPECT_TRUE(file.gam().CheckConsistency().ok());
  EXPECT_TRUE(file.ReleaseAllPending().ok());
}

::testing::AssertionResult SameFileState(const PageFile& a,
                                         const PageFile& b) {
  if (a.stats().growths != b.stats().growths ||
      a.stats().extents_allocated != b.stats().extents_allocated ||
      a.stats().extents_freed != b.stats().extents_freed) {
    return ::testing::AssertionFailure() << "stats differ";
  }
  if (a.free_extents() != b.free_extents()) {
    return ::testing::AssertionFailure()
           << "free_extents " << a.free_extents() << " vs "
           << b.free_extents();
  }
  if (a.pending_free_extents() != b.pending_free_extents()) {
    return ::testing::AssertionFailure()
           << "pending_free_extents " << a.pending_free_extents() << " vs "
           << b.pending_free_extents();
  }
  if (a.file_extents() != b.file_extents()) {
    return ::testing::AssertionFailure()
           << "file_extents " << a.file_extents() << " vs "
           << b.file_extents();
  }
  return ::testing::AssertionSuccess();
}

// Drives two twin files through one seeded churn: `run` takes each
// request through AllocateExtentRun, `single` through one
// AllocateExtent per extent. The extent ids and the files' state must
// agree after every call. The file starts at 4 extents on a 64-extent
// device, so it grows, the scan wraps, and a full file reaches NoSpace
// (after force-releasing the pending frees, when frees are deferred).
void ExpectExtentRunMatchesSingleExtentCalls(uint32_t deferred) {
  auto dev_run = MakeDevice(4 * kMiB);
  auto dev_single = MakeDevice(4 * kMiB);
  PageFileOptions opts;
  opts.initial_bytes = 4 * 64 * kKiB;
  opts.deferred_free_allocations = deferred;
  PageFile run_file(dev_run.get(), opts);
  PageFile single_file(dev_single.get(), opts);
  Rng rng(deferred + 17);
  std::vector<alloc::Extent> live;  // Extent runs held in both files.
  uint64_t multi_extent_runs = 0;
  uint64_t no_space = 0;
  uint64_t forced_releases = 0;
  for (int step = 0; step < 3000; ++step) {
    if (live.empty() || rng.Bernoulli(0.4)) {
      uint64_t want = 1 + rng.Uniform(rng.Bernoulli(0.3) ? 40 : 6);
      while (want > 0) {
        const bool full = run_file.free_extents() == 0 &&
                          run_file.file_extents() ==
                              run_file.capacity_extents();
        auto run = run_file.AllocateExtentRun(want);
        if (!run.ok()) {
          auto e = single_file.AllocateExtent();
          ASSERT_FALSE(e.ok()) << "step " << step;
          ASSERT_EQ(e.status().ToString(), run.status().ToString());
          ASSERT_TRUE(SameFileState(run_file, single_file))
              << "step " << step;
          ++no_space;
          break;
        }
        const auto [first, length] = *run;
        ASSERT_GE(length, 1u) << "step " << step;
        ASSERT_LE(length, want) << "step " << step;
        for (uint64_t i = 0; i < length; ++i) {
          auto e = single_file.AllocateExtent();
          ASSERT_TRUE(e.ok()) << "step " << step;
          ASSERT_EQ(*e, first + i) << "step " << step;
        }
        ASSERT_TRUE(SameFileState(run_file, single_file)) << "step " << step;
        live.push_back({first, length});
        if (length > 1) ++multi_extent_runs;
        if (full) ++forced_releases;
        want -= length;
      }
    } else {
      // Free a whole run or a slice of one; the rest stays live.
      const size_t i = rng.Uniform(live.size());
      const alloc::Extent held = live[i];
      const uint64_t skip = rng.Uniform(held.length);
      const uint64_t len = 1 + rng.Uniform(held.length - skip);
      ASSERT_TRUE(run_file.FreeExtents(held.start + skip, len).ok());
      ASSERT_TRUE(single_file.FreeExtents(held.start + skip, len).ok());
      ASSERT_TRUE(SameFileState(run_file, single_file)) << "step " << step;
      live[i] = live.back();
      live.pop_back();
      if (skip > 0) live.push_back({held.start, skip});
      if (skip + len < held.length) {
        live.push_back({held.start + skip + len, held.length - skip - len});
      }
    }
  }
  EXPECT_TRUE(run_file.gam().CheckConsistency().ok());
  EXPECT_EQ(run_file.file_extents(), run_file.capacity_extents());
  EXPECT_GT(multi_extent_runs, 40u);
  EXPECT_GT(no_space, 10u);
  if (deferred > 0) {
    EXPECT_GT(forced_releases, 0u);
  }
}

TEST(PageFileTest, ExtentRunMatchesSingleExtentCalls) {
  for (const uint32_t deferred : {0u, 1u, 16u}) {
    SCOPED_TRACE(deferred);
    ExpectExtentRunMatchesSingleExtentCalls(deferred);
  }
}

TEST(PageFileTest, PageIoBoundsChecked) {
  auto dev = MakeDevice();
  PageFileOptions opts;
  opts.initial_bytes = kMiB;
  PageFile file(dev.get(), opts);
  EXPECT_TRUE(file.ReadPages(0, 8).ok());
  const uint64_t file_pages = file.file_extents() * file.pages_per_extent();
  EXPECT_TRUE(file.ReadPages(file_pages, 1).IsInvalidArgument());
  EXPECT_TRUE(file.WritePages(file_pages - 1, 2).IsInvalidArgument());
  EXPECT_TRUE(file.WritePages(file_pages - 1, 1).ok());
}

TEST(BlobBtreeTest, DataPagesForRoundsUp) {
  auto dev = MakeDevice();
  PageFile file(dev.get());
  const uint64_t payload = BlobBtree::PayloadPerPage(file);
  EXPECT_EQ(BlobBtree::DataPagesFor(file, 1), 1u);
  EXPECT_EQ(BlobBtree::DataPagesFor(file, payload), 1u);
  EXPECT_EQ(BlobBtree::DataPagesFor(file, payload + 1), 2u);
}

TEST(BlobBtreeTest, SmallBlobSinglePageNoPointers) {
  auto dev = MakeDevice();
  BlobRig rig(dev.get());
  auto layout =
      BlobBtree::Write(&rig.file, &rig.unit, 1000, {}, 64 * kKiB, {});
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(layout->data_page_count(), 1u);
  EXPECT_TRUE(layout->pointer_pages.empty());
  EXPECT_EQ(layout->Fragments(), 1u);
}

TEST(BlobBtreeTest, BulkLoadBlobIsContiguous) {
  auto dev = MakeDevice();
  BlobRig rig(dev.get());
  auto layout =
      BlobBtree::Write(&rig.file, &rig.unit, 10 * kMiB, {}, 64 * kKiB, {});
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(layout->Fragments(), 1u);
  EXPECT_EQ(layout->data_page_count(),
            BlobBtree::DataPagesFor(rig.file, 10 * kMiB));
  EXPECT_FALSE(layout->pointer_pages.empty());
  EXPECT_TRUE(rig.unit.CheckConsistency().ok());
}

TEST(BlobBtreeTest, RoundTripData) {
  auto dev = MakeDevice(512 * kMiB, sim::DataMode::kRetain);
  BlobRig rig(dev.get());
  const auto data = Pattern(300 * kKiB + 77, 11);
  auto layout = BlobBtree::Write(&rig.file, &rig.unit, data.size(), data,
                                 64 * kKiB, {});
  ASSERT_TRUE(layout.ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(BlobBtree::Read(&rig.file, *layout, {}, &out).ok());
  EXPECT_EQ(out, data);
}

TEST(BlobBtreeTest, PointerTreeVerifies) {
  auto dev = MakeDevice(512 * kMiB, sim::DataMode::kRetain);
  BlobRig rig(dev.get());
  const auto data = Pattern(5 * kMiB, 12);
  auto layout = BlobBtree::Write(&rig.file, &rig.unit, data.size(), data,
                                 64 * kKiB, {});
  ASSERT_TRUE(layout.ok());
  EXPECT_TRUE(BlobBtree::VerifyTree(&rig.file, *layout).ok());
}

TEST(BlobBtreeTest, FreeReturnsAllPages) {
  auto dev = MakeDevice();
  PageFileOptions opts;
  opts.deferred_free_allocations = 0;
  BlobRig rig(dev.get(), opts);
  auto layout =
      BlobBtree::Write(&rig.file, &rig.unit, 2 * kMiB, {}, 64 * kKiB, {});
  ASSERT_TRUE(layout.ok());
  const uint64_t allocated = rig.unit.allocated_pages();
  EXPECT_EQ(allocated,
            layout->data_page_count() + layout->pointer_pages.size());
  ASSERT_TRUE(BlobBtree::Free(&rig.unit, *layout).ok());
  EXPECT_EQ(rig.unit.allocated_pages(), 0u);
  EXPECT_EQ(rig.unit.owned_extents(), 0u);
  EXPECT_TRUE(rig.unit.CheckConsistency().ok());
}

TEST(BlobBtreeTest, FragmentedFreeSpaceFragmentsBlob) {
  auto dev = MakeDevice();
  PageFileOptions opts;
  opts.initial_bytes = 8 * kMiB;
  opts.max_bytes = 8 * kMiB;  // No autogrow: force reuse of holes.
  opts.deferred_free_allocations = 0;
  BlobRig rig(dev.get(), opts);
  // Allocate every extent, then free every other one.
  std::vector<uint64_t> all;
  while (rig.file.free_extents() > 0) {
    auto e = rig.file.AllocateExtent();
    ASSERT_TRUE(e.ok());
    all.push_back(*e);
  }
  for (size_t i = 0; i < all.size(); i += 2) {
    ASSERT_TRUE(rig.file.FreeExtents(all[i], 1).ok());
  }
  // A 1 MB blob must now be assembled from scattered single-extent
  // holes.
  auto layout =
      BlobBtree::Write(&rig.file, &rig.unit, kMiB, {}, 64 * kKiB, {});
  ASSERT_TRUE(layout.ok());
  EXPECT_GT(layout->Fragments(), 8u);
}

TEST(BlobBtreeTest, InvalidArguments) {
  auto dev = MakeDevice();
  BlobRig rig(dev.get());
  EXPECT_TRUE(BlobBtree::Write(&rig.file, &rig.unit, 0, {}, 64 * kKiB, {})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(BlobBtree::Write(&rig.file, &rig.unit, 100, {}, 0, {})
                  .status()
                  .IsInvalidArgument());
  std::vector<uint8_t> tiny(3);
  EXPECT_TRUE(BlobBtree::Write(&rig.file, &rig.unit, 100, tiny, 64 * kKiB, {})
                  .status()
                  .IsInvalidArgument());
}

// -- Blob write exactness ---------------------------------------------
//
// Pins what BlobBtree::Write decides and charges: the page runs, a
// digest of the device's request counters and time bits, and the unit
// and GAM counters after every blob of a seeded churn, at request sizes
// from 16 KiB to 1 MiB (some not a multiple of the 8,096-byte page
// payload), with the buffer pool off and on, plus a volume that runs out
// of space mid-blob.

uint64_t Fold(uint64_t hash, uint64_t value) {
  return (hash ^ value) * kFnvPrime;
}

uint64_t FoldBlob(uint64_t h, const Result<BlobLayout>& layout,
                  sim::BlockDevice* dev, const BlobRig& rig) {
  h = Fold(h, static_cast<uint64_t>(layout.status().code()));
  if (layout.ok()) {
    for (const alloc::Extent& run : layout->data_runs) {
      h = Fold(Fold(h, run.start), run.length);
    }
    for (const uint64_t page : layout->pointer_pages) h = Fold(h, page);
  }
  const sim::IoStats& io = dev->stats();
  for (const uint64_t v :
       {std::bit_cast<uint64_t>(dev->clock().now()), io.writes,
        io.bytes_written, io.seeks, io.sequential_hits, io.vectored_requests,
        io.coalesced_runs, std::bit_cast<uint64_t>(io.transfer_time_s)}) {
    h = Fold(h, v);
  }
  for (const uint64_t v :
       {rig.unit.allocated_pages(), rig.unit.reserved_free_pages(),
        rig.unit.owned_extents(), rig.file.free_extents(),
        rig.file.pending_free_extents(), rig.file.file_extents(),
        rig.file.stats().growths, rig.file.stats().extents_allocated}) {
    h = Fold(h, v);
  }
  return h;
}

uint64_t BlobWriteDigest(uint64_t request_bytes, uint64_t pool_bytes) {
  auto dev = MakeDevice();
  sim::BufferPoolOptions pool_options;
  pool_options.capacity_bytes = pool_bytes;
  sim::BufferPool pool(dev.get(), pool_options);
  dev->AttachBufferPool(&pool);
  BlobRig rig(dev.get());
  Rng rng(request_bytes + pool_bytes);
  const uint64_t sizes[] = {10 * kMiB, kMiB + 77, 300 * kKiB, 8000,
                            2 * kMiB};
  std::vector<BlobLayout> live;
  uint64_t h = kFnvBasis;
  for (int step = 0; step < 80; ++step) {
    const uint64_t size = sizes[rng.Uniform(std::size(sizes))];
    auto layout =
        BlobBtree::Write(&rig.file, &rig.unit, size, {}, request_bytes, {});
    EXPECT_TRUE(layout.ok()) << "step " << step;
    h = FoldBlob(h, layout, dev.get(), rig);
    if (layout.ok()) live.push_back(*std::move(layout));
    if (live.size() > 10) {
      const size_t victim = rng.Uniform(live.size());
      EXPECT_TRUE(BlobBtree::Free(&rig.unit, live[victim]).ok());
      live[victim] = std::move(live.back());
      live.pop_back();
    }
  }
  EXPECT_TRUE(rig.unit.CheckConsistency().ok());
  return h;
}

uint64_t NoSpaceMidBlobDigest() {
  auto dev = MakeDevice();
  PageFileOptions opts;
  opts.initial_bytes = 8 * kMiB;
  opts.max_bytes = 12 * kMiB;
  BlobRig rig(dev.get(), opts);
  uint64_t h = kFnvBasis;
  std::vector<BlobLayout> live;
  for (const uint64_t size : {3 * kMiB, 3 * kMiB, 3 * kMiB}) {
    auto layout =
        BlobBtree::Write(&rig.file, &rig.unit, size, {}, 64 * kKiB, {});
    EXPECT_TRUE(layout.ok());
    h = FoldBlob(h, layout, dev.get(), rig);
    live.push_back(*std::move(layout));
  }
  // Frees open holes in the middle of the file; the next blob fills
  // them and then runs out of space part way.
  EXPECT_TRUE(BlobBtree::Free(&rig.unit, live[1]).ok());
  auto failed =
      BlobBtree::Write(&rig.file, &rig.unit, 6 * kMiB, {}, 64 * kKiB, {});
  EXPECT_TRUE(failed.status().IsNoSpace());
  h = FoldBlob(h, failed, dev.get(), rig);
  EXPECT_TRUE(rig.unit.CheckConsistency().ok());
  // The space the failed blob took is back: a blob that fits succeeds.
  auto fits =
      BlobBtree::Write(&rig.file, &rig.unit, 2 * kMiB, {}, 64 * kKiB, {});
  EXPECT_TRUE(fits.ok());
  h = FoldBlob(h, fits, dev.get(), rig);
  EXPECT_TRUE(rig.unit.CheckConsistency().ok());
  return h;
}

// A blob whose pages were all taken ahead and whose write fails part
// way frees every one of them. The unit allocates from a large file
// while the blob is written to a smaller one, so the first slice whose
// pages lie past the smaller file's end fails.
TEST(BlobBtreeTest, FailedWriteReleasesPagesTakenAhead) {
  auto big_dev = MakeDevice(256 * kMiB);
  auto small_dev = MakeDevice(16 * kMiB);
  PageFileOptions opts;
  opts.initial_bytes = 64 * kMiB;
  opts.deferred_free_allocations = 0;
  PageFile big(big_dev.get(), opts);
  PageFile small(small_dev.get(), opts);
  LobAllocationUnit unit(&big);
  auto first =
      BlobBtree::Write(&big, &unit, 12 * kMiB, {}, 64 * kKiB, {});
  ASSERT_TRUE(first.ok());
  const uint64_t pages = unit.allocated_pages();
  const uint64_t free_extents = big.free_extents();
  const uint64_t writes = small_dev->stats().writes;
  ASSERT_GE(unit.pages_without_growth(),
            BlobBtree::DataPagesFor(big, 8 * kMiB));
  auto failed =
      BlobBtree::Write(&small, &unit, 8 * kMiB, {}, 64 * kKiB, {});
  EXPECT_TRUE(failed.status().IsInvalidArgument());
  EXPECT_GT(small_dev->stats().writes, writes);  // Failed part way.
  EXPECT_EQ(unit.allocated_pages(), pages);
  EXPECT_EQ(big.free_extents(), free_extents);
  EXPECT_TRUE(unit.CheckConsistency().ok());
  ASSERT_TRUE(BlobBtree::Free(&unit, *first).ok());
  EXPECT_EQ(unit.allocated_pages(), 0u);
  EXPECT_TRUE(unit.CheckConsistency().ok());
}

TEST(BlobBtreeTest, WriteDecisionsArePinned) {
  uint64_t pin = kFnvBasis;
  for (const uint64_t request :
       {16 * kKiB, 64 * kKiB, 64 * kKiB + 3000, uint64_t{100000}, kMiB}) {
    for (const uint64_t pool : {uint64_t{0}, 8 * kMiB}) {
      pin = Fold(pin, BlobWriteDigest(request, pool));
    }
  }
  pin = Fold(pin, NoSpaceMidBlobDigest());
  EXPECT_EQ(pin, 0x935a949ea531e416ull) << std::hex << pin;
}

TEST(LobAllocationUnitTest, SharesExtentsBetweenAllocations) {
  auto dev = MakeDevice();
  PageFile file(dev.get());
  LobAllocationUnit unit(&file);
  // Nine pages: the first extent (8 pages) is shared with the ninth.
  std::vector<uint64_t> pages;
  for (int i = 0; i < 9; ++i) {
    auto p = unit.AllocatePage();
    ASSERT_TRUE(p.ok());
    pages.push_back(*p);
  }
  EXPECT_EQ(unit.owned_extents(), 2u);
  EXPECT_EQ(unit.reserved_free_pages(), 7u);
  EXPECT_TRUE(unit.CheckConsistency().ok());
}

TEST(LobAllocationUnitTest, FreedPagesReusedBeforeNewExtents) {
  auto dev = MakeDevice();
  PageFile file(dev.get());
  LobAllocationUnit unit(&file);
  std::vector<uint64_t> pages;
  for (int i = 0; i < 16; ++i) {
    auto p = unit.AllocatePage();
    ASSERT_TRUE(p.ok());
    pages.push_back(*p);
  }
  ASSERT_TRUE(unit.FreePage(pages[3]).ok());
  auto p = unit.AllocatePage();
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(*p, pages[3]);
  EXPECT_TRUE(unit.CheckConsistency().ok());
}

TEST(LobAllocationUnitTest, FullyFreeExtentReturnsToGam) {
  auto dev = MakeDevice();
  PageFileOptions opts;
  opts.deferred_free_allocations = 0;
  PageFile file(dev.get(), opts);
  LobAllocationUnit unit(&file);
  std::vector<uint64_t> pages;
  for (uint64_t i = 0; i < file.pages_per_extent(); ++i) {
    auto p = unit.AllocatePage();
    ASSERT_TRUE(p.ok());
    pages.push_back(*p);
  }
  EXPECT_EQ(unit.owned_extents(), 1u);
  const uint64_t extent = pages[0] / file.pages_per_extent();
  for (uint64_t p : pages) ASSERT_TRUE(unit.FreePage(p).ok());
  EXPECT_EQ(unit.owned_extents(), 0u);
  EXPECT_TRUE(file.gam().IsFree(extent));
}

TEST(LobAllocationUnitTest, DoubleFreeAndForeignPageRejected) {
  auto dev = MakeDevice();
  PageFile file(dev.get());
  LobAllocationUnit unit(&file);
  auto p = unit.AllocatePage();
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(unit.FreePage(*p).ok());
  EXPECT_TRUE(unit.FreePage(*p).IsInvalidArgument());
  EXPECT_TRUE(unit.FreePage(100000).IsInvalidArgument());
}

TEST(LobAllocationUnitTest, RandomChurnStaysConsistent) {
  auto dev = MakeDevice();
  PageFile file(dev.get());
  LobAllocationUnit unit(&file);
  Rng rng(33);
  std::vector<uint64_t> live;
  for (int op = 0; op < 20000; ++op) {
    if (live.empty() || rng.Bernoulli(0.55)) {
      auto p = unit.AllocatePage();
      ASSERT_TRUE(p.ok());
      live.push_back(*p);
    } else {
      const size_t i = rng.Uniform(live.size());
      ASSERT_TRUE(unit.FreePage(live[i]).ok());
      live[i] = live.back();
      live.pop_back();
    }
  }
  EXPECT_EQ(unit.allocated_pages(), live.size());
  EXPECT_TRUE(unit.CheckConsistency().ok());
}

// Runs one seeded churn on two units over two page files: `batched`
// goes through AllocatePages/FreePages, `single` through per-page
// AllocatePage/FreePage. Every observable of the unit, the file and
// (when `pool_bytes` > 0) the buffer pool must agree after every step.
// Requests run up to one 10 MiB blob (1,296 pages), far past the
// 16-allocation deferral window. A `device_bytes` smaller than the
// churn's live set runs out of space part way through requests: both
// units must fail at the same call, and AllocatePages' rollback must
// match freeing the per-page unit's pages of that call.
void ExpectBatchedCallsMatchPerPageCalls(uint64_t pool_bytes,
                                         uint64_t device_bytes = 512 * kMiB) {
  auto dev_a = MakeDevice(device_bytes);
  auto dev_b = MakeDevice(device_bytes);
  sim::BufferPoolOptions pool_options;
  pool_options.capacity_bytes = pool_bytes;
  sim::BufferPool pool_a(dev_a.get(), pool_options);
  sim::BufferPool pool_b(dev_b.get(), pool_options);
  dev_a->AttachBufferPool(&pool_a);
  dev_b->AttachBufferPool(&pool_b);
  // A small initial file, so the file grows under the churn.
  PageFileOptions options;
  options.initial_bytes = 2 * kMiB;
  BlobRig batched(dev_a.get(), options);
  BlobRig single(dev_b.get(), options);
  Rng rng(pool_bytes + device_bytes + 91);
  std::vector<alloc::Extent> live;  // Page runs held by both units.
  uint64_t live_pages = 0;
  uint64_t whole_extent_frees = 0;
  uint64_t mid_run_failures = 0;
  for (int step = 0; step < 6000; ++step) {
    if (live.empty() || (live_pages < 6000 && rng.Bernoulli(0.5))) {
      const uint64_t limit = rng.Bernoulli(0.05)  ? 1296
                             : rng.Bernoulli(0.2) ? 160
                                                  : 20;
      const uint64_t count = 1 + rng.Uniform(limit);
      const uint64_t extents_before = batched.file.stats().extents_allocated;
      alloc::ExtentList got_a;
      const Status status_a = batched.unit.AllocatePages(count, &got_a);
      alloc::ExtentList got_b;
      Status status_b = Status::OK();
      for (uint64_t i = 0; i < count && status_b.ok(); ++i) {
        auto page = single.unit.AllocatePage();
        if (page.ok()) {
          alloc::AppendCoalescing(&got_b, {*page, 1});
        } else {
          status_b = page.status();
        }
      }
      ASSERT_EQ(status_a.ToString(), status_b.ToString()) << "step " << step;
      if (!status_a.ok()) {
        ASSERT_TRUE(status_a.IsNoSpace()) << "step " << step;
        // Undo the per-page unit's pages as AllocatePages' rollback does.
        for (const alloc::Extent& run : got_b) {
          for (uint64_t p = run.start; p < run.end(); ++p) {
            ASSERT_TRUE(single.unit.FreePage(p).ok()) << "step " << step;
          }
        }
        // The failed call took fresh extents before it ran out.
        if (batched.file.stats().extents_allocated > extents_before + 1) {
          ++mid_run_failures;
        }
      }
      ASSERT_EQ(got_a, status_a.ok() ? got_b : alloc::ExtentList{})
          << "step " << step;
      for (const alloc::Extent& run : got_a) {
        live.push_back(run);
        live_pages += run.length;
        if (pool_bytes > 0) {
          ASSERT_TRUE(batched.file.WritePages(run.start, run.length).ok());
          ASSERT_TRUE(single.file.WritePages(run.start, run.length).ok());
        }
      }
    } else {
      // Free a whole run or a slice of one; the rest stays live.
      const size_t i = rng.Uniform(live.size());
      const alloc::Extent run = live[i];
      const uint64_t skip = rng.Bernoulli(0.5) ? 0 : rng.Uniform(run.length);
      const uint64_t len =
          rng.Bernoulli(0.5) ? run.length - skip
                             : 1 + rng.Uniform(run.length - skip);
      const alloc::Extent freed{run.start + skip, len};
      if (pool_bytes > 0 && rng.Bernoulli(0.5)) {
        ASSERT_TRUE(batched.file.ReadPages(run.start, run.length).ok());
        ASSERT_TRUE(single.file.ReadPages(run.start, run.length).ok());
      }
      const uint64_t freed_before = batched.file.stats().extents_freed;
      ASSERT_TRUE(batched.unit.FreePages(freed).ok()) << "step " << step;
      for (uint64_t p = freed.start; p < freed.end(); ++p) {
        ASSERT_TRUE(single.unit.FreePage(p).ok()) << "step " << step;
      }
      if (batched.file.stats().extents_freed > freed_before + 1) {
        ++whole_extent_frees;
      }
      live[i] = live.back();
      live.pop_back();
      live_pages -= len;
      if (skip > 0) live.push_back({run.start, skip});
      if (freed.end() < run.end()) {
        live.push_back({freed.end(), run.end() - freed.end()});
      }
    }
    const LobAllocationUnit& a = batched.unit;
    const LobAllocationUnit& b = single.unit;
    ASSERT_EQ(a.allocated_pages(), live_pages) << "step " << step;
    ASSERT_EQ(a.allocated_pages(), b.allocated_pages()) << "step " << step;
    ASSERT_EQ(a.reserved_free_pages(), b.reserved_free_pages())
        << "step " << step;
    ASSERT_EQ(a.owned_extents(), b.owned_extents()) << "step " << step;
    ASSERT_EQ(batched.file.stats().extents_freed,
              single.file.stats().extents_freed)
        << "step " << step;
    ASSERT_EQ(batched.file.pending_free_extents(),
              single.file.pending_free_extents())
        << "step " << step;
    ASSERT_EQ(batched.file.gam().free_count(), single.file.gam().free_count())
        << "step " << step;
    ASSERT_EQ(pool_a.stats().invalidations, pool_b.stats().invalidations)
        << "step " << step;
    ASSERT_EQ(pool_a.frame_count(), pool_b.frame_count()) << "step " << step;
  }
  EXPECT_TRUE(batched.unit.CheckConsistency().ok());
  EXPECT_TRUE(single.unit.CheckConsistency().ok());
  // Frees released several consecutive extents at once.
  EXPECT_GT(whole_extent_frees, 50u);
  if (pool_bytes > 0) {
    EXPECT_GT(pool_a.stats().invalidations, 100u);
  }
  if (device_bytes < 6000 * batched.file.page_bytes()) {
    EXPECT_GT(mid_run_failures, 10u);
  }
}

TEST(LobAllocationUnitTest, BatchedCallsMatchPerPageCalls) {
  ExpectBatchedCallsMatchPerPageCalls(0);
}

TEST(LobAllocationUnitTest, BatchedCallsMatchPerPageCallsWithBufferPool) {
  ExpectBatchedCallsMatchPerPageCalls(4 * kMiB);
}

TEST(LobAllocationUnitTest, BatchedCallsMatchPerPageCallsOutOfSpace) {
  ExpectBatchedCallsMatchPerPageCalls(0, 24 * kMiB);
}

TEST(MetadataTableTest, InsertLookupDelete) {
  auto dev = MakeDevice();
  PageFile file(dev.get());
  sim::OpCostModel costs;
  MetadataTable table(&file, &costs);
  ObjectRow row{.key = "alpha", .blob_ref = 7, .size_bytes = 100,
                .version = 1};
  ASSERT_TRUE(table.Insert(row).ok());
  auto got = table.Lookup("alpha");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->blob_ref, 7u);
  EXPECT_TRUE(table.Insert(row).IsAlreadyExists());
  ASSERT_TRUE(table.Delete("alpha").ok());
  EXPECT_TRUE(table.Lookup("alpha").status().IsNotFound());
  EXPECT_TRUE(table.Delete("alpha").IsNotFound());
}

TEST(MetadataTableTest, GhostResurrection) {
  auto dev = MakeDevice();
  PageFile file(dev.get());
  sim::OpCostModel costs;
  MetadataTable table(&file, &costs);
  ASSERT_TRUE(table.Insert({.key = "k", .blob_ref = 1}).ok());
  ASSERT_TRUE(table.Delete("k").ok());
  EXPECT_EQ(table.stats().ghosts, 1u);
  ASSERT_TRUE(table.Insert({.key = "k", .blob_ref = 2}).ok());
  EXPECT_EQ(table.stats().ghosts, 0u);
  auto got = table.Lookup("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->blob_ref, 2u);
}

TEST(MetadataTableTest, UpdateChangesRow) {
  auto dev = MakeDevice();
  PageFile file(dev.get());
  sim::OpCostModel costs;
  MetadataTable table(&file, &costs);
  ASSERT_TRUE(table.Insert({.key = "k", .blob_ref = 1, .version = 1}).ok());
  ASSERT_TRUE(table.Update({.key = "k", .blob_ref = 9, .version = 2}).ok());
  auto got = table.Lookup("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->blob_ref, 9u);
  EXPECT_TRUE(table.Update({.key = "zz"}).IsNotFound());
}

TEST(MetadataTableTest, ManyInsertsSplitAndStayConsistent) {
  auto dev = MakeDevice();
  PageFile file(dev.get());
  sim::OpCostModel costs;
  MetadataTable table(&file, &costs);
  constexpr int kRows = 10000;
  for (int i = 0; i < kRows; ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "key%06d", i * 37 % kRows);
    ASSERT_TRUE(
        table.Insert({.key = key, .blob_ref = static_cast<uint64_t>(i)})
            .ok())
        << key;
  }
  EXPECT_EQ(table.size(), static_cast<uint64_t>(kRows));
  EXPECT_GT(table.stats().splits, 0u);
  EXPECT_GT(table.stats().height, 1u);
  ASSERT_TRUE(table.CheckConsistency().ok());
  // Keys come back sorted and complete.
  auto keys = table.ScanKeys();
  ASSERT_EQ(keys.size(), static_cast<size_t>(kRows));
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  // Every row is findable.
  for (int i = 0; i < kRows; i += 97) {
    char key[32];
    std::snprintf(key, sizeof(key), "key%06d", i);
    EXPECT_TRUE(table.Lookup(key).ok()) << key;
  }
}

TEST(MetadataTableTest, PurgeGhostsRemovesDeletedRows) {
  auto dev = MakeDevice();
  PageFile file(dev.get());
  sim::OpCostModel costs;
  MetadataTable table(&file, &costs);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(table.Insert({.key = "k" + std::to_string(i)}).ok());
  }
  for (int i = 0; i < 500; i += 2) {
    ASSERT_TRUE(table.Delete("k" + std::to_string(i)).ok());
  }
  EXPECT_EQ(table.stats().ghosts, 250u);
  table.PurgeGhosts();
  EXPECT_EQ(table.stats().ghosts, 0u);
  EXPECT_EQ(table.size(), 250u);
  EXPECT_TRUE(table.CheckConsistency().ok());
  EXPECT_TRUE(table.Lookup("k0").status().IsNotFound());
  EXPECT_TRUE(table.Lookup("k1").ok());
}

TEST(MetadataTableTest, CheckpointWritesDirtyPages) {
  auto dev = MakeDevice();
  PageFile file(dev.get());
  sim::OpCostModel costs;
  MetadataTable table(&file, &costs, /*ops_per_checkpoint=*/10);
  const uint64_t writes_before = dev->stats().writes;
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(table.Insert({.key = "k" + std::to_string(i)}).ok());
  }
  EXPECT_GE(table.stats().checkpoints, 2u);
  EXPECT_GT(dev->stats().writes, writes_before);
}

TEST(MetadataTableTest, RandomChurnKeepsInvariants) {
  auto dev = MakeDevice();
  PageFile file(dev.get());
  sim::OpCostModel costs;
  MetadataTable table(&file, &costs);
  Rng rng(5);
  std::vector<std::string> live;
  for (int op = 0; op < 5000; ++op) {
    const double r = rng.NextDouble();
    if (live.empty() || r < 0.5) {
      std::string key = "obj" + std::to_string(rng.Uniform(100000));
      if (table.Insert({.key = key}).ok()) live.push_back(key);
    } else if (r < 0.8) {
      const size_t i = rng.Uniform(live.size());
      ASSERT_TRUE(table.Lookup(live[i]).ok());
    } else {
      const size_t i = rng.Uniform(live.size());
      ASSERT_TRUE(table.Delete(live[i]).ok());
      live[i] = live.back();
      live.pop_back();
    }
  }
  EXPECT_EQ(table.size(), live.size());
  ASSERT_TRUE(table.CheckConsistency().ok());
}

}  // namespace
}  // namespace db
}  // namespace lor
