// Tests for the NTFS-like FileStore: namespace ops, append/read paths,
// safe-write building blocks, preallocation, truncation, defrag, and
// volume-wide consistency.

#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <iterator>
#include <memory>

#include "alloc/buddy_allocator.h"
#include "alloc/run_cache_allocator.h"
#include "fs/defragmenter.h"
#include "fs/file_store.h"
#include "fs/zoned_placement.h"
#include "sim/block_device.h"
#include "util/fnv.h"
#include "util/random.h"

namespace lor {
namespace fs {
namespace {

constexpr uint64_t kVolume = 256 * kMiB;

std::unique_ptr<sim::BlockDevice> MakeDevice(
    sim::DataMode mode = sim::DataMode::kMetadataOnly,
    uint64_t volume = kVolume) {
  return std::make_unique<sim::BlockDevice>(
      sim::DiskParams::St3400832as().WithCapacity(volume), mode);
}

std::vector<uint8_t> Pattern(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> data(n);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  return data;
}

TEST(FileStoreTest, CreateDeleteLifecycle) {
  auto dev = MakeDevice();
  FileStore store(dev.get());
  ASSERT_TRUE(store.Create("a").ok());
  EXPECT_TRUE(store.Exists("a"));
  EXPECT_TRUE(store.Create("a").IsAlreadyExists());
  ASSERT_TRUE(store.Delete("a").ok());
  EXPECT_FALSE(store.Exists("a"));
  EXPECT_TRUE(store.Delete("a").IsNotFound());
}

TEST(FileStoreTest, AppendGrowsFile) {
  auto dev = MakeDevice();
  FileStore store(dev.get());
  ASSERT_TRUE(store.Create("f").ok());
  ASSERT_TRUE(store.Append("f", 100 * kKiB).ok());
  ASSERT_TRUE(store.Append("f", 28 * kKiB).ok());
  auto size = store.GetSize("f");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 128 * kKiB);
  auto extents = store.GetExtents("f");
  ASSERT_TRUE(extents.ok());
  EXPECT_EQ(alloc::TotalLength(*extents),
            128 * kKiB / store.options().cluster_bytes);
  EXPECT_TRUE(store.CheckConsistency().ok());
}

TEST(FileStoreTest, SequentialAppendsStayContiguousOnCleanVolume) {
  auto dev = MakeDevice();
  FileStore store(dev.get());
  ASSERT_TRUE(store.Create("f").ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(store.Append("f", 64 * kKiB).ok());
  }
  auto extents = store.GetExtents("f");
  ASSERT_TRUE(extents.ok());
  EXPECT_EQ(alloc::CountFragments(*extents), 1u);
}

TEST(FileStoreTest, ReadBackRetainsData) {
  auto dev = MakeDevice(sim::DataMode::kRetain);
  FileStore store(dev.get());
  const auto data = Pattern(200 * kKiB + 123, 1);
  ASSERT_TRUE(store.Create("f").ok());
  ASSERT_TRUE(store.Append("f", data.size(), data).ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(store.ReadAll("f", &out).ok());
  EXPECT_EQ(out, data);
}

TEST(FileStoreTest, PartialReadAtOffset) {
  auto dev = MakeDevice(sim::DataMode::kRetain);
  FileStore store(dev.get());
  const auto data = Pattern(64 * kKiB, 2);
  ASSERT_TRUE(store.Create("f").ok());
  ASSERT_TRUE(store.Append("f", data.size(), data).ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(store.Read("f", 1000, 5000, &out).ok());
  EXPECT_EQ(out, std::vector<uint8_t>(data.begin() + 1000,
                                      data.begin() + 6000));
}

TEST(FileStoreTest, ReadBeyondEofRejected) {
  auto dev = MakeDevice();
  FileStore store(dev.get());
  ASSERT_TRUE(store.Create("f").ok());
  ASSERT_TRUE(store.Append("f", 1000).ok());
  EXPECT_TRUE(store.Read("f", 900, 200).IsInvalidArgument());
  EXPECT_TRUE(store.Read("missing", 0, 1).IsNotFound());
}

TEST(FileStoreTest, MultiExtentReadSpansFragments) {
  auto dev = MakeDevice(sim::DataMode::kRetain);
  FileStoreOptions opts;
  // Force fragmentation with an immediate-reuse tiny allocator space:
  // fill, punch holes, then write a file across them.
  FileStore store(dev.get(), opts);
  ASSERT_TRUE(store.Create("filler").ok());
  ASSERT_TRUE(store.Append("filler", 200 * kMiB).ok());
  // Delete filler and write interleaved files so layouts fragment.
  ASSERT_TRUE(store.Delete("filler").ok());
  store.allocator()->CommitPending();
  const auto a = Pattern(300 * kKiB, 3);
  ASSERT_TRUE(store.Create("a").ok());
  ASSERT_TRUE(store.Append("a", a.size(), a).ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(store.ReadAll("a", &out).ok());
  EXPECT_EQ(out, a);
  EXPECT_TRUE(store.CheckConsistency().ok());
}

TEST(FileStoreTest, ReplaceSwapsContentsAtomically) {
  auto dev = MakeDevice(sim::DataMode::kRetain);
  FileStore store(dev.get());
  const auto old_data = Pattern(64 * kKiB, 4);
  const auto new_data = Pattern(96 * kKiB, 5);
  ASSERT_TRUE(store.Create("obj").ok());
  ASSERT_TRUE(store.Append("obj", old_data.size(), old_data).ok());
  ASSERT_TRUE(store.Create("obj.tmp").ok());
  ASSERT_TRUE(store.Append("obj.tmp", new_data.size(), new_data).ok());
  ASSERT_TRUE(store.Fsync("obj.tmp").ok());
  ASSERT_TRUE(store.Replace("obj.tmp", "obj").ok());
  EXPECT_FALSE(store.Exists("obj.tmp"));
  std::vector<uint8_t> out;
  ASSERT_TRUE(store.ReadAll("obj", &out).ok());
  EXPECT_EQ(out, new_data);
  EXPECT_EQ(store.stats().file_count, 1u);
  EXPECT_TRUE(store.CheckConsistency().ok());
}

TEST(FileStoreTest, ReplaceToNewNameActsAsRename) {
  auto dev = MakeDevice();
  FileStore store(dev.get());
  ASSERT_TRUE(store.Create("src").ok());
  ASSERT_TRUE(store.Append("src", 1000).ok());
  ASSERT_TRUE(store.Replace("src", "dst").ok());
  EXPECT_FALSE(store.Exists("src"));
  EXPECT_TRUE(store.Exists("dst"));
  EXPECT_TRUE(store.Replace("missing", "x").IsNotFound());
}

TEST(FileStoreTest, PreallocationKeepsLargeFileContiguous) {
  auto dev = MakeDevice();
  FileStore store(dev.get());
  ASSERT_TRUE(store.Create("f").ok());
  ASSERT_TRUE(store.Preallocate("f", 10 * kMiB).ok());
  for (int i = 0; i < 160; ++i) {
    ASSERT_TRUE(store.Append("f", 64 * kKiB).ok());
  }
  auto extents = store.GetExtents("f");
  ASSERT_TRUE(extents.ok());
  EXPECT_EQ(alloc::CountFragments(*extents), 1u);
  auto size = store.GetSize("f");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 10 * kMiB);
  EXPECT_TRUE(store.CheckConsistency().ok());
}

TEST(FileStoreTest, TruncateReleasesClusters) {
  auto dev = MakeDevice();
  FileStore store(dev.get());
  ASSERT_TRUE(store.Create("f").ok());
  ASSERT_TRUE(store.Append("f", kMiB).ok());
  const uint64_t free_before = store.FreeBytes();
  ASSERT_TRUE(store.Truncate("f", 256 * kKiB).ok());
  auto size = store.GetSize("f");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 256 * kKiB);
  EXPECT_EQ(store.FreeBytes(), free_before + 768 * kKiB);
  EXPECT_TRUE(store.Truncate("f", kMiB).IsInvalidArgument());
  EXPECT_TRUE(store.CheckConsistency().ok());
}

TEST(FileStoreTest, DeleteFreesSpaceAfterCommit) {
  auto dev = MakeDevice();
  FileStore store(dev.get());
  ASSERT_TRUE(store.Create("f").ok());
  ASSERT_TRUE(store.Append("f", 10 * kMiB).ok());
  const uint64_t free_before_delete = store.FreeBytes();
  ASSERT_TRUE(store.Delete("f").ok());
  EXPECT_EQ(store.FreeBytes(), free_before_delete + 10 * kMiB);
  EXPECT_TRUE(store.CheckConsistency().ok());
}

TEST(FileStoreTest, NoSpaceSurfacesCleanly) {
  auto dev = MakeDevice(sim::DataMode::kMetadataOnly, 16 * kMiB);
  FileStore store(dev.get());
  ASSERT_TRUE(store.Create("f").ok());
  EXPECT_TRUE(store.Append("f", 64 * kMiB).IsNoSpace());
  EXPECT_TRUE(store.CheckConsistency().ok());
}

TEST(FileStoreTest, MetadataIoChargesTime) {
  // A create writes its MFT record and a journal record: device I/O
  // that advances the clock.
  auto dev = MakeDevice();
  FileStore store(dev.get());
  const double before = dev->clock().now();
  const uint64_t writes_before = dev->stats().writes;
  ASSERT_TRUE(store.Create("f").ok());
  EXPECT_GT(dev->clock().now(), before);
  EXPECT_GT(dev->stats().writes, writes_before);
}

TEST(FileStoreTest, FragmentedReadSlowerThanContiguous) {
  // Build one contiguous and one deliberately fragmented file of the
  // same size; the fragmented read must cost more simulated time.
  auto dev = MakeDevice();
  FileStoreOptions opts;
  auto allocator = std::make_unique<alloc::RunCacheAllocator>(
      dev->capacity() / opts.cluster_bytes,
      alloc::RunCacheOptions{.selection = alloc::RunSelection::kFirstFit,
                             .deferred_free = false},
      /*reserved=*/static_cast<uint64_t>(
          static_cast<double>(dev->capacity() / opts.cluster_bytes) *
          opts.mft_zone_fraction));
  FileStore store(dev.get(), opts, std::move(allocator));

  ASSERT_TRUE(store.Create("contig").ok());
  ASSERT_TRUE(store.Append("contig", 4 * kMiB).ok());
  // Interleave two files in 64 KB chunks to shatter the second.
  ASSERT_TRUE(store.Create("x").ok());
  ASSERT_TRUE(store.Create("frag").ok());
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(store.Append("x", 64 * kKiB).ok());
    ASSERT_TRUE(store.Append("frag", 64 * kKiB).ok());
  }
  auto frag_extents = store.GetExtents("frag");
  ASSERT_TRUE(frag_extents.ok());
  ASSERT_GT(alloc::CountFragments(*frag_extents), 30u);

  double t0 = dev->clock().now();
  ASSERT_TRUE(store.ReadAll("contig").ok());
  const double contiguous_time = dev->clock().now() - t0;
  t0 = dev->clock().now();
  ASSERT_TRUE(store.ReadAll("frag").ok());
  const double fragmented_time = dev->clock().now() - t0;
  // The stream-bandwidth cap applies to both reads, compressing the
  // ratio; the seek tax must still at least double the cost.
  EXPECT_GT(fragmented_time, contiguous_time * 2);
}

TEST(FileStoreTest, DefragmentFileRestoresContiguity) {
  auto dev = MakeDevice(sim::DataMode::kRetain);
  FileStoreOptions opts;
  opts.alloc.deferred_free = false;
  FileStore store(dev.get(), opts);
  // Interleave to fragment.
  ASSERT_TRUE(store.Create("a").ok());
  ASSERT_TRUE(store.Create("b").ok());
  const auto data = Pattern(2 * kMiB, 6);
  for (uint64_t off = 0; off < data.size(); off += 64 * kKiB) {
    ASSERT_TRUE(store
                    .Append("a", 64 * kKiB,
                            std::span<const uint8_t>(data).subspan(off,
                                                                   64 * kKiB))
                    .ok());
    ASSERT_TRUE(store.Append("b", 64 * kKiB).ok());
  }
  auto before = store.GetExtents("a");
  ASSERT_TRUE(before.ok());
  ASSERT_GT(alloc::CountFragments(*before), 1u);

  auto moved = store.DefragmentFile("a");
  ASSERT_TRUE(moved.ok());
  EXPECT_TRUE(*moved);
  auto after = store.GetExtents("a");
  ASSERT_TRUE(after.ok());
  EXPECT_LT(alloc::CountFragments(*after), alloc::CountFragments(*before));
  // Data survives the move.
  std::vector<uint8_t> out;
  ASSERT_TRUE(store.ReadAll("a", &out).ok());
  EXPECT_EQ(out, data);
  EXPECT_TRUE(store.CheckConsistency().ok());
}

TEST(DefragmenterTest, PassReducesMeanFragments) {
  auto dev = MakeDevice();
  FileStoreOptions opts;
  opts.alloc.deferred_free = false;
  FileStore store(dev.get(), opts);
  ASSERT_TRUE(store.Create("a").ok());
  ASSERT_TRUE(store.Create("b").ok());
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(store.Append("a", 64 * kKiB).ok());
    ASSERT_TRUE(store.Append("b", 64 * kKiB).ok());
  }
  Defragmenter defrag(&store);
  auto report = defrag.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->files_moved, 0u);
  EXPECT_LT(report->fragments_per_file_after,
            report->fragments_per_file_before);
  EXPECT_GT(report->elapsed_seconds, 0.0);
  EXPECT_TRUE(store.CheckConsistency().ok());
}

TEST(DefragmenterTest, ByteBudgetLimitsWork) {
  auto dev = MakeDevice();
  FileStoreOptions opts;
  opts.alloc.deferred_free = false;
  FileStore store(dev.get(), opts);
  ASSERT_TRUE(store.Create("a").ok());
  ASSERT_TRUE(store.Create("b").ok());
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(store.Append("a", 64 * kKiB).ok());
    ASSERT_TRUE(store.Append("b", 64 * kKiB).ok());
  }
  Defragmenter defrag(&store);
  auto report = defrag.Run(/*byte_budget=*/2 * kMiB);
  ASSERT_TRUE(report.ok());
  EXPECT_LE(report->bytes_moved, 2 * kMiB);
}

TEST(FileStoreTest, ListFilesReturnsAll) {
  auto dev = MakeDevice();
  FileStore store(dev.get());
  ASSERT_TRUE(store.Create("x").ok());
  ASSERT_TRUE(store.Create("y").ok());
  auto names = store.ListFiles();
  EXPECT_EQ(names.size(), 2u);
}

TEST(FileStoreTest, StatsTrackOperations) {
  auto dev = MakeDevice();
  FileStore store(dev.get());
  ASSERT_TRUE(store.Create("f").ok());
  ASSERT_TRUE(store.Append("f", 1000).ok());
  ASSERT_TRUE(store.ReadAll("f").ok());
  ASSERT_TRUE(store.Delete("f").ok());
  const FileStoreStats& s = store.stats();
  EXPECT_EQ(s.creates, 1u);
  EXPECT_EQ(s.appends, 1u);
  EXPECT_EQ(s.reads, 1u);
  EXPECT_EQ(s.deletes, 1u);
  EXPECT_EQ(s.file_count, 0u);
  EXPECT_EQ(s.live_bytes, 0u);
}

TEST(FileStoreTest, ReadCountTracksHeat) {
  auto dev = MakeDevice();
  FileStore store(dev.get());
  ASSERT_TRUE(store.Create("f").ok());
  ASSERT_TRUE(store.Append("f", 1000).ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(store.ReadAll("f").ok());
  auto count = store.GetReadCount("f");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 3u);
  EXPECT_TRUE(store.GetReadCount("missing").status().IsNotFound());
}

TEST(FileStoreTest, PromoteToOuterZoneMovesFileOutward) {
  auto dev = MakeDevice(sim::DataMode::kRetain);
  FileStore store(dev.get());
  // Outer blocker occupies the front; victim lands behind it.
  ASSERT_TRUE(store.Create("blocker").ok());
  ASSERT_TRUE(store.Append("blocker", 16 * kMiB).ok());
  const auto data = Pattern(2 * kMiB, 77);
  ASSERT_TRUE(store.Create("victim").ok());
  ASSERT_TRUE(store.Append("victim", data.size(), data).ok());
  // Free the blocker: outer space opens up.
  ASSERT_TRUE(store.Delete("blocker").ok());
  store.allocator()->CommitPending();

  auto before = store.GetExtents("victim");
  ASSERT_TRUE(before.ok());
  auto moved = store.PromoteToOuterZone("victim");
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_TRUE(*moved);
  auto after = store.GetExtents("victim");
  ASSERT_TRUE(after.ok());
  EXPECT_LT(after->front().start, before->front().start);
  // Data survives the migration.
  std::vector<uint8_t> out;
  ASSERT_TRUE(store.ReadAll("victim", &out).ok());
  EXPECT_EQ(out, data);
  EXPECT_TRUE(store.CheckConsistency().ok());
  // A second promotion finds nothing better.
  auto again = store.PromoteToOuterZone("victim");
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*again);
}

TEST(FileStoreTest, PromoteToOuterZoneNotSupportedWithoutMap) {
  auto dev = MakeDevice();
  FileStoreOptions opts;
  auto buddy = std::make_unique<alloc::BuddyAllocator>(
      dev->capacity() / opts.cluster_bytes);
  FileStore store(dev.get(), opts, std::move(buddy));
  ASSERT_TRUE(store.Create("f").ok());
  ASSERT_TRUE(store.Append("f", 4096).ok());
  EXPECT_TRUE(store.PromoteToOuterZone("f").status().IsNotSupported());
}

TEST(FileStoreTest, BuddyAllocatorKeepsTheStoreContract) {
  // The buddy system serves only the data zone, hands the store exactly
  // the clusters it asked for and takes back the coalesced extents a
  // delete frees.
  auto dev = MakeDevice();
  FileStoreOptions opts;
  const uint64_t clusters = dev->capacity() / opts.cluster_bytes;
  const uint64_t reserved = static_cast<uint64_t>(
      static_cast<double>(clusters) * opts.mft_zone_fraction);
  FileStore store(dev.get(), opts,
                  std::make_unique<alloc::BuddyAllocator>(clusters, reserved));
  const uint64_t free_before = store.allocator()->free_clusters();
  ASSERT_TRUE(store.Create("f").ok());
  ASSERT_TRUE(store.AppendStream("f", 100 * kKiB, 64 * kKiB).ok());
  auto extents = store.GetExtents("f");
  ASSERT_TRUE(extents.ok());
  EXPECT_EQ(alloc::TotalLength(*extents), 100 * kKiB / opts.cluster_bytes);
  EXPECT_TRUE(store.CheckConsistency().ok());
  ASSERT_TRUE(store.Delete("f").ok());
  EXPECT_TRUE(store.CheckConsistency().ok());
  EXPECT_EQ(store.allocator()->free_clusters(), free_before);
}

TEST(ZonedPlacementTest, MigratesHottestFilesFirst) {
  auto dev = MakeDevice();
  FileStore store(dev.get());
  // Cold outer file that will be deleted, then three files with
  // distinct heat.
  ASSERT_TRUE(store.Create("cold").ok());
  ASSERT_TRUE(store.Append("cold", 32 * kMiB).ok());
  for (const char* name : {"a", "b", "c"}) {
    ASSERT_TRUE(store.Create(name).ok());
    ASSERT_TRUE(store.Append(name, 4 * kMiB).ok());
  }
  ASSERT_TRUE(store.Delete("cold").ok());
  store.allocator()->CommitPending();
  for (int i = 0; i < 9; ++i) ASSERT_TRUE(store.ReadAll("b").ok());
  ASSERT_TRUE(store.ReadAll("a").ok());

  ZonedPlacement placement(&store);
  auto report = placement.MigrateHotFiles(0.34);  // Top 1 of 3 files.
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->files_moved, 1u);
  EXPECT_LT(report->hot_centroid_after, report->hot_centroid_before);
  // The hottest file ("b") moved into the freed outer region.
  auto extents = store.GetExtents("b");
  ASSERT_TRUE(extents.ok());
  EXPECT_EQ(extents->front().start, store.mft_clusters());
  EXPECT_TRUE(store.CheckConsistency().ok());
}

TEST(ZonedPlacementTest, RejectsBadFraction) {
  auto dev = MakeDevice();
  FileStore store(dev.get());
  ZonedPlacement placement(&store);
  EXPECT_TRUE(placement.MigrateHotFiles(0.0).status().IsInvalidArgument());
  EXPECT_TRUE(placement.MigrateHotFiles(1.5).status().IsInvalidArgument());
}

TEST(ZonedPlacementTest, ByteBudgetRespected) {
  auto dev = MakeDevice();
  FileStore store(dev.get());
  ASSERT_TRUE(store.Create("cold").ok());
  ASSERT_TRUE(store.Append("cold", 32 * kMiB).ok());
  for (int i = 0; i < 4; ++i) {
    const std::string name = "f" + std::to_string(i);
    ASSERT_TRUE(store.Create(name).ok());
    ASSERT_TRUE(store.Append(name, 4 * kMiB).ok());
    ASSERT_TRUE(store.ReadAll(name).ok());
  }
  ASSERT_TRUE(store.Delete("cold").ok());
  store.allocator()->CommitPending();
  ZonedPlacement placement(&store);
  auto report = placement.MigrateHotFiles(1.0, /*byte_budget=*/5 * kMiB);
  ASSERT_TRUE(report.ok());
  EXPECT_LE(report->bytes_moved, 5 * kMiB);
}

// -- Handle fast paths ------------------------------------------------
//
// Create and Replace skip the name index when no handle is unbound, and
// Replace through handles uses the files the handles pin. These pin the
// binding and invalidation rules those shortcuts must keep.

Status WriteTemp(FileStore* store, const std::string& name,
                 const std::vector<uint8_t>& data, FileHandle* temp) {
  LOR_ASSIGN_OR_RETURN(*temp, store->CreateOpen(name));
  LOR_RETURN_IF_ERROR(store->AppendStream(*temp, data.size(), 64 * kKiB,
                                          data));
  return store->Fsync(*temp);
}

TEST(FileStoreHandleTest, EarlyWriteHandleIsBoundByCreateAndByFirstReplace) {
  auto dev = MakeDevice(sim::DataMode::kRetain);
  FileStore store(dev.get());

  // Bound by Create.
  auto early = store.OpenWrite("a");
  ASSERT_TRUE(early.ok());
  EXPECT_FALSE(*store.HandleBound(*early));
  ASSERT_TRUE(store.Create("a").ok());
  EXPECT_TRUE(*store.HandleBound(*early));
  const std::vector<uint8_t> a = Pattern(10000, 1);
  ASSERT_TRUE(store.AppendStream(*early, a.size(), 64 * kKiB, a).ok());
  std::vector<uint8_t> got;
  ASSERT_TRUE(store.ReadAll("a", &got).ok());
  EXPECT_EQ(got, a);

  // Bound by the first Replace onto the name, both handles on it; a
  // handle waiting on another name stays unbound.
  auto first = store.OpenWrite("b");
  auto second = store.OpenWrite("b");
  auto other = store.OpenWrite("c");
  ASSERT_TRUE(first.ok() && second.ok() && other.ok());
  const std::vector<uint8_t> b = Pattern(70000, 2);
  FileHandle temp;
  ASSERT_TRUE(WriteTemp(&store, "b.tmp", b, &temp).ok());
  ASSERT_TRUE(store.Replace(temp, *first).ok());
  EXPECT_TRUE(*store.HandleBound(*first));
  EXPECT_TRUE(*store.HandleBound(*second));
  EXPECT_FALSE(*store.HandleBound(*other));
  ASSERT_TRUE(store.ReadAll(*second, &got).ok());
  EXPECT_EQ(got, b);
  EXPECT_FALSE(store.Exists("b.tmp"));

  // Closing the unbound handle, then creating its name, binds nothing
  // stale; a fresh early handle is still bound by the next Create.
  ASSERT_TRUE(store.Close(*other).ok());
  auto late = store.OpenWrite("c");
  ASSERT_TRUE(late.ok());
  ASSERT_TRUE(store.Create("c").ok());
  EXPECT_TRUE(*store.HandleBound(*late));
  EXPECT_TRUE(store.CheckConsistency().ok());
}

TEST(FileStoreHandleTest, TargetHandleSurvivesThousandSafeWrites) {
  auto dev = MakeDevice(sim::DataMode::kRetain);
  FileStore store(dev.get());
  auto target = store.CreateOpen("obj");
  ASSERT_TRUE(target.ok());
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const std::vector<uint8_t> data =
        Pattern(1 + rng.Uniform(80 * kKiB), 100 + i);
    FileHandle temp;
    ASSERT_TRUE(
        WriteTemp(&store, "obj.tmp" + std::to_string(i), data, &temp).ok());
    ASSERT_TRUE(store.Replace(temp, *target).ok()) << i;
    ASSERT_TRUE(*store.HandleBound(*target)) << i;
    std::vector<uint8_t> got;
    ASSERT_TRUE(store.ReadAll(*target, &got).ok()) << i;
    ASSERT_EQ(got, data) << i;
    // Still the file the name resolves to, and the only open handle.
    ASSERT_EQ(*store.GetExtents(*target), *store.GetExtents("obj")) << i;
    ASSERT_EQ(store.open_handle_count(), 1u) << i;
  }
  EXPECT_EQ(store.ListFiles().size(), 1u);
  EXPECT_TRUE(store.CheckConsistency().ok());
}

TEST(FileStoreHandleTest, DeleteAndReplaceSourceInvalidateEveryHandle) {
  auto dev = MakeDevice(sim::DataMode::kRetain);
  FileStore store(dev.get());
  const std::vector<uint8_t> data = Pattern(20000, 4);

  // Delete through one of three handles.
  ASSERT_TRUE(store.Create("x").ok());
  ASSERT_TRUE(store.Append("x", data.size(), data).ok());
  auto r = store.OpenRead("x");
  auto w1 = store.OpenWrite("x");
  auto w2 = store.OpenWrite("x");
  ASSERT_TRUE(r.ok() && w1.ok() && w2.ok());
  ASSERT_TRUE(store.Delete(*w1).ok());
  for (FileHandle h : {*r, *w1, *w2}) {
    EXPECT_TRUE(store.HandleBound(h).status().IsInvalidArgument());
    EXPECT_TRUE(store.Close(h).IsInvalidArgument());
  }
  EXPECT_EQ(store.open_handle_count(), 0u);

  // Replace through handles: every handle on the source goes stale.
  FileHandle s1;
  ASSERT_TRUE(WriteTemp(&store, "s", data, &s1).ok());
  auto s2 = store.OpenRead("s");
  auto s3 = store.OpenWrite("s");
  auto dst = store.OpenWrite("d");
  ASSERT_TRUE(s2.ok() && s3.ok() && dst.ok());
  ASSERT_TRUE(store.Replace(*s3, *dst).ok());
  for (FileHandle h : {s1, *s2, *s3}) {
    EXPECT_TRUE(store.HandleBound(h).status().IsInvalidArgument());
  }
  EXPECT_EQ(store.open_handle_count(), 1u);
  std::vector<uint8_t> got;
  ASSERT_TRUE(store.ReadAll(*dst, &got).ok());
  EXPECT_EQ(got, data);
  EXPECT_FALSE(store.Exists("s"));

  // And by name: the same rule when the target already exists.
  FileHandle t1;
  ASSERT_TRUE(WriteTemp(&store, "t", Pattern(5000, 5), &t1).ok());
  auto t2 = store.OpenWrite("t");
  auto t3 = store.OpenRead("t");
  ASSERT_TRUE(t2.ok() && t3.ok());
  ASSERT_TRUE(store.Replace("t", "d").ok());
  for (FileHandle h : {t1, *t2, *t3}) {
    EXPECT_TRUE(store.HandleBound(h).status().IsInvalidArgument());
  }
  EXPECT_TRUE(*store.HandleBound(*dst));
  EXPECT_EQ(*store.GetSize(*dst), 5000u);
  EXPECT_TRUE(store.CheckConsistency().ok());
}

// -- Stream append exactness ------------------------------------------
//
// AppendStream must lay a file out, and charge the clock, exactly as one
// Append per request does, under every allocator: the default run cache,
// the run cache with extension hints ignored, first fit and the buddy
// system (which ignores hints), on a fresh and an aged volume. The
// digest pins the extents and clock bits of both paths.

using MakeAllocator =
    std::function<std::unique_ptr<alloc::ExtentAllocator>(uint64_t clusters,
                                                          uint64_t reserved)>;

struct StreamPinCase {
  const char* name;
  MakeAllocator make;
};

std::vector<StreamPinCase> StreamPinCases() {
  return {
      {"run-cache",
       [](uint64_t clusters, uint64_t reserved) {
         return std::make_unique<alloc::RunCacheAllocator>(
             clusters, alloc::RunCacheOptions{}, reserved);
       }},
      {"run-cache-no-extension",
       [](uint64_t clusters, uint64_t reserved) {
         return std::make_unique<alloc::RunCacheAllocator>(
             clusters, alloc::RunCacheOptions{.allow_extension = false},
             reserved);
       }},
      {"first-fit",
       [](uint64_t clusters, uint64_t reserved) {
         return std::make_unique<alloc::RunCacheAllocator>(
             clusters,
             alloc::RunCacheOptions{
                 .selection = alloc::RunSelection::kFirstFit,
                 .deferred_free = false},
             reserved);
       }},
      {"buddy",
       [](uint64_t clusters, uint64_t reserved) {
         return std::make_unique<alloc::BuddyAllocator>(clusters, reserved);
       }},
  };
}

uint64_t Fold(uint64_t hash, uint64_t value) {
  return (hash ^ value) * kFnvPrime;
}

/// Writes a seeded mix of files (sizes and request sizes that are and
/// are not cluster multiples) through AppendStream, or through one
/// Append per request when `per_request`, and folds every file's extents
/// and the clock bits into a digest. `aged` first churns the volume with
/// single-request appends and deletes.
uint64_t StreamPinDigest(const StreamPinCase& c, bool aged, bool per_request) {
  auto dev = MakeDevice();
  const FileStoreOptions options;
  const uint64_t clusters = kVolume / options.cluster_bytes;
  const uint64_t reserved = static_cast<uint64_t>(
      static_cast<double>(clusters) * options.mft_zone_fraction);
  FileStore store(dev.get(), options, c.make(clusters, reserved));
  Rng rng(29);
  std::vector<std::string> live;
  int next_name = 0;
  if (aged) {
    for (int i = 0; i < 300; ++i) {
      const std::string name = "age" + std::to_string(next_name++);
      EXPECT_TRUE(store.Create(name).ok());
      const uint64_t requests = 1 + rng.Uniform(24);
      for (uint64_t r = 0; r < requests; ++r) {
        EXPECT_TRUE(store.Append(name, 4 * kKiB + rng.Uniform(60 * kKiB))
                        .ok());
      }
      live.push_back(name);
      if (live.size() > 120 || rng.Bernoulli(0.4)) {
        const size_t victim = rng.Uniform(live.size());
        EXPECT_TRUE(store.Delete(live[victim]).ok());
        live[victim] = live.back();
        live.pop_back();
      }
      store.allocator()->Tick();
    }
  }

  const uint64_t sizes[] = {10 * kMiB, kMiB + 5000, 300 * kKiB, 64 * kKiB,
                            4 * kMiB + 123, 2 * kMiB};
  const uint64_t requests[] = {16 * kKiB, 64 * kKiB, 64 * kKiB, kMiB,
                               60 * kKiB + 1000};
  uint64_t digest = kFnvBasis;
  for (int i = 0; i < 60; ++i) {
    const std::string name = "f" + std::to_string(next_name++);
    const uint64_t size = sizes[rng.Uniform(std::size(sizes))];
    const uint64_t request = requests[rng.Uniform(std::size(requests))];
    EXPECT_TRUE(store.Create(name).ok());
    if (per_request) {
      for (uint64_t done = 0; done < size;) {
        const uint64_t chunk = std::min(request, size - done);
        EXPECT_TRUE(store.Append(name, chunk).ok()) << c.name << " " << name;
        done += chunk;
      }
    } else {
      EXPECT_TRUE(store.AppendStream(name, size, request).ok())
          << c.name << " " << name;
    }
    auto extents = store.GetExtents(name);
    EXPECT_TRUE(extents.ok());
    digest = Fold(digest, extents->size());
    for (const alloc::Extent& e : *extents) {
      digest = Fold(Fold(digest, e.start), e.length);
    }
    digest = Fold(digest, std::bit_cast<uint64_t>(dev->clock().now()));
    live.push_back(name);
    if (live.size() > 12) {
      const size_t victim = rng.Uniform(live.size());
      EXPECT_TRUE(store.Delete(live[victim]).ok());
      live[victim] = live.back();
      live.pop_back();
    }
    store.allocator()->Tick();
  }
  digest = Fold(digest, store.allocator()->free_clusters());
  digest = Fold(digest, dev->stats().writes);
  EXPECT_TRUE(store.CheckConsistency().ok()) << c.name;
  return digest;
}

TEST(FileStoreStreamTest, StreamAppendMatchesPerRequestAppends) {
  uint64_t pin = kFnvBasis;
  for (const StreamPinCase& c : StreamPinCases()) {
    for (const bool aged : {false, true}) {
      const uint64_t stream = StreamPinDigest(c, aged, /*per_request=*/false);
      const uint64_t single = StreamPinDigest(c, aged, /*per_request=*/true);
      EXPECT_EQ(stream, single) << c.name << (aged ? " aged" : " fresh");
      pin = Fold(pin, stream);
    }
  }
  EXPECT_EQ(pin, 0x7adaec70c30295c6ull) << std::hex << pin;
}

}  // namespace
}  // namespace fs
}  // namespace lor
