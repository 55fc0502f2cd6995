// BufferPool tests: the pool's own request paths (hit/miss/fill,
// write-back, eviction, pinning, recycling) over a raw device, then
// cache coherence through the repository stack — invalidation on
// delete/replace, clean-remount flushes, forced write-through under an
// armed fault injector, crash torture with the cache on, and a
// randomized cached-vs-uncached parity check (identical layouts and
// payloads; only the charges may differ).

#include "sim/buffer_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "core/db_repository.h"
#include "core/fs_repository.h"
#include "sim/block_device.h"
#include "sim/fault_injector.h"
#include "sim/media_fault.h"
#include "util/fnv.h"
#include "util/random.h"
#include "workload/crash_torture.h"
#include "workload/getput_runner.h"

namespace lor {
namespace sim {
namespace {

constexpr uint64_t kFrame = 64 * kKiB;

DiskParams SmallDisk(uint64_t capacity) {
  return DiskParams::St3400832as().WithCapacity(capacity);
}

std::vector<uint8_t> Pattern(uint64_t len, uint8_t salt) {
  std::vector<uint8_t> data(len);
  for (uint64_t i = 0; i < len; ++i) {
    data[i] = static_cast<uint8_t>(i * 37 + salt);
  }
  return data;
}

CacheSlice Slice(uint64_t offset, uint64_t length, const uint8_t* src,
                 uint8_t* dst) {
  return {offset, length, src, dst, offset, length};
}

TEST(BufferPoolTest, DisabledPoolIsPassThrough) {
  BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kRetain);
  BufferPool pool(&dev, {});  // capacity 0
  EXPECT_FALSE(pool.enabled());

  const std::vector<uint8_t> data = Pattern(kFrame, 1);
  std::vector<uint8_t> back(kFrame);
  std::vector<CacheSlice> w = {Slice(0, kFrame, data.data(), nullptr)};
  std::vector<CacheSlice> r = {Slice(0, kFrame, nullptr, back.data())};
  ASSERT_TRUE(pool.WriteThrough(w).ok());
  ASSERT_TRUE(pool.ReadThrough(r).ok());
  EXPECT_EQ(back, data);
  // Pass-through never touches frames or counters.
  EXPECT_EQ(pool.frame_count(), 0u);
  EXPECT_EQ(pool.stats().hits + pool.stats().misses, 0u);
  EXPECT_EQ(dev.stats().reads, 1u);
  EXPECT_EQ(dev.stats().writes, 1u);

  // Views read and write the arena directly.
  std::vector<uint8_t> viewed;
  pool.View(0, kFrame, [&](std::span<const uint8_t> chunk) {
    viewed.insert(viewed.end(), chunk.begin(), chunk.end());
  });
  EXPECT_EQ(viewed, data);
  pool.WriteViewThrough(0, kFrame, [](std::span<uint8_t> chunk) {
    std::fill(chunk.begin(), chunk.end(), uint8_t{0xAB});
  });
  bool rewritten = true;
  dev.ReadView(0, kFrame, [&](std::span<const uint8_t> chunk) {
    for (uint8_t byte : chunk) rewritten = rewritten && byte == 0xAB;
  });
  EXPECT_TRUE(rewritten) << "disabled WriteViewThrough missed the arena";

  // Range operations are no-ops: no frames, no counters, no device I/O.
  EXPECT_EQ(pool.PinRange(0, 8 * kMiB), 0u);
  pool.UnpinRange(0, 8 * kMiB);
  pool.Invalidate(0, 8 * kMiB);
  ASSERT_TRUE(pool.FlushRange(0, 8 * kMiB).ok());
  ASSERT_TRUE(pool.FlushAll().ok());
  pool.Reset();
  EXPECT_EQ(pool.frame_count(), 0u);
  EXPECT_EQ(pool.cached_bytes(), 0u);
  EXPECT_EQ(pool.stats().invalidations, 0u);
  EXPECT_EQ(pool.stats().writebacks, 0u);
  EXPECT_EQ(dev.stats().reads, 1u);
  EXPECT_EQ(dev.stats().writes, 1u);
}

TEST(BufferPoolTest, MissFillsThenHitsWithoutDeviceReads) {
  BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kRetain);
  BufferPoolOptions options;
  options.capacity_bytes = 1 * kMiB;
  BufferPool pool(&dev, options);
  EXPECT_TRUE(pool.enabled());

  const std::vector<uint8_t> data = Pattern(kFrame, 2);
  ASSERT_TRUE(dev.Write(0, kFrame, data).ok());

  std::vector<uint8_t> back(kFrame);
  std::vector<CacheSlice> r = {Slice(0, kFrame, nullptr, back.data())};
  ASSERT_TRUE(pool.ReadThrough(r).ok());
  EXPECT_EQ(back, data);
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().fills, 1u);
  const uint64_t device_reads = dev.stats().reads;
  const double t_hit0 = dev.clock().now();

  std::fill(back.begin(), back.end(), 0);
  ASSERT_TRUE(pool.ReadThrough(r).ok());
  EXPECT_EQ(back, data);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(dev.stats().reads, device_reads) << "hit touched the device";
  // The hit still charges host CPU — it is not free, just cheap.
  EXPECT_GT(dev.clock().now(), t_hit0);
}

TEST(BufferPoolTest, ReadAheadFillServesLaterRequests) {
  BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kRetain);
  BufferPoolOptions options;
  options.capacity_bytes = 1 * kMiB;
  BufferPool pool(&dev, options);
  const std::vector<uint8_t> data = Pattern(4 * kFrame, 3);
  ASSERT_TRUE(dev.Write(0, 4 * kFrame, data).ok());

  // Request one frame, fill the whole extent run (the read-ahead the
  // stores pass down).
  std::vector<uint8_t> back(kFrame);
  std::vector<CacheSlice> r = {
      {0, kFrame, nullptr, back.data(), 0, 4 * kFrame}};
  ASSERT_TRUE(pool.ReadThrough(r).ok());
  EXPECT_EQ(pool.stats().fill_bytes, 4 * kFrame);

  // The rest of the run is already resident.
  for (uint64_t i = 1; i < 4; ++i) {
    std::vector<CacheSlice> next = {
        Slice(i * kFrame, kFrame, nullptr, back.data())};
    ASSERT_TRUE(pool.ReadThrough(next).ok());
    EXPECT_TRUE(std::equal(back.begin(), back.end(),
                           data.begin() + static_cast<long>(i * kFrame)));
  }
  EXPECT_EQ(pool.stats().hits, 3u);
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST(BufferPoolTest, SpanningReadHitsAcrossAdjacentFrames) {
  BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kRetain);
  BufferPoolOptions options;
  options.capacity_bytes = 1 * kMiB;
  BufferPool pool(&dev, options);
  const std::vector<uint8_t> data = Pattern(2 * kFrame, 4);
  ASSERT_TRUE(dev.Write(0, 2 * kFrame, data).ok());

  std::vector<uint8_t> back(2 * kFrame);
  std::vector<CacheSlice> a = {Slice(0, kFrame, nullptr, back.data())};
  std::vector<CacheSlice> b = {
      Slice(kFrame, kFrame, nullptr, back.data())};
  ASSERT_TRUE(pool.ReadThrough(a).ok());
  ASSERT_TRUE(pool.ReadThrough(b).ok());
  ASSERT_EQ(pool.frame_count(), 2u);

  std::vector<CacheSlice> both = {
      Slice(0, 2 * kFrame, nullptr, back.data())};
  ASSERT_TRUE(pool.ReadThrough(both).ok());
  EXPECT_EQ(back, data);
  EXPECT_EQ(pool.stats().hits, 1u) << "contiguous coverage is one hit";
}

TEST(BufferPoolTest, WriteBackParksDirtyThenFlushes) {
  BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kRetain);
  BufferPoolOptions options;
  options.capacity_bytes = 1 * kMiB;
  BufferPool pool(&dev, options);
  const std::vector<uint8_t> data = Pattern(kFrame, 5);

  std::vector<CacheSlice> w = {Slice(0, kFrame, data.data(), nullptr)};
  ASSERT_TRUE(pool.WriteThrough(w).ok());
  EXPECT_EQ(dev.stats().writes, 0u) << "write-back reached the device";
  EXPECT_EQ(pool.dirty_bytes(), kFrame);
  EXPECT_EQ(pool.stats().write_installs, 1u);

  // The pool serves its dirty bytes; the arena still has none.
  std::vector<uint8_t> back(kFrame);
  std::vector<CacheSlice> r = {Slice(0, kFrame, nullptr, back.data())};
  ASSERT_TRUE(pool.ReadThrough(r).ok());
  EXPECT_EQ(back, data);

  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(pool.dirty_bytes(), 0u);
  EXPECT_GE(pool.stats().writebacks, 1u);
  EXPECT_EQ(pool.stats().writeback_bytes, kFrame);
  bool matches = true;
  uint64_t checked = 0;
  dev.ReadView(0, kFrame, [&](std::span<const uint8_t> chunk) {
    for (uint8_t byte : chunk) {
      matches = matches && byte == data[checked++];
    }
  });
  EXPECT_TRUE(matches && checked == kFrame)
      << "flushed bytes differ from the written payload";
}

TEST(BufferPoolTest, EvictionRecyclesFrameBuffers) {
  BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kRetain);
  BufferPoolOptions options;
  options.capacity_bytes = 2 * kFrame;
  options.shards = 1;
  BufferPool pool(&dev, options);
  ASSERT_TRUE(dev.Write(0, 8 * kFrame).ok());

  std::vector<uint8_t> back(kFrame);
  for (uint64_t i = 0; i < 6; ++i) {
    std::vector<CacheSlice> r = {
        Slice(i * kFrame, kFrame, nullptr, back.data())};
    ASSERT_TRUE(pool.ReadThrough(r).ok());
  }
  EXPECT_GE(pool.stats().evictions, 4u);
  EXPECT_GT(pool.stats().frame_recycles, 0u)
      << "steady-state fills must reuse evicted buffers";
  EXPECT_LE(pool.cached_bytes(), options.capacity_bytes);
}

TEST(BufferPoolTest, ClockRingStaysBoundedUnderInvalidateChurn) {
  // Invalidate/reinstall churn under capacity never evicts, so no hand
  // ever sweeps the ring; its stale entries must still not pile up with
  // every install. 1M installs over 32 live frames.
  BlockDevice dev(SmallDisk(64 * kMiB));
  BufferPool pool(&dev, {.capacity_bytes = 16 * kMiB, .shards = 4});
  constexpr uint64_t kFrames = 32;
  constexpr uint64_t kInstalls = 1'000'000;
  for (uint64_t i = 0; i < kInstalls; ++i) {
    const uint64_t offset = (i % kFrames) * kFrame;
    if (i >= kFrames) pool.Invalidate(offset, kFrame);
    const std::vector<CacheSlice> r = {Slice(offset, kFrame, nullptr, nullptr)};
    ASSERT_TRUE(pool.ReadThrough(r).ok());
    if (i % 4096 == 0 || i + 1 == kInstalls) {
      ASSERT_LE(pool.clock_ring_entries(), 4 * (pool.frame_count() + 4)) << i;
    }
  }
  EXPECT_EQ(pool.frame_count(), kFrames);
  EXPECT_EQ(pool.stats().fills, kInstalls);
  EXPECT_EQ(pool.stats().evictions, 0u);
}

TEST(BufferPoolTest, PinnedFramesRefuseEviction) {
  BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kRetain);
  BufferPoolOptions options;
  options.capacity_bytes = 2 * kFrame;
  options.shards = 1;
  BufferPool pool(&dev, options);
  ASSERT_TRUE(dev.Write(0, 8 * kFrame).ok());

  std::vector<uint8_t> back(kFrame);
  auto read = [&](uint64_t frame) {
    std::vector<CacheSlice> r = {
        Slice(frame * kFrame, kFrame, nullptr, back.data())};
    ASSERT_TRUE(pool.ReadThrough(r).ok());
  };
  read(0);
  read(1);
  EXPECT_EQ(pool.PinRange(0, 2 * kFrame), 2u);

  // The domain is fully pinned: the pool must grow, not evict.
  read(2);
  EXPECT_EQ(pool.stats().evictions, 0u);
  EXPECT_GE(pool.stats().eviction_refusals, 1u);
  EXPECT_GT(pool.cached_bytes(), options.capacity_bytes);

  // Pinned frames still serve (counted) hits.
  const uint64_t pinned_hits = pool.stats().pinned_hits;
  read(0);
  EXPECT_GT(pool.stats().pinned_hits, pinned_hits);

  pool.UnpinRange(0, 2 * kFrame);
  read(3);
  read(4);
  EXPECT_GT(pool.stats().evictions, 0u) << "unpinned frames evict again";
}

TEST(BufferPoolTest, InvalidateDiscardsDirtyContent) {
  BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kRetain);
  BufferPoolOptions options;
  options.capacity_bytes = 1 * kMiB;
  BufferPool pool(&dev, options);
  const std::vector<uint8_t> data = Pattern(kFrame, 7);
  std::vector<CacheSlice> w = {Slice(0, kFrame, data.data(), nullptr)};
  ASSERT_TRUE(pool.WriteThrough(w).ok());
  ASSERT_EQ(pool.dirty_bytes(), kFrame);

  pool.Invalidate(0, kFrame);
  EXPECT_EQ(pool.frame_count(), 0u);
  EXPECT_EQ(pool.dirty_bytes(), 0u);
  EXPECT_EQ(pool.stats().invalidations, 1u);
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(dev.stats().writes, 0u)
      << "invalidated dirty bytes must never reach the device";
}

TEST(BufferPoolTest, MetadataOnlyFramesReadZerosAndChargeAlike) {
  BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kMetadataOnly);
  BufferPoolOptions options;
  options.capacity_bytes = 1 * kMiB;
  BufferPool pool(&dev, options);
  ASSERT_TRUE(dev.Write(0, kFrame).ok());

  std::vector<uint8_t> back(kFrame, 0xEE);
  std::vector<CacheSlice> r = {Slice(0, kFrame, nullptr, back.data())};
  ASSERT_TRUE(pool.ReadThrough(r).ok());
  ASSERT_TRUE(pool.ReadThrough(r).ok());
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_TRUE(std::all_of(back.begin(), back.end(),
                          [](uint8_t b) { return b == 0; }));
  // Bookkeeping frames spend no payload memory; the device must also
  // hold no slab for the range (kMetadataOnly never materializes one).
  EXPECT_EQ(pool.cached_bytes(), kFrame);
}

TEST(BufferPoolTest, ArmedInjectorForcesWriteThrough) {
  BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kRetain);
  FaultInjector injector;
  dev.AttachFaultInjector(&injector);
  BufferPoolOptions options;
  options.capacity_bytes = 1 * kMiB;
  BufferPool pool(&dev, options);
  const std::vector<uint8_t> data = Pattern(kFrame, 8);

  CrashSpec spec;
  spec.crash_after_writes = 1000;  // Far enough to never trip here.
  injector.Arm(spec);
  std::vector<CacheSlice> w = {Slice(0, kFrame, data.data(), nullptr)};
  ASSERT_TRUE(pool.WriteThrough(w).ok());
  EXPECT_EQ(pool.dirty_bytes(), 0u)
      << "dirty bytes parked in DRAM inside an armed crash window";
  EXPECT_GE(pool.stats().forced_write_through, 1u);
  EXPECT_EQ(dev.stats().writes, 1u);
}

TEST(BufferPoolTest, ViewServesDirtyFramesAndArenaGaps) {
  BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kRetain);
  BufferPoolOptions options;
  options.capacity_bytes = 1 * kMiB;
  BufferPool pool(&dev, options);
  const std::vector<uint8_t> on_disk = Pattern(kFrame, 9);
  const std::vector<uint8_t> in_cache = Pattern(kFrame, 10);
  ASSERT_TRUE(dev.Write(0, 2 * kFrame, {}).ok());
  ASSERT_TRUE(dev.Write(kFrame, kFrame, on_disk).ok());
  std::vector<CacheSlice> w = {Slice(0, kFrame, in_cache.data(), nullptr)};
  ASSERT_TRUE(pool.WriteThrough(w).ok());  // Dirty frame at [0, kFrame).

  std::vector<uint8_t> got;
  pool.View(0, 2 * kFrame, [&](std::span<const uint8_t> chunk) {
    got.insert(got.end(), chunk.begin(), chunk.end());
  });
  ASSERT_EQ(got.size(), 2 * kFrame);
  EXPECT_TRUE(std::equal(in_cache.begin(), in_cache.end(), got.begin()))
      << "view missed the dirty frame";
  EXPECT_TRUE(std::equal(on_disk.begin(), on_disk.end(),
                         got.begin() + static_cast<long>(kFrame)))
      << "view missed the arena gap";
}

// A fill that fails its media admission must DROP the installed frame,
// not park it: a parked never-filled frame would serve zeros as a hit
// once the fault clears — a silent corruption manufactured by the
// cache itself.
TEST(BufferPoolTest, FailedFillDropsFrameInsteadOfServingZeros) {
  BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kRetain);
  BufferPoolOptions options;
  options.capacity_bytes = 1 * kMiB;
  BufferPool pool(&dev, options);

  const std::vector<uint8_t> data = Pattern(kFrame, 11);
  ASSERT_TRUE(dev.Write(0, kFrame, data).ok());

  MediaFaultModel media;
  dev.AttachMediaFaults(&media);
  MediaFaultSpec spec;
  spec.lse_rate = 1.0;
  spec.transient_fraction = 0.0;
  media.Arm(spec);

  std::vector<uint8_t> back(kFrame, 0xEE);
  std::vector<CacheSlice> r = {Slice(0, kFrame, nullptr, back.data())};
  Status s = pool.ReadThrough(r);
  EXPECT_TRUE(s.IsIoError()) << s.ToString();

  // Fault paused: the retry must go back to the device (no frame may
  // have survived the failed fill) and deliver the real bytes.
  media.set_suspended(true);
  const uint64_t reads_before = dev.stats().reads;
  std::vector<CacheSlice> again = {Slice(0, kFrame, nullptr, back.data())};
  ASSERT_TRUE(pool.ReadThrough(again).ok());
  EXPECT_EQ(back, data) << "cache served a never-filled frame";
  EXPECT_GT(dev.stats().reads, reads_before);
}

TEST(BufferPoolTest, LaterSliceInstallNeverCorruptsEarlierSliceCopies) {
  // One ReadThrough call whose later slice installs a fill range over a
  // frame an earlier slice is served from. The install drops that
  // frame and often reuses its slot at once; the earlier slice must
  // still receive its own bytes, and no frame may keep a pin.
  constexpr uint64_t kSeg = 64 * kKiB;
  // Random bytes: Pattern() repeats every 256 bytes, and every misplaced
  // copy here lands a multiple of that away.
  std::vector<uint8_t> data(16 * kSeg);
  Rng rng(5);
  for (uint8_t& byte : data) byte = static_cast<uint8_t>(rng.Next());
  auto expect_bytes = [&](const std::vector<uint8_t>& got, uint64_t offset,
                          const char* what) {
    const std::vector<uint8_t> want(data.begin() + offset,
                                    data.begin() + offset + got.size());
    EXPECT_EQ(got, want) << what;
  };
  // Every frame evicts again once 8 MiB of misses stream through a
  // 4 MiB single-domain pool: none was left pinned.
  auto expect_unpinned = [](BufferPool* pool) {
    for (uint64_t off = kMiB; off < 9 * kMiB; off += kMiB) {
      std::vector<CacheSlice> flood = {Slice(off, kMiB, nullptr, nullptr)};
      ASSERT_TRUE(pool->ReadThrough(flood).ok());
    }
    EXPECT_EQ(pool->stats().eviction_refusals, 0u);
    const uint64_t misses = pool->stats().misses;
    std::vector<CacheSlice> probe = {Slice(0, 8 * kSeg, nullptr, nullptr)};
    ASSERT_TRUE(pool->ReadThrough(probe).ok());
    EXPECT_EQ(pool->stats().misses, misses + 1) << "a frame kept a pin";
  };
  BufferPoolOptions options;
  options.capacity_bytes = 4 * kMiB;
  options.shards = 1;

  for (const bool user_pin : {false, true}) {
    // A hit on a frame that predates the call, then a miss whose fill
    // range [0, 512K) covers it (and, with `partial`, one that covers
    // only part of it: [160K, 256K)).
    for (const bool partial : {false, true}) {
      BlockDevice dev(SmallDisk(16 * kMiB), DataMode::kRetain);
      ASSERT_TRUE(dev.Write(0, data.size(), data).ok());
      BufferPool pool(&dev, options);
      std::vector<CacheSlice> warm = {Slice(2 * kSeg, kSeg, nullptr, nullptr)};
      ASSERT_TRUE(pool.ReadThrough(warm).ok());
      if (user_pin) {
        EXPECT_EQ(pool.PinRange(2 * kSeg, kSeg), 1u);
      }

      std::vector<uint8_t> a(kSeg), b(kSeg);
      CacheSlice miss = Slice(3 * kSeg, kSeg, nullptr, b.data());
      miss.fill_offset = partial ? 5 * kSeg / 2 : 0;
      miss.fill_length = (partial ? 4 * kSeg : 8 * kSeg) - miss.fill_offset;
      std::vector<CacheSlice> call = {Slice(2 * kSeg, kSeg, nullptr, a.data()),
                                      miss};
      ASSERT_TRUE(pool.ReadThrough(call).ok());
      EXPECT_EQ(pool.stats().hits, 1u);
      expect_bytes(a, 2 * kSeg, "hit slice");
      expect_bytes(b, 3 * kSeg, "miss slice");
      if (user_pin) pool.UnpinRange(0, 8 * kSeg);
      expect_unpinned(&pool);
    }
  }

  // A frame installed earlier in the same call (its fill still
  // pending) replaced by a later slice's install: [0, 64K) fills
  // [0, 128K), then [96K, 160K) is only partly covered and installs
  // over it.
  BlockDevice dev(SmallDisk(16 * kMiB), DataMode::kRetain);
  ASSERT_TRUE(dev.Write(0, data.size(), data).ok());
  BufferPool pool(&dev, options);
  std::vector<uint8_t> a(kSeg), b(kSeg);
  CacheSlice first = Slice(0, kSeg, nullptr, a.data());
  first.fill_length = 2 * kSeg;
  std::vector<CacheSlice> call = {first,
                                  Slice(3 * kSeg / 2, kSeg, nullptr, b.data())};
  ASSERT_TRUE(pool.ReadThrough(call).ok());
  expect_bytes(a, 0, "replaced fill frame");
  expect_bytes(b, 3 * kSeg / 2, "replacing fill frame");
  expect_unpinned(&pool);
}

// Offset-index boundaries, seen only through the public API. The
// directory keeps one entry per granule of at least 64 KiB, so the
// cases below put frames on granule edges, on the device's first and
// last byte, at odd offsets, and tens of thousands of granules apart.

/// Bytes of [offset, offset+len) as the pool serves them.
std::vector<uint8_t> Viewed(const BufferPool& pool, uint64_t offset,
                            uint64_t len) {
  std::vector<uint8_t> out;
  pool.View(offset, len, [&](std::span<const uint8_t> chunk) {
    out.insert(out.end(), chunk.begin(), chunk.end());
  });
  return out;
}

TEST(BufferPoolIndexTest, FramesAtTheDeviceStartAndEnd) {
  constexpr uint64_t kCap = 16 * kMiB;
  constexpr uint64_t kTail = 5000;  // Unaligned, ends on the last byte.
  BlockDevice dev(SmallDisk(kCap), DataMode::kRetain);
  BufferPoolOptions options;
  options.capacity_bytes = 4 * kMiB;
  BufferPool pool(&dev, options);

  const std::vector<uint8_t> head = Pattern(4 * kKiB, 3);
  const std::vector<uint8_t> tail = Pattern(kTail, 4);
  std::vector<CacheSlice> w = {Slice(0, head.size(), head.data(), nullptr),
                               Slice(kCap - kTail, kTail, tail.data(), nullptr)};
  ASSERT_TRUE(pool.WriteThrough(w).ok());
  EXPECT_EQ(pool.frame_count(), 2u);
  EXPECT_EQ(dev.stats().writes, 0u) << "write-back wrote through";

  // Both frames serve their bytes (still dirty: only the pool has them).
  EXPECT_EQ(Viewed(pool, 0, head.size()), head);
  EXPECT_EQ(Viewed(pool, kCap - kTail, kTail), tail);
  std::vector<uint8_t> last(1);
  std::vector<CacheSlice> r = {Slice(kCap - 1, 1, nullptr, last.data())};
  ASSERT_TRUE(pool.ReadThrough(r).ok());
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(last[0], tail.back());

  // A range holding only the last byte finds the frame that starts
  // 5000 bytes earlier; one holding only byte 0 finds the first frame.
  ASSERT_TRUE(pool.FlushRange(kCap - 1, 1).ok());
  EXPECT_EQ(dev.stats().bytes_written, kTail);
  ASSERT_TRUE(pool.FlushRange(0, 1).ok());
  EXPECT_EQ(dev.stats().bytes_written, kTail + head.size());
  EXPECT_EQ(pool.dirty_bytes(), 0u);

  pool.Invalidate(kCap - 1, 1);
  EXPECT_EQ(pool.frame_count(), 1u);
  pool.Invalidate(0, 1);
  EXPECT_EQ(pool.frame_count(), 0u);
  EXPECT_EQ(pool.cached_bytes(), 0u);
}

TEST(BufferPoolIndexTest, UnalignedFramesStraddlingGranuleEdges) {
  constexpr uint64_t kCap = 16 * kMiB;
  constexpr uint64_t kEdge = 64 * kKiB;
  BlockDevice dev(SmallDisk(kCap), DataMode::kRetain);
  BufferPoolOptions options;
  options.capacity_bytes = 4 * kMiB;
  BufferPool pool(&dev, options);

  // [start, length): across one edge, ending one byte past an edge,
  // spanning three edges, exactly one granule, and two frames sharing
  // a granule.
  const std::vector<std::pair<uint64_t, uint64_t>> frames = {
      {kEdge - 100, 200},          {2 * kEdge - 1, 2},
      {3 * kEdge + 7, 3 * kEdge},  {7 * kEdge, kEdge},
      {9 * kEdge + 11, 13},        {9 * kEdge + 4000, 3}};
  std::vector<uint8_t> expected(10 * kEdge, 0);
  std::vector<std::vector<uint8_t>> payloads;
  for (size_t i = 0; i < frames.size(); ++i) {
    const auto [start, len] = frames[i];
    payloads.push_back(Pattern(len, static_cast<uint8_t>(10 + i)));
    std::copy(payloads.back().begin(), payloads.back().end(),
              expected.begin() + static_cast<long>(start));
    std::vector<CacheSlice> w = {
        Slice(start, len, payloads.back().data(), nullptr)};
    ASSERT_TRUE(pool.WriteThrough(w).ok());
  }
  EXPECT_EQ(pool.frame_count(), frames.size());
  EXPECT_EQ(Viewed(pool, 0, expected.size()), expected);

  // A read wholly inside the middle granule of the three-edge frame
  // hits; one just past that frame's end, in the same granule, misses
  // and fills a frame of its own.
  std::vector<uint8_t> back(10);
  std::vector<CacheSlice> r = {
      Slice(4 * kEdge + 5, back.size(), nullptr, back.data())};
  ASSERT_TRUE(pool.ReadThrough(r).ok());
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_TRUE(std::equal(back.begin(), back.end(),
                         expected.begin() + 4 * kEdge + 5));
  r = {Slice(6 * kEdge + 7, 2, nullptr, back.data())};
  ASSERT_TRUE(pool.ReadThrough(r).ok());
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.frame_count(), frames.size() + 1);
  EXPECT_EQ(dev.stats().bytes_written, 0u);

  // Flushing one byte on the far side of an edge writes the frame that
  // crosses it; invalidating the second of two frames in one granule
  // leaves the first.
  ASSERT_TRUE(pool.FlushRange(kEdge + 50, 1).ok());
  EXPECT_EQ(dev.stats().bytes_written, 200u);
  pool.Invalidate(9 * kEdge + 4001, 1);
  EXPECT_EQ(pool.frame_count(), frames.size());
  expected[9 * kEdge + 4000] = expected[9 * kEdge + 4001] =
      expected[9 * kEdge + 4002] = 0;  // Dirty bytes died with the frame.
  EXPECT_EQ(Viewed(pool, 0, expected.size()), expected);

  // FlushAll writes every remaining dirty frame once.
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(dev.stats().bytes_written,
            200u + 2 + 3 * kEdge + kEdge + 13);
  EXPECT_EQ(pool.dirty_bytes(), 0u);
}

TEST(BufferPoolIndexTest, LookupsAcrossThousandsOfEmptyGranules) {
  // Bookkeeping frames on a 32 GiB device: a 1 GiB frame at offset 0
  // spans 16,384 granules of 64 KiB, far more than the 4,096 one
  // summary word of the non-empty bitmap covers.
  constexpr uint64_t kCap = 32 * kGiB;
  BlockDevice dev(SmallDisk(kCap), DataMode::kMetadataOnly);
  BufferPoolOptions options;
  options.capacity_bytes = 8 * kGiB;  // The lazy writer stays idle.
  options.shards = 1;
  BufferPool pool(&dev, options);

  std::vector<CacheSlice> w = {Slice(0, kGiB, nullptr, nullptr),
                               Slice(kCap - 4 * kKiB, 4 * kKiB, nullptr,
                                     nullptr)};
  ASSERT_TRUE(pool.WriteThrough(w).ok());
  ASSERT_EQ(pool.frame_count(), 2u);

  // Reads deep inside the big frame hit it.
  for (const uint64_t at : {kGiB / 2, kGiB - 1, uint64_t{300} * kMiB + 7}) {
    std::vector<CacheSlice> r = {Slice(at, 1, nullptr, nullptr)};
    ASSERT_TRUE(pool.ReadThrough(r).ok());
  }
  EXPECT_EQ(pool.stats().hits, 3u);
  EXPECT_EQ(pool.stats().misses, 0u);

  // A read in the empty middle misses, and its fill lands between the
  // two frames without disturbing either.
  std::vector<CacheSlice> r = {Slice(16 * kGiB + 3, 100, nullptr, nullptr)};
  ASSERT_TRUE(pool.ReadThrough(r).ok());
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.frame_count(), 3u);

  // One byte far inside the big frame flushes all of it; one byte
  // below the last frame flushes nothing; the last byte finds it.
  ASSERT_TRUE(pool.FlushRange(kGiB - 2, 1).ok());
  EXPECT_EQ(dev.stats().bytes_written, kGiB);
  ASSERT_TRUE(pool.FlushRange(kCap - 4 * kKiB - 1, 1).ok());
  EXPECT_EQ(dev.stats().bytes_written, kGiB);
  ASSERT_TRUE(pool.FlushRange(kCap - 1, 1).ok());
  EXPECT_EQ(dev.stats().bytes_written, kGiB + 4 * kKiB);

  pool.Invalidate(20 * kGiB, 1);  // Nothing there.
  EXPECT_EQ(pool.frame_count(), 3u);
  pool.Invalidate(kGiB / 3, 1);
  pool.Invalidate(kCap - 1, 1);
  EXPECT_EQ(pool.frame_count(), 1u);
  EXPECT_EQ(pool.cached_bytes(), 100u);
}

TEST(BufferPoolIndexTest, ResetThenReuse) {
  constexpr uint64_t kCap = 16 * kMiB;
  BlockDevice dev(SmallDisk(kCap), DataMode::kRetain);
  BufferPoolOptions options;
  options.capacity_bytes = 4 * kMiB;
  BufferPool pool(&dev, options);

  const std::vector<uint8_t> old_bytes = Pattern(3 * kFrame, 30);
  std::vector<CacheSlice> w = {
      Slice(kFrame / 2, old_bytes.size(), old_bytes.data(), nullptr)};
  ASSERT_TRUE(pool.WriteThrough(w).ok());
  ASSERT_GT(pool.dirty_bytes(), 0u);

  // The crash path: dirty frames vanish without reaching the device.
  pool.Reset();
  EXPECT_EQ(pool.frame_count(), 0u);
  EXPECT_EQ(pool.cached_bytes(), 0u);
  EXPECT_EQ(pool.dirty_bytes(), 0u);
  EXPECT_EQ(Viewed(pool, kFrame / 2, old_bytes.size()),
            std::vector<uint8_t>(old_bytes.size(), 0));
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(dev.stats().writes, 0u);

  // The same offsets index afresh: smaller frames, then a read.
  const std::vector<uint8_t> a = Pattern(kFrame, 31);
  const std::vector<uint8_t> b = Pattern(kFrame, 32);
  w = {Slice(kFrame / 2, a.size(), a.data(), nullptr),
       Slice(2 * kFrame, b.size(), b.data(), nullptr)};
  ASSERT_TRUE(pool.WriteThrough(w).ok());
  EXPECT_EQ(pool.frame_count(), 2u);
  std::vector<uint8_t> back(kFrame);
  std::vector<CacheSlice> r = {Slice(2 * kFrame, kFrame, nullptr, back.data())};
  ASSERT_TRUE(pool.ReadThrough(r).ok());
  EXPECT_EQ(back, b);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(Viewed(pool, kFrame / 2, kFrame), a);

  // FlushAll writes exactly the post-reset frames.
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(dev.stats().bytes_written, 2 * kFrame);
  EXPECT_EQ(pool.dirty_bytes(), 0u);
}

// Pins every decision the pool makes (hits, fills, evictions, flush
// batches, pins, device charges) under a seeded op stream, so that an
// index or eviction-bookkeeping rewrite can prove it changed nothing.
/// Device and pool sizes of one churn configuration.
struct ChurnShape {
  uint64_t capacity = 16 * kMiB;
  uint64_t pool_bytes = 4 * kMiB;
  double dirty_ratio = 0.25;
  /// Whether the stream issues explicit FlushAll calls; without them
  /// only the lazy writer (and eviction) cleans dirty frames.
  bool flush_all = true;
};

class SeededChurn {
 public:
  /// Multi-slice reads keep their slices this far apart, beyond the
  /// largest frame the stream installs, so no slice's fill can drop a
  /// frame an earlier slice of the same call is still copying from.
  static constexpr uint64_t kSliceGap = 3 * kMiB;

  SeededChurn(uint64_t seed, uint32_t shards, DataMode mode,
              ChurnShape shape = {})
      : shape_(shape),
        rng_(seed),
        dev_(SmallDisk(shape.capacity), mode),
        pool_(&dev_, Options(shards, shape)),
        payload_(8 * kMiB),
        scratch_(8 * kMiB) {
    Rng fill(seed ^ 0x5eed);
    for (uint8_t& b : payload_) b = static_cast<uint8_t>(fill.Next());
    dev_.AttachFaultInjector(&injector_);
  }

  uint64_t Run(int ops) {
    for (int step = 0; step < ops; ++step) {
      Step(step);
      HashState();
    }
    return hash_;
  }

  /// Write calls that ended in a whole-pool lazy-writer flush.
  uint64_t lazy_flushes() const { return lazy_flushes_; }

 private:
  static BufferPoolOptions Options(uint32_t shards, const ChurnShape& shape) {
    BufferPoolOptions options;
    options.capacity_bytes = shape.pool_bytes;
    options.dirty_ratio = shape.dirty_ratio;
    options.shards = shards;
    return options;
  }

  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= kFnvPrime;
    }
  }
  void MixDouble(double d) { Mix(std::bit_cast<uint64_t>(d)); }
  void MixStatus(const Status& s) { Mix(s.ok() ? 0 : 1 + s.ToString().size()); }

  /// Lengths from one byte to 2.5 MiB: mostly small, some spanning
  /// several 1 MiB offset buckets.
  uint64_t Length() {
    const uint64_t r = rng_.Uniform(100);
    uint64_t len;
    if (r < 75) {
      len = rng_.UniformRange(1, 32 * kKiB);
    } else if (r < 95) {
      len = rng_.UniformRange(32 * kKiB, 128 * kKiB);
    } else if (r < 99) {
      len = rng_.UniformRange(128 * kKiB, 768 * kKiB);
    } else {
      len = rng_.UniformRange(kMiB + 1, 5 * kMiB / 2);
    }
    if (rng_.Bernoulli(0.6)) {
      len = std::max<uint64_t>(4 * kKiB, len & ~(4 * kKiB - 1));
    }
    return len;
  }

  /// Start offsets: a hot region for hits, the whole device for misses,
  /// unaligned starts, and ranges ending on the device's last byte.
  uint64_t Offset(uint64_t len) {
    const uint64_t r = rng_.Uniform(100);
    if (r < 3) return shape_.capacity - len;
    const uint64_t span = r < 60 ? 5 * kMiB : shape_.capacity;
    uint64_t off = rng_.Uniform(span > len ? span - len + 1 : 1);
    if (rng_.Bernoulli(0.7)) off &= ~(4 * kKiB - 1);
    return off;
  }

  const uint8_t* Src(uint64_t len) {
    if (rng_.Bernoulli(0.3)) return nullptr;
    return payload_.data() + rng_.Uniform(payload_.size() - len + 1);
  }

  void HashBytes(const uint8_t* p, uint64_t len) {
    for (uint64_t at : {uint64_t{0}, len / 3, len / 2, len - 1}) Mix(p[at]);
  }

  void Read() {
    std::vector<CacheSlice> slices;
    const int n =
        rng_.Bernoulli(0.8) ? 1 : 2 + static_cast<int>(rng_.Uniform(2));
    uint64_t floor = 0;
    uint64_t used = 0;
    for (int i = 0; i < n; ++i) {
      const uint64_t len = Length();
      uint64_t off = i == 0 ? Offset(len) : floor + rng_.Uniform(kMiB);
      if (off + len > shape_.capacity) break;
      CacheSlice s{off, len, nullptr, nullptr, off, 0};
      if (rng_.Bernoulli(0.6)) {
        // Read-ahead over the surrounding run, clamped to the device.
        const uint64_t before = std::min(off, rng_.Uniform(96 * kKiB));
        const uint64_t after =
            std::min(shape_.capacity - off - len, rng_.Uniform(160 * kKiB));
        s.fill_offset = off - before;
        s.fill_length = before + len + after;
        if (i > 0 && s.fill_offset < floor) break;
      }
      if (rng_.Bernoulli(0.7) && used + len <= scratch_.size()) {
        s.dst = scratch_.data() + used;
        used += len;
      }
      slices.push_back(s);
      floor = std::max(off + len, s.fill_offset + s.fill_length) + kSliceGap;
    }
    uint64_t device_bytes = 0;
    MixStatus(pool_.ReadThrough(slices, &device_bytes));
    Mix(device_bytes);
    for (const CacheSlice& s : slices) {
      if (s.dst != nullptr) HashBytes(s.dst, s.length);
    }
  }

  void Write() {
    std::vector<CacheSlice> slices;
    const int n =
        rng_.Bernoulli(0.85) ? 1 : 2 + static_cast<int>(rng_.Uniform(2));
    uint64_t floor = 0;
    for (int i = 0; i < n; ++i) {
      const uint64_t len = Length();
      const uint64_t off = i == 0 ? Offset(len) : floor + rng_.Uniform(kMiB);
      if (off + len > shape_.capacity) break;
      slices.push_back({off, len, Src(len), nullptr, off, 0});
      floor = off + len;
    }
    const uint64_t writebacks = pool_.stats().writebacks;
    uint64_t device_bytes = 0;
    MixStatus(pool_.WriteThrough(slices, &device_bytes));
    Mix(device_bytes);
    // A write-back call leaves its own frame dirty, so one that ends
    // with nothing dirty and frames written back tripped the lazy writer.
    if (!injector_.armed() && pool_.dirty_bytes() == 0 &&
        pool_.stats().writebacks > writebacks) {
      ++lazy_flushes_;
    }
  }

  void Step(int step) {
    // Short armed crash windows force write-through now and then.
    if (step % 2000 == 1000) {
      CrashSpec spec;
      spec.crash_after_writes = 1ull << 40;
      injector_.Arm(spec);
    } else if (step % 2000 == 1100) {
      injector_.Disarm();
    }
    const uint64_t r = rng_.Uniform(1000);
    if (r < 380) {
      Read();
    } else if (r < 680) {
      Write();
    } else if (r < 800) {
      const uint64_t len = Length();
      pool_.Invalidate(Offset(len), len);
    } else if (r < 860) {
      const uint64_t len = Length();
      const uint64_t off = Offset(len);
      Mix(pool_.PinRange(off, len));
      pins_.emplace_back(off, len);
      if (pins_.size() > 6) {
        pool_.UnpinRange(pins_.front().first, pins_.front().second);
        pins_.erase(pins_.begin());
      }
    } else if (r < 900 && !pins_.empty()) {
      const size_t i = rng_.Uniform(pins_.size());
      pool_.UnpinRange(pins_[i].first, pins_[i].second);
      pins_.erase(pins_.begin() + static_cast<long>(i));
    } else if (r < 940) {
      const uint64_t len = Length();
      MixStatus(pool_.FlushRange(Offset(len), len));
    } else if (r < 945) {
      if (shape_.flush_all) MixStatus(pool_.FlushAll());
    } else if (r < 975) {
      const uint64_t len = Length();
      pool_.View(Offset(len), len, [this](std::span<const uint8_t> chunk) {
        HashBytes(chunk.data(), chunk.size());
      });
    } else if (r < 999) {
      const uint64_t len = Length();
      uint8_t salt = static_cast<uint8_t>(step);
      pool_.WriteViewThrough(Offset(len), len, [&salt](std::span<uint8_t> c) {
        c.front() = salt;
        c.back() = static_cast<uint8_t>(salt + 1);
        ++salt;
      });
    } else {
      pool_.Reset();
      pins_.clear();
    }
  }

  void HashState() {
    const BufferPoolStats& s = pool_.stats();
    for (uint64_t v :
         {s.hits, s.misses, s.fills, s.evictions, s.writebacks,
          s.invalidations, s.hit_bytes, s.miss_bytes, s.fill_bytes,
          s.writeback_bytes, s.frame_allocs, s.frame_recycles, s.pinned_hits,
          s.eviction_refusals, s.write_installs, s.forced_write_through,
          pool_.frame_count(), pool_.cached_bytes(), pool_.dirty_bytes()}) {
      Mix(v);
    }
    const IoStats& io = dev_.stats();
    for (uint64_t v : {io.reads, io.writes, io.bytes_read, io.bytes_written,
                       io.seeks, io.sequential_hits, io.vectored_requests,
                       io.coalesced_runs}) {
      Mix(v);
    }
    MixDouble(io.seek_time_s);
    MixDouble(io.rotational_time_s);
    MixDouble(io.transfer_time_s);
    MixDouble(io.busy_time_s);
    MixDouble(dev_.clock().now());
  }

  const ChurnShape shape_;
  Rng rng_;
  FaultInjector injector_;
  BlockDevice dev_;
  BufferPool pool_;
  std::vector<uint8_t> payload_;
  std::vector<uint8_t> scratch_;
  std::vector<std::pair<uint64_t, uint64_t>> pins_;
  uint64_t hash_ = kFnvBasis;
  uint64_t lazy_flushes_ = 0;
};

TEST(BufferPoolTest, SeededChurnDecisionsArePinned) {
  // 4 configurations x 25k ops: 1 and 4 eviction domains,
  // payload-carrying and bookkeeping frames, CLOCK eviction. Each
  // configuration's hash is the one the std::map-indexed pool produced;
  // any change to a decision, a counter or a device charge changes the
  // fold.
  uint64_t hash = kFnvBasis;
  uint64_t seed = 7;
  for (const uint32_t shards : {1u, 4u}) {
    for (const DataMode mode : {DataMode::kRetain, DataMode::kMetadataOnly}) {
      SeededChurn churn(seed++, shards, mode);
      const uint64_t h = churn.Run(25000);
      hash = (hash ^ h) * kFnvPrime;
    }
  }
  EXPECT_EQ(hash, 0x88a6fef7a55e1d30ull);

  // A fifth configuration at bench shape, pinned by the bucketed-index
  // pool: bookkeeping frames spread over a 64 GiB device, most of which
  // no frame ever touches, under a 256 MiB pool with a low dirty ratio
  // and no explicit FlushAll, so dirty bytes pile up until the lazy
  // writer trips.
  ChurnShape wide;
  wide.capacity = 64 * kGiB;
  wide.pool_bytes = 256 * kMiB;
  wide.dirty_ratio = 0.05;
  wide.flush_all = false;
  SeededChurn churn(seed, 4, DataMode::kMetadataOnly, wide);
  hash = (hash ^ churn.Run(25000)) * kFnvPrime;
  EXPECT_GT(churn.lazy_flushes(), 0u);
  EXPECT_EQ(hash, 0xcbbd545016f326e5ull);
}

}  // namespace
}  // namespace sim

namespace core {
namespace {

constexpr uint64_t kObject = 256 * kKiB;

std::vector<uint8_t> RepoPayload(uint64_t len, uint8_t salt) {
  std::vector<uint8_t> data(len);
  for (uint64_t i = 0; i < len; ++i) {
    data[i] = static_cast<uint8_t>(i * 41 + salt);
  }
  return data;
}

FsRepositoryConfig CachedFsConfig(uint64_t cache_bytes) {
  FsRepositoryConfig config;
  config.volume_bytes = 64 * kMiB;
  config.data_mode = sim::DataMode::kRetain;
  config.cache.capacity_bytes = cache_bytes;
  return config;
}

DbRepositoryConfig CachedDbConfig(uint64_t cache_bytes) {
  DbRepositoryConfig config;
  config.volume_bytes = 64 * kMiB;
  config.data_mode = sim::DataMode::kRetain;
  config.cache.capacity_bytes = cache_bytes;
  return config;
}

TEST(CacheCoherenceTest, FsReplaceAndDeleteNeverServeStaleBytes) {
  FsRepository repo(CachedFsConfig(8 * kMiB));
  const std::vector<uint8_t> v1 = RepoPayload(kObject, 1);
  const std::vector<uint8_t> v2 = RepoPayload(kObject, 2);

  ASSERT_TRUE(repo.Put("a", kObject, v1).ok());
  std::vector<uint8_t> got;
  ASSERT_TRUE(repo.Get("a", &got).ok());  // Cached now.
  ASSERT_EQ(got, v1);

  // Replace under an open read handle: the pin window must not keep
  // stale frames alive past the invalidation.
  auto handle = repo.Open("a");
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(repo.SafeWrite("a", kObject, v2).ok());
  ASSERT_TRUE(repo.Get("a", &got).ok());
  EXPECT_EQ(got, v2) << "read served the replaced object's stale frames";
  EXPECT_GT(repo.cache_stats().invalidations, 0u);
  ASSERT_TRUE(repo.Release(&*handle).ok());

  // Delete, then land a different object on the freed clusters.
  ASSERT_TRUE(repo.Delete("a").ok());
  const std::vector<uint8_t> v3 = RepoPayload(kObject, 3);
  ASSERT_TRUE(repo.Put("b", kObject, v3).ok());
  ASSERT_TRUE(repo.Get("b", &got).ok());
  EXPECT_EQ(got, v3) << "freed clusters served the deleted object's bytes";
}

TEST(CacheCoherenceTest, DbReplaceAndDeleteNeverServeStaleBytes) {
  DbRepository repo(CachedDbConfig(8 * kMiB));
  const std::vector<uint8_t> v1 = RepoPayload(kObject, 4);
  const std::vector<uint8_t> v2 = RepoPayload(kObject, 5);

  ASSERT_TRUE(repo.Put("a", kObject, v1).ok());
  std::vector<uint8_t> got;
  ASSERT_TRUE(repo.Get("a", &got).ok());
  ASSERT_EQ(got, v1);

  ASSERT_TRUE(repo.SafeWrite("a", kObject, v2).ok());
  ASSERT_TRUE(repo.Get("a", &got).ok());
  EXPECT_EQ(got, v2);
  EXPECT_GT(repo.cache_stats().invalidations, 0u);

  ASSERT_TRUE(repo.Delete("a").ok());
  const std::vector<uint8_t> v3 = RepoPayload(kObject, 6);
  ASSERT_TRUE(repo.Put("b", kObject, v3).ok());
  ASSERT_TRUE(repo.Get("b", &got).ok());
  EXPECT_EQ(got, v3);
}

TEST(CacheCoherenceTest, CleanRemountFlushesDirtyFrames) {
  FsRepository repo(CachedFsConfig(8 * kMiB));
  const std::vector<uint8_t> data = RepoPayload(kObject, 7);
  ASSERT_TRUE(repo.Put("a", kObject, data).ok());

  // The remount resets the pool; the payload must survive it on the
  // platter even if the put's frames were still dirty.
  ASSERT_TRUE(repo.Mount().ok());
  EXPECT_EQ(repo.buffer_pool()->dirty_bytes(), 0u);
  EXPECT_EQ(repo.buffer_pool()->frame_count(), 0u);
  std::vector<uint8_t> got;
  ASSERT_TRUE(repo.Get("a", &got).ok());
  EXPECT_EQ(got, data) << "dirty frames were dropped on a clean remount";
}

TEST(CacheCoherenceTest, FsckSeesThroughDirtyFrames) {
  // Fsck re-hashes every payload; with write-back frames still dirty
  // the verification must read cache-coherently and stay clean.
  FsRepository repo(CachedFsConfig(8 * kMiB));
  for (int i = 0; i < 4; ++i) {
    const std::string key = "obj" + std::to_string(i);
    ASSERT_TRUE(
        repo.Put(key, kObject, RepoPayload(kObject, uint8_t(10 + i))).ok());
  }
  auto report = repo.Fsck();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << "fsck flagged a cache-coherent store";
  EXPECT_GT(report->payloads_hashed, 0u);
}

TEST(CacheCoherenceTest, ArmedWindowForcesWriteThroughAtRepoLevel) {
  FsRepository repo(CachedFsConfig(8 * kMiB));
  sim::FaultInjector injector;
  repo.device()->AttachFaultInjector(&injector);
  ASSERT_TRUE(repo.Put("pre", kObject, RepoPayload(kObject, 20)).ok());
  ASSERT_TRUE(repo.DrainIo().ok());

  sim::CrashSpec spec;
  spec.crash_after_writes = 100000;  // Observe the window, never trip.
  injector.Arm(spec);
  ASSERT_TRUE(repo.Put("armed", kObject, RepoPayload(kObject, 21)).ok());
  EXPECT_EQ(repo.buffer_pool()->dirty_bytes(), 0u)
      << "acked bytes parked in DRAM inside the armed crash window";
  EXPECT_GT(repo.cache_stats().forced_write_through, 0u);
}

TEST(CacheCrashTest, TortureWithWriteBackCacheFs) {
  workload::CrashTortureOptions options;
  options.backend = workload::CrashBackend::kFilesystem;
  options.volume_bytes = 128 * kMiB;
  options.object_bytes = 96 * kKiB;
  options.objects = 24;
  options.cuts = 12;
  options.max_ops_per_window = 24;
  options.data_mode = sim::DataMode::kRetain;
  options.cache_bytes = 16 * kMiB;
  workload::CrashTortureRunner runner(options);
  auto summary = runner.Run();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->committed_lost, 0u)
      << "write-back cache lost committed objects across power cuts";
  EXPECT_EQ(summary->torn_surfaced, 0u);
  EXPECT_EQ(summary->fsck_dirty_cuts, 0u);
}

TEST(CacheCrashTest, TortureWithWriteBackCacheDb) {
  workload::CrashTortureOptions options;
  options.backend = workload::CrashBackend::kDatabase;
  options.volume_bytes = 128 * kMiB;
  options.object_bytes = 96 * kKiB;
  options.objects = 24;
  options.cuts = 12;
  options.max_ops_per_window = 24;
  options.data_mode = sim::DataMode::kRetain;
  options.cache_bytes = 16 * kMiB;
  workload::CrashTortureRunner runner(options);
  auto summary = runner.Run();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->committed_lost, 0u);
  EXPECT_EQ(summary->torn_surfaced, 0u);
  EXPECT_EQ(summary->fsck_dirty_cuts, 0u);
}

/// Runs the synthetic workload and returns (key -> payload hash) plus
/// (key -> layout) for parity comparison.
template <typename Repo>
void RunWorkloadAndCapture(Repo* repo,
                           std::vector<std::pair<std::string, uint64_t>>* hashes,
                           std::vector<alloc::ExtentList>* layouts) {
  workload::WorkloadConfig config;
  config.sizes = workload::SizeDistribution::Constant(64 * kKiB);
  config.seed = 7;
  config.materialize_reads = true;
  workload::GetPutRunner runner(repo, config);
  ASSERT_TRUE(runner.BulkLoad().ok());
  ASSERT_TRUE(runner.AgeTo(1.0).ok());

  std::vector<std::string> keys = repo->ListKeys();
  std::sort(keys.begin(), keys.end());
  std::vector<uint8_t> payload;
  for (const std::string& key : keys) {
    ASSERT_TRUE(repo->Get(key, &payload).ok());
    hashes->emplace_back(key, Fnv(payload));
    auto layout = repo->GetLayout(key);
    ASSERT_TRUE(layout.ok());
    layouts->push_back(*layout);
  }
}

TEST(CacheCoherenceTest, CachedAndUncachedRunsAreBitIdentical) {
  // Same seed, same workload — one store uncached, one fronted by a
  // working-set-sized write-back pool. The pool may change *charges*
  // only: every layout and every payload must be bit-identical.
  for (const bool use_db : {false, true}) {
    std::vector<std::pair<std::string, uint64_t>> hashes_cold, hashes_cached;
    std::vector<alloc::ExtentList> layouts_cold, layouts_cached;
    if (use_db) {
      DbRepository cold(CachedDbConfig(0));
      DbRepository cached(CachedDbConfig(48 * kMiB));
      RunWorkloadAndCapture(&cold, &hashes_cold, &layouts_cold);
      RunWorkloadAndCapture(&cached, &hashes_cached, &layouts_cached);
      EXPECT_GT(cached.cache_stats().write_installs, 0u);
      EXPECT_EQ(cold.cache_stats().hits + cold.cache_stats().misses, 0u);
    } else {
      FsRepository cold(CachedFsConfig(0));
      FsRepository cached(CachedFsConfig(48 * kMiB));
      RunWorkloadAndCapture(&cold, &hashes_cold, &layouts_cold);
      RunWorkloadAndCapture(&cached, &hashes_cached, &layouts_cached);
      EXPECT_GT(cached.cache_stats().write_installs, 0u);
      EXPECT_EQ(cold.cache_stats().hits + cold.cache_stats().misses, 0u);
    }
    ASSERT_FALSE(hashes_cold.empty());
    EXPECT_EQ(hashes_cold, hashes_cached)
        << (use_db ? "db" : "fs") << ": cached payloads diverged";
    EXPECT_EQ(layouts_cold, layouts_cached)
        << (use_db ? "db" : "fs") << ": cached layouts diverged";
  }
}

}  // namespace
}  // namespace core
}  // namespace lor
