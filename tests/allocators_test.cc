// Tests for RunCacheAllocator (its run-cache selections and the textbook
// fits), DeferredFreeQueue, and BuddyAllocator.

#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "alloc/buddy_allocator.h"
#include "alloc/deferred_free_queue.h"
#include "alloc/run_cache_allocator.h"
#include "util/fnv.h"
#include "util/random.h"

namespace lor {
namespace alloc {
namespace {

// The textbook fits share the run cache's path (extension, deferred or
// immediate free, rollback) and differ only in how a run is picked.

TEST(TextbookFitTest, AllocatesAndFrees) {
  RunCacheAllocator a(1000, {.selection = RunSelection::kBestFit,
                             .deferred_free = false});
  ExtentList out;
  ASSERT_TRUE(a.Allocate(100, kNoHint, &out).ok());
  EXPECT_EQ(TotalLength(out), 100u);
  EXPECT_EQ(a.free_clusters(), 900u);
  for (const Extent& e : out) ASSERT_TRUE(a.Free(e).ok());
  EXPECT_EQ(a.free_clusters(), 1000u);
}

TEST(TextbookFitTest, ReservedZoneNeverAllocated) {
  RunCacheAllocator a(1000, {.selection = RunSelection::kBestFit,
                             .deferred_free = false},
                      /*reserved=*/100);
  ExtentList out;
  ASSERT_TRUE(a.Allocate(900, kNoHint, &out).ok());
  for (const Extent& e : out) EXPECT_GE(e.start, 100u);
  EXPECT_TRUE(a.Allocate(1, kNoHint, &out).IsNoSpace());
}

TEST(TextbookFitTest, HonoursExtendHint) {
  RunCacheAllocator a(1000, {.selection = RunSelection::kBestFit,
                             .deferred_free = false});
  ExtentList out;
  ASSERT_TRUE(a.Allocate(10, kNoHint, &out).ok());
  ASSERT_TRUE(a.Allocate(10, out.back().end(), &out).ok());
  // The extension coalesces into a single extent.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].length, 20u);
}

TEST(TextbookFitTest, ExtensionDisabledIgnoresHint) {
  RunCacheAllocator a(1000, {.selection = RunSelection::kWorstFit,
                             .allow_extension = false,
                             .deferred_free = false});
  ExtentList out;
  ASSERT_TRUE(a.Allocate(10, kNoHint, &out).ok());
  // Carve a hole so worst-fit would choose the far run anyway; the
  // point is just that the hint is not consulted.
  ExtentList out2;
  ASSERT_TRUE(a.Allocate(10, out.back().end(), &out2).ok());
  EXPECT_EQ(TotalLength(out2), 10u);
}

TEST(TextbookFitTest, FragmentsAcrossRunsWhenNeeded) {
  RunCacheAllocator a(100, {.selection = RunSelection::kFirstFit,
                            .deferred_free = false});
  // Allocate everything, then free two separate holes of 10.
  ExtentList all;
  ASSERT_TRUE(a.Allocate(100, kNoHint, &all).ok());
  ASSERT_TRUE(a.Free({10, 10}).ok());
  ASSERT_TRUE(a.Free({50, 10}).ok());
  ExtentList out;
  ASSERT_TRUE(a.Allocate(20, kNoHint, &out).ok());
  EXPECT_EQ(TotalLength(out), 20u);
  EXPECT_EQ(CountFragments(out), 2u);
  EXPECT_EQ(a.free_clusters(), 0u);
}

TEST(TextbookFitTest, NoSpaceLeavesOutUntouched) {
  RunCacheAllocator a(100, {.selection = RunSelection::kBestFit,
                            .deferred_free = false});
  ExtentList out;
  ASSERT_TRUE(a.Allocate(50, kNoHint, &out).ok());
  const ExtentList before = out;
  EXPECT_TRUE(a.Allocate(60, kNoHint, &out).IsNoSpace());
  EXPECT_EQ(out, before);
}

TEST(TextbookFitTest, DeferredFreeDelaysReuse) {
  RunCacheAllocator a(100, {.selection = RunSelection::kFirstFit,
                            .deferred_free = true,
                            .commit_interval = 4});
  ExtentList out;
  ASSERT_TRUE(a.Allocate(100, kNoHint, &out).ok());
  ASSERT_TRUE(a.Free({0, 50}).ok());
  EXPECT_EQ(a.free_clusters(), 0u);
  EXPECT_EQ(a.total_unused_clusters(), 50u);
  for (int i = 0; i < 5; ++i) a.Tick();
  EXPECT_EQ(a.free_clusters(), 50u);
}

TEST(TextbookFitTest, SpacePressureForcesCommit) {
  RunCacheAllocator a(100, {.selection = RunSelection::kBestFit,
                            .deferred_free = true,
                            .commit_interval = 1000});
  ExtentList out;
  ASSERT_TRUE(a.Allocate(100, kNoHint, &out).ok());
  ASSERT_TRUE(a.Free({0, 100}).ok());
  // Pending only; a new allocation must force the commit rather than
  // failing.
  ExtentList out2;
  EXPECT_TRUE(a.Allocate(80, kNoHint, &out2).ok());
}

TEST(DeferredFreeQueueTest, CommitReleasesAll) {
  FreeSpaceMap map(0);
  DeferredFreeQueue q(2);
  q.Defer({0, 10});
  q.Defer({20, 5});
  EXPECT_EQ(q.pending_clusters(), 15u);
  EXPECT_EQ(q.pending_count(), 2u);
  ASSERT_TRUE(q.Commit(&map).ok());
  EXPECT_EQ(map.free_clusters(), 15u);
  EXPECT_EQ(q.pending_clusters(), 0u);
}

TEST(DeferredFreeQueueTest, TickCommitsAfterInterval) {
  FreeSpaceMap map(0);
  DeferredFreeQueue q(2);
  q.Defer({0, 10});
  ASSERT_TRUE(q.Tick(&map).ok());  // 1
  ASSERT_TRUE(q.Tick(&map).ok());  // 2
  EXPECT_EQ(map.free_clusters(), 0u);
  ASSERT_TRUE(q.Tick(&map).ok());  // 3 > interval: commit.
  EXPECT_EQ(map.free_clusters(), 10u);
}

TEST(RunCacheAllocatorTest, PrefersLowestOffsetFittingRun) {
  RunCacheAllocator a(1000, {.deferred_free = false});
  // Carve: alloc all, free [100,200) and [500,700).
  ExtentList all;
  ASSERT_TRUE(a.Allocate(1000, kNoHint, &all).ok());
  ASSERT_TRUE(a.Free({100, 100}).ok());
  ASSERT_TRUE(a.Free({500, 200}).ok());
  ExtentList out;
  ASSERT_TRUE(a.Allocate(50, kNoHint, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  // Both cached runs fit; the lower-offset one wins (outer band).
  EXPECT_EQ(out[0].start, 100u);
}

TEST(RunCacheAllocatorTest, SweepFragmentsAcrossSmallRuns) {
  RunCacheAllocator a(1000, {.selection = RunSelection::kCursorSweep,
                             .deferred_free = false});
  ExtentList all;
  ASSERT_TRUE(a.Allocate(1000, kNoHint, &all).ok());
  ASSERT_TRUE(a.Free({100, 30}).ok());
  ASSERT_TRUE(a.Free({500, 40}).ok());
  ExtentList out;
  ASSERT_TRUE(a.Allocate(60, kNoHint, &out).ok());
  EXPECT_EQ(TotalLength(out), 60u);
  EXPECT_EQ(CountFragments(out), 2u);
  // The sweep starts at the first run it encounters and spills into the
  // next one.
  EXPECT_EQ(out[0], (Extent{100, 30}));
  EXPECT_EQ(out[1], (Extent{500, 30}));
}

TEST(RunCacheAllocatorTest, LargestFirstConsumesBigRunsFirst) {
  RunCacheAllocator a(1000, {.selection = RunSelection::kLargestFirst,
                             .deferred_free = false});
  ExtentList all;
  ASSERT_TRUE(a.Allocate(1000, kNoHint, &all).ok());
  ASSERT_TRUE(a.Free({100, 30}).ok());
  ASSERT_TRUE(a.Free({500, 40}).ok());
  ExtentList out;
  ASSERT_TRUE(a.Allocate(60, kNoHint, &out).ok());
  EXPECT_EQ(TotalLength(out), 60u);
  EXPECT_EQ(CountFragments(out), 2u);
  // The largest run (40) is consumed whole first.
  EXPECT_EQ(out[0].start, 500u);
}

TEST(RunCacheAllocatorTest, ExtensionKeepsFilesContiguous) {
  RunCacheAllocator a(1000, {.deferred_free = false});
  ExtentList file;
  ASSERT_TRUE(a.Allocate(16, kNoHint, &file).ok());
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(a.Allocate(16, file.back().end(), &file).ok());
  }
  EXPECT_EQ(TotalLength(file), 160u);
  EXPECT_EQ(CountFragments(file), 1u);
}

TEST(RunCacheAllocatorTest, DeferredFreePreventsImmediateReuse) {
  RunCacheAllocator a(200, {.deferred_free = true, .commit_interval = 100});
  ExtentList first;
  ASSERT_TRUE(a.Allocate(100, kNoHint, &first).ok());
  ASSERT_TRUE(a.Free(first[0]).ok());
  ExtentList second;
  ASSERT_TRUE(a.Allocate(100, kNoHint, &second).ok());
  // The replacement cannot land in the hole the delete just opened.
  EXPECT_NE(second[0].start, first[0].start);
}

TEST(RunCacheAllocatorTest, CacheSizeLimitsVisibility) {
  // Largest-first with a cache of 1: only the largest run is visible; a
  // small request lands there even though a snugger, lower-offset run
  // exists.
  RunCacheAllocator a(1000, {.selection = RunSelection::kLargestFirst,
                             .cache_size = 1,
                             .deferred_free = false});
  ExtentList all;
  ASSERT_TRUE(a.Allocate(1000, kNoHint, &all).ok());
  ASSERT_TRUE(a.Free({100, 20}).ok());
  ASSERT_TRUE(a.Free({500, 300}).ok());
  ExtentList out;
  ASSERT_TRUE(a.Allocate(10, kNoHint, &out).ok());
  EXPECT_EQ(out[0].start, 500u);
}

TEST(RunCacheAllocatorTest, OuterBandPreferredWhenRunFits) {
  // A cached run inside the outer band that fits the request entirely
  // wins over the sweep cursor.
  RunCacheAllocator a(1000, {.deferred_free = false,
                             .outer_band_fraction = 0.5});
  ExtentList all;
  ASSERT_TRUE(a.Allocate(1000, kNoHint, &all).ok());
  ASSERT_TRUE(a.Free({400, 50}).ok());  // In band ([0, 500)).
  ASSERT_TRUE(a.Free({800, 60}).ok());  // Outside band.
  ExtentList out;
  ASSERT_TRUE(a.Allocate(40, kNoHint, &out).ok());
  EXPECT_EQ(out[0].start, 400u);
}

TEST(BuddyAllocatorTest, RoundsToPowerOfTwo) {
  EXPECT_EQ(BuddyAllocator::OrderFor(1), 0u);
  EXPECT_EQ(BuddyAllocator::OrderFor(2), 1u);
  EXPECT_EQ(BuddyAllocator::OrderFor(3), 2u);
  EXPECT_EQ(BuddyAllocator::OrderFor(1024), 10u);
  EXPECT_EQ(BuddyAllocator::OrderFor(1025), 11u);
}

TEST(BuddyAllocatorTest, AllocateFreeRoundTrip) {
  BuddyAllocator a(1024);
  ExtentList out;
  ASSERT_TRUE(a.Allocate(100, kNoHint, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  // The caller gets what it asked for; the block is rounded up.
  EXPECT_EQ(out[0].length, 100u);
  EXPECT_EQ(a.internal_waste_clusters(), 28u);
  EXPECT_EQ(a.free_clusters(), 1024u - 128u);
  EXPECT_EQ(a.total_unused_clusters(), 1024u - 100u);
  ASSERT_TRUE(a.Free(out[0]).ok());
  EXPECT_EQ(a.free_clusters(), 1024u);
  EXPECT_EQ(a.internal_waste_clusters(), 0u);
  EXPECT_TRUE(a.CheckConsistency().ok());
}

TEST(BuddyAllocatorTest, BuddyMergeRestoresLargeBlocks) {
  BuddyAllocator a(1024);
  ExtentList x, y;
  ASSERT_TRUE(a.Allocate(512, kNoHint, &x).ok());
  ASSERT_TRUE(a.Allocate(512, kNoHint, &y).ok());
  EXPECT_EQ(a.free_clusters(), 0u);
  ASSERT_TRUE(a.Free(x[0]).ok());
  ASSERT_TRUE(a.Free(y[0]).ok());
  // After both frees the root block must be restored.
  ExtentList z;
  ASSERT_TRUE(a.Allocate(1024, kNoHint, &z).ok());
  EXPECT_EQ(z[0].start, 0u);
}

TEST(BuddyAllocatorTest, NonPowerOfTwoCapacity) {
  BuddyAllocator a(1000);  // Rounded envelope 1024, tail 24 reserved.
  EXPECT_EQ(a.free_clusters(), 1000u);
  EXPECT_TRUE(a.CheckConsistency().ok());
  ExtentList out;
  ASSERT_TRUE(a.Allocate(512, kNoHint, &out).ok());
  EXPECT_TRUE(a.CheckConsistency().ok());
  // The phantom tail is never handed out.
  for (const Extent& e : out) EXPECT_LE(e.end(), 1000u);
}

TEST(BuddyAllocatorTest, FreeUnknownBlockRejected) {
  BuddyAllocator a(256);
  EXPECT_TRUE(a.Free({0, 16}).IsInvalidArgument());
  ExtentList out;
  ASSERT_TRUE(a.Allocate(16, kNoHint, &out).ok());
  EXPECT_TRUE(a.Free({out[0].start, 8}).IsInvalidArgument());
}

TEST(BuddyAllocatorTest, ReservedZoneNeverAllocated) {
  BuddyAllocator a(1000, /*reserved=*/100);
  EXPECT_EQ(a.free_clusters(), 900u);
  EXPECT_TRUE(a.CheckConsistency().ok());
  ExtentList out;
  while (a.Allocate(1, kNoHint, &out).ok()) {
  }
  EXPECT_EQ(TotalLength(out), 900u);
  for (const Extent& e : out) {
    EXPECT_GE(e.start, 100u);
    EXPECT_LE(e.end(), 1000u);
  }
}

TEST(BuddyAllocatorTest, FreesCoalescedExtentsItHandedOut) {
  // A file's extent list coalesces consecutive blocks whose requests
  // filled them; freeing the coalesced extents frees every block.
  BuddyAllocator a(1024);
  ExtentList file;
  ASSERT_TRUE(a.Allocate(64, kNoHint, &file).ok());
  ASSERT_TRUE(a.Allocate(64, kNoHint, &file).ok());
  ASSERT_TRUE(a.Allocate(100, kNoHint, &file).ok());
  ASSERT_EQ(file.size(), 1u);
  EXPECT_EQ(file[0], (Extent{0, 228}));
  EXPECT_EQ(a.free_clusters(), 1024u - 256u);

  // Extents that do not tile the live requests free nothing.
  for (const Extent& bad : {Extent{0, 100}, Extent{0, 229}, Extent{64, 100},
                            Extent{0, 256}, Extent{32, 196}}) {
    EXPECT_TRUE(a.Free(bad).IsInvalidArgument())
        << bad.start << "+" << bad.length;
    EXPECT_EQ(a.free_clusters(), 1024u - 256u);
  }
  ASSERT_TRUE(a.Free(file[0]).ok());
  EXPECT_EQ(a.free_clusters(), 1024u);
  EXPECT_EQ(a.internal_waste_clusters(), 0u);
  EXPECT_TRUE(a.CheckConsistency().ok());
}

TEST(BuddyAllocatorTest, ObjectsNeverFragmentExternally) {
  // The buddy discipline's selling point (DTSS): every object is one
  // extent, always.
  BuddyAllocator a(1 << 16);
  Rng rng(7);
  std::vector<Extent> live;
  for (int op = 0; op < 2000; ++op) {
    if (live.empty() || rng.Bernoulli(0.6)) {
      ExtentList out;
      Status s = a.Allocate(1 + rng.Uniform(500), kNoHint, &out);
      if (s.IsNoSpace()) continue;
      ASSERT_TRUE(s.ok());
      ASSERT_EQ(out.size(), 1u);
      live.push_back(out[0]);
    } else {
      const size_t i = rng.Uniform(live.size());
      ASSERT_TRUE(a.Free(live[i]).ok());
      live[i] = live.back();
      live.pop_back();
    }
  }
  EXPECT_TRUE(a.CheckConsistency().ok());
}

// Property sweep: every ExtentAllocator implementation conserves
// clusters across random workloads.
struct AllocatorFactory {
  std::string label;
  std::function<std::unique_ptr<ExtentAllocator>(uint64_t)> make;
};

/// Names the case by its label, so test names stay stable across runs
/// (gtest would otherwise print the struct's raw bytes, pointers
/// included).
void PrintTo(const AllocatorFactory& f, std::ostream* os) { *os << f.label; }

class AllocatorPropertyTest
    : public ::testing::TestWithParam<AllocatorFactory> {};

TEST_P(AllocatorPropertyTest, RandomChurnConservesClusters) {
  constexpr uint64_t kClusters = 1 << 14;
  auto a = GetParam().make(kClusters);
  Rng rng(99);
  std::vector<ExtentList> live;
  uint64_t live_clusters = 0;
  for (int op = 0; op < 3000; ++op) {
    a->Tick();
    if (live.empty() || rng.Bernoulli(0.55)) {
      ExtentList out;
      const uint64_t want = 1 + rng.Uniform(200);
      Status s = a->Allocate(want, kNoHint, &out);
      if (s.IsNoSpace()) continue;
      ASSERT_TRUE(s.ok()) << s.ToString();
      ASSERT_EQ(TotalLength(out), want);
      live_clusters += want;
      live.push_back(std::move(out));
    } else {
      const size_t i = rng.Uniform(live.size());
      for (const Extent& e : live[i]) ASSERT_TRUE(a->Free(e).ok());
      live_clusters -= TotalLength(live[i]);
      live[i] = std::move(live.back());
      live.pop_back();
    }
    ASSERT_EQ(a->total_unused_clusters() + live_clusters, kClusters);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAllocators, AllocatorPropertyTest,
    ::testing::Values(
        AllocatorFactory{"firstfit",
                         [](uint64_t n) {
                           return std::make_unique<RunCacheAllocator>(
                               n, RunCacheOptions{
                                      .selection = RunSelection::kFirstFit,
                                      .deferred_free = false});
                         }},
        AllocatorFactory{"bestfit",
                         [](uint64_t n) {
                           return std::make_unique<RunCacheAllocator>(
                               n, RunCacheOptions{
                                      .selection = RunSelection::kBestFit,
                                      .deferred_free = false});
                         }},
        AllocatorFactory{"bestfitdeferred",
                         [](uint64_t n) {
                           return std::make_unique<RunCacheAllocator>(
                               n, RunCacheOptions{
                                      .selection = RunSelection::kBestFit,
                                      .commit_interval = 8});
                         }},
        AllocatorFactory{"runcache",
                         [](uint64_t n) {
                           return std::make_unique<RunCacheAllocator>(
                               n, RunCacheOptions{});
                         }},
        AllocatorFactory{"runcacheimmediate",
                         [](uint64_t n) {
                           return std::make_unique<RunCacheAllocator>(
                               n, RunCacheOptions{.deferred_free = false});
                         }},
        AllocatorFactory{"buddy",
                         [](uint64_t n) {
                           return std::make_unique<BuddyAllocator>(n);
                         }}),
    [](const auto& info) { return info.param.label; });

// -- Decision pin -------------------------------------------------------
//
// Seeded churn over FreeSpaceMap and the allocators layered on it. Every
// returned extent and status, the free-space statistics, the run-cache
// view (LargestRuns(32)) and the free cluster count are folded into one
// FNV value, pinned at what the node-based (std::map/std::set) map
// produced. Any change to a placement decision changes the hash.

class DecisionHash {
 public:
  void Add(uint64_t v) { hash_ = (hash_ ^ v) * kFnvPrime; }
  void Add(const Extent& e) {
    Add(e.start);
    Add(e.length);
  }
  void Add(const Status& s) { Add(static_cast<uint64_t>(s.code())); }
  void Add(const ExtentList& list) {
    Add(list.size());
    for (const Extent& e : list) Add(e);
  }
  void Add(const FreeSpaceStats& s) {
    Add(s.free_clusters);
    Add(s.run_count);
    Add(s.largest_run);
    Add(std::bit_cast<uint64_t>(s.mean_run));
    Add(std::bit_cast<uint64_t>(s.external_fragmentation));
  }
  void AddMap(const FreeSpaceMap& map) {
    Add(map.Stats());
    Add(map.LargestRuns(32));
    Add(map.free_clusters());
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = kFnvBasis;
};

constexpr FitPolicy kAllFitPolicies[] = {FitPolicy::kFirstFit,
                                         FitPolicy::kBestFit,
                                         FitPolicy::kWorstFit,
                                         FitPolicy::kNextFit};

// Direct FreeSpaceMap churn: every allocation entry point, frees of
// whole and partial extents, and rejected double frees.
uint64_t FreeSpaceMapChurn(uint64_t seed, int steps) {
  constexpr uint64_t kClusters = 1 << 17;
  FreeSpaceMap map(kClusters);
  Rng rng(seed);
  DecisionHash h;
  std::vector<Extent> live;
  auto keep = [&](const Extent& e) {
    h.Add(e);
    if (!e.empty()) live.push_back(e);
  };
  auto small_length = [&] {
    return rng.Bernoulli(0.8) ? 1 + rng.Uniform(64) : 1 + rng.Uniform(2048);
  };
  for (int step = 0; step < steps; ++step) {
    const uint64_t op = rng.Uniform(100);
    const bool fill = map.free_clusters() > kClusters / 3;
    if (op < 30 && fill) {
      const FitPolicy policy = kAllFitPolicies[rng.Uniform(4)];
      Result<Extent> e = map.AllocateContiguous(small_length(), policy);
      h.Add(e.status());
      if (e.ok()) keep(*e);
    } else if (op < 42 && fill) {
      keep(map.AllocateUpTo(small_length(), kAllFitPolicies[rng.Uniform(4)]));
    } else if (op < 50 && fill) {
      keep(map.AllocateFrom(rng.Uniform(kClusters), small_length()));
    } else if (op < 60 && fill) {
      // Sequential extension behind a live extent, a few requests long.
      uint64_t at = live.empty() ? rng.Uniform(kClusters)
                                 : live[rng.Uniform(live.size())].end();
      for (int k = 0; k < 4; ++k) {
        const uint64_t got = map.ExtendAt(at, 1 + rng.Uniform(32));
        h.Add(got);
        if (got == 0) break;
        keep({at, got});
        at += got;
      }
    } else if (op < 66 && fill) {
      // ExtendAt / AllocateAt inside a cached run: head, middle or tail.
      const std::vector<Extent> runs = map.LargestRuns(32);
      if (runs.empty()) continue;
      const Extent run = runs[rng.Uniform(runs.size())];
      const uint64_t offset = rng.Uniform(run.length);
      if (rng.Bernoulli(0.5)) {
        const uint64_t got = map.ExtendAt(run.start + offset, small_length());
        h.Add(got);
        if (got > 0) keep({run.start + offset, got});
      } else {
        const Extent want{run.start + offset,
                          1 + rng.Uniform(run.length - offset + 8)};
        Status s = map.AllocateAt(want);
        h.Add(s);
        if (s.ok()) keep(want);
      }
    } else if (op < 70) {
      // Random placement, usually rejected.
      const Extent want{rng.Uniform(kClusters), small_length()};
      Status s = map.AllocateAt(want);
      h.Add(s);
      if (s.ok()) keep(want);
    } else if (op < 74) {
      // Double free: a range overlapping free space must be rejected.
      const std::vector<Extent> runs = map.LargestRuns(32);
      if (runs.empty()) continue;
      const Extent run = runs[rng.Uniform(runs.size())];
      const uint64_t lead = rng.Uniform(4);
      const Extent again{run.start > lead ? run.start - lead : 0,
                         1 + rng.Uniform(run.length + 4)};
      h.Add(map.Free(again));
    } else if (!live.empty()) {
      const size_t i = rng.Uniform(live.size());
      Extent e = live[i];
      if (e.length > 1 && rng.Bernoulli(0.3)) {
        // Free a piece; the rest stays live.
        const uint64_t cut = 1 + rng.Uniform(e.length - 1);
        if (rng.Bernoulli(0.5)) {
          live[i] = {e.start + cut, e.length - cut};
          e.length = cut;
        } else {
          live[i] = {e.start, cut};
          e = {e.start + cut, e.length - cut};
        }
      } else {
        live[i] = live.back();
        live.pop_back();
      }
      h.Add(map.Free(e));
    }
    h.AddMap(map);
  }
  EXPECT_TRUE(map.CheckConsistency().ok());
  return h.value();
}

// Allocator churn: objects written as a chain of request-sized
// allocations carrying extension hints (the safe-write stream), deleted
// at random, with one Tick per operation.
uint64_t AllocatorChurn(ExtentAllocator* a, const FreeSpaceMap& map,
                        uint64_t clusters, uint64_t seed, int steps) {
  Rng rng(seed);
  DecisionHash h;
  std::vector<ExtentList> live;
  for (int step = 0; step < steps; ++step) {
    const bool write = live.empty() ||
                       a->total_unused_clusters() > clusters / 4 ||
                       rng.Bernoulli(0.3);
    if (write && rng.Bernoulli(0.55)) {
      ExtentList object;
      const uint64_t requests = 1 + rng.Uniform(rng.Bernoulli(0.9) ? 6 : 40);
      for (uint64_t r = 0; r < requests; ++r) {
        const uint64_t length = rng.Bernoulli(0.8) ? 16 : 1 + rng.Uniform(48);
        const uint64_t hint = object.empty() ? kNoHint : object.back().end();
        Status s = a->Allocate(length, hint, &object);
        h.Add(s);
        if (!s.ok()) break;
      }
      h.Add(object);
      if (!object.empty()) live.push_back(std::move(object));
    } else if (!live.empty()) {
      const size_t i = rng.Uniform(live.size());
      for (const Extent& e : live[i]) h.Add(a->Free(e));
      live[i] = std::move(live.back());
      live.pop_back();
    }
    a->Tick();
    if (rng.Uniform(500) == 0) a->CommitPending();
    h.Add(a->FreeStats());
    h.Add(map.LargestRuns(32));
    h.Add(a->free_clusters());
    h.Add(a->total_unused_clusters());
  }
  EXPECT_TRUE(map.CheckConsistency().ok());
  return h.value();
}

TEST(AllocatorDecisionTest, AllocatorDecisionsArePinned) {
  constexpr uint64_t kClusters = 1 << 16;
  constexpr uint64_t kReserved = 1024;
  uint64_t hash = kFnvBasis;
  auto fold = [&hash](uint64_t h) { hash = (hash ^ h) * kFnvPrime; };
  uint64_t seed = 11;

  for (int round = 0; round < 3; ++round) {
    fold(FreeSpaceMapChurn(seed++, 12000));
  }

  for (const RunSelection selection :
       {RunSelection::kBestFitCached, RunSelection::kCursorSweep,
        RunSelection::kLargestFirst}) {
    for (const uint32_t interval : {0u, 8u, 128u}) {
      RunCacheAllocator a(kClusters,
                          {.selection = selection,
                           .commit_interval = interval},
                          kReserved);
      fold(AllocatorChurn(&a, a.map(), kClusters, seed++, 6000));
    }
    RunCacheAllocator immediate(
        kClusters,
        {.selection = selection, .cache_size = 8, .deferred_free = false},
        kReserved);
    fold(AllocatorChurn(&immediate, immediate.map(), kClusters, seed++,
                        6000));
  }

  for (const RunSelection fit :
       {RunSelection::kFirstFit, RunSelection::kBestFit,
        RunSelection::kWorstFit, RunSelection::kNextFit}) {
    for (const bool deferred : {false, true}) {
      // Next-fit runs without extension hints, the others with them.
      RunCacheAllocator a(kClusters,
                          {.selection = fit,
                           .allow_extension = fit != RunSelection::kNextFit,
                           .deferred_free = deferred,
                           .commit_interval = 16},
                          kReserved);
      fold(AllocatorChurn(&a, a.map(), kClusters, seed++, 6000));
    }
  }

  EXPECT_EQ(hash, 0x5a57cba47b80cb6dull) << std::hex << hash;
}

}  // namespace
}  // namespace alloc
}  // namespace lor
