// Unit and property tests for alloc::FreeSpaceMap and the extent
// helpers.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "alloc/extent.h"
#include "alloc/free_space_map.h"
#include "util/random.h"

namespace lor {
namespace alloc {
namespace {

TEST(ExtentTest, Basics) {
  Extent e{10, 5};
  EXPECT_EQ(e.end(), 15u);
  EXPECT_FALSE(e.empty());
  EXPECT_TRUE(Extent({0, 0}).empty());
  EXPECT_TRUE(e.Overlaps({14, 1}));
  EXPECT_FALSE(e.Overlaps({15, 1}));
  EXPECT_TRUE(e.AdjacentBefore({15, 3}));
  EXPECT_FALSE(e.AdjacentBefore({16, 3}));
}

TEST(ExtentTest, CountFragmentsMergesAdjacent) {
  ExtentList l{{0, 4}, {4, 4}, {10, 2}};
  EXPECT_EQ(CountFragments(l), 2u);
  EXPECT_EQ(TotalLength(l), 10u);
  CoalesceAdjacent(&l);
  ASSERT_EQ(l.size(), 2u);
  EXPECT_EQ(l[0], (Extent{0, 8}));
}

TEST(ExtentTest, AppendCoalescing) {
  ExtentList l;
  AppendCoalescing(&l, {0, 4});
  AppendCoalescing(&l, {4, 4});
  AppendCoalescing(&l, {10, 1});
  AppendCoalescing(&l, {0, 0});  // Empty is dropped.
  ASSERT_EQ(l.size(), 2u);
  EXPECT_EQ(l[0].length, 8u);
}

TEST(ExtentTest, CountFragmentsEmptyAndSingle) {
  EXPECT_EQ(CountFragments({}), 0u);
  EXPECT_EQ(CountFragments({{5, 3}}), 1u);
}

TEST(FreeSpaceMapTest, StartsAsOneRun) {
  FreeSpaceMap m(100);
  EXPECT_EQ(m.free_clusters(), 100u);
  EXPECT_EQ(m.run_count(), 1u);
  EXPECT_EQ(m.largest_run(), 100u);
  EXPECT_TRUE(m.CheckConsistency().ok());
}

TEST(FreeSpaceMapTest, AllocateContiguousExact) {
  FreeSpaceMap m(100);
  auto e = m.AllocateContiguous(30, FitPolicy::kFirstFit);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->start, 0u);
  EXPECT_EQ(e->length, 30u);
  EXPECT_EQ(m.free_clusters(), 70u);
  EXPECT_TRUE(m.CheckConsistency().ok());
}

TEST(FreeSpaceMapTest, AllocateContiguousNoSpace) {
  FreeSpaceMap m(10);
  auto e = m.AllocateContiguous(11, FitPolicy::kBestFit);
  EXPECT_FALSE(e.ok());
  EXPECT_TRUE(e.status().IsNoSpace());
  EXPECT_TRUE(m.AllocateContiguous(0, FitPolicy::kBestFit)
                  .status()
                  .IsInvalidArgument());
}

TEST(FreeSpaceMapTest, FreeCoalescesBothNeighbours) {
  FreeSpaceMap m(100);
  ASSERT_TRUE(m.AllocateAt({20, 30}).ok());
  EXPECT_EQ(m.run_count(), 2u);
  ASSERT_TRUE(m.Free({20, 30}).ok());
  EXPECT_EQ(m.run_count(), 1u);
  EXPECT_EQ(m.largest_run(), 100u);
  EXPECT_TRUE(m.CheckConsistency().ok());
}

TEST(FreeSpaceMapTest, DoubleFreeRejected) {
  FreeSpaceMap m(100);
  ASSERT_TRUE(m.AllocateAt({10, 10}).ok());
  ASSERT_TRUE(m.Free({10, 10}).ok());
  EXPECT_TRUE(m.Free({10, 10}).IsInvalidArgument());
  EXPECT_TRUE(m.Free({0, 5}).IsInvalidArgument());  // Overlaps free run.
}

TEST(FreeSpaceMapTest, BestFitPicksSmallestSufficientRun) {
  FreeSpaceMap m(1000);
  // Carve free runs of 10, 50, 100 (by allocating the gaps).
  ASSERT_TRUE(m.AllocateAt({10, 90}).ok());    // run [0,10)
  ASSERT_TRUE(m.AllocateAt({150, 750}).ok());  // run [100,150) len 50
  // remaining run [900,1000) len 100.
  auto e = m.AllocateContiguous(40, FitPolicy::kBestFit);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->start, 100u);  // 50-run is the tightest fit.
}

TEST(FreeSpaceMapTest, WorstFitPicksLargestRun) {
  FreeSpaceMap m(1000);
  ASSERT_TRUE(m.AllocateAt({10, 90}).ok());
  ASSERT_TRUE(m.AllocateAt({150, 750}).ok());
  auto e = m.AllocateContiguous(5, FitPolicy::kWorstFit);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->start, 900u);
}

TEST(FreeSpaceMapTest, FirstFitPicksLowestAddress) {
  FreeSpaceMap m(1000);
  ASSERT_TRUE(m.AllocateAt({10, 90}).ok());
  ASSERT_TRUE(m.AllocateAt({150, 750}).ok());
  auto e = m.AllocateContiguous(5, FitPolicy::kFirstFit);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->start, 0u);
}

TEST(FreeSpaceMapTest, NextFitAdvancesCursor) {
  FreeSpaceMap m(1000);
  ASSERT_TRUE(m.AllocateAt({10, 90}).ok());   // runs: [0,10) [100,...)
  auto a = m.AllocateContiguous(5, FitPolicy::kNextFit);
  ASSERT_TRUE(a.ok());
  auto b = m.AllocateContiguous(5, FitPolicy::kNextFit);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->start, a->end());  // Continues from the cursor.
}

TEST(FreeSpaceMapTest, AllocateUpToTakesShorterRun) {
  FreeSpaceMap m(100);
  ASSERT_TRUE(m.AllocateAt({10, 90}).ok());  // One run [0,10).
  Extent e = m.AllocateUpTo(50, FitPolicy::kBestFit);
  EXPECT_EQ(e.start, 0u);
  EXPECT_EQ(e.length, 10u);
  EXPECT_EQ(m.free_clusters(), 0u);
  EXPECT_TRUE(m.AllocateUpTo(5, FitPolicy::kBestFit).empty());
}

TEST(FreeSpaceMapTest, ExtendAtClaimsFollowingClusters) {
  FreeSpaceMap m(100);
  ASSERT_TRUE(m.AllocateAt({0, 10}).ok());
  EXPECT_EQ(m.ExtendAt(10, 20), 20u);
  EXPECT_EQ(m.free_clusters(), 70u);
  // Extending where space is allocated yields zero.
  EXPECT_EQ(m.ExtendAt(5, 10), 0u);
  EXPECT_TRUE(m.CheckConsistency().ok());
}

TEST(FreeSpaceMapTest, ExtendAtMidRunSplits) {
  FreeSpaceMap m(100);
  EXPECT_EQ(m.ExtendAt(50, 10), 10u);
  EXPECT_EQ(m.run_count(), 2u);
  EXPECT_TRUE(m.IsFree({0, 50}));
  EXPECT_TRUE(m.IsFree({60, 40}));
  EXPECT_FALSE(m.IsFree({50, 10}));
  EXPECT_TRUE(m.CheckConsistency().ok());
}

TEST(FreeSpaceMapTest, ExtendAtCapsAtRunEnd) {
  FreeSpaceMap m(100);
  ASSERT_TRUE(m.AllocateAt({0, 10}).ok());
  ASSERT_TRUE(m.AllocateAt({30, 70}).ok());
  EXPECT_EQ(m.ExtendAt(10, 100), 20u);  // Only [10,30) is free.
}

TEST(FreeSpaceMapTest, AllocateAtRejectsPartialFree) {
  FreeSpaceMap m(100);
  ASSERT_TRUE(m.AllocateAt({50, 10}).ok());
  EXPECT_TRUE(m.AllocateAt({45, 10}).IsNoSpace());
  EXPECT_TRUE(m.AllocateAt({0, 0}).IsInvalidArgument());
}

TEST(FreeSpaceMapTest, LargestRunsOrdering) {
  FreeSpaceMap m(1000);
  ASSERT_TRUE(m.AllocateAt({10, 90}).ok());
  ASSERT_TRUE(m.AllocateAt({150, 750}).ok());
  // Runs: [0,10)=10, [100,150)=50, [900,1000)=100.
  auto runs = m.LargestRuns(2);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].length, 100u);
  EXPECT_EQ(runs[1].length, 50u);
}

TEST(FreeSpaceMapTest, LargestRunsTieBreaksByAddress) {
  FreeSpaceMap m(100);
  ASSERT_TRUE(m.AllocateAt({10, 10}).ok());
  ASSERT_TRUE(m.AllocateAt({30, 60}).ok());
  // Three equal-length runs: [0,10), [20,30), [90,100); ties order by
  // increasing start.
  auto runs = m.LargestRuns(8);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0], (Extent{0, 10}));
  EXPECT_EQ(runs[1], (Extent{20, 10}));
  EXPECT_EQ(runs[2], (Extent{90, 10}));
}

TEST(FreeSpaceMapTest, StatsReflectFragmentation) {
  FreeSpaceMap m(100);
  ASSERT_TRUE(m.AllocateAt({10, 10}).ok());
  FreeSpaceStats s = m.Stats();
  EXPECT_EQ(s.free_clusters, 90u);
  EXPECT_EQ(s.run_count, 2u);
  EXPECT_EQ(s.largest_run, 80u);
  EXPECT_NEAR(s.external_fragmentation, 1.0 - 80.0 / 90.0, 1e-12);
}

TEST(FreeSpaceMapTest, AllocateFromSweepsForward) {
  FreeSpaceMap m(1000);
  ASSERT_TRUE(m.AllocateAt({0, 100}).ok());
  ASSERT_TRUE(m.AllocateAt({200, 100}).ok());
  // Free runs: [100,200), [300,1000).
  Extent a = m.AllocateFrom(150, 40);
  EXPECT_EQ(a, (Extent{300, 40}));  // First run starting at/after 150...
  // ...is [300,...) because [100,200) starts before the cursor.
  Extent b = m.AllocateFrom(a.end(), 40);
  EXPECT_EQ(b, (Extent{340, 40}));
  EXPECT_TRUE(m.CheckConsistency().ok());
}

TEST(FreeSpaceMapTest, AllocateFromWrapsToLowestRun) {
  FreeSpaceMap m(1000);
  ASSERT_TRUE(m.AllocateAt({500, 500}).ok());  // Free: [0,500).
  Extent e = m.AllocateFrom(900, 64);
  EXPECT_EQ(e, (Extent{0, 64}));
}

TEST(FreeSpaceMapTest, AllocateFromTakesShortRunWhole) {
  FreeSpaceMap m(1000);
  ASSERT_TRUE(m.AllocateAt({0, 100}).ok());
  ASSERT_TRUE(m.AllocateAt({110, 890}).ok());  // Free: [100,110).
  Extent e = m.AllocateFrom(0, 64);
  EXPECT_EQ(e, (Extent{100, 10}));  // Any size qualifies under a sweep.
  EXPECT_TRUE(m.AllocateFrom(0, 1).empty());
}

TEST(FreeSpaceMapTest, PendingResizeVisibleToSizeQueries) {
  // Sequential ExtendAt takes re-key the shrinking run in the size
  // order; every size-ordered query must see the true lengths.
  FreeSpaceMap m(1000);
  EXPECT_EQ(m.ExtendAt(0, 100), 100u);
  EXPECT_EQ(m.largest_run(), 900u);
  EXPECT_EQ(m.ExtendAt(100, 50), 50u);
  auto runs = m.LargestRuns(4);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], (Extent{150, 850}));
  EXPECT_EQ(m.ExtendAt(150, 10), 10u);
  EXPECT_TRUE(m.CheckConsistency().ok());
  EXPECT_EQ(m.Stats().largest_run, 840u);
}

TEST(FreeSpaceMapTest, MixedExtendFitAndFreeStaysConsistent) {
  // Interleaves the sequential-extension fast path with first/next-fit
  // selection (the block-maximum skip) and coalescing frees.
  constexpr uint64_t kClusters = 1 << 16;
  FreeSpaceMap m(kClusters);
  Rng rng(31337);
  std::vector<Extent> live;
  uint64_t cursor = 0;
  uint64_t live_clusters = 0;
  for (int op = 0; op < 4000; ++op) {
    const double dice = rng.NextDouble();
    if (dice < 0.45) {
      const uint64_t got = m.ExtendAt(cursor, 1 + rng.Uniform(32));
      if (got > 0) {
        live.push_back({cursor, got});
        live_clusters += got;
        cursor += got;
      } else {
        cursor = rng.Uniform(kClusters);
      }
    } else if (dice < 0.7) {
      const FitPolicy policy = rng.Bernoulli(0.5) ? FitPolicy::kFirstFit
                                                  : FitPolicy::kNextFit;
      Extent e = m.AllocateUpTo(1 + rng.Uniform(64), policy);
      if (!e.empty()) {
        live.push_back(e);
        live_clusters += e.length;
      }
    } else if (!live.empty()) {
      const size_t idx = rng.Uniform(live.size());
      ASSERT_TRUE(m.Free(live[idx]).ok());
      live_clusters -= live[idx].length;
      live[idx] = live.back();
      live.pop_back();
    }
    ASSERT_EQ(m.free_clusters() + live_clusters, kClusters);
    if (op % 200 == 0) {
      ASSERT_TRUE(m.CheckConsistency().ok()) << "op " << op;
    }
  }
  for (const Extent& e : live) ASSERT_TRUE(m.Free(e).ok());
  EXPECT_EQ(m.run_count(), 1u);
  EXPECT_TRUE(m.CheckConsistency().ok());
}

// The size order is split between a flat array of the 32 largest runs
// and an index of the rest; every size query must match a brute-force
// answer computed from the address-ordered snapshot, on both sides of
// the split and across it.
TEST(FreeSpaceMapTest, SizeQueriesMatchBruteForceAcrossTopSplit) {
  constexpr uint64_t kClusters = 1 << 14;
  FreeSpaceMap m(kClusters);
  Rng rng(77);
  std::vector<Extent> live;
  auto by_size_desc = [](const Extent& a, const Extent& b) {
    return a.length != b.length ? a.length > b.length : a.start > b.start;
  };
  for (int op = 0; op < 6000; ++op) {
    const uint64_t dice = rng.Uniform(10);
    if (live.empty() || dice < 4) {
      Extent e = m.AllocateUpTo(1 + rng.Uniform(48), FitPolicy::kBestFit);
      if (!e.empty()) live.push_back(e);
    } else if (dice < 6) {
      const uint64_t at = live[rng.Uniform(live.size())].end();
      const uint64_t got = m.ExtendAt(at, 1 + rng.Uniform(16));
      if (got > 0) live.push_back({at, got});
    } else {
      const size_t i = rng.Uniform(live.size());
      ASSERT_TRUE(m.Free(live[i]).ok());
      live[i] = live.back();
      live.pop_back();
    }
    std::vector<Extent> runs = m.Snapshot();
    std::sort(runs.begin(), runs.end(), by_size_desc);
    ASSERT_EQ(m.largest_run(), runs.empty() ? 0 : runs[0].length);
    for (const uint32_t k : {1u, 31u, 32u, 33u, 100u}) {
      std::vector<Extent> walk;
      m.ForEachLargestRun(k, [&walk](const Extent& run) {
        walk.push_back(run);
        return true;
      });
      const size_t n = std::min<size_t>(k, runs.size());
      ASSERT_EQ(walk, std::vector<Extent>(runs.begin(), runs.begin() + n))
          << "op " << op << " k " << k;
    }
    if (op % 50 == 0) {
      ASSERT_TRUE(m.CheckConsistency().ok()) << "op " << op;
      // Best fit = smallest run that fits, lowest start among equals.
      const uint64_t want = 1 + rng.Uniform(64);
      FreeSpaceMap probe = m;
      Result<Extent> got = probe.AllocateContiguous(want, FitPolicy::kBestFit);
      const Extent* best = nullptr;
      for (const Extent& run : runs) {
        if (run.length >= want &&
            (best == nullptr || run.length < best->length ||
             (run.length == best->length && run.start < best->start))) {
          best = &run;
        }
      }
      ASSERT_EQ(got.ok(), best != nullptr) << "op " << op;
      if (best != nullptr) {
        ASSERT_EQ(got->start, best->start) << "op " << op;
      }
    }
  }
  EXPECT_GT(m.run_count(), 64u);  // The split was exercised.
}

// A streamed write shrinks one run from its head many times between two
// size-ordered reads. The map may leave that run's size key stale until
// the next read or the next size-index write for another run; every
// size-ordered answer must still match a brute-force sort of the runs.
// Reads come only every 1-64 steps, so stale keys survive whole chains.
TEST(FreeSpaceMapTest, DeferredSizeKeyMatchesBruteForce) {
  constexpr uint64_t kClusters = 1 << 20;
  FreeSpaceMap m(kClusters);
  Rng rng(424242);
  std::vector<Extent> live;
  uint64_t live_clusters = 0;
  auto keep = [&](const Extent& e) {
    if (e.empty()) return;
    live.push_back(e);
    live_clusters += e.length;
  };
  auto drop = [&](size_t i) {
    const Extent e = live[i];
    live_clusters -= e.length;
    live[i] = live.back();
    live.pop_back();
    return e;
  };
  // The live extent that ends at `cursor`, else a random one.
  auto pick_near = [&](uint64_t cursor) {
    for (size_t i = 0; i < live.size(); ++i) {
      if (live[i].end() == cursor) return i;
    }
    return static_cast<size_t>(rng.Uniform(live.size()));
  };
  // (length desc, start desc): the order the largest runs are picked in.
  auto by_size = [](const Extent& a, const Extent& b) {
    return a.length != b.length ? a.length > b.length : a.start > b.start;
  };
  // Fragment the map so the size order spills past the 32 top runs.
  for (int i = 0; i < 600; ++i) {
    keep(m.AllocateUpTo(1 + rng.Uniform(2000), FitPolicy::kFirstFit));
  }
  for (size_t i = live.size(); i-- > 0;) {
    if (i % 2 == 0) {
      ASSERT_TRUE(m.Free(drop(i)).ok());
    }
  }

  // The run the last chain shrank: its head is `cursor`, and its length
  // was `chain_from` before the chain and is `chain_to` after it.
  uint64_t cursor = 0;
  uint64_t chain_from = 0;
  uint64_t chain_to = 0;
  bool chained_since_read = false;
  uint64_t next_read = 1 + rng.Uniform(64);
  uint64_t whole_takes = 0;
  uint64_t stale_reads = 0;
  for (uint64_t step = 0; step < 12000; ++step) {
    // Steer the free space between 30% and 60% of the map.
    uint64_t dice = rng.Uniform(12);
    if (m.free_clusters() < kClusters * 3 / 10) dice = 6 + dice / 2;
    if (m.free_clusters() > kClusters * 6 / 10) dice = dice / 2;
    if (dice < 4) {
      // A hinted extension chain of 1-200 head takes on one run, which
      // mostly starts on a large run, as a streamed write's first take
      // does; the last take sometimes asks for all of a short run.
      const std::vector<Extent> by_address = m.Snapshot();
      std::vector<Extent> runs = by_address;
      std::sort(runs.begin(), runs.end(), by_size);
      const uint64_t which = rng.Uniform(4);
      const size_t top = std::min<size_t>(32, runs.size());
      Extent run = runs[which == 0   ? 0
                        : which == 1 ? rng.Uniform(top)
                                     : rng.Uniform(runs.size())];
      if (which == 3 && m.IsFree({cursor, 1})) {
        // Continue at the cursor, inside the run that holds it.
        auto after = std::upper_bound(
            by_address.begin(), by_address.end(), cursor,
            [](uint64_t c, const Extent& r) { return c < r.start; });
        run = {cursor, std::prev(after)->end() - cursor};
      }
      const uint64_t takes = 1 + rng.Uniform(200);
      uint64_t at = run.start;
      for (uint64_t t = 0; t < takes && m.IsFree({at, 1}); ++t) {
        const bool greedy = t + 1 == takes && rng.Bernoulli(0.3);
        at += m.ExtendAt(at, greedy ? 4096 : 1 + rng.Uniform(8));
      }
      keep({run.start, at - run.start});
      if (!m.IsFree({at, 1})) ++whole_takes;
      cursor = at;
      chain_from = run.length;
      chain_to = run.end() - at;
      chained_since_read = true;
    } else if (dice < 5 && m.IsFree({cursor, 1})) {
      // Head AllocateAt on the shrinking run.
      const uint64_t want = 1 + rng.Uniform(8);
      if (m.AllocateAt({cursor, want}).ok()) {
        keep({cursor, want});
        cursor += want;
      }
    } else if (dice < 6) {
      keep(m.AllocateUpTo(1 + rng.Uniform(64),
                          rng.Bernoulli(0.5) ? FitPolicy::kFirstFit
                                             : FitPolicy::kNextFit));
    } else if (dice < 9 && !live.empty()) {
      // Free next to the shrinking run when an extent borders it.
      ASSERT_TRUE(m.Free(drop(pick_near(cursor))).ok()) << "step " << step;
    } else if (!live.empty()) {
      std::vector<Extent> batch;
      const uint64_t n = 1 + rng.Uniform(std::min<size_t>(live.size(), 8));
      for (uint64_t i = 0; i < n; ++i) {
        batch.push_back(drop(i == 0 ? pick_near(cursor)
                                    : rng.Uniform(live.size())));
      }
      ASSERT_TRUE(m.FreeAll(batch).ok()) << "step " << step;
    }
    ASSERT_EQ(m.free_clusters() + live_clusters, kClusters) << "step " << step;
    if (--next_read > 0) continue;
    next_read = 1 + rng.Uniform(64);

    std::vector<Extent> runs = m.Snapshot();
    std::sort(runs.begin(), runs.end(), by_size);
    // After a chain, fits often ask for a length the shrunk run had
    // before the chain but has no longer.
    uint64_t want = 1 + rng.Uniform(2048);
    if (chained_since_read) {
      ++stale_reads;
      if (chain_from > chain_to && rng.Bernoulli(0.5)) {
        want = chain_to + 1 + rng.Uniform(chain_from - chain_to);
      }
    }
    chained_since_read = false;
    switch (rng.Uniform(4)) {
      case 0: {
        // LargestRuns reports its pick with ties by ascending start.
        std::vector<Extent> top(
            runs.begin(), runs.begin() + std::min<size_t>(32, runs.size()));
        std::stable_sort(top.begin(), top.end(),
                         [](const Extent& a, const Extent& b) {
                           return a.length != b.length ? a.length > b.length
                                                       : a.start < b.start;
                         });
        ASSERT_EQ(m.LargestRuns(32), top) << "step " << step;
        break;
      }
      case 1: {
        const FreeSpaceStats stats = m.Stats();
        ASSERT_EQ(stats.largest_run, runs.empty() ? 0 : runs[0].length)
            << "step " << step;
        ASSERT_EQ(stats.run_count, runs.size());
        ASSERT_EQ(stats.free_clusters, kClusters - live_clusters);
        break;
      }
      case 2: {
        // Best fit: the smallest run that fits, lowest start among equals.
        const Extent* best = nullptr;
        for (const Extent& run : runs) {
          if (run.length >= want &&
              (best == nullptr || run.length < best->length ||
               (run.length == best->length && run.start < best->start))) {
            best = &run;
          }
        }
        const Result<Extent> got =
            m.AllocateContiguous(want, FitPolicy::kBestFit);
        ASSERT_EQ(got.ok(), best != nullptr) << "step " << step;
        if (got.ok()) {
          ASSERT_EQ(*got, (Extent{best->start, want})) << "step " << step;
          keep(*got);
        }
        break;
      }
      default: {
        // Worst fit: the largest run, highest start among equals.
        const bool fits = !runs.empty() && runs[0].length >= want;
        const Result<Extent> got =
            m.AllocateContiguous(want, FitPolicy::kWorstFit);
        ASSERT_EQ(got.ok(), fits) << "step " << step;
        if (got.ok()) {
          ASSERT_EQ(*got, (Extent{runs[0].start, want})) << "step " << step;
          keep(*got);
        }
        break;
      }
    }
    if (rng.Uniform(8) == 0) {
      ASSERT_TRUE(m.CheckConsistency().ok()) << "step " << step;
    }
  }
  EXPECT_TRUE(m.CheckConsistency().ok());
  EXPECT_GT(m.run_count(), 64u);  // The top split was exercised.
  EXPECT_GT(whole_takes, 100u);   // Chains consumed runs whole.
  EXPECT_GT(stale_reads, 100u);   // Reads followed chains.
}

// Property test: random allocate/free cycles keep the map internally
// consistent and conserve clusters, for every policy.
class FreeSpaceMapPropertyTest
    : public ::testing::TestWithParam<FitPolicy> {};

TEST_P(FreeSpaceMapPropertyTest, RandomOpsConserveClusters) {
  constexpr uint64_t kClusters = 4096;
  FreeSpaceMap m(kClusters);
  Rng rng(2024);
  std::vector<Extent> live;
  uint64_t live_clusters = 0;
  for (int op = 0; op < 5000; ++op) {
    if (live.empty() || rng.Bernoulli(0.55)) {
      const uint64_t want = 1 + rng.Uniform(64);
      Extent e = m.AllocateUpTo(want, GetParam());
      if (e.empty()) continue;
      EXPECT_LE(e.length, want);
      live.push_back(e);
      live_clusters += e.length;
    } else {
      const size_t idx = rng.Uniform(live.size());
      ASSERT_TRUE(m.Free(live[idx]).ok());
      live_clusters -= live[idx].length;
      live[idx] = live.back();
      live.pop_back();
    }
    ASSERT_EQ(m.free_clusters() + live_clusters, kClusters);
    if (op % 100 == 0) {
      ASSERT_TRUE(m.CheckConsistency().ok()) << "op " << op;
    }
  }
  for (const Extent& e : live) ASSERT_TRUE(m.Free(e).ok());
  EXPECT_EQ(m.free_clusters(), kClusters);
  EXPECT_EQ(m.run_count(), 1u);  // Everything coalesces back.
  EXPECT_TRUE(m.CheckConsistency().ok());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, FreeSpaceMapPropertyTest,
                         ::testing::Values(FitPolicy::kFirstFit,
                                           FitPolicy::kBestFit,
                                           FitPolicy::kWorstFit,
                                           FitPolicy::kNextFit),
                         [](const auto& info) {
                           std::string out;
                           for (char c : FitPolicyName(info.param)) {
                             if (c != '-') out += c;
                           }
                           return out;
                         });

}  // namespace
}  // namespace alloc
}  // namespace lor
