// Micro-benchmarks for the allocation substrates (google-benchmark):
// free-space map operations under each fit policy, the NTFS-like run
// cache, the buddy system, and the GAM bitmap scan.

#include <benchmark/benchmark.h>

#include <deque>

#include "alloc/buddy_allocator.h"
#include "alloc/free_space_map.h"
#include "alloc/run_cache_allocator.h"
#include "db/gam.h"
#include "util/random.h"

namespace lor {
namespace {

constexpr uint64_t kClusters = 1 << 22;  // 16 GB at 4 KB clusters.

// Pre-fragments a map so selection work is realistic.
void Shatter(alloc::FreeSpaceMap* map, Rng* rng, int holes) {
  for (int i = 0; i < holes; ++i) {
    const uint64_t at = rng->Uniform(kClusters - 64);
    alloc::Extent e{at, 1 + rng->Uniform(63)};
    if (map->IsFree(e)) {
      Status s = map->AllocateAt(e);
      benchmark::DoNotOptimize(s.ok());
    }
  }
}

void BM_FreeSpaceMapAllocateFree(benchmark::State& state) {
  const auto policy = static_cast<alloc::FitPolicy>(state.range(0));
  alloc::FreeSpaceMap map(kClusters);
  Rng rng(7);
  Shatter(&map, &rng, 4096);
  std::vector<alloc::Extent> live;
  for (auto _ : state) {
    if (live.size() < 1024 || rng.Bernoulli(0.5)) {
      alloc::Extent e = map.AllocateUpTo(16, policy);
      if (!e.empty()) live.push_back(e);
    } else {
      const size_t i = rng.Uniform(live.size());
      Status s = map.Free(live[i]);
      benchmark::DoNotOptimize(s.ok());
      live[i] = live.back();
      live.pop_back();
    }
  }
  state.SetLabel(std::string(alloc::FitPolicyName(policy)));
}
BENCHMARK(BM_FreeSpaceMapAllocateFree)
    ->Arg(static_cast<int>(alloc::FitPolicy::kFirstFit))
    ->Arg(static_cast<int>(alloc::FitPolicy::kBestFit))
    ->Arg(static_cast<int>(alloc::FitPolicy::kWorstFit))
    ->Arg(static_cast<int>(alloc::FitPolicy::kNextFit));

void BM_FreeSpaceMapExtendAt(benchmark::State& state) {
  alloc::FreeSpaceMap map(kClusters);
  uint64_t at = 0;
  for (auto _ : state) {
    const uint64_t got = map.ExtendAt(at, 16);
    benchmark::DoNotOptimize(got);
    at += 16;
    if (at + 16 >= kClusters) {
      state.PauseTiming();
      map = alloc::FreeSpaceMap(kClusters);
      at = 0;
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_FreeSpaceMapExtendAt);

void BM_RunCacheAllocatorChurn(benchmark::State& state) {
  alloc::RunCacheAllocator allocator(kClusters);
  Rng rng(11);
  std::vector<alloc::ExtentList> live;
  for (auto _ : state) {
    allocator.Tick();
    if (live.size() < 512 || rng.Bernoulli(0.5)) {
      alloc::ExtentList out;
      if (allocator.Allocate(512, alloc::kNoHint, &out).ok()) {
        live.push_back(std::move(out));
      }
    } else {
      const size_t i = rng.Uniform(live.size());
      for (const alloc::Extent& e : live[i]) {
        Status s = allocator.Free(e);
        benchmark::DoNotOptimize(s.ok());
      }
      live[i] = std::move(live.back());
      live.pop_back();
    }
  }
}
BENCHMARK(BM_RunCacheAllocatorChurn);

// The aged_256k shape: a 20 GiB volume of 4 KiB clusters (2% MFT zone)
// holding ~40k live 256 KiB (64-cluster) objects, each written as four
// 16-cluster requests that carry extension hints, replacing a random
// live object (the safe write), with two allocator ticks per write and
// the default 128-tick journal commit. Every 16th write also splits a
// one-cluster directory index buffer and frees the oldest one, as the
// file store does; those single clusters are what age the map. One
// iteration is one safe write; 200k writes age the map before timing.
void BM_RunCacheAllocatorAgedSafeWrite(benchmark::State& state) {
  constexpr uint64_t kVolumeClusters = 5 * (1 << 20);
  constexpr uint64_t kObjects = 40000;
  alloc::RunCacheAllocator allocator(kVolumeClusters, {},
                                     kVolumeClusters / 50);
  Rng rng(19);
  std::vector<alloc::ExtentList> live(kObjects);
  std::deque<alloc::Extent> index_buffers;
  uint64_t writes = 0;
  auto write = [&](alloc::ExtentList* object) {
    alloc::ExtentList fresh;
    for (int request = 0; request < 4; ++request) {
      const uint64_t hint =
          fresh.empty() ? alloc::kNoHint : fresh.back().end();
      Status s = allocator.Allocate(16, hint, &fresh);
      benchmark::DoNotOptimize(s.ok());
    }
    const bool split = ++writes % 16 == 0;
    if (split) {
      alloc::ExtentList buffer;
      if (allocator.Allocate(1, alloc::kNoHint, &buffer).ok()) {
        index_buffers.push_back(buffer.front());
      }
    }
    allocator.Tick();
    for (const alloc::Extent& e : *object) {
      Status s = allocator.Free(e);
      benchmark::DoNotOptimize(s.ok());
    }
    if (split && index_buffers.size() > 1) {
      Status s = allocator.Free(index_buffers.front());
      benchmark::DoNotOptimize(s.ok());
      index_buffers.pop_front();
    }
    allocator.Tick();
    object->swap(fresh);
  };
  for (alloc::ExtentList& object : live) write(&object);
  for (int i = 0; i < 200000; ++i) write(&live[rng.Uniform(kObjects)]);
  for (auto _ : state) write(&live[rng.Uniform(kObjects)]);
  uint64_t fragments = 0;
  for (const alloc::ExtentList& object : live) {
    fragments += alloc::CountFragments(object);
  }
  state.counters["free_runs"] =
      static_cast<double>(allocator.FreeStats().run_count);
  state.counters["frags_per_obj"] =
      static_cast<double>(fragments) / static_cast<double>(kObjects);
}
BENCHMARK(BM_RunCacheAllocatorAgedSafeWrite);

// The aged_10mb shape, scaled to a 16 GiB volume of 4 KiB clusters (2%
// MFT zone) half full of 10 MiB objects. Each safe write streams its
// object as 160 16-cluster (64 KiB) requests, each but the first
// carrying the extension hint, replaces a random live object, and ticks
// the allocator twice (create, rename) under the default 128-tick
// journal commit, so frees are deferred. As in the file store, every
// 16th write splits a one-cluster directory index buffer and frees the
// oldest. One iteration is one request, so the time is per request; ten
// writes per object age the map before timing.
void BM_RunCacheAllocatorAgedStreamWrite(benchmark::State& state) {
  constexpr uint64_t kVolumeClusters = 1 << 22;
  constexpr uint64_t kRequests = 160;
  constexpr uint64_t kObjects = kVolumeClusters / 2 / (kRequests * 16);
  alloc::RunCacheAllocator allocator(kVolumeClusters, {},
                                     kVolumeClusters / 50);
  Rng rng(23);
  std::vector<alloc::ExtentList> live(kObjects);
  std::deque<alloc::Extent> index_buffers;
  alloc::ExtentList fresh;
  uint64_t requests = 0;
  uint64_t writes = 0;
  size_t victim = 0;  // The object the write in progress replaces.
  auto request = [&]() {
    const bool split = writes % 16 == 15;
    if (fresh.empty()) {  // Create.
      alloc::ExtentList buffer;
      if (split && allocator.Allocate(1, alloc::kNoHint, &buffer).ok()) {
        index_buffers.push_back(buffer.front());
      }
      allocator.Tick();
    }
    const uint64_t hint =
        fresh.empty() ? alloc::kNoHint : fresh.back().end();
    Status s = allocator.Allocate(16, hint, &fresh);
    benchmark::DoNotOptimize(s.ok());
    if (++requests % kRequests != 0) return;
    // Rename over the old object, which frees it.
    if (split && index_buffers.size() > 1) {
      Status f = allocator.Free(index_buffers.front());
      benchmark::DoNotOptimize(f.ok());
      index_buffers.pop_front();
    }
    for (const alloc::Extent& e : live[victim]) {
      Status f = allocator.Free(e);
      benchmark::DoNotOptimize(f.ok());
    }
    allocator.Tick();
    live[victim].swap(fresh);
    fresh.clear();
    // Fill every slot once, then replace random objects.
    victim = ++writes < kObjects ? writes : rng.Uniform(kObjects);
  };
  for (uint64_t i = 0; i < 11 * kObjects * kRequests; ++i) request();
  for (auto _ : state) request();
  uint64_t fragments = 0;
  for (const alloc::ExtentList& object : live) {
    fragments += alloc::CountFragments(object);
  }
  state.counters["free_runs"] =
      static_cast<double>(allocator.FreeStats().run_count);
  state.counters["frags_per_obj"] =
      static_cast<double>(fragments) / static_cast<double>(kObjects);
}
BENCHMARK(BM_RunCacheAllocatorAgedStreamWrite);

void BM_BuddyAllocateFree(benchmark::State& state) {
  alloc::BuddyAllocator allocator(kClusters);
  Rng rng(13);
  std::vector<alloc::Extent> live;
  for (auto _ : state) {
    if (live.size() < 2048 || rng.Bernoulli(0.5)) {
      alloc::ExtentList out;
      if (allocator.Allocate(1 + rng.Uniform(512), alloc::kNoHint, &out)
              .ok()) {
        live.push_back(out[0]);
      }
    } else {
      const size_t i = rng.Uniform(live.size());
      Status s = allocator.Free(live[i]);
      benchmark::DoNotOptimize(s.ok());
      live[i] = live.back();
      live.pop_back();
    }
  }
}
BENCHMARK(BM_BuddyAllocateFree);

void BM_GamAllocateRelease(benchmark::State& state) {
  db::GamBitmap gam(1 << 22);
  Status init = gam.Release(0, 1 << 22);
  benchmark::DoNotOptimize(init.ok());
  Rng rng(17);
  std::vector<uint64_t> live;
  for (auto _ : state) {
    if (live.size() < 100000 || rng.Bernoulli(0.5)) {
      const uint64_t e = gam.AllocateLowest();
      if (e != db::kNoExtent) live.push_back(e);
    } else {
      const size_t i = rng.Uniform(live.size());
      Status s = gam.Release(live[i], 1);
      benchmark::DoNotOptimize(s.ok());
      live[i] = live.back();
      live.pop_back();
    }
  }
}
BENCHMARK(BM_GamAllocateRelease);

}  // namespace
}  // namespace lor

BENCHMARK_MAIN();
