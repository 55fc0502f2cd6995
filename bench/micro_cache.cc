// Micro-benchmark: the buffer-pool request paths themselves — miss
// (device fill), clean hit, and pinned hit — in both data modes. Every
// cached read the storage layers issue lands on one of these paths, so
// their host cost bounds how much a warm cache can actually return at
// bench scale.
//
// The region is written once, then read in the 64 KiB requests the
// stores issue. The miss phase invalidates the region before each pass
// (every request fills through ReadV into a recycled frame — the
// steady-state miss, not the cold-allocation one); the hit phase
// re-reads resident frames; the pinned phase does the same under
// PinRange (the open-handle window). Simulated MB/s is deterministic
// and gated: the miss path must charge exactly the device's sequential
// read rate, and hit and pinned-hit must charge identically (the pin
// is bookkeeping, not a toll) at the pool's copy bandwidth — so the
// table doubles as a charge-parity cross-check. Wall ns/op is
// host-dependent and printed as indented prose.
//
// Retain-mode passes verify every payload byte against the written
// pattern; any mismatch (stale frame, recycled-buffer leak) exits
// nonzero, which fails run_all.
//
// The 8 MiB region holds 128 frames, so the pool's index and frame
// records sit in cache there. A last phase runs at bench shape instead:
// metadata-only frames on an 8 GiB device under a 4 GiB single-domain
// pool (the cached_pool lor_bench shape), filled to over 100k resident
// frames, then a seeded churn of multi-slice write installs, extent
// invalidations, range flushes and reads, with the lazy writer tripping
// along the way. Only its wall ns/op is printed, as prose; the phase
// exits nonzero when it ends with too few resident frames or without a
// lazy-writer flush, since it would then not measure what it claims.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.h"
#include "sim/block_device.h"
#include "sim/buffer_pool.h"
#include "util/random.h"
#include "util/table_writer.h"

namespace lor {
namespace bench {
namespace {

constexpr uint64_t kRegion = 8 * kMiB;
constexpr uint64_t kRequestBytes = 64 * kKiB;
constexpr uint64_t kRequests = kRegion / kRequestBytes;
constexpr uint64_t kPoolBytes = 16 * kMiB;  ///< Holds the region whole.
/// Passes per phase (min-of-N wall estimator, as in micro_device).
constexpr uint64_t kPasses = 64;

struct PhaseResult {
  uint64_t bytes = 0;
  double sim_seconds = 0.0;
  double wall_seconds = 0.0;  ///< Fastest pass.

  double sim_mb_per_s() const {
    return sim_seconds > 0.0
               ? static_cast<double>(bytes) / (1024.0 * 1024.0) / sim_seconds
               : 0.0;
  }
  double wall_mb_per_s() const {
    return wall_seconds > 0.0
               ? static_cast<double>(kRegion) / (1024.0 * 1024.0) /
                     wall_seconds
               : 0.0;
  }
  double wall_ns_per_op() const {
    return wall_seconds * 1e9 / static_cast<double>(kRequests);
  }
};

uint8_t PatternByte(uint64_t offset) {
  return static_cast<uint8_t>(offset * 167 + 13);
}

enum class Path { kMiss, kHit, kPinnedHit };

/// One phase: `passes` full sweeps of the region through the pool.
/// Returns false on any status error or retain-mode payload mismatch.
bool RunPath(sim::BlockDevice* dev, sim::BufferPool* pool, Path path,
             bool retain, PhaseResult* result) {
  std::vector<uint8_t> back(kRequestBytes);
  std::vector<sim::CacheSlice> slice(1);
  if (path == Path::kHit || path == Path::kPinnedHit) {
    // Populate once; the measured passes must never touch the device.
    for (uint64_t i = 0; i < kRequests; ++i) {
      const uint64_t off = i * kRequestBytes;
      slice[0] = {off, kRequestBytes, nullptr, nullptr, off, kRequestBytes};
      if (!pool->ReadThrough(slice).ok()) return false;
    }
  }
  if (path == Path::kPinnedHit) {
    if (pool->PinRange(0, kRegion) != kRequests) return false;
  }

  const double sim0 = dev->clock().now();
  double min_pass = 0.0;
  for (uint64_t pass = 0; pass < kPasses; ++pass) {
    if (path == Path::kMiss) {
      // Drop the frames (buffers recycle into the free lists) so every
      // request below is a steady-state fill, never a hit.
      pool->Invalidate(0, kRegion);
    }
    const auto pass0 = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < kRequests; ++i) {
      const uint64_t off = i * kRequestBytes;
      slice[0] = {off, kRequestBytes, nullptr, back.data(), off,
                  kRequestBytes};
      if (!pool->ReadThrough(slice).ok()) return false;
    }
    const double pass_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - pass0)
                              .count();
    if (pass == 0 || pass_s < min_pass) min_pass = pass_s;
    if (retain) {
      // `back` holds the last request of the sweep.
      for (uint64_t b = 0; b < kRequestBytes; ++b) {
        if (back[b] != PatternByte(kRegion - kRequestBytes + b)) {
          std::fprintf(stderr, "payload mismatch at byte %llu\n",
                       static_cast<unsigned long long>(b));
          return false;
        }
      }
    }
  }
  result->bytes = kPasses * kRegion;
  result->sim_seconds = dev->clock().now() - sim0;
  result->wall_seconds = min_pass;
  if (path == Path::kPinnedHit) pool->UnpinRange(0, kRegion);
  return true;
}

constexpr uint64_t kChurnDevice = 8 * kGiB;
constexpr uint64_t kChurnPool = 4 * kGiB;
constexpr uint64_t kChurnPage = 8 * kKiB;
constexpr uint64_t kChurnExtent = 64 * kKiB;
constexpr uint64_t kChurnOps = 200000;
constexpr uint64_t kChurnMinFrames = 100000;

struct ChurnResult {
  double wall_seconds = 0.0;
  uint64_t frames = 0;        ///< Resident at the end.
  uint64_t lazy_flushes = 0;  ///< Churn writes that tripped the writer.

  double wall_ns_per_op() const {
    return wall_seconds * 1e9 / static_cast<double>(kChurnOps);
  }
};

/// Writes `slices` and counts the call if it ended in a lazy-writer
/// flush (a write-back call leaves its own frame dirty unless the
/// writer then cleaned everything).
bool ChurnWrite(sim::BufferPool* pool,
                std::span<const sim::CacheSlice> slices,
                uint64_t* lazy_flushes) {
  const uint64_t writebacks = pool->stats().writebacks;
  if (!pool->WriteThrough(slices).ok()) return false;
  if (pool->dirty_bytes() == 0 && pool->stats().writebacks > writebacks) {
    ++*lazy_flushes;
  }
  return true;
}

/// The bench-shape phase: fill, then kChurnOps timed operations.
bool RunChurn(uint64_t seed, ChurnResult* result) {
  sim::BlockDevice dev(
      sim::DiskParams::St3400832as().WithCapacity(kChurnDevice),
      sim::DataMode::kMetadataOnly);
  sim::BufferPoolOptions pool_options;
  pool_options.capacity_bytes = kChurnPool;
  pool_options.shards = 1;
  sim::BufferPool pool(&dev, pool_options);
  dev.AttachBufferPool(&pool);
  Rng rng(seed);
  std::vector<sim::CacheSlice> slices;
  // Fill: 32 KiB frames across the first half of the device. Its lazy
  // flushes do not count; the churn below must trip the writer itself.
  uint64_t fill_flushes = 0;
  for (uint64_t off = 0; off < kChurnPool; off += 4 * kChurnPage) {
    slices.assign(1, {off, 4 * kChurnPage, nullptr, nullptr, off, 0});
    if (!ChurnWrite(&pool, slices, &fill_flushes)) return false;
  }
  const auto page_at = [&rng](uint64_t span) {
    return rng.Uniform(span / kChurnPage) * kChurnPage;
  };
  const auto t0 = std::chrono::steady_clock::now();
  for (uint64_t op = 0; op < kChurnOps; ++op) {
    const uint64_t r = rng.Uniform(100);
    bool ok = true;
    if (r < 50) {
      // An object's runs: 1-4 page-aligned slices of 8-48 KiB, a
      // little apart, installed dirty.
      slices.clear();
      uint64_t off = page_at(kChurnDevice - 2 * kMiB);
      for (uint64_t n = 1 + rng.Uniform(4); n > 0; --n) {
        const uint64_t len = rng.UniformRange(1, 6) * kChurnPage;
        slices.push_back({off, len, nullptr, nullptr, off, 0});
        off += len + rng.Uniform(8) * kChurnPage;
      }
      ok = ChurnWrite(&pool, slices, &result->lazy_flushes);
    } else if (r < 80) {
      // A freed extent drops whatever frames it holds.
      pool.Invalidate(page_at(kChurnDevice - kChurnExtent), kChurnExtent);
    } else if (r < 90) {
      // An fsync-style flush of a 1 MiB range.
      ok = pool.FlushRange(page_at(kChurnDevice - kMiB), kMiB).ok();
    } else {
      // A 64 KiB read, filling its extent on a miss.
      const uint64_t off = page_at(kChurnDevice - kChurnExtent);
      slices.assign(1, {off, kChurnExtent, nullptr, nullptr, off, 0});
      ok = pool.ReadThrough(slices).ok();
    }
    if (!ok) return false;
  }
  result->wall_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  result->frames = pool.frame_count();
  return true;
}

const char* PathName(Path path) {
  switch (path) {
    case Path::kMiss:
      return "miss";
    case Path::kHit:
      return "hit";
    case Path::kPinnedHit:
      return "pinned hit";
  }
  return "?";
}

int Run(const Options& options) {
  PrintBanner("Micro: buffer-pool paths (miss vs hit vs pinned hit)",
              "host-cost substrate for the cache ablation", options);

  TableWriter table({"mode", "path", "sim read MB/s"});
  bool ok = true;
  PhaseResult wall[2][3];

  for (int retain = 0; retain < 2; ++retain) {
    const sim::DataMode mode =
        retain != 0 ? sim::DataMode::kRetain : sim::DataMode::kMetadataOnly;
    for (Path path : {Path::kMiss, Path::kHit, Path::kPinnedHit}) {
      sim::BlockDevice dev(
          sim::DiskParams::St3400832as().WithCapacity(kRegion), mode);
      sim::BufferPoolOptions pool_options;
      pool_options.capacity_bytes = kPoolBytes;
      sim::BufferPool pool(&dev, pool_options);
      dev.AttachBufferPool(&pool);
      // Seed the platter so miss fills carry real bytes in retain mode.
      std::vector<uint8_t> pattern(kRegion);
      for (uint64_t b = 0; b < kRegion; ++b) pattern[b] = PatternByte(b);
      if (!dev.Write(0, kRegion,
                     retain != 0 ? std::span<const uint8_t>(pattern)
                                 : std::span<const uint8_t>())
               .ok()) {
        ok = false;
        continue;
      }

      PhaseResult result;
      if (!RunPath(&dev, &pool, path, retain != 0, &result)) {
        std::fprintf(stderr, "%s %s phase failed\n",
                     retain != 0 ? "retain" : "metadata", PathName(path));
        ok = false;
        continue;
      }
      // The counters must say what the phase claims it measured.
      const sim::BufferPoolStats& stats = pool.stats();
      if ((path == Path::kMiss && stats.misses < kPasses * kRequests) ||
          (path != Path::kMiss && stats.hits < kPasses * kRequests) ||
          (path == Path::kPinnedHit && stats.pinned_hits == 0)) {
        std::fprintf(stderr, "%s %s phase took the wrong cache path\n",
                     retain != 0 ? "retain" : "metadata", PathName(path));
        ok = false;
        continue;
      }
      wall[retain][static_cast<int>(path)] = result;
      table.Row()
          .Cell(retain != 0 ? "retain" : "metadata")
          .Cell(PathName(path))
          .Cell(result.sim_mb_per_s());
    }
  }

  if (options.csv) {
    table.PrintCsv();
  } else {
    table.PrintText();
  }
  std::printf("\n");

  for (int retain = 0; retain < 2; ++retain) {
    for (int path = 0; path < 3; ++path) {
      const PhaseResult& r = wall[retain][path];
      std::printf("  wall %s %-10s: %7.0f MB/s (%6.0f ns/op)\n",
                  retain != 0 ? "retain  " : "metadata",
                  path == 0 ? "miss" : path == 1 ? "hit" : "pinned hit",
                  r.wall_mb_per_s(), r.wall_ns_per_op());
    }
  }
  ChurnResult churn;
  if (!RunChurn(options.seed, &churn)) {
    std::fprintf(stderr, "bench-shape churn phase failed\n");
    ok = false;
  } else if (churn.frames < kChurnMinFrames || churn.lazy_flushes == 0) {
    std::fprintf(stderr,
                 "bench-shape churn ended with %llu frames and %llu lazy "
                 "flushes; it needs %llu+ frames and one flush\n",
                 static_cast<unsigned long long>(churn.frames),
                 static_cast<unsigned long long>(churn.lazy_flushes),
                 static_cast<unsigned long long>(kChurnMinFrames));
    ok = false;
  } else {
    std::printf("  wall metadata churn     : %7.0f ns/op (%llu frames "
                "resident on 8 GiB, %llu lazy flushes)\n",
                churn.wall_ns_per_op(),
                static_cast<unsigned long long>(churn.frames),
                static_cast<unsigned long long>(churn.lazy_flushes));
  }
  std::printf(
      "\nExpectation: the miss rows charge the device's sequential read\n"
      "rate; hit and pinned-hit rows charge identically (the pin is\n"
      "bookkeeping, not a toll) at the pool's simulated copy bandwidth,\n"
      "in both data modes.\n");
  if (!ok) {
    std::fprintf(stderr, "cache path error or payload mismatch — see above\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace lor

int main(int argc, char** argv) {
  return lor::bench::Run(lor::bench::Options::FromArgs(argc, argv));
}
