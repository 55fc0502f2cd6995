// Ablation (beyond the paper) — a DRAM buffer pool in front of each
// back end: read hit rate and throughput versus cache size and object
// size, cold probes versus a warmed cache.
//
// The paper's measurements are deliberately cold-cache (§4.1 flushes
// the OS cache between runs); every other figure here reproduces that
// regime, and the cache-size-0 rows of this table are bit-identical to
// it. A production store, though, fronts the spindle with host DRAM —
// this sweep measures what that tier buys on an aged volume, where the
// cold read path is seek-dominated: a warmed working-set-sized cache
// turns the probe into a host-bound copy (capped by the stream-window
// bandwidth, the server-side stack cost), while a cache smaller than
// the working set thrashes and buys almost nothing.
//
// The bench is also its own correctness oracle: a retain-mode pass
// reads every sampled object cold (the device is the oracle), then
// re-reads it from the warmed cache and compares FNV hashes. Any
// mismatch — a stale frame, a lost dirty byte, an invalidation hole —
// exits nonzero and fails the run.

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "util/fnv.h"
#include "util/random.h"
#include "util/table_writer.h"

namespace lor {
namespace bench {
namespace {

/// Objects sampled per probe; caps the working set at
/// kProbeSamples * object size regardless of --scale.
constexpr uint64_t kProbeSamples = 128;

std::unique_ptr<core::ObjectRepository> MakeCachedRepository(
    Backend backend, uint64_t volume, uint64_t cache_bytes,
    sim::DataMode mode) {
  if (backend == Backend::kFilesystem) {
    core::FsRepositoryConfig config;
    config.volume_bytes = volume;
    config.data_mode = mode;
    config.cache.capacity_bytes = cache_bytes;
    return std::make_unique<core::FsRepository>(std::move(config));
  }
  core::DbRepositoryConfig config;
  config.volume_bytes = volume;
  config.data_mode = mode;
  config.cache.capacity_bytes = cache_bytes;
  return std::make_unique<core::DbRepository>(std::move(config));
}

/// Ages a store, then probes one uniform victim sample twice — cold
/// (which also warms the pool) and again against the warmed pool.
struct ProbeResult {
  double cold_mb_s = 0.0;
  double warm_mb_s = 0.0;
  double warm_hit_rate = 0.0;
  bool ok = false;
};

ProbeResult RunCell(core::ObjectRepository* repo, const Options& options,
                    uint64_t object_bytes) {
  ProbeResult result;
  workload::WorkloadConfig config = options.MakeWorkloadConfig();
  config.sizes = workload::SizeDistribution::Constant(object_bytes);
  workload::GetPutRunner runner(repo, config);
  if (!runner.BulkLoad().ok() || !runner.AgeTo(2.0).ok()) return result;
  // Remount before probing: DRAM does not survive it, so the cold pass
  // is honestly cold — the paper's protocol flushes the OS cache
  // between the aging and measurement phases for the same reason.
  // (Write-back aging would otherwise leave the live set resident.)
  if (!repo->Mount().ok()) return result;

  const std::vector<std::string> keys = repo->ListKeys();
  if (keys.empty()) return result;
  Rng rng(options.seed ^ 0xcac8e);
  std::vector<const std::string*> victims;
  victims.reserve(kProbeSamples);
  for (uint64_t i = 0; i < std::min<uint64_t>(kProbeSamples, keys.size());
       ++i) {
    victims.push_back(&keys[rng.Uniform(keys.size())]);
  }
  const double bytes_mb = static_cast<double>(victims.size()) *
                          static_cast<double>(object_bytes) /
                          (1024.0 * 1024.0);

  // Cold pass: every victim comes off the platter (and, with a pool,
  // fills a frame on the way through).
  const double cold0 = repo->now();
  for (const std::string* key : victims) {
    if (!repo->Get(*key).ok()) return result;
  }
  result.cold_mb_s = bytes_mb / (repo->now() - cold0);

  // Quiesce (lazy write-back, queued completions), then re-read the
  // same victims against whatever the cold pass left cached.
  if (!repo->DrainIo().ok()) return result;
  const sim::BufferPoolStats before = repo->cache_stats();
  const double warm0 = repo->now();
  for (const std::string* key : victims) {
    if (!repo->Get(*key).ok()) return result;
  }
  result.warm_mb_s = bytes_mb / (repo->now() - warm0);
  const sim::BufferPoolStats after = repo->cache_stats();
  const uint64_t hits = after.hits - before.hits;
  const uint64_t misses = after.misses - before.misses;
  result.warm_hit_rate =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;
  result.ok = true;
  return result;
}

/// Retain-mode integrity pass: cold reads are the oracle, warm re-reads
/// must produce bit-identical payloads. Runs on a fixed small volume so
/// the retained arena stays cheap at any --scale.
bool VerifyWarmPayloads(Backend backend, const Options& options) {
  constexpr uint64_t kVerifyVolume = 256 * kMiB;
  constexpr uint64_t kVerifyCache = 64 * kMiB;
  constexpr uint64_t kVerifyObject = 256 * kKiB;
  auto repo = MakeCachedRepository(backend, kVerifyVolume, kVerifyCache,
                                   sim::DataMode::kRetain);
  workload::WorkloadConfig config = options.MakeWorkloadConfig();
  config.sizes = workload::SizeDistribution::Constant(kVerifyObject);
  workload::GetPutRunner runner(repo.get(), config);
  if (!runner.BulkLoad().ok() || !runner.AgeTo(1.0).ok()) {
    std::fprintf(stderr, "%s: verification aging failed\n",
                 repo->name().c_str());
    return false;
  }
  const std::vector<std::string> keys = repo->ListKeys();
  Rng rng(options.seed ^ 0x0c1d);
  std::vector<const std::string*> victims;
  std::vector<uint64_t> oracle;
  for (uint64_t i = 0; i < std::min<uint64_t>(kProbeSamples, keys.size());
       ++i) {
    victims.push_back(&keys[rng.Uniform(keys.size())]);
  }
  std::vector<uint8_t> payload;
  for (const std::string* key : victims) {
    if (!repo->Get(*key, &payload).ok()) {
      std::fprintf(stderr, "%s: cold oracle read of %s failed\n",
                   repo->name().c_str(), key->c_str());
      return false;
    }
    oracle.push_back(Fnv(payload));
  }
  if (!repo->DrainIo().ok()) return false;
  const sim::BufferPoolStats before = repo->cache_stats();
  for (size_t i = 0; i < victims.size(); ++i) {
    if (!repo->Get(*victims[i], &payload).ok() ||
        Fnv(payload) != oracle[i]) {
      std::fprintf(stderr,
                   "%s: warm read of %s does not match its cold oracle\n",
                   repo->name().c_str(), victims[i]->c_str());
      return false;
    }
  }
  const sim::BufferPoolStats after = repo->cache_stats();
  if (after.hits <= before.hits) {
    std::fprintf(stderr,
                 "%s: warm verification pass never hit the cache\n",
                 repo->name().c_str());
    return false;
  }
  return true;
}

int Run(const Options& options) {
  PrintBanner("Ablation: buffer-pool size (hit rate, warm read throughput)",
              "cache extension of Figure 1", options);

  const uint64_t volume =
      std::max<uint64_t>(options.ScaleBytes(4 * kGiB), 64 * kMiB);
  const std::vector<uint64_t> object_sizes = {256 * kKiB, 1 * kMiB};
  // 0 = the paper's regime; 8 MiB thrashes under the 32–128 MiB
  // working set; 24 and 96 MiB hold part of it, so their hit rates
  // show the eviction order; 192 MiB holds it whole.
  const std::vector<uint64_t> cache_sizes = {0, 8 * kMiB, 24 * kMiB,
                                             96 * kMiB, 192 * kMiB};

  TableWriter table({"backend", "object kb", "cache mb", "cold read mb/s",
                     "warm read mb/s", "hit rate %", "warm speedup"});
  bool ok = true;
  for (Backend backend : {Backend::kDatabase, Backend::kFilesystem}) {
    for (uint64_t object_bytes : object_sizes) {
      double baseline_mb_s = 0.0;  ///< Cache-0 cold rate of this row group.
      for (uint64_t cache_bytes : cache_sizes) {
        // Fresh repository per cell: every cache size ages the same
        // seed's store identically — the pool never changes layouts,
        // only charges — so rows differ purely in cache behavior.
        auto repo = MakeCachedRepository(backend, volume, cache_bytes,
                                         sim::DataMode::kMetadataOnly);
        const ProbeResult r = RunCell(repo.get(), options, object_bytes);
        if (!r.ok) {
          std::fprintf(stderr, "%s cell failed (object %llu, cache %llu)\n",
                       repo->name().c_str(),
                       static_cast<unsigned long long>(object_bytes),
                       static_cast<unsigned long long>(cache_bytes));
          ok = false;
          continue;
        }
        if (cache_bytes == 0) baseline_mb_s = r.cold_mb_s;
        // The acceptance gate: a working-set-sized warmed cache must
        // hit >= 90% and beat the paper's cold-cache read rate.
        if (cache_bytes == cache_sizes.back() &&
            (r.warm_hit_rate < 0.9 || r.warm_mb_s <= baseline_mb_s)) {
          std::fprintf(stderr,
                       "%s object %llu KiB: warm cache under-delivers "
                       "(hit %.1f%%, %.2f vs %.2f MB/s cold baseline)\n",
                       repo->name().c_str(),
                       static_cast<unsigned long long>(object_bytes / kKiB),
                       r.warm_hit_rate * 100.0, r.warm_mb_s, baseline_mb_s);
          ok = false;
        }
        table.Row()
            .Cell(repo->name())
            .Cell(object_bytes / kKiB)
            .Cell(cache_bytes / kMiB)
            .Cell(r.cold_mb_s)
            .Cell(r.warm_mb_s)
            .Cell(r.warm_hit_rate * 100.0, 1)
            .Cell(r.cold_mb_s > 0.0 ? r.warm_mb_s / r.cold_mb_s : 0.0);
      }
    }
  }
  if (options.csv) {
    table.PrintCsv();
  } else {
    table.PrintText();
  }

  std::printf(
      "\nShape check: cache 0 re-reads at cold speed (the paper's\n"
      "regime); a cache smaller than the working set thrashes; at\n"
      "cache >= working set the warm pass hits nearly 100%% and runs at\n"
      "the host-side stream bound instead of the spindle's aged seek\n"
      "rate.\n");

  std::printf("\nWarm-payload verification (retain mode, both back ends):\n");
  for (Backend backend : {Backend::kDatabase, Backend::kFilesystem}) {
    if (VerifyWarmPayloads(backend, options)) {
      std::printf("  %s: %llu warm reads match their cold oracles\n",
                  backend == Backend::kDatabase ? "db" : "fs",
                  static_cast<unsigned long long>(kProbeSamples));
    } else {
      ok = false;
    }
  }
  if (!ok) {
    std::fprintf(stderr, "\ncache ablation FAILED — see above\n");
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
