// Shared harness for the figure/table reproduction benches: scale
// handling, repository construction, and the bulk-load → age → probe
// experiment loop used by every figure.

#ifndef LOREPO_BENCH_BENCH_COMMON_H_
#define LOREPO_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "core/db_repository.h"
#include "core/fragmentation.h"
#include "core/fs_repository.h"
#include "core/object_repository.h"
#include "core/repository_factory.h"
#include "util/result.h"
#include "workload/getput_runner.h"
#include "workload/sharded_runner.h"

namespace lor {
namespace bench {

/// Command-line options common to all benches.
struct Options {
  /// Linear scale relative to the paper's volumes. The default 0.1 runs
  /// 4/40 GB volumes instead of 40/400 GB so the whole suite finishes
  /// in minutes; --scale=paper (1.0) reproduces the original sizes.
  double scale = 0.1;
  uint64_t seed = 42;
  bool csv = false;
  /// Shard / client-thread count for benches that support sharded runs
  /// (`--threads` is an alias: the runner drives one OS thread per
  /// shard). The default 1 keeps every bench single-client; fig7 treats
  /// an explicitly set value as the top of its scaling sweep.
  uint32_t shards = 1;
  /// True when --shards/--threads (or LOR_BENCH_SHARDS) was given.
  bool shards_set = false;
  /// Drive the workload through per-operation name lookups instead of
  /// per-object handles (the historical path, kept for A/B runs; the
  /// two produce bit-identical layouts).
  bool name_path = false;
  /// Operations kept in flight per shard during the aging and read
  /// phases (`--qd=N`). 1 — also spelled `--sync` — is the synchronous
  /// submission path and reproduces every historical figure exactly;
  /// N > 1 engages the back ends' submission queues, so latency
  /// percentiles include queueing delay.
  uint32_t queue_depth = 1;
  /// Buffer-pool capacity per back end in MiB (`--cache-mb=N`), split
  /// across shards by the factories. 0 (the default) disables the pool
  /// entirely — the paper's cold-cache regime, bit-identical to the
  /// pre-cache figures.
  uint64_t cache_mb = 0;
  /// Shards per shared spindle for contention benches (`--owners=N`);
  /// 0 (default) lets the bench run its own 1/2/4 sweep.
  uint32_t owners_per_spindle = 0;
  /// Service the shared head FIFO instead of SPTF (`--fifo`).
  bool fifo = false;

  /// Parses --scale=small|paper|<float>, --seed=N, --csv,
  /// --shards=N/--threads=N, --name-path, --qd=N, --sync, --cache-mb=N,
  /// --owners=N, --fifo, then the LOR_BENCH_SCALE / LOR_BENCH_SHARDS
  /// overrides. Strict: an unknown flag or a malformed or out-of-range
  /// value (scale outside (0, 100], a zero count, a negative or
  /// overflowing number) prints the argument with the flag list to
  /// stderr and exits 2.
  static Options FromArgs(int argc, char** argv);

  uint64_t ScaleBytes(uint64_t paper_bytes) const;

  /// Workload config seeded from these options (seed + access path +
  /// queue depth).
  workload::WorkloadConfig MakeWorkloadConfig() const {
    workload::WorkloadConfig config;
    config.seed = seed;
    config.use_handles = !name_path;
    config.queue_depth = queue_depth;
    return config;
  }
};

/// Which back end to build.
enum class Backend { kFilesystem, kDatabase };

/// Repository factory with the paper's defaults (out-of-the-box
/// configuration, 64 KB write requests unless overridden). A nonzero
/// `cache_bytes` sizes a buffer pool in front of the data volume; 0
/// keeps the pool disabled (the paper's configuration).
std::unique_ptr<core::ObjectRepository> MakeRepository(
    Backend backend, uint64_t volume_bytes,
    uint64_t write_request_bytes = 64 * kKiB, uint64_t cache_bytes = 0);

/// Per-shard repository factory with the same defaults: `volume_bytes`
/// is the whole deployment's capacity, split evenly across shards by
/// the factory (Create(0, 1) is exactly MakeRepository's result).
/// `cache_bytes` is likewise the whole deployment's cache budget.
std::unique_ptr<core::RepositoryFactory> MakeRepositoryFactory(
    Backend backend, uint64_t volume_bytes,
    uint64_t write_request_bytes = 64 * kKiB, uint64_t cache_bytes = 0);

/// One measurement row of an aging experiment.
struct AgingCheckpoint {
  double target_age = 0.0;
  double measured_age = 0.0;
  /// Write throughput during the interval that *ends* at this age (for
  /// age 0 this is the bulk load itself), per the paper's Fig. 4 note.
  workload::ThroughputSample write;
  /// Read probe taken at this age.
  workload::ThroughputSample read;
  core::FragmentationReport fragmentation;
  /// Cumulative device counters at this checkpoint (summed across
  /// shards for sharded runs).
  sim::IoStats device;
  /// Cumulative per-op-class latency histograms at this checkpoint
  /// (merged across shards). Subtract the previous checkpoint's to
  /// isolate one interval (sim::LatencyRecorder::operator-).
  sim::LatencyRecorder latency;
  /// Aggregate buffer-pool hit rate at this checkpoint and its spread
  /// across shards (per-client fairness of a global cache budget). All
  /// zero with pools disabled. Host wall seconds per phase live in the
  /// samples themselves (ThroughputSample::host_seconds).
  double cache_hit = 0.0;
  double cache_hit_min = 0.0;
  double cache_hit_max = 0.0;
};

/// Bulk loads, then visits each storage age in order, measuring write
/// throughput per interval and probing reads + fragmentation at each
/// checkpoint. `ages` must be increasing and start implicitly at 0.
/// Each aged checkpoint runs age-then-probe as one fused dispatch
/// (identical simulated results, overlapped host work).
Result<std::vector<AgingCheckpoint>> RunAging(
    core::ObjectRepository* repo, const workload::WorkloadConfig& config,
    const std::vector<double>& ages, bool probe_reads = true);

/// Sharded variant of RunAging: drives `shards` per-shard repositories
/// concurrently (workload::ShardedRunner) and records merged samples
/// per checkpoint — bytes/ops summed, elapsed = max over shards, one
/// exact merged fragmentation report.
Result<std::vector<AgingCheckpoint>> RunShardedAging(
    const core::RepositoryFactory& factory, uint32_t shards,
    const workload::WorkloadConfig& config, const std::vector<double>& ages,
    bool probe_reads = true);

/// Prints the standard bench banner with the paper reference.
void PrintBanner(const std::string& title, const std::string& paper_ref,
                 const Options& options);

}  // namespace bench
}  // namespace lor

#endif  // LOREPO_BENCH_BENCH_COMMON_H_
