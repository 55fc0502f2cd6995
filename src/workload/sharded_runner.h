// ShardedRunner: concurrent multi-client execution over per-shard
// repositories — the production-shaped configuration the paper's
// single-client measurements feed into. N shards are built through a
// core::RepositoryFactory (each a fully independent repository with its
// own simulated volume and clock) and hash-partition the key namespace
// through a core::ShardRouter. Each shard is driven by a ShardEngine on
// its own dedicated OS thread, modelling one client session.
//
// Phases are barrier-synchronized: BulkLoad / AgeTo /
// MeasureReadThroughput dispatch to every shard, wait for all of them,
// and return the merged ThroughputSample (bytes and operations summed;
// elapsed = max over shards, since shard clocks advance in parallel).
// Fragmentation reports merge the per-shard trackers exactly, and
// device_stats() sums per-shard device counters via sim::Sum.
//
// Determinism: shard s seeds its RNG with `seed ^ s` and threads never
// share mutable state, so a given (seed, shards, factory) triple always
// produces identical per-shard key sets, layouts, and merged stats —
// and shards=1 reproduces GetPutRunner exactly.

#ifndef LOREPO_WORKLOAD_SHARDED_RUNNER_H_
#define LOREPO_WORKLOAD_SHARDED_RUNNER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/repository_factory.h"
#include "core/shard_router.h"
#include "sim/io_stats.h"
#include "workload/shard_engine.h"

namespace lor {
namespace workload {

/// Drives N per-shard repositories concurrently through the paper's
/// workload phases and merges their measurements.
class ShardedRunner {
 public:
  /// Builds `shards` repositories via `factory` (shard i of N) and one
  /// engine per shard, then starts the per-shard worker threads.
  ShardedRunner(const core::RepositoryFactory& factory,
                WorkloadConfig config, uint32_t shards);
  ~ShardedRunner();

  ShardedRunner(const ShardedRunner&) = delete;
  ShardedRunner& operator=(const ShardedRunner&) = delete;

  /// Bulk loads every shard to its target occupancy; merged sample.
  Result<ThroughputSample> BulkLoad();

  /// Ages every shard to `target_age`; merged sample.
  Result<ThroughputSample> AgeTo(double target_age);

  /// Read probe on every shard; merged sample.
  Result<ThroughputSample> MeasureReadThroughput();

  /// Age-then-measure as ONE dispatch per shard: a shard that finishes
  /// aging early moves straight into its read probes instead of idling
  /// at a host-side barrier until the slowest shard has aged, so the
  /// checkpoint's host wall time is max(age_i + measure_i) rather than
  /// max(age_i) + max(measure_i). Simulated results are identical to
  /// the separate calls.
  Result<AgeMeasureSample> AgeAndMeasure(double target_age);

  /// Volume-wide fragmentation: per-shard trackers merged exactly
  /// (falls back to a layout walk for back ends without a tracker).
  core::FragmentationReport Fragmentation() const;

  /// Aggregate data-volume device activity across all shards.
  sim::IoStats device_stats() const;

  /// Per-shard buffer-pool counters (index = shard) for per-client
  /// hit-rate columns; all-zeros entries when pools are disabled.
  std::vector<sim::BufferPoolStats> shard_cache_stats() const;

  /// Aggregate per-op-class latency histograms: per-shard recorders
  /// merged exactly (per-bucket sums), like device_stats. Snapshot only
  /// at phase barriers — shard recorders are thread-confined.
  sim::LatencyRecorder latency() const;

  /// Aggregate storage age: total churned bytes over total live bytes.
  double storage_age() const;

  /// Total objects across shards.
  uint64_t object_count() const;

  uint32_t shard_count() const {
    return static_cast<uint32_t>(shards_.size());
  }
  const core::ShardRouter& router() const { return router_; }
  ShardEngine* engine(uint32_t shard) { return shards_[shard].engine.get(); }
  const ShardEngine* engine(uint32_t shard) const {
    return shards_[shard].engine.get();
  }
  core::ObjectRepository* repository(uint32_t shard) {
    return shards_[shard].repo.get();
  }

 private:
  struct Shard {
    std::unique_ptr<core::ObjectRepository> repo;
    std::unique_ptr<ShardEngine> engine;
  };

  /// Runs `fn` on every shard's engine (one worker thread per shard),
  /// waits for all shards (the phase barrier), and merges the results:
  /// first error wins (lowest shard index, for determinism), otherwise
  /// each sample merges bytes/ops-summed and elapsed-maxed. Single-
  /// sample phases leave the outcome's other slot empty (a zero sample
  /// merges to zero).
  Result<AgeMeasureSample> RunPhase(
      const std::function<Result<AgeMeasureSample>(ShardEngine*)>& fn);

  void WorkerLoop(uint32_t shard);

  core::ShardRouter router_;
  std::vector<Shard> shards_;

  // Worker-pool state. `mu_` guards everything below; phase_fn_ is
  // written only between phases (while no worker is running) and read
  // by workers after they observe the generation bump, so the mutex
  // hand-off orders it.
  std::vector<std::thread> workers_;
  mutable std::mutex mu_;
  std::condition_variable work_ready_cv_;
  std::condition_variable phase_done_cv_;
  uint64_t phase_generation_ = 0;
  uint32_t shards_remaining_ = 0;
  bool shutdown_ = false;
  std::function<Result<AgeMeasureSample>(ShardEngine*)> phase_fn_;
  std::vector<std::optional<Result<AgeMeasureSample>>> phase_results_;
};

}  // namespace workload
}  // namespace lor

#endif  // LOREPO_WORKLOAD_SHARDED_RUNNER_H_
