#include "workload/sharded_runner.h"

#include "alloc/extent.h"

namespace lor {
namespace workload {

ShardedRunner::ShardedRunner(const core::RepositoryFactory& factory,
                             WorkloadConfig config, uint32_t shards)
    : router_(shards == 0 ? 1 : shards) {
  const uint32_t n = router_.shard_count();
  // A single shard skips routing entirely (null router): the engine
  // then owns every key without hashing, reproducing GetPutRunner.
  const core::ShardRouter* router = n > 1 ? &router_ : nullptr;
  shards_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Shard shard;
    shard.repo = factory.Create(i, n);
    shard.engine =
        std::make_unique<ShardEngine>(shard.repo.get(), config, i, router);
    shards_.push_back(std::move(shard));
  }
  phase_results_.resize(n);
  workers_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ShardedRunner::~ShardedRunner() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_ready_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ShardedRunner::WorkerLoop(uint32_t shard) {
  uint64_t seen_generation = 0;
  for (;;) {
    std::unique_lock<std::mutex> lock(mu_);
    work_ready_cv_.wait(lock, [&] {
      return shutdown_ || phase_generation_ != seen_generation;
    });
    if (shutdown_) return;
    seen_generation = phase_generation_;
    const auto fn = phase_fn_;  // Copy under the lock; stable all phase.
    lock.unlock();

    Result<AgeMeasureSample> result = fn(shards_[shard].engine.get());

    lock.lock();
    phase_results_[shard].emplace(std::move(result));
    if (--shards_remaining_ == 0) phase_done_cv_.notify_all();
  }
}

Result<AgeMeasureSample> ShardedRunner::RunPhase(
    const std::function<Result<AgeMeasureSample>(ShardEngine*)>& fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    phase_fn_ = fn;
    for (auto& slot : phase_results_) slot.reset();
    shards_remaining_ = shard_count();
    ++phase_generation_;
  }
  work_ready_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mu_);
    phase_done_cv_.wait(lock, [&] { return shards_remaining_ == 0; });
  }
  // The barrier has passed: every slot is filled and the workers are
  // idle again, so the results can be read without the lock.
  AgeMeasureSample merged;
  for (const auto& slot : phase_results_) {
    if (!slot->ok()) return slot->status();
    merged.aged.MergeParallel((*slot)->aged);
    merged.read.MergeParallel((*slot)->read);
  }
  return merged;
}

Result<ThroughputSample> ShardedRunner::BulkLoad() {
  LOR_ASSIGN_OR_RETURN(
      AgeMeasureSample merged,
      RunPhase([](ShardEngine* engine) -> Result<AgeMeasureSample> {
        AgeMeasureSample out;
        LOR_ASSIGN_OR_RETURN(out.aged, engine->BulkLoad());
        return out;
      }));
  return merged.aged;
}

Result<ThroughputSample> ShardedRunner::AgeTo(double target_age) {
  LOR_ASSIGN_OR_RETURN(
      AgeMeasureSample merged,
      RunPhase([target_age](ShardEngine* engine) -> Result<AgeMeasureSample> {
        AgeMeasureSample out;
        LOR_ASSIGN_OR_RETURN(out.aged, engine->AgeTo(target_age));
        return out;
      }));
  return merged.aged;
}

Result<ThroughputSample> ShardedRunner::MeasureReadThroughput() {
  LOR_ASSIGN_OR_RETURN(
      AgeMeasureSample merged,
      RunPhase([](ShardEngine* engine) -> Result<AgeMeasureSample> {
        AgeMeasureSample out;
        LOR_ASSIGN_OR_RETURN(out.read, engine->MeasureReadThroughput());
        return out;
      }));
  return merged.read;
}

Result<AgeMeasureSample> ShardedRunner::AgeAndMeasure(double target_age) {
  return RunPhase([target_age](ShardEngine* engine) {
    return engine->AgeAndMeasure(target_age);
  });
}

core::FragmentationReport ShardedRunner::Fragmentation() const {
  core::FragmentationTracker merged;
  for (const Shard& shard : shards_) {
    const core::FragmentationTracker* tracker =
        shard.repo->fragmentation_tracker();
    if (tracker != nullptr) {
      merged.Merge(*tracker);
      continue;
    }
    // Back ends without incremental accounting: fold in a layout walk.
    shard.repo->VisitObjects([&](const std::string& /*key*/,
                                 const alloc::ExtentList& layout,
                                 uint64_t size_bytes) {
      merged.Add(alloc::CountFragments(layout), size_bytes);
    });
  }
  return merged.Snapshot();
}

sim::IoStats ShardedRunner::device_stats() const {
  std::vector<sim::IoStats> parts;
  parts.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    parts.push_back(shard.repo->device_stats());
  }
  return sim::Sum(parts);
}

std::vector<sim::BufferPoolStats> ShardedRunner::shard_cache_stats() const {
  std::vector<sim::BufferPoolStats> parts;
  parts.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    parts.push_back(shard.repo->cache_stats());
  }
  return parts;
}

sim::LatencyRecorder ShardedRunner::latency() const {
  sim::LatencyRecorder merged;
  for (const Shard& shard : shards_) {
    const sim::LatencyRecorder* rec = shard.repo->latency_recorder();
    if (rec != nullptr) merged.Merge(*rec);
  }
  return merged;
}

double ShardedRunner::storage_age() const {
  uint64_t churned = 0;
  uint64_t live = 0;
  for (const Shard& shard : shards_) {
    churned += shard.engine->age_tracker().churned_bytes();
    live += shard.engine->age_tracker().live_bytes();
  }
  if (live == 0) return 0.0;
  return static_cast<double>(churned) / static_cast<double>(live);
}

uint64_t ShardedRunner::object_count() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.engine->object_count();
  return total;
}

}  // namespace workload
}  // namespace lor
