#include "core/repository_factory.h"

#include <cassert>

namespace lor {
namespace core {

namespace {

uint64_t SplitVolume(uint64_t total_bytes, uint32_t shard_count) {
  return shard_count == 0 ? total_bytes : total_bytes / shard_count;
}

}  // namespace

std::shared_ptr<sim::SpindlePlane> RepositoryFactory::PlaneForShard(
    uint32_t shard, uint32_t shard_count, uint64_t region_bytes,
    const sim::DiskParams& disk, sim::DataMode data_mode) const {
  const uint32_t k = topology_.owners_per_spindle;
  if (k <= 1) return nullptr;
  if (planes_shard_count_ != shard_count || shard == 0) {
    planes_.clear();
    const uint32_t spindles = (shard_count + k - 1) / k;
    planes_.reserve(spindles);
    for (uint32_t s = 0; s < spindles; ++s) {
      sim::SpindlePlane::Params p;
      p.disk = disk;
      p.region_bytes = region_bytes;
      p.owners = std::min(k, shard_count - s * k);
      p.data_mode = data_mode;
      p.policy = topology_.policy;
      // Distinct deterministic interleave stream per spindle.
      p.seed = topology_.seed + 0x9E3779B97F4A7C15ull * (s + 1);
      planes_.push_back(std::make_shared<sim::SpindlePlane>(p));
    }
    planes_shard_count_ = shard_count;
  }
  return planes_[shard / k];
}

void RepositoryFactory::ShardVolume(uint32_t shard, uint32_t shard_count,
                                    VolumeConfig* volume) const {
  volume->volume_bytes = SplitVolume(volume->volume_bytes, shard_count);
  // Each shard's pool gets its slice of the configured cache, like the
  // volume: total DRAM is a host-level budget.
  volume->cache.capacity_bytes =
      SplitVolume(volume->cache.capacity_bytes, shard_count);
  volume->spindle = PlaneForShard(shard, shard_count, volume->volume_bytes,
                                  volume->disk, volume->data_mode);
  volume->spindle_owner =
      volume->spindle != nullptr ? shard % topology_.owners_per_spindle : 0;
}

FsRepositoryFactory::FsRepositoryFactory(FsRepositoryConfig base)
    : base_(std::move(base)) {}

std::unique_ptr<ObjectRepository> FsRepositoryFactory::Create(
    uint32_t shard, uint32_t shard_count) const {
  assert(shard < shard_count);
  FsRepositoryConfig config = base_;
  ShardVolume(shard, shard_count, &config);
  return std::make_unique<FsRepository>(std::move(config));
}

DbRepositoryFactory::DbRepositoryFactory(DbRepositoryConfig base)
    : base_(std::move(base)) {}

std::unique_ptr<ObjectRepository> DbRepositoryFactory::Create(
    uint32_t shard, uint32_t shard_count) const {
  assert(shard < shard_count);
  DbRepositoryConfig config = base_;
  // Only the data volume shares a spindle; each shard's log device
  // stays dedicated (see DbRepositoryConfig).
  ShardVolume(shard, shard_count, &config);
  config.log_volume_bytes = SplitVolume(base_.log_volume_bytes, shard_count);
  return std::make_unique<DbRepository>(std::move(config));
}

}  // namespace core
}  // namespace lor
