// RepositoryFactory: constructs the independent per-shard repositories
// behind the sharded workload runner. Each shard owns a full private
// stack — its own simulated volume(s), BlockDevice + SimClock, and
// file store or page file — the simulation's analogue of per-shard
// directories / database files. Because nothing is shared, one thread
// can drive each shard with no synchronization below the runner.
//
// The factories split the configured volume evenly across shards, so
// total capacity (and the workload's total data volume) is independent
// of the shard count; `Create(0, 1)` is exactly the single-shard
// repository the fig1–fig6 benches construct directly.
//
// Shared spindles: `set_spindle_topology` maps several shards' data
// volumes onto one physical disk (a sim::SpindlePlane hub) — shard i
// lands on spindle i / owners_per_spindle as owner i %
// owners_per_spindle, spindles are created lazily per deployment, and
// each holds min(owners_per_spindle, remaining) regions of one disk
// whose capacity spans them all. Interleaved batches from co-located
// shards then pay real seek interference against one head. The default
// topology (one owner per spindle) is the historical dedicated layout,
// bit for bit. Requesting shard 0 starts a new deployment and a fresh
// spindle farm, so a factory can be reused across runs; Create must be
// called serially (the sharded runner constructs repositories on one
// thread before starting workers).

#ifndef LOREPO_CORE_REPOSITORY_FACTORY_H_
#define LOREPO_CORE_REPOSITORY_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/db_repository.h"
#include "core/fs_repository.h"
#include "core/object_repository.h"
#include "sim/spindle_plane.h"

namespace lor {
namespace core {

/// How shards map onto physical spindles.
struct SpindleTopology {
  /// Shards sharing one disk. 1 (default) = a dedicated spindle per
  /// shard, the historical bit-identical layout.
  uint32_t owners_per_spindle = 1;
  /// Service policy of each shared head (fixed per plane).
  sim::SchedPolicy policy = sim::SchedPolicy::kSptf;
  /// Salts the planes' deterministic service interleave.
  uint64_t seed = 0;
};

/// Builds N independent repository instances for sharded execution.
class RepositoryFactory {
 public:
  virtual ~RepositoryFactory() = default;

  /// Builds shard `shard` of `shard_count` (both backed by volumes of
  /// total/shard_count bytes). Requires shard < shard_count.
  virtual std::unique_ptr<ObjectRepository> Create(
      uint32_t shard, uint32_t shard_count) const = 0;

  /// Backend label ("filesystem" or "database", the paper's series).
  virtual std::string name() const = 0;

  /// Installs the shard→spindle mapping for subsequent Create calls
  /// (and discards any existing spindle farm).
  void set_spindle_topology(const SpindleTopology& topology) {
    topology_ = topology;
    planes_.clear();
    planes_shard_count_ = 0;
  }
  const SpindleTopology& spindle_topology() const { return topology_; }

 protected:
  /// The shared plane `shard` belongs to, or null under the dedicated
  /// topology. Builds the deployment's spindle farm on first use (and
  /// rebuilds it when shard 0 or a different shard_count is requested).
  std::shared_ptr<sim::SpindlePlane> PlaneForShard(
      uint32_t shard, uint32_t shard_count, uint64_t region_bytes,
      const sim::DiskParams& disk, sim::DataMode data_mode) const;

  /// Turns `volume`, a copy of the deployment's config, into shard
  /// `shard`'s: its slice of the volume and of the cache, and its
  /// spindle plane and owner slot.
  void ShardVolume(uint32_t shard, uint32_t shard_count,
                   VolumeConfig* volume) const;

  SpindleTopology topology_;

 private:
  mutable std::vector<std::shared_ptr<sim::SpindlePlane>> planes_;
  mutable uint32_t planes_shard_count_ = 0;
};

/// Factory for FsRepository shards. `base` describes the whole
/// deployment; each shard gets base.volume_bytes / shard_count.
class FsRepositoryFactory : public RepositoryFactory {
 public:
  explicit FsRepositoryFactory(FsRepositoryConfig base = {});

  std::unique_ptr<ObjectRepository> Create(
      uint32_t shard, uint32_t shard_count) const override;
  std::string name() const override { return "filesystem"; }

  const FsRepositoryConfig& base_config() const { return base_; }

 private:
  FsRepositoryConfig base_;
};

/// Factory for DbRepository shards. Data and log volumes are both split
/// across shards.
class DbRepositoryFactory : public RepositoryFactory {
 public:
  explicit DbRepositoryFactory(DbRepositoryConfig base = {});

  std::unique_ptr<ObjectRepository> Create(
      uint32_t shard, uint32_t shard_count) const override;
  std::string name() const override { return "database"; }

  const DbRepositoryConfig& base_config() const { return base_; }

 private:
  DbRepositoryConfig base_;
};

}  // namespace core
}  // namespace lor

#endif  // LOREPO_CORE_REPOSITORY_FACTORY_H_
