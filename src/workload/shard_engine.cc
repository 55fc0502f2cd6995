#include "workload/shard_engine.h"

#include <chrono>

namespace lor {
namespace workload {

namespace {

/// Engages the repository's submission queue for one phase and
/// guarantees the return to the synchronous path (draining queued work)
/// on every exit, including error returns.
class QueueDepthWindow {
 public:
  explicit QueueDepthWindow(core::ObjectRepository* repo) : repo_(repo) {}

  Status Enter(uint32_t depth, sim::SchedPolicy policy) {
    if (depth <= 1) return Status::OK();
    LOR_RETURN_IF_ERROR(repo_->SetQueueDepth(depth, policy));
    engaged_ = true;
    return Status::OK();
  }

  /// Explicit close so the phase can observe the drained clock (and any
  /// error) before computing its elapsed interval.
  Status Exit() {
    if (!engaged_) return Status::OK();
    engaged_ = false;
    return repo_->SetQueueDepth(1);
  }

  ~QueueDepthWindow() {
    if (engaged_) {
      Status s = repo_->SetQueueDepth(1);
      (void)s;
    }
  }

 private:
  core::ObjectRepository* repo_;
  bool engaged_ = false;
};

/// Parks the shard at its phase fence exactly once per phase, on every
/// exit path. A shard that errors mid-phase must still arrive at the
/// fence: its shared-spindle peers only re-base their closed loops
/// once every owner has parked. On a dedicated spindle SettleIo is a
/// no-op and the guard costs one virtual call.
class PhaseSettle {
 public:
  explicit PhaseSettle(core::ObjectRepository* repo) : repo_(repo) {}

  /// Explicit close so the phase observes the settled clock (and any
  /// settle error) before computing its elapsed interval.
  Status Close() {
    if (closed_) return Status::OK();
    closed_ = true;
    return repo_->SettleIo();
  }

  ~PhaseSettle() {
    if (!closed_) {
      Status s = repo_->SettleIo();
      (void)s;
    }
  }

 private:
  core::ObjectRepository* repo_;
  bool closed_ = false;
};

double HostSecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

ShardEngine::ShardEngine(core::ObjectRepository* repo, WorkloadConfig config,
                         uint32_t shard, const core::ShardRouter* router)
    : repo_(repo),
      config_(config),
      shard_(shard),
      router_(router),
      rng_(config.seed ^ shard) {}

std::string ShardEngine::KeyFor(uint64_t index) {
  // Hot path during bulk load: "obj" + the index zero-padded to at
  // least 8 digits (the former %08llu format), written digit by digit
  // into a right-sized string — no snprintf, no reformat pass.
  int digits = 1;
  for (uint64_t v = index; v >= 10; v /= 10) ++digits;
  const int width = std::max(digits, 8);
  std::string key(3 + static_cast<size_t>(width), '0');
  key[0] = 'o';
  key[1] = 'b';
  key[2] = 'j';
  size_t pos = key.size();
  uint64_t v = index;
  do {
    key[--pos] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  return key;
}

std::string ShardEngine::NextOwnedKey() {
  while (true) {
    std::string key = KeyFor(next_index_++);
    if (router_ == nullptr || router_->ShardOf(key) == shard_) return key;
  }
}

Result<ThroughputSample> ShardEngine::BulkLoad() {
  if (loaded_) return Status::InvalidArgument("bulk load already done");
  const uint64_t target_bytes = static_cast<uint64_t>(
      config_.target_occupancy *
      static_cast<double>(repo_->volume_bytes()));

  // Size the key/size tables for the expected population up front so
  // the load loop never reallocates them.
  const uint64_t expected =
      config_.sizes.mean_bytes() > 0
          ? target_bytes / config_.sizes.mean_bytes() + 1
          : 0;
  keys_.reserve(expected);
  sizes_.reserve(expected);
  if (config_.use_handles) handles_.reserve(expected);

  ThroughputSample sample;
  const auto host_t0 = std::chrono::steady_clock::now();
  PhaseSettle settle(repo_);
  const double t0 = repo_->now();
  uint64_t live = 0;
  while (true) {
    const uint64_t size = config_.sizes.Sample(&rng_);
    if (live + size > target_bytes) break;
    const std::string key = NextOwnedKey();
    if (config_.use_handles) {
      // Open once per object lifetime and create through the handle
      // (charging exactly what a name-based Put charges); every aging
      // replacement and read probe below reuses the pinned handle.
      if (repo_->Exists(key)) {
        return Status::AlreadyExists("object exists: " + key);
      }
      LOR_ASSIGN_OR_RETURN(core::ObjectHandle handle,
                           repo_->OpenForWrite(key));
      LOR_RETURN_IF_ERROR(repo_->SafeWrite(handle, size));
      handles_.push_back(std::move(handle));
    } else {
      LOR_RETURN_IF_ERROR(repo_->Put(key, size));
    }
    keys_.push_back(key);
    sizes_.push_back(size);
    live += size;
    age_.RecordBulkLoad(size);
    sample.bytes += size;
    ++sample.operations;
  }
  LOR_RETURN_IF_ERROR(settle.Close());
  sample.seconds = repo_->now() - t0;
  sample.host_seconds = HostSecondsSince(host_t0);
  age_.MarkBulkLoadComplete();
  loaded_ = true;
  if (keys_.empty()) {
    return Status::InvalidArgument(
        "volume too small for even one object at the target occupancy");
  }
  return sample;
}

Result<ThroughputSample> ShardEngine::AgeTo(double target_age) {
  if (!loaded_) return Status::InvalidArgument("bulk load first");
  ThroughputSample sample;
  const auto host_t0 = std::chrono::steady_clock::now();
  // Declared before the window so an error path exits the window
  // (draining queued work) before parking at the phase fence.
  PhaseSettle settle(repo_);
  const double t0 = repo_->now();
  QueueDepthWindow window(repo_);
  LOR_RETURN_IF_ERROR(window.Enter(config_.queue_depth, config_.queue_policy));
  while (age_.age() < target_age) {
    const uint64_t victim = rng_.Uniform(keys_.size());
    const uint64_t old_size = sizes_[victim];
    const uint64_t new_size = config_.sizes.Sample(&rng_);
    if (config_.use_handles) {
      LOR_RETURN_IF_ERROR(repo_->SafeWrite(handles_[victim], new_size));
    } else {
      LOR_RETURN_IF_ERROR(repo_->SafeWrite(keys_[victim], new_size));
    }
    sizes_[victim] = new_size;
    age_.RecordReplacement(old_size, new_size);
    sample.bytes += new_size;
    ++sample.operations;
  }
  LOR_RETURN_IF_ERROR(window.Exit());  // Drain before reading the clock.
  LOR_RETURN_IF_ERROR(settle.Close());
  sample.seconds = repo_->now() - t0;
  sample.host_seconds = HostSecondsSince(host_t0);
  return sample;
}

Result<ThroughputSample> ShardEngine::MeasureReadThroughput() {
  if (!loaded_) return Status::InvalidArgument("bulk load first");
  ThroughputSample sample;
  const auto host_t0 = std::chrono::steady_clock::now();
  PhaseSettle settle(repo_);
  const uint64_t probes =
      std::min<uint64_t>(config_.read_probe_samples, keys_.size());
  // One scratch buffer for the whole phase (when payloads are wanted
  // at all) — never a per-operation allocation.
  std::vector<uint8_t>* out =
      config_.materialize_reads ? &read_scratch_ : nullptr;
  const double t0 = repo_->now();
  QueueDepthWindow window(repo_);
  LOR_RETURN_IF_ERROR(window.Enter(config_.queue_depth, config_.queue_policy));
  for (uint64_t i = 0; i < probes; ++i) {
    const uint64_t victim = rng_.Uniform(keys_.size());
    if (config_.use_handles) {
      LOR_RETURN_IF_ERROR(repo_->Get(handles_[victim], out));
    } else {
      LOR_RETURN_IF_ERROR(repo_->Get(keys_[victim], out));
    }
    sample.bytes += sizes_[victim];
    ++sample.operations;
  }
  LOR_RETURN_IF_ERROR(window.Exit());  // Drain before reading the clock.
  LOR_RETURN_IF_ERROR(settle.Close());
  sample.seconds = repo_->now() - t0;
  sample.host_seconds = HostSecondsSince(host_t0);
  return sample;
}

Result<AgeMeasureSample> ShardEngine::AgeAndMeasure(double target_age) {
  AgeMeasureSample out;
  // Each sub-phase settles at its own fence, so the simulated results
  // are exactly those of the two separate calls; fusing them removes
  // only the runner's host-side barrier in between.
  LOR_ASSIGN_OR_RETURN(out.aged, AgeTo(target_age));
  LOR_ASSIGN_OR_RETURN(out.read, MeasureReadThroughput());
  return out;
}

core::FragmentationReport ShardEngine::Fragmentation() const {
  return core::AnalyzeFragmentation(*repo_);
}

}  // namespace workload
}  // namespace lor
