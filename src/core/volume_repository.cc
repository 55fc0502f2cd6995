#include "core/volume_repository.h"

#include <algorithm>
#include <cassert>

#include "sim/fault_injector.h"
#include "util/fnv.h"

namespace lor {
namespace core {

VolumeRepository::VolumeRepository(const VolumeConfig& volume)
    : spindle_(volume.spindle), spindle_owner_(volume.spindle_owner) {
  if (spindle_ != nullptr) {
    // Shared spindle: the data volume is this owner's region of the
    // plane's hub disk. The store's format still charges synchronously
    // on the hub clock — repositories construct serially, before any
    // plane traffic — and the scheduler is ported only afterwards.
    device_ = spindle_->CreateOwnerDevice(spindle_owner_);
    assert(device_->capacity() == volume.volume_bytes &&
           "plane region must match volume_bytes");
  } else {
    device_ = std::make_unique<sim::BlockDevice>(
        volume.disk.WithCapacity(volume.volume_bytes), volume.data_mode);
  }
  pool_ = std::make_unique<sim::BufferPool>(device_.get(), volume.cache);
  device_->AttachBufferPool(pool_.get());
}

void VolumeRepository::AttachScheduler() {
  scheduler_ = std::make_unique<sim::IoScheduler>(device_.get(), &latency_);
  device_->AttachScheduler(scheduler_.get());
  if (spindle_ != nullptr) {
    scheduler_->AttachSpindle(spindle_.get(), spindle_owner_);
  }
}

Status VolumeRepository::SetQueueDepth(uint32_t depth,
                                       sim::SchedPolicy policy) {
  if (depth == 0) {
    return Status::InvalidArgument("queue depth must be at least 1");
  }
  if (depth == 1) return scheduler_->Disengage();
  return scheduler_->Engage(depth, policy);
}

Status VolumeRepository::FlushCache() {
  // In shared-spindle mode the flush must ride an op scope so its
  // charges queue on the plane instead of racing the hub clock.
  sim::OpScope scope(scheduler_->port_mode() ? scheduler_.get() : nullptr,
                     sim::OpClass::kControl);
  return pool_->FlushAll();
}

Status VolumeRepository::DrainIo() {
  // Dirty cached frames are in-flight work too: push them onto the
  // queue, then drain it (Drain itself fences outside the flush's op
  // scope). CrashTortureRunner drains before arming the injector, so
  // the loss window never silently includes lazy write-back state.
  LOR_RETURN_IF_ERROR(FlushCache());
  scheduler_->Drain();
  return Status::OK();
}

Status VolumeRepository::SettleIo() {
  // Dedicated spindle: a phase that engaged the queue already drained
  // through SetQueueDepth(1), and a synchronous phase has nothing
  // outstanding — nothing to settle, and deliberately no cache flush
  // (phase boundaries never flushed historically).
  if (!scheduler_->port_mode()) return Status::OK();
  scheduler_->SettlePhase();
  return Status::OK();
}

Result<MountReport> VolumeRepository::Mount() {
  if (scheduler_->port_mode()) {
    return Status::NotSupported(
        "crash simulation is per-spindle: Mount is unavailable in "
        "shared-spindle mode");
  }
  const double t0 = device_->clock().now();
  const sim::FaultInjector* injector = device_->fault_injector();
  const bool power_cycled = injector != nullptr && injector->tripped();
  if (power_cycled) {
    // The submission queue died with the power: its uncharged work
    // never happened, and the head position is unknown after restart.
    scheduler_->Abandon();
    device_->NotePowerCycle();
  } else {
    // Clean remount: dirty frames reach the platter before the cache
    // forgets them. After a crash they are (correctly) just lost.
    LOR_RETURN_IF_ERROR(pool_->FlushAll());
  }
  // DRAM died with the power too: mount starts cold.
  pool_->Reset();
  MountReport report;
  LOR_RETURN_IF_ERROR(RecoverStore(power_cycled, &report));
  report.recovery_seconds = device_->clock().now() - t0;
  return report;
}

Result<ScrubReport> VolumeRepository::Scrub(const ScrubOptions& options) {
  ScrubReport report;
  std::vector<std::string> keys = ListKeys();
  std::sort(keys.begin(), keys.end());
  if (keys.empty()) {
    scrub_cursor_.clear();
    return report;
  }
  // Resume strictly after the cursor, wrapping at the end.
  size_t start = 0;
  if (!scrub_cursor_.empty()) {
    const auto it =
        std::upper_bound(keys.begin(), keys.end(), scrub_cursor_);
    start = static_cast<size_t>(it - keys.begin()) % keys.size();
  }
  const uint64_t budget =
      options.max_objects == 0 ? keys.size() : options.max_objects;
  std::vector<uint8_t> payload;
  for (uint64_t i = 0; i < budget && i < keys.size(); ++i) {
    const std::string& key = keys[(start + i) % keys.size()];
    scrub_cursor_ = key;
    const uint64_t errors_before = device_stats().media_read_errors;
    const Status read = Get(key, &payload);
    ++report.objects_scanned;
    if (read.ok()) {
      report.bytes_scanned += payload.size();
      // The read succeeded but needed media retries: a transient latent
      // sector error lives under this object.
      if (options.repair && device_stats().media_read_errors > errors_before) {
        RepairScrubbed(key, payload, &report);
      }
    } else if (read.IsNotFound()) {
      continue;  // Deleted since ListKeys: not a media problem.
    } else if (read.IsCorruption()) {
      ++report.corruptions_detected;
      ++report.unrecoverable;
    } else if (read.IsIoError()) {
      ++report.read_errors;
      ++report.unrecoverable;
    } else {
      return read;  // The scrubber itself failed; surface it.
    }
    if (options.max_bytes != 0 && report.bytes_scanned >= options.max_bytes) {
      break;
    }
  }
  return report;
}

void VolumeRepository::VerifyPayloads(
    const std::vector<std::pair<std::string, uint64_t>>& hashed,
    const std::function<Status(const std::string&, std::vector<uint8_t>*)>&
        read,
    FsckReport* report) const {
  std::vector<uint8_t> payload;
  for (const auto& [key, expected] : hashed) {
    payload.clear();
    const Status s = read(key, &payload);
    if (!s.ok()) {
      report->issues.push_back(
          {FsckIssue::Kind::kLostObject, key + ": " + s.ToString()});
      continue;
    }
    ++report->payloads_hashed;
    if (Fnv(payload) != expected) {
      report->issues.push_back(
          {FsckIssue::Kind::kTornPayload, "payload hash mismatch: " + key});
    }
  }
}

}  // namespace core
}  // namespace lor
