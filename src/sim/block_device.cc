#include "sim/block_device.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "sim/fault_injector.h"
#include "sim/media_fault.h"
#include "sim/op_cost_model.h"

namespace lor {
namespace sim {

namespace {

using Request = IoScheduler::Request;
using Kind = Request::Kind;

/// A request of `kind`, every other field at its default.
Request OfKind(Kind kind) {
  Request r;
  r.kind = kind;
  return r;
}

/// Shared all-zeros slab backing ReadView/ReadChunk over unwritten
/// ranges (and every range in kMetadataOnly mode). Read-only by
/// contract; allocated once per process.
const uint8_t* ZeroSlab() {
  static const std::unique_ptr<uint8_t[]> zero(
      new uint8_t[BlockDevice::kSlabBytes]());
  return zero.get();
}

}  // namespace

/// Level-2 of the arena page table: a fixed span of lazily allocated
/// contiguous slab extents.
struct BlockDevice::SlabGroup {
  std::array<std::unique_ptr<uint8_t[]>, kSlabsPerGroup> slabs;
};

/// Deep copy of the arena's allocated slabs, group table and all.
struct ArenaSnapshot::Rep {
  std::vector<std::unique_ptr<BlockDevice::SlabGroup>> groups;
};

ArenaSnapshot::ArenaSnapshot() : rep_(std::make_unique<Rep>()) {}
ArenaSnapshot::~ArenaSnapshot() = default;
ArenaSnapshot::ArenaSnapshot(ArenaSnapshot&&) noexcept = default;
ArenaSnapshot& ArenaSnapshot::operator=(ArenaSnapshot&&) noexcept = default;

ArenaSnapshot BlockDevice::SnapshotArena() const {
  ArenaSnapshot snapshot;
  snapshot.rep_->groups.resize(groups_.size());
  for (size_t g = 0; g < groups_.size(); ++g) {
    if (groups_[g] == nullptr) continue;
    auto group = std::make_unique<SlabGroup>();
    for (size_t s = 0; s < kSlabsPerGroup; ++s) {
      const uint8_t* slab = groups_[g]->slabs[s].get();
      if (slab == nullptr) continue;
      group->slabs[s].reset(new uint8_t[kSlabBytes]);
      std::memcpy(group->slabs[s].get(), slab, kSlabBytes);
    }
    snapshot.rep_->groups[g] = std::move(group);
  }
  return snapshot;
}

void BlockDevice::RestoreArena(const ArenaSnapshot& snapshot) {
  for (size_t g = 0; g < groups_.size(); ++g) {
    const SlabGroup* from = g < snapshot.rep_->groups.size()
                                ? snapshot.rep_->groups[g].get()
                                : nullptr;
    if (from == nullptr) {
      groups_[g].reset();  // Written since the snapshot: back to zeros.
      continue;
    }
    if (groups_[g] == nullptr) groups_[g] = std::make_unique<SlabGroup>();
    for (size_t s = 0; s < kSlabsPerGroup; ++s) {
      const uint8_t* slab = from->slabs[s].get();
      if (slab == nullptr) {
        groups_[g]->slabs[s].reset();
        continue;
      }
      if (groups_[g]->slabs[s] == nullptr) {
        groups_[g]->slabs[s].reset(new uint8_t[kSlabBytes]);
      }
      std::memcpy(groups_[g]->slabs[s].get(), slab, kSlabBytes);
    }
  }
}

void BlockDevice::AttachMediaFaults(MediaFaultModel* media) {
  media_ = media;
  if (media_ != nullptr) media_->RegisterDevice(this);
}

Status BlockDevice::CheckMediaRead(uint64_t offset, uint64_t len) {
  if (media_ == nullptr) return Status::OK();
  Status s = media_->CheckRead(this, offset, len);
  if (!s.ok()) ++stats_.media_read_errors;
  return s;
}

void BlockDevice::NoteMediaWrite(uint64_t offset, uint64_t len) {
  if (media_ != nullptr) media_->NoteWrite(this, offset, len);
}

uint64_t BlockDevice::NoteWriteSubmission(uint64_t offset, uint64_t len) {
  if (injector_ == nullptr) return 0;
  return injector_->RecordWrite(this, offset, len);
}

void BlockDevice::NoteWriteServiced(uint64_t tag) {
  if (tag != 0 && injector_ != nullptr) injector_->MarkServiced(tag);
}

BlockDevice::BlockDevice(DiskParams params, DataMode mode)
    : model_(params), mode_(mode) {
  if (mode_ == DataMode::kRetain) {
    const uint64_t slabs = (capacity() + kSlabBytes - 1) / kSlabBytes;
    groups_.resize((slabs + kSlabsPerGroup - 1) / kSlabsPerGroup);
  }
}

BlockDevice::~BlockDevice() = default;

std::unique_ptr<BlockDevice> BlockDevice::CreateOwnerView(
    int32_t owner, uint64_t base, uint64_t region_bytes) {
  DiskParams region_params = model_.params();
  region_params.capacity_bytes = region_bytes;
  auto view =
      std::unique_ptr<BlockDevice>(new BlockDevice(region_params, mode_));
  view->groups_.clear();  // Retained bytes live in the hub's arena.
  view->spindle_ = this;
  view->spindle_base_ = base;
  view->spindle_owner_ = owner;
  return view;
}

void BlockDevice::PreallocateArenaGroups() {
  if (mode_ != DataMode::kRetain) return;
  for (auto& group : groups_) {
    if (group == nullptr) group = std::make_unique<SlabGroup>();
  }
}

uint8_t* BlockDevice::SlabAt(uint64_t slab_index) const {
  if (spindle_ != nullptr) {
    return spindle_->SlabAt(slab_index + spindle_base_ / kSlabBytes);
  }
  const uint64_t group = slab_index / kSlabsPerGroup;
  if (group >= groups_.size() || groups_[group] == nullptr) return nullptr;
  return groups_[group]->slabs[slab_index % kSlabsPerGroup].get();
}

uint8_t* BlockDevice::EnsureSlab(uint64_t slab_index) {
  if (spindle_ != nullptr) {
    return spindle_->EnsureSlab(slab_index + spindle_base_ / kSlabBytes);
  }
  const uint64_t group = slab_index / kSlabsPerGroup;
  if (group >= groups_.size()) return nullptr;  // Beyond capacity: dropped.
  if (groups_[group] == nullptr) {
    groups_[group] = std::make_unique<SlabGroup>();
  }
  std::unique_ptr<uint8_t[]>& slab =
      groups_[group]->slabs[slab_index % kSlabsPerGroup];
  if (slab == nullptr) slab.reset(new uint8_t[kSlabBytes]());  // Zero-filled.
  return slab.get();
}

const uint8_t* BlockDevice::ReadChunk(uint64_t offset, uint64_t len,
                                      uint64_t* chunk) const {
  const uint64_t in_slab = offset % kSlabBytes;
  *chunk = std::min(len, kSlabBytes - in_slab);
  const uint8_t* base = SlabAt(offset / kSlabBytes);
  return (base != nullptr ? base : ZeroSlab()) + in_slab;
}

uint8_t* BlockDevice::WriteChunk(uint64_t offset, uint64_t len,
                                 uint64_t* chunk) {
  const uint64_t in_slab = offset % kSlabBytes;
  *chunk = std::min(len, kSlabBytes - in_slab);
  if (mode_ != DataMode::kRetain) return nullptr;
  uint8_t* base = EnsureSlab(offset / kSlabBytes);
  return base == nullptr ? nullptr : base + in_slab;
}

Status BlockDevice::CheckRange(uint64_t offset, uint64_t len) const {
  if (offset > capacity() || len > capacity() - offset) {
    return Status::InvalidArgument("request beyond device capacity");
  }
  return Status::OK();
}

double BlockDevice::ServiceRequest(bool /*write*/, uint64_t offset,
                                   uint64_t len) {
  // An owner view services against the hub's head, seek curve, and
  // physical zone layout; dedicated devices resolve hub == this and the
  // arithmetic below is the historical sequence unchanged.
  BlockDevice* hub = spindle_ != nullptr ? spindle_ : this;
  const uint64_t phys = spindle_base_ + offset;
  double t = hub->model_.params().per_request_overhead_s;
  if (hub->head_valid_ && phys == hub->head_) {
    ++stats_.sequential_hits;
  } else {
    const double seek =
        hub->model_.SeekTime(hub->head_valid_ ? hub->head_ : 0, phys);
    const double rot = hub->model_.RotationalLatency();
    stats_.seek_time_s += seek;
    stats_.rotational_time_s += rot;
    t += seek + rot;
    ++stats_.seeks;
    if (spindle_ != nullptr && hub->last_owner_ >= 0 &&
        hub->last_owner_ != spindle_owner_) {
      // The head was left elsewhere by another owner: this seek is
      // contention, not something a dedicated spindle would charge.
      ++stats_.interference_seeks;
      stats_.interference_seek_time_s += seek + rot;
    }
  }
  const double transfer = hub->MemoTransferTime(phys, len);
  stats_.transfer_time_s += transfer;
  t += transfer;
  if (media_ != nullptr) {
    // Degraded-region slowdown, accounted outside the seek/rotation/
    // transfer decomposition so that stays exact.
    const double extra = media_->DegradedExtra(this, offset, len, t);
    if (extra > 0.0) {
      ++stats_.degraded_requests;
      stats_.degraded_time_s += extra;
      t += extra;
    }
  }
  stats_.busy_time_s += t;
  hub->head_ = phys + len;
  hub->head_valid_ = true;
  if (spindle_ != nullptr) hub->last_owner_ = spindle_owner_;
  return t;
}

double BlockDevice::MemoTransferTime(uint64_t phys, uint64_t len) {
  TransferMemo& memo =
      transfer_memo_[(len * 0x9E3779B97F4A7C15ull) >> 60];
  if (len == memo.len && phys >= memo.zone_begin &&
      phys + len <= memo.zone_end) {
    return memo.seconds;
  }
  const double seconds = model_.TransferTime(phys, len);
  const uint64_t zone = model_.zone_size_bytes();
  const uint64_t zone_begin = phys / zone * zone;
  if (phys + len <= zone_begin + zone) {
    memo = {zone_begin, zone_begin + zone, len, seconds};
  }
  return seconds;
}

double BlockDevice::ServiceFlush() {
  BlockDevice* hub = spindle_ != nullptr ? spindle_ : this;
  hub->head_valid_ = false;
  stats_.busy_time_s += kFlushCost;
  return kFlushCost;
}

double BlockDevice::PeekPositioningCost(uint64_t offset) const {
  const BlockDevice* hub = spindle_ != nullptr ? spindle_ : this;
  const uint64_t phys = spindle_base_ + offset;
  if (hub->head_valid_ && phys == hub->head_) return 0.0;
  return hub->model_.SeekTime(hub->head_valid_ ? hub->head_ : 0, phys);
}

bool BlockDevice::AsyncActive() const {
  return scheduler_ != nullptr && scheduler_->ShouldQueue();
}

void BlockDevice::Charge(const Request& r) {
  if (AsyncActive()) {
    scheduler_->Enqueue(r);
  } else {
    Apply(r, &window_t0_);
  }
}

void BlockDevice::Apply(const Request& r, double* window_t0) {
  SimClock& clk = clock();
  switch (r.kind) {
    case Kind::kIo:
      clk.Advance(ServiceRequest(r.write, r.offset, r.len));
      break;
    case Kind::kFlush:
      clk.Advance(ServiceFlush());
      break;
    case Kind::kCpu:
      clk.Advance(r.cpu_s);
      break;
    case Kind::kWinBegin:
      *window_t0 = clk.now();
      break;
    case Kind::kWinEnd:
      clk.Advance(
          OpCostModel::StreamPenalty(r.len, r.cap, clk.now() - *window_t0));
      break;
  }
  NoteWriteServiced(r.tag);
}

void BlockDevice::StoreBytes(uint64_t offset, const uint8_t* src,
                             uint64_t len) {
  while (len > 0) {
    uint64_t chunk = 0;
    uint8_t* dst = WriteChunk(offset, len, &chunk);
    if (dst != nullptr) {
      if (src != nullptr) {
        std::memcpy(dst, src, chunk);
        src += chunk;
      } else {
        std::memset(dst, 0, chunk);
      }
    }
    offset += chunk;
    len -= chunk;
  }
}

void BlockDevice::LoadBytesInto(uint64_t offset, uint8_t* dst,
                                uint64_t len) const {
  while (len > 0) {
    const uint64_t in_slab = offset % kSlabBytes;
    const uint64_t chunk = std::min(len, kSlabBytes - in_slab);
    const uint8_t* base = SlabAt(offset / kSlabBytes);
    if (base != nullptr) {
      std::memcpy(dst, base + in_slab, chunk);
    } else {
      std::memset(dst, 0, chunk);
    }
    dst += chunk;
    offset += chunk;
    len -= chunk;
  }
}

void BlockDevice::ChargeRun(bool write, uint64_t offset, uint64_t len,
                            const uint8_t* src, uint8_t* dst) {
  Request r;
  r.write = write;
  r.offset = offset;
  r.len = len;
  if (write) {
    NoteMediaWrite(offset, len);
    r.tag = NoteWriteSubmission(offset, len);
  }
  Charge(r);
  if (write) {
    ++stats_.writes;
    stats_.bytes_written += len;
    if (mode_ == DataMode::kRetain) StoreBytes(offset, src, len);
  } else {
    ++stats_.reads;
    stats_.bytes_read += len;
    if (dst != nullptr) LoadBytesInto(offset, dst, len);
  }
}

Status BlockDevice::Write(uint64_t offset, uint64_t len,
                          std::span<const uint8_t> data) {
  LOR_RETURN_IF_ERROR(CheckRange(offset, len));
  if (!data.empty() && data.size() != len) {
    return Status::InvalidArgument("data size does not match request length");
  }
  if (len == 0) return Status::OK();  // No bytes: no charge, no head move.
  ChargeRun(/*write=*/true, offset, len, data.empty() ? nullptr : data.data(),
            nullptr);
  return Status::OK();
}

Status BlockDevice::Read(uint64_t offset, uint64_t len,
                         std::vector<uint8_t>* out) {
  LOR_RETURN_IF_ERROR(CheckRange(offset, len));
  if (len == 0) {
    if (out != nullptr) out->clear();
    return Status::OK();
  }
  if (out != nullptr) {
    // Media admission: a failed payload read is known before the head
    // moves — nothing is charged or queued, the caller owns retry cost.
    LOR_RETURN_IF_ERROR(CheckMediaRead(offset, len));
    // Reuse the caller's capacity; every byte of the range is then
    // written exactly once (memcpy where backed, memset where not), so
    // no assign()-style zero-fill precedes the copy.
    out->resize(len);
  }
  ChargeRun(/*write=*/false, offset, len, nullptr,
            out == nullptr ? nullptr : out->data());
  return Status::OK();
}

Status BlockDevice::ReadV(std::span<const IoSlice> slices) {
  return ChargeBatch(/*write=*/false, slices);
}

Status BlockDevice::WriteV(std::span<const IoSlice> slices) {
  return ChargeBatch(/*write=*/true, slices);
}

Status BlockDevice::ChargeBatch(bool write, std::span<const IoSlice> slices) {
  for (const IoSlice& s : slices) {
    LOR_RETURN_IF_ERROR(CheckRange(s.offset, s.length));
  }
  // Whole-batch media admission before anything is charged: a vectored
  // read fails atomically, like its validation.
  for (const IoSlice& s : slices) {
    if (!write && s.dst != nullptr && s.length != 0) {
      LOR_RETURN_IF_ERROR(CheckMediaRead(s.offset, s.length));
    }
  }
  bool charged = false;
  for (const IoSlice& s : slices) {
    if (s.length == 0) continue;
    ChargeRun(write, s.offset, s.length, s.src, s.dst);
    ++stats_.coalesced_runs;
    charged = true;
  }
  if (charged) ++stats_.vectored_requests;
  return Status::OK();
}

void BlockDevice::Flush() { Charge(OfKind(Kind::kFlush)); }

void BlockDevice::ChargeCpu(double seconds) {
  Request r = OfKind(Kind::kCpu);
  r.cpu_s = seconds;
  Charge(r);
}

void BlockDevice::BeginStreamWindow() { Charge(OfKind(Kind::kWinBegin)); }

void BlockDevice::EndStreamWindow(uint64_t len,
                                  double bandwidth_cap_bytes_per_s) {
  Request r = OfKind(Kind::kWinEnd);
  r.len = len;
  r.cap = bandwidth_cap_bytes_per_s;
  Charge(r);
}

}  // namespace sim
}  // namespace lor
