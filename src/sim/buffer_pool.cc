#include "sim/buffer_pool.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "sim/fault_injector.h"

namespace lor {
namespace sim {

namespace {

// Power-of-two buffer class helpers for the recycling free lists: a
// buffer recycled into class c has capacity >= 2^c (floor log2), so a
// taker asking ceil-log2(len) is guaranteed a large-enough buffer.
size_t TakeClass(uint64_t len) {
  return len <= 1 ? 0 : static_cast<size_t>(std::bit_width(len - 1));
}
size_t RecycleClass(uint64_t capacity) {
  return capacity <= 1 ? 0 : static_cast<size_t>(std::bit_width(capacity) - 1);
}

// Positions in one offset bucket (sorted by start offset).
template <typename Bucket>
auto FirstAtOrAfter(Bucket& bucket, uint64_t offset) {
  return std::partition_point(
      bucket.begin(), bucket.end(),
      [offset](const auto& e) { return e.offset < offset; });
}
template <typename Bucket>
auto FirstAfter(Bucket& bucket, uint64_t offset) {
  return std::partition_point(
      bucket.begin(), bucket.end(),
      [offset](const auto& e) { return e.offset <= offset; });
}

}  // namespace

void BufferPool::OffsetIndex::Build(uint64_t capacity) {
  const size_t n = static_cast<size_t>(capacity >> 20) + 1;
  buckets_.assign(n, {});
  nonempty_.assign((n + 63) / 64, 0);
  size_ = 0;
}

size_t BufferPool::OffsetIndex::BucketOf(uint64_t offset) const {
  return std::min(static_cast<size_t>(offset >> 20), buckets_.size() - 1);
}

void BufferPool::OffsetIndex::SetBit(size_t bucket, bool on) {
  const uint64_t bit = uint64_t{1} << (bucket % 64);
  if (on) {
    nonempty_[bucket / 64] |= bit;
  } else {
    nonempty_[bucket / 64] &= ~bit;
  }
}

size_t BufferPool::OffsetIndex::PrevBucket(size_t bucket) const {
  if (bucket == 0) return kNone;
  size_t w = (bucket - 1) / 64;
  // Bits at or below bucket-1 within its word.
  uint64_t word = nonempty_[w] & (~uint64_t{0} >> (63 - (bucket - 1) % 64));
  while (true) {
    if (word != 0) return w * 64 + 63 - std::countl_zero(word);
    if (w == 0) return kNone;
    word = nonempty_[--w];
  }
}

size_t BufferPool::OffsetIndex::NextBucket(size_t bucket) const {
  size_t w = (bucket + 1) / 64;
  if (w >= nonempty_.size()) return kNone;
  // Bits at or above bucket+1 within its word.
  uint64_t word = nonempty_[w] & (~uint64_t{0} << ((bucket + 1) % 64));
  while (true) {
    if (word != 0) return w * 64 + std::countr_zero(word);
    if (++w == nonempty_.size()) return kNone;
    word = nonempty_[w];
  }
}

void BufferPool::OffsetIndex::Insert(uint64_t offset, uint32_t slot) {
  const size_t b = BucketOf(offset);
  std::vector<Entry>& bucket = buckets_[b];
  bucket.insert(FirstAtOrAfter(bucket, offset), Entry{offset, slot});
  if (bucket.size() == 1) SetBit(b, true);
  ++size_;
}

void BufferPool::OffsetIndex::Erase(uint64_t offset) {
  const size_t b = BucketOf(offset);
  std::vector<Entry>& bucket = buckets_[b];
  bucket.erase(FirstAtOrAfter(bucket, offset));
  if (bucket.empty()) SetBit(b, false);
  --size_;
}

uint32_t BufferPool::OffsetIndex::Floor(uint64_t offset) const {
  if (size_ == 0) return kNoSlot;
  size_t b = BucketOf(offset);
  const std::vector<Entry>& bucket = buckets_[b];
  auto it = FirstAfter(bucket, offset);
  if (it != bucket.begin()) return std::prev(it)->slot;
  b = PrevBucket(b);
  return b == kNone ? kNoSlot : buckets_[b].back().slot;
}

uint64_t BufferPool::OffsetIndex::NextStart(uint64_t offset) const {
  if (size_ == 0) return UINT64_MAX;
  size_t b = BucketOf(offset);
  const std::vector<Entry>& bucket = buckets_[b];
  auto it = FirstAfter(bucket, offset);
  if (it != bucket.end()) return it->offset;
  b = NextBucket(b);
  return b == kNone ? UINT64_MAX : buckets_[b].front().offset;
}

void BufferPool::OffsetIndex::Collect(uint64_t lo, uint64_t hi,
                                      std::vector<uint32_t>* out) const {
  if (size_ == 0 || lo >= hi) return;
  size_t b = BucketOf(lo);
  const std::vector<Entry>* bucket = &buckets_[b];
  auto it = FirstAtOrAfter(*bucket, lo);
  while (true) {
    for (; it != bucket->end(); ++it) {
      if (it->offset >= hi) return;
      out->push_back(it->slot);
    }
    b = NextBucket(b);
    if (b == kNone) return;
    bucket = &buckets_[b];
    it = bucket->begin();
  }
}

BufferPool::BufferPool(BlockDevice* device, BufferPoolOptions options)
    : device_(device), options_(options) {
  if (options_.shards == 0) options_.shards = 1;
  shards_.resize(options_.shards);
  if (enabled()) index_.Build(device_->capacity());
}

bool BufferPool::WriteBackActive() const {
  const FaultInjector* injector = device_->fault_injector();
  return injector == nullptr || !injector->armed();
}

bool BufferPool::CollectOverlaps(uint64_t offset, uint64_t len) {
  overlaps_.clear();
  // A frame starting before `offset` overlaps only if it reaches past
  // it; non-overlap means at most one such frame.
  uint64_t lo = offset;
  const uint32_t floor = index_.Floor(offset);
  if (floor != kNoSlot && slots_[floor].end() > offset) {
    lo = slots_[floor].offset;
  }
  index_.Collect(lo, offset + len, &overlaps_);
  return !overlaps_.empty();
}

BufferPool::Frame* BufferPool::FrameAt(uint64_t offset) {
  return const_cast<Frame*>(
      static_cast<const BufferPool*>(this)->FrameAt(offset));
}

const BufferPool::Frame* BufferPool::FrameAt(uint64_t offset) const {
  const uint32_t slot = index_.Floor(offset);
  if (slot == kNoSlot) return nullptr;
  const Frame& f = slots_[slot];
  return f.end() > offset ? &f : nullptr;
}

bool BufferPool::Covered(uint64_t offset, uint64_t len) const {
  uint64_t pos = offset;
  const uint64_t end = offset + len;
  while (pos < end) {
    const Frame* f = FrameAt(pos);
    if (f == nullptr) return false;
    pos = f->end();
  }
  return true;
}

Status BufferPool::InstallFrame(uint64_t offset, uint64_t len, Frame** out) {
  uint32_t inherited_pin = 0;
  if (CollectOverlaps(offset, len)) {
    // Dirty overlaps hold bytes newer than the device: write them back
    // before they are dropped (a read fill would otherwise resurrect
    // stale device content; a partially-overlapping write would lose
    // the non-overlapped dirty bytes).
    LOR_RETURN_IF_ERROR(FlushSlots(overlaps_));
    for (uint32_t slot : overlaps_) {
      inherited_pin = std::max(inherited_pin, slots_[slot].pin);
      DropFrame(slot);
    }
  }
  const uint32_t shard = ShardOf(offset);
  LOR_RETURN_IF_ERROR(EvictFor(shard, len));
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Frame& frame = slots_[slot];
  frame.offset = offset;
  frame.length = len;
  // Replacing a pinned frame keeps its pin (the granularity changed,
  // the protection window did not); UnpinRange guards at zero.
  frame.pin = inherited_pin;
  frame.shard = shard;
  frame.seq = ++install_seq_;
  frame.dirty = false;
  frame.referenced = true;
  frame.held = false;
  frame.filling = false;
  if (RetainData()) frame.data = TakeBuffer(len);
  index_.Insert(offset, slot);
  Shard& sh = shards_[shard];
  sh.used_bytes += len;
  cached_bytes_ += len;
  sh.clock_ring.push_back({slot, frame.seq});
  *out = &frame;
  return Status::OK();
}

Status BufferPool::EvictFor(uint32_t shard, uint64_t incoming) {
  Shard& sh = shards_[shard];
  const uint64_t cap = ShardCapacity();
  while (sh.used_bytes + incoming > cap) {
    bool evicted = false;
    LOR_RETURN_IF_ERROR(EvictOne(shard, &evicted));
    if (!evicted) {
      // Nothing evictable (everything pinned, or the run is simply
      // larger than the domain): grow past the slice rather than fail.
      ++stats_.eviction_refusals;
      break;
    }
  }
  return Status::OK();
}

Status BufferPool::EvictOne(uint32_t shard, bool* evicted) {
  *evicted = false;
  Shard& sh = shards_[shard];
  // Sweep the ring, clearing reference bits; pinned frames are
  // skipped, stale entries (seq mismatch: the frame was dropped and
  // its slot freed or reused) removed in passing. Two full sweeps
  // bound the scan when every frame is referenced.
  size_t scanned = 0;
  const size_t limit = sh.clock_ring.size() * 2 + 2;
  while (!sh.clock_ring.empty() && scanned < limit) {
    if (sh.hand >= sh.clock_ring.size()) sh.hand = 0;
    const RingEntry entry = sh.clock_ring[sh.hand];
    Frame& f = slots_[entry.slot];
    if (f.seq != entry.seq) {
      sh.clock_ring[sh.hand] = sh.clock_ring.back();
      sh.clock_ring.pop_back();
      continue;
    }
    if (f.pinned()) {
      ++sh.hand;
      ++scanned;
      continue;
    }
    if (f.referenced) {
      f.referenced = false;
      ++sh.hand;
      ++scanned;
      continue;
    }
    if (f.dirty) LOR_RETURN_IF_ERROR(WriteBackFrame(&f));
    DropFrame(entry.slot);
    sh.clock_ring[sh.hand] = sh.clock_ring.back();
    sh.clock_ring.pop_back();
    ++stats_.evictions;
    *evicted = true;
    return Status::OK();
  }
  return Status::OK();
}

void BufferPool::DropFrame(uint32_t slot) {
  Frame& f = slots_[slot];
  Shard& sh = shards_[f.shard];
  sh.used_bytes -= f.length;
  cached_bytes_ -= f.length;
  if (f.dirty) dirty_bytes_ -= f.length;
  if (!f.data.empty()) RecycleBuffer(std::move(f.data));
  f.data = {};
  index_.Erase(f.offset);
  f.seq = 0;  // Any ring entry for this slot is now stale.
  free_slots_.push_back(slot);
}

Status BufferPool::WriteBackFrame(Frame* frame) {
  LOR_RETURN_IF_ERROR(
      device_->Write(frame->offset, frame->length, frame->data));
  frame->dirty = false;
  dirty_bytes_ -= frame->length;
  ++stats_.writebacks;
  stats_.writeback_bytes += frame->length;
  return Status::OK();
}

Status BufferPool::FlushSlots(std::span<const uint32_t> slots) {
  if (dirty_bytes_ == 0) return Status::OK();
  flush_slices_.clear();
  flush_frames_.clear();
  for (uint32_t slot : slots) {
    Frame& f = slots_[slot];
    if (!f.dirty) continue;
    flush_slices_.push_back(
        {f.offset, f.length, f.data.empty() ? nullptr : f.data.data(),
         nullptr});
    flush_frames_.push_back(&f);
  }
  if (flush_slices_.empty()) return Status::OK();
  // One offset-ordered vectored write (index order is offset order):
  // the batch rides the IoScheduler and charges like the equivalent
  // scalar sequence, so a big flush pays one positioning per contiguous
  // dirty range.
  LOR_RETURN_IF_ERROR(device_->WriteV(flush_slices_));
  for (Frame* f : flush_frames_) {
    f->dirty = false;
    dirty_bytes_ -= f->length;
    ++stats_.writebacks;
    stats_.writeback_bytes += f->length;
  }
  return Status::OK();
}

Status BufferPool::FlushOverlapping(uint64_t offset, uint64_t len) {
  if (dirty_bytes_ == 0 || !CollectOverlaps(offset, len)) return Status::OK();
  return FlushSlots(overlaps_);
}

Status BufferPool::FlushRange(uint64_t offset, uint64_t len) {
  if (!enabled() || len == 0) return Status::OK();
  return FlushOverlapping(offset, len);
}

Status BufferPool::FlushAll() {
  if (!enabled() || dirty_bytes_ == 0) return Status::OK();
  return FlushOverlapping(0, device_->capacity());
}

std::vector<uint8_t> BufferPool::TakeBuffer(uint64_t len) {
  const size_t cls = TakeClass(len);
  if (cls < free_lists_.size() && !free_lists_[cls].empty()) {
    std::vector<uint8_t> buffer = std::move(free_lists_[cls].back());
    free_lists_[cls].pop_back();
    free_list_bytes_ -= buffer.capacity();
    buffer.resize(len);  // Zero-fills within the retained capacity.
    ++stats_.frame_recycles;
    return buffer;
  }
  std::vector<uint8_t> buffer(len);
  ++stats_.frame_allocs;
  return buffer;
}

void BufferPool::RecycleBuffer(std::vector<uint8_t>&& buffer) {
  const uint64_t cap = buffer.capacity();
  if (cap == 0) return;
  // Bound the idle-buffer memory at a quarter of the pool (with a
  // 1 MiB floor so tiny pools still recycle at all).
  constexpr uint64_t kFreeListFloor = 1ull << 20;
  if (free_list_bytes_ + cap > options_.capacity_bytes / 4 + kFreeListFloor) {
    return;
  }
  const size_t cls = RecycleClass(cap);
  if (cls >= free_lists_.size()) free_lists_.resize(cls + 1);
  buffer.clear();
  free_list_bytes_ += cap;
  free_lists_[cls].push_back(std::move(buffer));
}

Status BufferPool::ReadThrough(std::span<const CacheSlice> slices,
                               uint64_t* device_bytes) {
  if (!enabled()) {
    // Pass-through: the disabled pool issues the identical vectored
    // read the caller's historical path would have.
    fill_slices_.clear();
    uint64_t total = 0;
    for (const CacheSlice& s : slices) {
      fill_slices_.push_back({s.offset, s.length, nullptr, s.dst});
      total += s.length;
    }
    if (device_bytes != nullptr) *device_bytes = total;
    return device_->ReadV(fill_slices_);
  }
  fill_slices_.clear();
  copy_jobs_.clear();
  held_.clear();
  fill_offsets_.clear();
  uint64_t filled = 0;
  for (const CacheSlice& s : slices) {
    if (s.length == 0) continue;
    if (s.offset + s.length > device_->capacity() ||
        s.offset + s.length < s.offset) {
      return Status::InvalidArgument("cache read out of range");
    }
    if (Covered(s.offset, s.length)) {
      ++stats_.hits;
      stats_.hit_bytes += s.length;
      bool pinned_before = false;
      uint64_t pos = s.offset;
      const uint64_t end = s.offset + s.length;
      while (pos < end) {
        Frame* f = FrameAt(pos);
        if (f->pinned()) pinned_before = true;
        f->referenced = true;
        const uint64_t chunk = std::min(f->end(), end) - pos;
        uint8_t* dst = s.dst == nullptr ? nullptr : s.dst + (pos - s.offset);
        if (f->filling) {
          copy_jobs_.push_back({pos, dst, chunk});
        } else if (dst != nullptr && f->data.empty()) {
          std::memset(dst, 0, chunk);
        } else if (dst != nullptr) {
          // The frame predates the call, so its bytes are valid now —
          // and a later slice's install may drop it before the fill.
          std::memcpy(dst, f->data.data() + (pos - f->offset), chunk);
        }
        f->held = true;  // Protects the frame for the rest of the call.
        held_.push_back(f);
        pos += chunk;
      }
      if (pinned_before) ++stats_.pinned_hits;
      // A hit never touches the device: charge only the host-side
      // lookup + copy. ChargeCpu rides the open op scope, so cache
      // hits still appear in the per-op latency percentiles.
      device_->ChargeCpu(options_.hit_cpu_s +
                         static_cast<double>(s.length) /
                             options_.copy_bandwidth);
      continue;
    }
    ++stats_.misses;
    stats_.miss_bytes += s.length;
    // Fill range: the caller's extent-run read-ahead range when it
    // gives one, otherwise exactly the request.
    uint64_t fo = s.offset;
    uint64_t fl = s.length;
    if (s.fill_length > 0) {
      fo = s.fill_offset;
      fl = s.fill_length;
      if (fo > s.offset || fo + fl < s.offset + s.length ||
          fo + fl > device_->capacity()) {
        return Status::InvalidArgument("cache fill does not cover request");
      }
    }
    Frame* frame = nullptr;
    LOR_RETURN_IF_ERROR(InstallFrame(fo, fl, &frame));
    frame->held = true;
    frame->filling = true;
    held_.push_back(frame);
    fill_offsets_.push_back(fo);
    ++stats_.fills;
    stats_.fill_bytes += fl;
    filled += fl;
    fill_slices_.push_back({fo, fl, nullptr, nullptr});
    copy_jobs_.push_back({s.offset, s.dst, s.length});
  }
  // Fill destinations are resolved only now: when a later slice's
  // install replaced an earlier slice's frame, that run is charged
  // timing-only and its bytes arrive through the replacement's fill.
  for (IoSlice& fill : fill_slices_) {
    Frame* f = FrameAt(fill.offset);
    if (f != nullptr && f->offset == fill.offset &&
        f->length == fill.length && !f->data.empty()) {
      fill.dst = f->data.data();
    }
  }
  // One vectored device read fills every missed range (charged exactly
  // like the scalar sequence in this order), then the deferred copies
  // run through the cache-coherent view.
  Status fill_status;
  if (!fill_slices_.empty()) fill_status = device_->ReadV(fill_slices_);
  for (const CopyJob& job : copy_jobs_) {
    if (!fill_status.ok() || job.dst == nullptr) continue;
    uint8_t* dst = job.dst;
    View(job.offset, job.length, [&dst](std::span<const uint8_t> chunk) {
      std::memcpy(dst, chunk.data(), chunk.size());
      dst += chunk.size();
    });
  }
  for (Frame* f : held_) f->held = f->filling = false;
  if (!fill_status.ok()) {
    // The fill never happened: drop (do not park) every frame this call
    // installed, or a stale-zero frame would sit in the index as a valid
    // cache entry and serve wrong bytes to the next hit.
    for (uint64_t fo : fill_offsets_) {
      const uint32_t slot = index_.Floor(fo);
      if (slot != kNoSlot && slots_[slot].offset == fo) DropFrame(slot);
    }
  }
  if (device_bytes != nullptr) *device_bytes = filled;
  return fill_status;
}

Status BufferPool::WriteThrough(std::span<const CacheSlice> slices,
                                uint64_t* device_bytes) {
  if (!enabled()) {
    fill_slices_.clear();
    uint64_t total = 0;
    for (const CacheSlice& s : slices) {
      fill_slices_.push_back({s.offset, s.length, s.src, nullptr});
      total += s.length;
    }
    if (device_bytes != nullptr) *device_bytes = total;
    return device_->WriteV(fill_slices_);
  }
  const bool through = !WriteBackActive();
  fill_slices_.clear();
  uint64_t through_bytes = 0;
  uint64_t through_count = 0;
  for (const CacheSlice& s : slices) {
    if (s.length == 0) continue;
    if (s.offset + s.length > device_->capacity() ||
        s.offset + s.length < s.offset) {
      return Status::InvalidArgument("cache write out of range");
    }
    Frame* f = FrameAt(s.offset);
    if (f != nullptr && f->end() >= s.offset + s.length) {
      // In-place update within one resident frame.
      if (!f->data.empty()) {
        uint8_t* p = f->data.data() + (s.offset - f->offset);
        if (s.src != nullptr) {
          std::memcpy(p, s.src, s.length);
        } else {
          // Timing-only writes store zeros on the device; mirror that.
          std::memset(p, 0, s.length);
        }
      }
      f->referenced = true;
    } else {
      LOR_RETURN_IF_ERROR(InstallFrame(s.offset, s.length, &f));
      if (!f->data.empty() && s.src != nullptr) {
        std::memcpy(f->data.data(), s.src, s.length);
      }
    }
    ++stats_.write_installs;
    if (through) {
      fill_slices_.push_back({s.offset, s.length, s.src, nullptr});
      through_bytes += s.length;
      ++through_count;
      // The frame's other bytes keep whatever dirtiness they had; the
      // slice itself is now coherent with the device either way.
    } else {
      if (!f->dirty) {
        f->dirty = true;
        dirty_bytes_ += f->length;
      }
      device_->ChargeCpu(options_.hit_cpu_s +
                         static_cast<double>(s.length) /
                             options_.copy_bandwidth);
    }
  }
  if (through && !fill_slices_.empty()) {
    LOR_RETURN_IF_ERROR(device_->WriteV(fill_slices_));
    stats_.forced_write_through += through_count;
  }
  if (device_bytes != nullptr) *device_bytes = through_bytes;
  if (!through &&
      static_cast<double>(dirty_bytes_) >
          options_.dirty_ratio * static_cast<double>(options_.capacity_bytes)) {
    // Lazy-writer threshold: one batched, offset-ordered writeback.
    LOR_RETURN_IF_ERROR(FlushAll());
  }
  return Status::OK();
}

void BufferPool::Invalidate(uint64_t offset, uint64_t len) {
  if (!enabled() || len == 0 || !CollectOverlaps(offset, len)) return;
  for (uint32_t slot : overlaps_) {
    ++stats_.invalidations;
    DropFrame(slot);  // Dirty content dies with the owner.
  }
}

uint64_t BufferPool::PinRange(uint64_t offset, uint64_t len) {
  if (!enabled() || len == 0 || !CollectOverlaps(offset, len)) return 0;
  for (uint32_t slot : overlaps_) ++slots_[slot].pin;
  return overlaps_.size();
}

void BufferPool::UnpinRange(uint64_t offset, uint64_t len) {
  if (!enabled() || len == 0 || !CollectOverlaps(offset, len)) return;
  for (uint32_t slot : overlaps_) {
    if (slots_[slot].pin > 0) --slots_[slot].pin;
  }
}

void BufferPool::Reset() {
  if (!enabled()) return;
  slots_.clear();
  free_slots_.clear();
  index_.Build(device_->capacity());
  shards_.assign(options_.shards, Shard{});
  free_lists_.clear();
  free_list_bytes_ = 0;
  cached_bytes_ = 0;
  dirty_bytes_ = 0;
}

const uint8_t* BufferPool::ViewChunk(uint64_t offset, uint64_t len,
                                     uint64_t* chunk) const {
  const Frame* f = FrameAt(offset);
  if (f != nullptr) {
    *chunk = std::min(f->end(), offset + len) - offset;
    if (f->data.empty()) return nullptr;  // Bookkeeping frame: device view.
    return f->data.data() + (offset - f->offset);
  }
  *chunk = GapLength(offset, len);
  return nullptr;
}

uint8_t* BufferPool::MutableViewChunk(uint64_t offset, uint64_t len,
                                      uint64_t* chunk, bool through) {
  Frame* f = FrameAt(offset);
  if (f != nullptr) {
    *chunk = std::min(f->end(), offset + len) - offset;
    if (f->data.empty()) return nullptr;  // Device drops payload anyway.
    if (!through && !f->dirty) {
      f->dirty = true;
      dirty_bytes_ += f->length;
    }
    return f->data.data() + (offset - f->offset);
  }
  *chunk = GapLength(offset, len);
  return nullptr;
}

uint64_t BufferPool::GapLength(uint64_t offset, uint64_t len) const {
  return std::min(index_.NextStart(offset), offset + len) - offset;
}

void BufferPool::CopyFrameToDevice(uint64_t offset, const uint8_t* src,
                                   uint64_t len) {
  device_->WriteView(offset, len, [&src](std::span<uint8_t> d) {
    std::memcpy(d.data(), src, d.size());
    src += d.size();
  });
}

}  // namespace sim
}  // namespace lor
