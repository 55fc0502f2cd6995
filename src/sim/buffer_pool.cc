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

// Directory granules: at least 64 KiB of offset space each, and at
// most 2^20 of them, so the directory stays a few MiB at any volume.
constexpr uint32_t kMinGranuleShift = 16;
constexpr uint32_t kMaxGranuleBits = 20;

uint64_t Bit(size_t i) { return uint64_t{1} << (i % 64); }

}  // namespace

uint32_t BufferPool::FrameArena::Allocate() {
  if (free_head_ != kNoSlot) {
    const uint32_t slot = free_head_;
    free_head_ = span(slot).next;
    return slot;
  }
  if ((size_ & kChunkMask) == 0) {
    chunks_.push_back(std::make_unique<Chunk>());
  }
  return size_++;
}

void BufferPool::FrameArena::Free(uint32_t slot) {
  span(slot).next = free_head_;
  free_head_ = slot;
}

void BufferPool::FrameArena::Clear() {
  chunks_.clear();
  size_ = 0;
  free_head_ = kNoSlot;
}

void BufferPool::GranuleBits::Assign(size_t n) {
  words_.assign((n + 63) / 64, 0);
  summary_.assign((words_.size() + 63) / 64, 0);
}

void BufferPool::GranuleBits::Set(size_t granule) {
  words_[granule / 64] |= Bit(granule);
  summary_[granule / 4096] |= Bit(granule / 64);
}

void BufferPool::GranuleBits::Clear(size_t granule) {
  const size_t w = granule / 64;
  words_[w] &= ~Bit(granule);
  if (words_[w] == 0) summary_[w / 64] &= ~Bit(w);
}

void BufferPool::GranuleBits::ClearAll() {
  for (size_t sw = 0; sw < summary_.size(); ++sw) {
    for (uint64_t bits = summary_[sw]; bits != 0; bits &= bits - 1) {
      words_[sw * 64 + std::countr_zero(bits)] = 0;
    }
    summary_[sw] = 0;
  }
}

size_t BufferPool::GranuleBits::PrevSet(size_t granule) const {
  if (words_.empty()) return kNone;
  granule = std::min(granule, words_.size() * 64 - 1);
  size_t w = granule / 64;
  const uint64_t bits = words_[w] & (~uint64_t{0} >> (63 - granule % 64));
  if (bits != 0) return w * 64 + 63 - std::countl_zero(bits);
  // Second level: the nearest non-empty word before w.
  if (w == 0) return kNone;
  size_t sw = (w - 1) / 64;
  uint64_t summary = summary_[sw] & (~uint64_t{0} >> (63 - (w - 1) % 64));
  while (summary == 0) {
    if (sw == 0) return kNone;
    summary = summary_[--sw];
  }
  w = sw * 64 + 63 - std::countl_zero(summary);
  return w * 64 + 63 - std::countl_zero(words_[w]);
}

BufferPool::BufferPool(BlockDevice* device, BufferPoolOptions options)
    : device_(device),
      options_(options),
      retain_(device->data_mode() == DataMode::kRetain) {
  if (options_.shards == 0) options_.shards = 1;
  shards_.resize(options_.shards);
  if (enabled()) BuildDirectory();
}

void BufferPool::BuildDirectory() {
  const uint64_t capacity = device_->capacity();
  const uint32_t bits = static_cast<uint32_t>(std::bit_width(capacity));
  granule_shift_ = std::max(
      kMinGranuleShift, bits > kMaxGranuleBits ? bits - kMaxGranuleBits : 0);
  const size_t granules = static_cast<size_t>(capacity >> granule_shift_) + 1;
  last_.assign(granules, kNoSlot);
  nonempty_.Assign(granules);
  dirty_granules_.Assign(granules);
  head_ = tail_ = kNoSlot;
  frame_count_ = 0;
}

uint32_t BufferPool::Floor(uint64_t offset) const {
  if (frame_count_ == 0) return kNoSlot;
  const size_t g = GranuleOf(offset);
  uint32_t slot = last_[g];
  if (slot == kNoSlot) {
    // Empty granule: the floor is the last frame of the nearest
    // non-empty granule below.
    const size_t below = nonempty_.PrevSet(g);
    return below == GranuleBits::kNone ? kNoSlot : last_[below];
  }
  // Step back over the granule's frames that start past `offset`; the
  // walk ends at latest on the last frame of an earlier granule.
  while (slot != kNoSlot && span(slot).offset > offset) slot = span(slot).prev;
  return slot;
}

void BufferPool::Link(uint32_t slot, uint32_t pred) {
  FrameSpan& sp = span(slot);
  const uint32_t next = NextOf(pred);
  sp.prev = pred;
  sp.next = next;
  if (pred == kNoSlot) {
    head_ = slot;
  } else {
    span(pred).next = slot;
  }
  // The frame is its granule's last unless its successor shares it.
  const size_t g = GranuleOf(sp.offset);
  bool last_in_granule = true;
  if (next == kNoSlot) {
    tail_ = slot;
  } else {
    FrameSpan& after = span(next);
    after.prev = slot;
    last_in_granule = GranuleOf(after.offset) != g;
  }
  if (last_in_granule) {
    last_[g] = slot;
    nonempty_.Set(g);
  }
  ++frame_count_;
}

void BufferPool::Unlink(uint32_t slot) {
  const FrameSpan& sp = span(slot);
  if (sp.next == kNoSlot) {
    tail_ = sp.prev;
  } else {
    span(sp.next).prev = sp.prev;
  }
  const size_t g = GranuleOf(sp.offset);
  bool granule_empty = last_[g] == slot;
  if (sp.prev == kNoSlot) {
    head_ = sp.next;
  } else {
    FrameSpan& before = span(sp.prev);
    before.next = sp.next;
    if (granule_empty && GranuleOf(before.offset) == g) {
      last_[g] = sp.prev;
      granule_empty = false;
    }
  }
  if (granule_empty) {
    last_[g] = kNoSlot;
    nonempty_.Clear(g);
  }
  --frame_count_;
}

bool BufferPool::WriteBackActive() const {
  const FaultInjector* injector = device_->fault_injector();
  return injector == nullptr || !injector->armed();
}

bool BufferPool::CollectOverlaps(uint64_t offset, uint64_t len,
                                 uint32_t floor) {
  overlaps_.clear();
  // A frame starting before `offset` overlaps only if it reaches past
  // it; non-overlap means at most one such frame, the floor.
  const uint64_t end = offset + len;
  uint32_t slot = Containing(offset, floor);
  if (slot == kNoSlot) slot = NextOf(floor);
  for (; slot != kNoSlot && span(slot).offset < end; slot = span(slot).next) {
    overlaps_.push_back(slot);
  }
  return !overlaps_.empty();
}

bool BufferPool::Covered(uint64_t offset, uint64_t len, uint32_t first) const {
  if (first == kNoSlot) return false;
  const uint64_t end = offset + len;
  for (uint32_t slot = first;;) {
    const FrameSpan& sp = span(slot);
    if (sp.end >= end) return true;
    slot = sp.next;
    if (slot == kNoSlot || span(slot).offset != sp.end) return false;
  }
}

Status BufferPool::InstallFrame(uint64_t offset, uint64_t len, uint32_t floor,
                                uint32_t* out) {
  uint32_t inherited_pin = 0;
  // The new frame follows the floor, or the floor's predecessor when
  // the floor overlaps it and is dropped below.
  uint32_t pred = floor;
  if (CollectOverlaps(offset, len, floor)) {
    if (overlaps_.front() == floor) pred = span(floor).prev;
    // Dirty overlaps hold bytes newer than the device: write them back
    // before they are dropped (a read fill would otherwise resurrect
    // stale device content; a partially-overlapping write would lose
    // the non-overlapped dirty bytes).
    LOR_RETURN_IF_ERROR(FlushSlots(overlaps_));
    for (uint32_t slot : overlaps_) {
      inherited_pin = std::max(inherited_pin, state(slot).pin);
      DropFrame(slot);
    }
  }
  const uint32_t shard = ShardOf(offset);
  LOR_RETURN_IF_ERROR(EvictFor(shard, len));
  // Eviction only removes frames, and no freed slot is reused before
  // the Allocate below, so the predecessor is still resident unless
  // eviction took it.
  if (pred != kNoSlot && state(pred).ring_index == kNoSlot) {
    pred = Floor(offset);
  }
  const uint32_t slot = arena_.Allocate();
  FrameSpan& sp = span(slot);
  sp.offset = offset;
  sp.end = offset + len;
  FrameState& st = state(slot);
  // Replacing a pinned frame keeps its pin (the granularity changed,
  // the protection window did not); UnpinRange guards at zero.
  st.pin = inherited_pin;
  st.flags = kReferenced;
  if (retain_) {
    if (slot >= payloads_.size()) payloads_.resize(slot + 1);
    payloads_[slot] = TakeBuffer(len);
  }
  Link(slot, pred);
  Shard& sh = shards_[shard];
  sh.used_bytes += len;
  cached_bytes_ += len;
  st.ring_index = static_cast<uint32_t>(sh.ring.size());
  sh.ring.push_back(slot);
  *out = slot;
  return Status::OK();
}

uint64_t BufferPool::clock_ring_entries() const {
  uint64_t entries = 0;
  for (const Shard& sh : shards_) entries += sh.ring.size();
  return entries;
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
  // skipped. Two full sweeps bound the scan when every frame is
  // referenced.
  size_t scanned = 0;
  const size_t limit = sh.ring.size() * 2 + 2;
  while (!sh.ring.empty() && scanned < limit) {
    if (sh.hand >= sh.ring.size()) sh.hand = 0;
    const uint32_t slot = sh.ring[sh.hand];
    FrameState& st = state(slot);
    if (st.pinned() || (st.flags & kReferenced) != 0) {
      if (!st.pinned()) st.flags &= ~kReferenced;
      ++sh.hand;
      ++scanned;
      continue;
    }
    if ((st.flags & kDirty) != 0) {
      LOR_RETURN_IF_ERROR(WriteBackFrame(slot));
    }
    DropFrame(slot);  // The ring's last entry moves under the hand.
    ++stats_.evictions;
    *evicted = true;
    return Status::OK();
  }
  return Status::OK();
}

void BufferPool::DropFrame(uint32_t slot) {
  const FrameSpan& sp = span(slot);
  FrameState& st = state(slot);
  const uint64_t len = sp.length();
  Shard& sh = shards_[ShardOf(sp.offset)];
  sh.used_bytes -= len;
  const uint32_t moved = sh.ring.back();
  sh.ring[st.ring_index] = moved;
  state(moved).ring_index = st.ring_index;
  sh.ring.pop_back();
  cached_bytes_ -= len;
  if ((st.flags & kDirty) != 0) dirty_bytes_ -= len;
  if (retain_) {
    RecycleBuffer(std::move(payloads_[slot]));
    payloads_[slot] = {};
  }
  Unlink(slot);
  st.ring_index = kNoSlot;
  arena_.Free(slot);
}

void BufferPool::MarkDirty(uint32_t slot) {
  const FrameSpan& sp = span(slot);
  state(slot).flags |= kDirty;
  dirty_bytes_ += sp.length();
  dirty_granules_.Set(GranuleOf(sp.offset));
}

Status BufferPool::WriteBackFrame(uint32_t slot) {
  const FrameSpan& sp = span(slot);
  const uint64_t len = sp.length();
  LOR_RETURN_IF_ERROR(device_->Write(
      sp.offset, len,
      std::span<const uint8_t>(payload(slot), retain_ ? len : 0)));
  state(slot).flags &= ~kDirty;
  dirty_bytes_ -= len;
  ++stats_.writebacks;
  stats_.writeback_bytes += len;
  return Status::OK();
}

Status BufferPool::FlushSlots(std::span<const uint32_t> slots) {
  if (dirty_bytes_ == 0) return Status::OK();
  flush_slices_.clear();
  flush_slots_.clear();
  for (uint32_t slot : slots) {
    if ((state(slot).flags & kDirty) == 0) continue;
    const FrameSpan& sp = span(slot);
    flush_slices_.push_back({sp.offset, sp.length(), payload(slot), nullptr});
    flush_slots_.push_back(slot);
  }
  if (flush_slices_.empty()) return Status::OK();
  // One offset-ordered vectored write (walk order is offset order):
  // the batch rides the IoScheduler and charges like the equivalent
  // scalar sequence, so a big flush pays one positioning per contiguous
  // dirty range.
  LOR_RETURN_IF_ERROR(device_->WriteV(flush_slices_));
  for (size_t i = 0; i < flush_slots_.size(); ++i) {
    state(flush_slots_[i]).flags &= ~kDirty;
    dirty_bytes_ -= flush_slices_[i].length;
    ++stats_.writebacks;
    stats_.writeback_bytes += flush_slices_[i].length;
  }
  return Status::OK();
}

Status BufferPool::FlushRange(uint64_t offset, uint64_t len) {
  if (!enabled() || len == 0 || dirty_bytes_ == 0 ||
      !CollectOverlaps(offset, len, Floor(offset))) {
    return Status::OK();
  }
  return FlushSlots(overlaps_);
}

Status BufferPool::FlushAll() {
  if (!enabled() || dirty_bytes_ == 0) return Status::OK();
  // Only granules where a frame was dirtied can hold a dirty frame.
  // Walked from the top down, each granule from its last frame back,
  // they list the candidates in descending offset order.
  overlaps_.clear();
  for (size_t g = dirty_granules_.PrevSet(SIZE_MAX); g != GranuleBits::kNone;
       g = g == 0 ? GranuleBits::kNone : dirty_granules_.PrevSet(g - 1)) {
    for (uint32_t slot = last_[g];
         slot != kNoSlot && GranuleOf(span(slot).offset) == g;
         slot = span(slot).prev) {
      overlaps_.push_back(slot);
    }
  }
  std::reverse(overlaps_.begin(), overlaps_.end());
  LOR_RETURN_IF_ERROR(FlushSlots(overlaps_));
  dirty_granules_.ClearAll();  // Nothing is dirty any more.
  return Status::OK();
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
    const uint32_t floor = Floor(s.offset);
    const uint32_t first = Containing(s.offset, floor);
    if (Covered(s.offset, s.length, first)) {
      ++stats_.hits;
      stats_.hit_bytes += s.length;
      bool pinned_before = false;
      uint64_t pos = s.offset;
      const uint64_t end = s.offset + s.length;
      for (uint32_t slot = first; pos < end; slot = span(slot).next) {
        const FrameSpan& sp = span(slot);
        FrameState& st = state(slot);
        if (st.pinned()) pinned_before = true;
        const uint64_t chunk = std::min(sp.end, end) - pos;
        uint8_t* dst = s.dst == nullptr ? nullptr : s.dst + (pos - s.offset);
        if ((st.flags & kFilling) != 0) {
          copy_jobs_.push_back({pos, dst, chunk});
        } else if (dst != nullptr && !retain_) {
          std::memset(dst, 0, chunk);
        } else if (dst != nullptr) {
          // The frame predates the call, so its bytes are valid now —
          // and a later slice's install may drop it before the fill.
          std::memcpy(dst, payload(slot) + (pos - sp.offset), chunk);
        }
        // Held protects the frame for the rest of the call.
        st.flags |= kReferenced | kHeld;
        held_.push_back(slot);
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
    uint32_t slot = kNoSlot;
    LOR_RETURN_IF_ERROR(
        InstallFrame(fo, fl, fo == s.offset ? floor : Floor(fo), &slot));
    state(slot).flags |= kHeld | kFilling;
    held_.push_back(slot);
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
  // Metadata-only fills carry no bytes.
  if (retain_) {
    for (IoSlice& fill : fill_slices_) {
      const uint32_t slot = Floor(fill.offset);
      if (slot != kNoSlot && span(slot).offset == fill.offset &&
          span(slot).length() == fill.length) {
        fill.dst = payload(slot);
      }
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
  for (uint32_t slot : held_) state(slot).flags &= ~(kHeld | kFilling);
  if (!fill_status.ok()) {
    // The fill never happened: drop (do not park) every frame this call
    // installed, or a stale-zero frame would sit in the index as a valid
    // cache entry and serve wrong bytes to the next hit.
    for (uint64_t fo : fill_offsets_) {
      const uint32_t slot = Floor(fo);
      if (slot != kNoSlot && span(slot).offset == fo) DropFrame(slot);
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
    const uint32_t floor = Floor(s.offset);
    uint32_t slot = floor;
    if (floor != kNoSlot && span(floor).end >= s.offset + s.length) {
      // In-place update within one resident frame.
      if (retain_) {
        uint8_t* p = payload(slot) + (s.offset - span(slot).offset);
        if (s.src != nullptr) {
          std::memcpy(p, s.src, s.length);
        } else {
          // Timing-only writes store zeros on the device; mirror that.
          std::memset(p, 0, s.length);
        }
      }
      state(slot).flags |= kReferenced;
    } else {
      LOR_RETURN_IF_ERROR(InstallFrame(s.offset, s.length, floor, &slot));
      if (retain_ && s.src != nullptr) {
        std::memcpy(payload(slot), s.src, s.length);
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
      if ((state(slot).flags & kDirty) == 0) MarkDirty(slot);
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
  if (!enabled() || len == 0 || !CollectOverlaps(offset, len, Floor(offset))) {
    return;
  }
  for (uint32_t slot : overlaps_) {
    ++stats_.invalidations;
    DropFrame(slot);  // Dirty content dies with the owner.
  }
}

uint64_t BufferPool::PinRange(uint64_t offset, uint64_t len) {
  if (!enabled() || len == 0 || !CollectOverlaps(offset, len, Floor(offset))) {
    return 0;
  }
  for (uint32_t slot : overlaps_) ++state(slot).pin;
  return overlaps_.size();
}

void BufferPool::UnpinRange(uint64_t offset, uint64_t len) {
  if (!enabled() || len == 0 || !CollectOverlaps(offset, len, Floor(offset))) {
    return;
  }
  for (uint32_t slot : overlaps_) {
    if (state(slot).pin > 0) --state(slot).pin;
  }
}

void BufferPool::Reset() {
  if (!enabled()) return;
  arena_.Clear();
  payloads_.clear();
  BuildDirectory();
  shards_.assign(options_.shards, Shard{});
  free_lists_.clear();
  free_list_bytes_ = 0;
  cached_bytes_ = 0;
  dirty_bytes_ = 0;
}

const uint8_t* BufferPool::ViewChunk(uint64_t offset, uint64_t len,
                                     uint64_t* chunk) const {
  const uint32_t floor = Floor(offset);
  const uint32_t slot = Containing(offset, floor);
  if (slot == kNoSlot) {
    *chunk = GapLength(offset, len, floor);
    return nullptr;
  }
  const FrameSpan& sp = span(slot);
  *chunk = std::min(sp.end, offset + len) - offset;
  // A bookkeeping frame (null payload) reads through the device view.
  return retain_ ? payload(slot) + (offset - sp.offset) : nullptr;
}

uint8_t* BufferPool::MutableViewChunk(uint64_t offset, uint64_t len,
                                      uint64_t* chunk, bool through) {
  const uint32_t floor = Floor(offset);
  const uint32_t slot = Containing(offset, floor);
  if (slot == kNoSlot) {
    *chunk = GapLength(offset, len, floor);
    return nullptr;
  }
  const FrameSpan& sp = span(slot);
  *chunk = std::min(sp.end, offset + len) - offset;
  if (!retain_) return nullptr;  // Device drops payload anyway.
  if (!through && (state(slot).flags & kDirty) == 0) MarkDirty(slot);
  return payload(slot) + (offset - sp.offset);
}

uint64_t BufferPool::GapLength(uint64_t offset, uint64_t len,
                               uint32_t floor) const {
  const uint32_t next = NextOf(floor);
  const uint64_t next_start = next == kNoSlot ? UINT64_MAX : span(next).offset;
  return std::min(next_start, offset + len) - offset;
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
