// BufferPool: a sized, sharded DRAM page-cache tier fronting one
// BlockDevice. The file-system back end routes its *payload* traffic
// through it at extent-run granularity while MFT and journal traffic
// stay on the device (the OS page cache does not
// double-cache its own metadata writes here); the database back end
// routes every PageFile access through it — data pages, pointer pages,
// and metadata checkpoints all live in the one page space, exactly as
// a database buffer pool caches them.
//
// Semantics:
//   * capacity_bytes == 0 (the default) disables the pool: every entry
//     point is a strict pass-through to the equivalent device call, so
//     the paper's cold-cache figures are reproduced bit-identically.
//   * Frames are variable-length (one per cached extent run) and kept
//     non-overlapping; a read that is fully covered by resident frames
//     is a *hit* and never touches the device — it charges only the
//     host-side cache CPU (per-request cost + bytes / copy_bandwidth)
//     via ChargeCpu, so hits still ride op scopes and show up in
//     latency percentiles.
//   * Frames live in a slot arena of fixed-size chunks (records never
//     move, and a free slot chains to the next through its link). Each
//     slot splits into a span record (start, end and the slots of the
//     offset-ordered neighbours) and a CLOCK record (install seq, pin
//     count, dirty/referenced/held flags); payload buffers sit in a
//     separate per-slot store that metadata-only devices never touch.
//     Frames are found through an offset directory sized from the
//     device capacity: the slot of the last frame starting in each fixed
//     granule of the offset space (at least 64 KiB, at most 2^20
//     granules), a two-level bitmap of non-empty granules for far
//     predecessor searches, and the neighbour links for everything else
//     — a lookup is one directory load plus a short walk, and the
//     overlap walk and the insert reuse the position the lookup found.
//     A second granule bitmap marks where frames were dirtied, so the
//     lazy writer visits only those granules. Invariant: every walk
//     (flush batches, invalidations, pins) visits frames in ascending
//     offset order, so a flush is one offset-ordered WriteV. The
//     directory is built only when the pool is enabled.
//   * Misses fill through one vectored ReadV per call, at extent-run
//     granularity (extended to the caller's fill range when it gives
//     one — read-ahead), into frames recycled from per-size free lists
//     (the nanos-TFS buffer-recycling pattern: no per-fill allocation
//     once the pool is warm).
//   * Writes are write-back: payload lands in dirty frames (host copy
//     cost only) and reaches the platter lazily — when the dirty ratio
//     trips, on FlushRange/FlushAll (fs fsync), at eviction, or at
//     DrainIo — batched in offset order through one vectored WriteV, so
//     flushes ride the IoScheduler.
//   * While an armed sim::FaultInjector is attached to the device the
//     pool *forces write-through* (counted in forced_write_through),
//     so the PR 7 crash-consistency oracle stays honest: an acked op's
//     bytes are on the device before its commit record, never parked
//     in DRAM. Reset() drops everything (mount-time recovery).
//   * Eviction is CLOCK (second chance), sharded: frames hash to
//     `shards` independent eviction domains, each with its own capacity
//     slice and clock hand. Every install stamps the frame with a fresh
//     sequence number; ring entries are (slot, install seq) pairs, so an
//     entry whose frame was dropped (its slot freed or reused) is
//     recognised as stale by one compare and replaced by the ring's
//     last entry as the hand passes it. A domain whose ring is mostly
//     stale (invalidate/reinstall churn that never evicts) merges its
//     stale entries into hole runs in place, so the ring's memory
//     follows resident frames, not installs, and every eviction
//     decision stays as it was. Pinned frames are never evicted — when
//     a domain is entirely pinned the pool grows past its slice and
//     counts the refusal.
//   * Pin/Unpin operate on the frames resident in a byte range; the
//     handle layer pins an object's cached frames for the open window.
//
// Data is retained in frames only when the device itself retains data
// (DataMode::kRetain); on metadata-only devices frames are bookkeeping
// records — hits and misses charge identically, reads yield zeros, and
// no payload memory is spent, so paper-scale benches can model caches
// larger than host RAM.
//
// Threading: confined to the owning device's thread, like the device.

#ifndef LOREPO_SIM_BUFFER_POOL_H_
#define LOREPO_SIM_BUFFER_POOL_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/block_device.h"
#include "util/status.h"

namespace lor {
namespace sim {

/// Tuning of one pool. The defaults (capacity 0) disable it.
struct BufferPoolOptions {
  /// Total frame bytes the pool may hold. 0 = disabled (pass-through).
  uint64_t capacity_bytes = 0;
  /// Independent eviction domains (capacity slice + CLOCK hand each).
  uint32_t shards = 4;
  /// Flush all dirty frames when dirty bytes exceed this fraction of
  /// capacity (the lazy-writer threshold).
  double dirty_ratio = 0.25;
  /// Host CPU per clean-hit request (lookup + bookkeeping).
  double hit_cpu_s = 2e-6;
  /// Host memcpy bandwidth for hit copies and cache installs.
  double copy_bandwidth = 2.0e9;
};

/// Cumulative pool counters.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t fills = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;        ///< Dirty frames written back.
  uint64_t invalidations = 0;     ///< Frames dropped by Invalidate().
  uint64_t hit_bytes = 0;
  uint64_t miss_bytes = 0;
  uint64_t fill_bytes = 0;
  uint64_t writeback_bytes = 0;
  uint64_t frame_allocs = 0;      ///< Fresh frame buffers allocated.
  uint64_t frame_recycles = 0;    ///< Buffers reused from free lists.
  uint64_t pinned_hits = 0;       ///< Hits whose frames were pinned.
  uint64_t eviction_refusals = 0; ///< Domain fully pinned; pool grew.
  uint64_t write_installs = 0;    ///< Writes absorbed into frames.
  uint64_t forced_write_through = 0;  ///< Armed-injector write-throughs.

  double hit_rate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// One physically contiguous request routed through the pool. The
/// requested range is [offset, offset+length); on a miss the pool fills
/// [fill_offset, fill_offset+fill_length) (must contain the request;
/// fill_length == 0 means fill exactly the request). `src`/`dst` follow
/// the IoSlice rules (null = timing-only / metadata-only).
struct CacheSlice {
  uint64_t offset = 0;
  uint64_t length = 0;
  const uint8_t* src = nullptr;  ///< WriteThrough payload source.
  uint8_t* dst = nullptr;        ///< ReadThrough payload destination.
  uint64_t fill_offset = 0;
  uint64_t fill_length = 0;
};

/// Sharded page cache over one BlockDevice.
class BufferPool {
 public:
  BufferPool(BlockDevice* device, BufferPoolOptions options = {});

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// False when capacity is 0: callers take their historical direct
  /// device path, making the disabled pool a true no-op.
  bool enabled() const { return options_.capacity_bytes > 0; }

  /// Reads every slice through the cache. Slices must be disjoint and
  /// within device capacity. `device_bytes` (optional) receives the
  /// bytes actually read from the device (0 on an all-hit call).
  Status ReadThrough(std::span<const CacheSlice> slices,
                     uint64_t* device_bytes = nullptr);

  /// Writes every slice through the cache: payload is installed into
  /// frames and either marked dirty (write-back) or, while an armed
  /// fault injector is attached, written through in one vectored WriteV.
  /// `device_bytes` receives the bytes written through immediately
  /// (excluding any lazy-writer flush this call happens to trigger).
  Status WriteThrough(std::span<const CacheSlice> slices,
                      uint64_t* device_bytes = nullptr);

  /// Cache-coherent twin of BlockDevice::ReadView: chunks covered by a
  /// resident frame come from the frame (dirty bytes included), gaps
  /// fall through to the device arena. Charges nothing.
  template <typename Fn>
  void View(uint64_t offset, uint64_t len, Fn&& fn) const {
    if (!enabled()) {
      device_->ReadView(offset, len, fn);
      return;
    }
    while (len > 0) {
      uint64_t chunk = 0;
      const uint8_t* p = ViewChunk(offset, len, &chunk);
      if (p != nullptr) {
        fn(std::span<const uint8_t>(p, chunk));
        offset += chunk;
        len -= chunk;
        continue;
      }
      // Uncached gap (or metadata-only frame): device view for exactly
      // the gap, then resume against the cache.
      device_->ReadView(offset, chunk, fn);
      offset += chunk;
      len -= chunk;
    }
  }

  /// Cache-coherent twin of BlockDevice::WriteView: chunks covered by a
  /// resident data-carrying frame are written in the frame (marked
  /// dirty under write-back, copied through to the arena under
  /// write-through); gaps fall through to the device. Charges nothing;
  /// pair with WriteThrough for the timing.
  template <typename Fn>
  void WriteViewThrough(uint64_t offset, uint64_t len, Fn&& fn) {
    if (!enabled()) {
      device_->WriteView(offset, len, fn);
      return;
    }
    const bool through = !WriteBackActive();
    while (len > 0) {
      uint64_t chunk = 0;
      uint8_t* p = MutableViewChunk(offset, len, &chunk, through);
      if (p != nullptr) {
        fn(std::span<uint8_t>(p, chunk));
        if (through) CopyFrameToDevice(offset, p, chunk);
      } else {
        device_->WriteView(offset, chunk, fn);
      }
      offset += chunk;
      len -= chunk;
    }
  }

  /// Drops every frame overlapping [offset, offset+len), discarding
  /// dirty content (the owner is gone — delete/replace/defrag-move).
  void Invalidate(uint64_t offset, uint64_t len);

  /// Writes back dirty frames overlapping [offset, offset+len) in one
  /// offset-ordered vectored WriteV (fs fsync durability).
  Status FlushRange(uint64_t offset, uint64_t len);

  /// Writes back every dirty frame (lazy-writer / DrainIo / pre-arm).
  Status FlushAll();

  /// Pins every frame resident in the range (eviction refuses pinned
  /// frames); returns how many frames were pinned. Frames installed
  /// *after* the pin are not covered — pin windows protect what the
  /// opener found cached, the hot-loop reads hold frames transiently
  /// inside ReadThrough.
  uint64_t PinRange(uint64_t offset, uint64_t len);

  /// Unpins resident frames in the range (frames dropped or installed
  /// since the pin are skipped; pin counts never go below zero).
  void UnpinRange(uint64_t offset, uint64_t len);

  /// Drops all frames (dirty included) and recycling lists — the
  /// post-crash mount path. Cumulative stats survive.
  void Reset();

  const BufferPoolStats& stats() const { return stats_; }
  const BufferPoolOptions& options() const { return options_; }
  uint64_t cached_bytes() const { return cached_bytes_; }
  uint64_t dirty_bytes() const { return dirty_bytes_; }
  uint64_t frame_count() const { return frame_count_; }
  /// CLOCK ring entries across domains, stale ones included (tests).
  uint64_t clock_ring_entries() const;
  BlockDevice* device() { return device_; }

 private:
  /// "No frame" marker for slot lookups.
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  /// FrameState::flags bits.
  static constexpr uint8_t kDirty = 1;
  static constexpr uint8_t kReferenced = 2;  ///< CLOCK second-chance bit.
  /// Hit or installed by the in-progress ReadThrough: eviction skips it
  /// like a pinned frame. Cleared when the call returns; never
  /// inherited by a frame installed over it.
  static constexpr uint8_t kHeld = 4;
  /// Installed by the in-progress ReadThrough; its bytes arrive with the
  /// call's batched fill.
  static constexpr uint8_t kFilling = 8;

  /// A frame's place in offset order: its byte range and the slots of
  /// its neighbours (kNoSlot at the ends). A free slot keeps the next
  /// free slot in `next`.
  struct FrameSpan {
    uint64_t offset = 0;
    uint64_t end = 0;
    uint32_t prev = kNoSlot;
    uint32_t next = kNoSlot;
    uint64_t length() const { return end - offset; }
  };

  /// What eviction and the flush paths read per frame.
  struct FrameState {
    /// Install seq; 0 marks a free slot (seqs start at 1).
    uint64_t seq = 0;
    uint32_t pin = 0;
    uint8_t flags = 0;
    bool pinned() const { return pin > 0 || (flags & kHeld) != 0; }
  };

  /// Slot arena: span and CLOCK records in fixed-size chunks, so growth
  /// neither moves a record nor over-allocates by more than one chunk.
  class FrameArena {
   public:
    FrameSpan& span(uint32_t slot) {
      return chunks_[slot >> kChunkShift]->spans[slot & kChunkMask];
    }
    const FrameSpan& span(uint32_t slot) const {
      return chunks_[slot >> kChunkShift]->spans[slot & kChunkMask];
    }
    FrameState& state(uint32_t slot) {
      return chunks_[slot >> kChunkShift]->states[slot & kChunkMask];
    }
    const FrameState& state(uint32_t slot) const {
      return chunks_[slot >> kChunkShift]->states[slot & kChunkMask];
    }
    /// A free slot, reusing the most recently freed one first.
    uint32_t Allocate();
    void Free(uint32_t slot);
    void Clear();

   private:
    static constexpr uint32_t kChunkShift = 12;
    static constexpr uint32_t kChunkMask = (1u << kChunkShift) - 1;
    struct Chunk {
      FrameSpan spans[1u << kChunkShift];
      FrameState states[1u << kChunkShift];
    };
    std::vector<std::unique_ptr<Chunk>> chunks_;
    uint32_t size_ = 0;  ///< Slots ever handed out.
    uint32_t free_head_ = kNoSlot;
  };

  /// One bit per directory granule plus a summary bit per 64-bit word,
  /// so a predecessor search crosses 4,096 empty granules per word read.
  class GranuleBits {
   public:
    static constexpr size_t kNone = SIZE_MAX;
    /// `n` granules, all clear.
    void Assign(size_t n);
    void Set(size_t granule);
    void Clear(size_t granule);
    /// Clears every set bit (cost proportional to the set words).
    void ClearAll();
    /// Last set granule at or before `granule`, or kNone.
    size_t PrevSet(size_t granule) const;

   private:
    std::vector<uint64_t> words_;
    std::vector<uint64_t> summary_;
  };

  /// One deferred payload move of a ReadThrough call: a miss copy-out,
  /// or a hit on a frame an earlier slice of the call installed. It
  /// runs after the batched fill ReadV and is resolved by offset then,
  /// because a later slice's install may have replaced the frame.
  struct CopyJob {
    uint64_t offset = 0;
    uint8_t* dst = nullptr;
    uint64_t length = 0;
  };

  /// CLOCK ring entry: stale once the slot's frame has another seq.
  /// Seq 0 (installs start at 1) marks a *hole run* instead: `slot`
  /// consecutive stale entries, merged by CompactRing.
  struct RingEntry {
    uint32_t slot;
    uint64_t seq;
    bool hole() const { return seq == 0; }
    bool hole_run() const { return seq == 0 && slot > 1; }
  };

  /// One domain's CLOCK ring, kept as a gap buffer in one vector: the
  /// entries the hand has passed this lap at [0, behind), the hand's
  /// entry and those after it at [hand, end). Usually there is no gap
  /// (behind == hand) and the ring is a plain vector with a hand index;
  /// PushFront opens one when an entry must go in front of the hand
  /// (before the rest of a hole run there), and the next wrap closes it.
  struct ClockRing {
    std::vector<RingEntry> slots;
    size_t behind = 0;
    size_t hand = 0;
    size_t end = 0;

    size_t entries() const { return behind + (end - hand); }
    /// Moves the hand one entry on. There is no gap to copy across
    /// unless PushFront opened one this lap.
    void Advance() {
      if (behind != hand) slots[behind] = slots[hand];
      ++behind;
      ++hand;
    }
    /// The hand passed the last entry: start the next lap.
    void Wrap() {
      hand = 0;
      end = behind;
      behind = 0;
    }
    void PushBack(RingEntry e) {
      if (end == slots.size()) {
        slots.push_back(e);
      } else {
        slots[end] = e;
      }
      ++end;
    }
    /// Puts `e` at the hand, before the hand's entry.
    void PushFront(RingEntry e);
  };

  /// Per-domain eviction state.
  struct Shard {
    uint64_t used_bytes = 0;
    uint64_t frames = 0;  ///< Resident frames: the ring's live entries.
    uint64_t length = 0;  ///< Ring entries, each hole in a run counted.
    ClockRing ring;
  };

  uint32_t ShardOf(uint64_t offset) const {
    return static_cast<uint32_t>((offset >> 20) % options_.shards);
  }
  uint64_t ShardCapacity() const {
    return options_.capacity_bytes / options_.shards;
  }
  /// True when writes may park in dirty frames right now (no armed
  /// fault injector on the device).
  bool WriteBackActive() const;

  FrameSpan& span(uint32_t slot) { return arena_.span(slot); }
  const FrameSpan& span(uint32_t slot) const { return arena_.span(slot); }
  FrameState& state(uint32_t slot) { return arena_.state(slot); }
  /// The frame's payload, or null on a metadata-only device.
  uint8_t* payload(uint32_t slot) {
    return retain_ ? payloads_[slot].data() : nullptr;
  }
  const uint8_t* payload(uint32_t slot) const {
    return retain_ ? payloads_[slot].data() : nullptr;
  }

  // Offset directory.
  /// Sizes the directory for the device, empty.
  void BuildDirectory();
  size_t GranuleOf(uint64_t offset) const {
    return std::min(static_cast<size_t>(offset >> granule_shift_),
                    last_.size() - 1);
  }
  /// Slot of the frame with the largest start <= offset, or kNoSlot.
  uint32_t Floor(uint64_t offset) const;
  /// The frame after `slot` in offset order; the first frame when
  /// `slot` is kNoSlot.
  uint32_t NextOf(uint32_t slot) const {
    return slot == kNoSlot ? head_ : span(slot).next;
  }
  /// Links `slot` (its span set) into offset order right after `pred`
  /// (kNoSlot: at the front).
  void Link(uint32_t slot, uint32_t pred);
  void Unlink(uint32_t slot);

  /// Fills overlaps_ with the slots of the frames intersecting
  /// [offset, offset+len), in offset order, given `floor` ==
  /// Floor(offset); returns whether any does.
  bool CollectOverlaps(uint64_t offset, uint64_t len, uint32_t floor);
  /// `floor` when that frame contains `offset`, else kNoSlot.
  uint32_t Containing(uint64_t offset, uint32_t floor) const {
    return floor != kNoSlot && span(floor).end > offset ? floor : kNoSlot;
  }

  /// True when [offset, offset+len) is fully covered by contiguous
  /// resident frames, the first being `first` (Containing(offset)).
  bool Covered(uint64_t offset, uint64_t len, uint32_t first) const;

  /// Installs a frame for [offset, len) given `floor` == Floor(offset):
  /// flushes dirty partial overlaps, drops full overlaps, evicts for
  /// space, takes a recycled buffer. Returns the new frame's slot in
  /// `*out`.
  Status InstallFrame(uint64_t offset, uint64_t len, uint32_t floor,
                      uint32_t* out);

  /// Evicts until `shard` can absorb `incoming` more bytes; gives up
  /// (and lets the domain overflow) when only pinned frames remain.
  Status EvictFor(uint32_t shard, uint64_t incoming);
  /// Evicts one unpinned frame from `shard`; `*evicted` reports whether
  /// one existed.
  Status EvictOne(uint32_t shard, bool* evicted);

  /// True when `e` is a hole run or its frame has been dropped.
  bool Stale(const RingEntry& e) const {
    return e.hole() || arena_.state(e.slot).seq != e.seq;
  }

  /// The ring step that retires the entry at the hand: the ring's last
  /// entry (or one hole of a trailing run) takes its place.
  static void ReplaceAtHand(Shard* sh) {
    ClockRing& ring = sh->ring;
    --sh->length;
    RingEntry& at_hand = ring.slots[ring.hand];
    const RingEntry& last = ring.slots[ring.end - 1];
    if (at_hand.hole_run() || last.hole_run()) {
      ReplaceAtHandInRun(&ring);
      return;
    }
    at_hand = last;  // A self-copy when the hand's entry is the last.
    --ring.end;
  }
  /// ReplaceAtHand when the hand's entry or the last one is a hole run.
  static void ReplaceAtHandInRun(ClockRing* ring);

  /// Merges each run of stale entries in `ring`'s [first, *end) into
  /// one hole run, moving `*end` down. Every entry keeps its position,
  /// so the hand's future sweeps (which pull the ring's last entry into
  /// each stale slot they reach) are exactly those of the uncompacted
  /// ring.
  void CompactRing(ClockRing* ring, size_t first, size_t* end) const;

  /// Removes the frame in `slot` from the directory and eviction state,
  /// recycling its buffer and its slot. Does not write anything back —
  /// callers flush or discard dirty content first.
  void DropFrame(uint32_t slot);

  /// Marks a clean frame dirty.
  void MarkDirty(uint32_t slot);
  /// Writes one dirty frame back (scalar Write) and marks it clean.
  Status WriteBackFrame(uint32_t slot);

  /// Flushes the dirty frames among `slots` (offset order) as one
  /// WriteV batch — the shared core of FlushRange/FlushAll/install.
  Status FlushSlots(std::span<const uint32_t> slots);

  /// Buffer recycling (per-size free lists, power-of-two classes).
  std::vector<uint8_t> TakeBuffer(uint64_t len);
  void RecycleBuffer(std::vector<uint8_t>&& buffer);

  /// View helpers: pointer into the frame covering `offset` (null when
  /// uncached or metadata-only; *chunk then spans the gap).
  const uint8_t* ViewChunk(uint64_t offset, uint64_t len,
                           uint64_t* chunk) const;
  uint8_t* MutableViewChunk(uint64_t offset, uint64_t len, uint64_t* chunk,
                            bool through);
  /// Length of the uncached gap at `offset`, capped at `len`, given
  /// `floor` == Floor(offset) does not contain it.
  uint64_t GapLength(uint64_t offset, uint64_t len, uint32_t floor) const;
  /// Copies frame bytes through to the device arena (write-through
  /// views).
  void CopyFrameToDevice(uint64_t offset, const uint8_t* src, uint64_t len);

  BlockDevice* device_;
  BufferPoolOptions options_;
  /// The device retains payload bytes (its data mode never changes).
  bool retain_;
  BufferPoolStats stats_;
  FrameArena arena_;
  /// Payload buffers by slot; grown and touched only when retain_.
  std::vector<std::vector<uint8_t>> payloads_;
  /// Directory: last (highest-offset) frame starting in each granule.
  std::vector<uint32_t> last_;
  GranuleBits nonempty_;
  /// Granules holding the start of a frame dirtied since the last
  /// FlushAll (a superset of the dirty frames' granules).
  GranuleBits dirty_granules_;
  uint32_t granule_shift_ = 0;
  uint32_t head_ = kNoSlot;
  uint32_t tail_ = kNoSlot;
  uint64_t frame_count_ = 0;
  std::vector<Shard> shards_;
  uint64_t cached_bytes_ = 0;
  uint64_t dirty_bytes_ = 0;
  uint64_t install_seq_ = 0;
  /// Recycled buffers by floor-log2 capacity class.
  std::vector<std::vector<std::vector<uint8_t>>> free_lists_;
  uint64_t free_list_bytes_ = 0;
  /// Scratch for the vectored fill/flush submissions, deferred copies
  /// and overlap walks — reused across calls so the hit path never
  /// allocates.
  std::vector<IoSlice> fill_slices_;
  std::vector<IoSlice> flush_slices_;
  std::vector<uint32_t> flush_slots_;
  std::vector<CopyJob> copy_jobs_;
  std::vector<uint32_t> held_;  ///< Slots the in-progress call holds.
  std::vector<uint32_t> overlaps_;
  /// Start offsets of frames installed by the in-progress ReadThrough;
  /// a failed fill drops exactly these (never parks them as valid).
  std::vector<uint64_t> fill_offsets_;
};

}  // namespace sim
}  // namespace lor

#endif  // LOREPO_SIM_BUFFER_POOL_H_
