// SortedRuns: an ordered set of extents stored as a vector of small
// sorted blocks — a two-level B+tree whose leaves are contiguous arrays
// (the shape of the extent B-tree in bblocks' extentfs). FreeSpaceMap
// keeps two: every free run in address order, and the runs below its 32
// largest in (length, start) order.
//
// Lookups binary-search a contiguous array holding each block's first
// element, then the block itself. Inserts and erases move at most one
// block's worth of 16-byte elements; a block splits when it overflows
// and merges into a neighbour when it drains below a quarter, so no
// operation allocates except the occasional split. Each block also
// carries the largest run length it holds (recomputed lazily after the
// maximum leaves), which lets address-order scans for a run of at least
// a given length skip whole blocks.
//
// A Pos names an element by (block, index) and is invalidated by any
// Insert or Erase, as a vector iterator is; Assign keeps positions.

#ifndef LOREPO_ALLOC_SORTED_RUNS_H_
#define LOREPO_ALLOC_SORTED_RUNS_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "alloc/extent.h"

namespace lor {
namespace alloc {

template <typename Less>
class SortedRuns {
 public:
  /// A block splits beyond this many elements.
  static constexpr uint32_t kMaxBlock = 64;

  struct Pos {
    uint32_t block = 0;
    uint32_t index = 0;
    bool operator==(const Pos& other) const = default;
  };

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Pos begin() const { return {}; }
  Pos end() const { return {block_count(), 0}; }
  /// True when `pos` names an element (not end, not stale past a
  /// block's size).
  bool valid(Pos pos) const {
    return pos.block < blocks_.size() &&
           pos.index < blocks_[pos.block].size();
  }
  const Extent& operator[](Pos pos) const {
    return blocks_[pos.block][pos.index];
  }
  const Extent& back() const { return blocks_.back().back(); }

  uint32_t block_count() const {
    return static_cast<uint32_t>(blocks_.size());
  }
  std::span<const Extent> block(uint32_t b) const { return blocks_[b]; }
  /// Largest run length in block `b`.
  uint64_t BlockMax(uint32_t b) const {
    if (max_[b] == kStale) {
      uint64_t m = 0;
      for (const Extent& e : blocks_[b]) m = std::max(m, e.length);
      max_[b] = m;
    }
    return max_[b];
  }

  /// First element not ordered before `key`, or end().
  Pos LowerBound(const Extent& key) const {
    return Search([&key](const Extent& e) { return Less{}(e, key); });
  }
  /// First element ordered after `key`, or end().
  Pos UpperBound(const Extent& key) const {
    return Search([&key](const Extent& e) { return !Less{}(key, e); });
  }

  Pos Next(Pos pos) const { return Normalize({pos.block, pos.index + 1}); }
  /// Requires pos != begin().
  Pos Prev(Pos pos) const {
    if (pos.index > 0) return {pos.block, pos.index - 1};
    const uint32_t b = pos.block - 1;
    return {b, static_cast<uint32_t>(blocks_[b].size()) - 1};
  }

  /// Inserts `value` before `pos`, which must be where it sorts.
  /// Returns the inserted element's position.
  Pos Insert(Pos pos, const Extent& value) {
    ++size_;
    if (blocks_.empty()) {
      blocks_.emplace_back().reserve(kMaxBlock + 1);
      blocks_.back().push_back(value);
      firsts_.push_back(value);
      max_.push_back(value.length);
      return {};
    }
    if (pos.block == blocks_.size()) {  // end(): append to the last block.
      pos = {pos.block - 1,
             static_cast<uint32_t>(blocks_[pos.block - 1].size())};
    }
    std::vector<Extent>& blk = blocks_[pos.block];
    blk.insert(blk.begin() + pos.index, value);
    if (pos.index == 0) firsts_[pos.block] = value;
    if (max_[pos.block] != kStale) {
      max_[pos.block] = std::max(max_[pos.block], value.length);
    }
    if (blk.size() <= kMaxBlock) return pos;
    // Split the overflowing block in half.
    const uint32_t half = static_cast<uint32_t>(blk.size() / 2);
    std::vector<Extent> upper;
    upper.reserve(kMaxBlock + 1);
    upper.assign(blk.begin() + half, blk.end());
    blk.resize(half);
    max_[pos.block] = kStale;
    const Extent upper_first = upper.front();
    blocks_.insert(blocks_.begin() + pos.block + 1, std::move(upper));
    firsts_.insert(firsts_.begin() + pos.block + 1, upper_first);
    max_.insert(max_.begin() + pos.block + 1, kStale);
    if (pos.index < half) return pos;
    return {pos.block + 1, pos.index - half};
  }

  /// Removes the element at `pos`.
  void Erase(Pos pos) {
    --size_;
    std::vector<Extent>& blk = blocks_[pos.block];
    if (blk[pos.index].length == max_[pos.block]) max_[pos.block] = kStale;
    blk.erase(blk.begin() + pos.index);
    if (blk.empty()) {
      RemoveBlock(pos.block);
      return;
    }
    if (pos.index == 0) firsts_[pos.block] = blk.front();
    if (blk.size() < kMaxBlock / 4) MergeSmall(pos.block);
  }

  /// Overwrites the element at `pos` with `value`, which must sort
  /// between its neighbours.
  void Assign(Pos pos, const Extent& value) {
    Extent& slot = blocks_[pos.block][pos.index];
    uint64_t& m = max_[pos.block];
    if (m != kStale) {
      if (value.length >= m) {
        m = value.length;
      } else if (slot.length == m) {
        m = kStale;
      }
    }
    slot = value;
    if (pos.index == 0) firsts_[pos.block] = value;
  }

  /// Replaces the element at `pos` with `value`, which may sort
  /// elsewhere; returns its new position. Stays inside the block (one
  /// rotate, no descent) when `value` still sorts within it.
  Pos Rekey(Pos pos, const Extent& value) {
    if (FitsAt(pos, value)) {
      Assign(pos, value);
      return pos;
    }
    const uint32_t b = pos.block;
    const bool after_prev = b == 0 || Less{}(blocks_[b - 1].back(), value);
    const bool before_next =
        b + 1 == blocks_.size() || Less{}(value, firsts_[b + 1]);
    if (!after_prev || !before_next) {
      Erase(pos);
      return Insert(LowerBound(value), value);
    }
    // Rotate the old element to where `value` sorts, then overwrite it.
    std::vector<Extent>& blk = blocks_[b];
    const uint32_t from = pos.index;
    uint32_t to = static_cast<uint32_t>(PartitionPoint(
        blk.data(), blk.size(),
        [&value](const Extent& e) { return Less{}(e, value); }));
    if (to > from) {
      --to;  // The slot `value` lands in once `from` is vacated.
      std::rotate(blk.begin() + from, blk.begin() + from + 1,
                  blk.begin() + to + 1);
    } else {
      std::rotate(blk.begin() + to, blk.begin() + from,
                  blk.begin() + from + 1);
    }
    firsts_[b] = blk.front();
    Assign({b, to}, value);
    return {b, to};
  }

  /// Visits elements in order; `fn(const Extent&)` returns false to stop.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const std::vector<Extent>& blk : blocks_) {
      for (const Extent& e : blk) {
        if (!fn(e)) return;
      }
    }
  }
  /// Visits elements in reverse order; `fn` returns false to stop.
  template <typename Fn>
  void ForEachReverse(Fn&& fn) const {
    for (auto blk = blocks_.rbegin(); blk != blocks_.rend(); ++blk) {
      for (auto e = blk->rbegin(); e != blk->rend(); ++e) {
        if (!fn(*e)) return;
      }
    }
  }

  /// Structural invariants: non-empty blocks, cached firsts and maxima
  /// agree with the blocks, strict order within and across blocks.
  bool CheckInvariants() const {
    size_t count = 0;
    for (uint32_t b = 0; b < blocks_.size(); ++b) {
      const std::vector<Extent>& blk = blocks_[b];
      if (blk.empty() || blk.size() > kMaxBlock) return false;
      if (!(firsts_[b] == blk.front())) return false;
      uint64_t m = 0;
      for (size_t i = 0; i < blk.size(); ++i) {
        if (i > 0 && !Less{}(blk[i - 1], blk[i])) return false;
        m = std::max(m, blk[i].length);
      }
      if (max_[b] != kStale && max_[b] != m) return false;
      if (b > 0 && !Less{}(blocks_[b - 1].back(), blk.front())) return false;
      count += blk.size();
    }
    return count == size_ && firsts_.size() == blocks_.size() &&
           max_.size() == blocks_.size();
  }

 private:
  static constexpr uint64_t kStale = ~0ULL;

  /// True when `value` may replace the element at `pos` in place.
  bool FitsAt(Pos pos, const Extent& value) const {
    if (pos != begin() && !Less{}((*this)[Prev(pos)], value)) return false;
    const Pos next = Next(pos);
    return next == end() || Less{}(value, (*this)[next]);
  }

  /// Index of the first of `n` elements for which `before` is false
  /// (they are partitioned: all `before` ones first). Branch-free, so
  /// the search costs no mispredictions.
  template <typename Before>
  static size_t PartitionPoint(const Extent* base, size_t n, Before before) {
    if (n == 0) return 0;
    const Extent* first = base;
    while (n > 1) {
      const size_t half = n / 2;
      base = before(base[half - 1]) ? base + half : base;
      n -= half;
    }
    return static_cast<size_t>(base - first) + (before(*base) ? 1 : 0);
  }

  /// First position whose element is not `before`: the last block whose
  /// head is `before`, then the element within it.
  template <typename Before>
  Pos Search(Before before) const {
    const size_t heads = PartitionPoint(firsts_.data(), firsts_.size(), before);
    if (heads == 0) return begin();
    const uint32_t b = static_cast<uint32_t>(heads - 1);
    const std::vector<Extent>& blk = blocks_[b];
    return Normalize(
        {b, static_cast<uint32_t>(PartitionPoint(blk.data(), blk.size(),
                                                 before))});
  }

  /// Moves a one-past-the-block position to the next block's head.
  Pos Normalize(Pos pos) const {
    if (pos.index == blocks_[pos.block].size()) return {pos.block + 1, 0};
    return pos;
  }

  void RemoveBlock(uint32_t b) {
    blocks_.erase(blocks_.begin() + b);
    firsts_.erase(firsts_.begin() + b);
    max_.erase(max_.begin() + b);
  }

  /// Folds a drained block into a neighbour when both fit in one.
  void MergeSmall(uint32_t b) {
    uint32_t lo;
    if (b + 1 < blocks_.size() &&
        blocks_[b].size() + blocks_[b + 1].size() <= kMaxBlock) {
      lo = b;
    } else if (b > 0 &&
               blocks_[b - 1].size() + blocks_[b].size() <= kMaxBlock) {
      lo = b - 1;
    } else {
      return;
    }
    std::vector<Extent>& into = blocks_[lo];
    const std::vector<Extent>& from = blocks_[lo + 1];
    into.insert(into.end(), from.begin(), from.end());
    if (max_[lo] != kStale && max_[lo + 1] != kStale) {
      max_[lo] = std::max(max_[lo], max_[lo + 1]);
    } else {
      max_[lo] = kStale;
    }
    RemoveBlock(lo + 1);
  }

  std::vector<std::vector<Extent>> blocks_;
  std::vector<Extent> firsts_;  ///< blocks_[b].front(), contiguous.
  mutable std::vector<uint64_t> max_;  ///< Per-block max length or kStale.
  size_t size_ = 0;
};

}  // namespace alloc
}  // namespace lor

#endif  // LOREPO_ALLOC_SORTED_RUNS_H_
