#include "alloc/buddy_allocator.h"

#include <algorithm>

namespace lor {
namespace alloc {

uint32_t BuddyAllocator::OrderFor(uint64_t length) {
  uint32_t order = 0;
  while ((1ULL << order) < length) ++order;
  return order;
}

BuddyAllocator::BuddyAllocator(uint64_t clusters, uint64_t reserved) {
  max_order_ = OrderFor(std::max<uint64_t>(clusters, 1));
  free_lists_.resize(max_order_ + 1);
  free_lists_[max_order_].insert(0);
  free_clusters_ = BlockSize(max_order_);
  // The reserved head and the phantom tail of the power-of-two envelope.
  ClaimRange(0, std::min(reserved, clusters));
  ClaimRange(clusters, BlockSize(max_order_));
}

void BuddyAllocator::ClaimRange(uint64_t begin, uint64_t end) {
  // Walk the range as naturally-aligned power-of-two pieces and carve
  // each one out of the free lists. These pieces are never freed.
  uint64_t addr = begin;
  while (addr < end) {
    uint32_t order = 0;
    while (addr % BlockSize(order + 1) == 0 &&
           addr + BlockSize(order + 1) <= end) {
      ++order;
    }
    CarveBlock(addr, order);
    free_clusters_ -= BlockSize(order);
    addr += BlockSize(order);
  }
}

void BuddyAllocator::CarveBlock(uint64_t addr, uint32_t order) {
  // Find the free block containing `addr` (it must exist) and split it
  // down until a block of exactly [addr, addr + 2^order) is isolated.
  for (uint32_t o = order; o <= max_order_; ++o) {
    const uint64_t block_start = addr & ~(BlockSize(o) - 1);
    auto it = free_lists_[o].find(block_start);
    if (it == free_lists_[o].end()) continue;
    free_lists_[o].erase(it);
    uint64_t cur_start = block_start;
    for (uint32_t cur = o; cur > order; --cur) {
      const uint64_t half = BlockSize(cur - 1);
      if (addr < cur_start + half) {
        free_lists_[cur - 1].insert(cur_start + half);
      } else {
        free_lists_[cur - 1].insert(cur_start);
        cur_start += half;
      }
    }
    return;
  }
}

Status BuddyAllocator::Allocate(uint64_t length, uint64_t /*extend_hint*/,
                                ExtentList* out) {
  if (length == 0) return Status::InvalidArgument("zero-length allocation");
  const uint32_t order = OrderFor(length);
  if (order > max_order_) return Status::NoSpace("request exceeds capacity");

  // Find the smallest order with a free block.
  uint32_t o = order;
  while (o <= max_order_ && free_lists_[o].empty()) ++o;
  if (o > max_order_) {
    return Status::NoSpace("no buddy block large enough");
  }

  // Prefer the lowest-addressed block at that order.
  uint64_t start = *free_lists_[o].begin();
  free_lists_[o].erase(free_lists_[o].begin());
  // Split down to the requested order, returning upper halves.
  while (o > order) {
    --o;
    free_lists_[o].insert(start + BlockSize(o));
  }

  free_clusters_ -= BlockSize(order);
  internal_waste_ += BlockSize(order) - length;
  live_[start] = {order, length};
  AppendCoalescing(out, {start, length});
  return Status::OK();
}

Status BuddyAllocator::Free(const Extent& extent) {
  if (extent.empty()) return Status::OK();
  // Check the whole extent before freeing any of it: it must run
  // through the requests of consecutive live blocks, ending with one.
  // Only a block whose request filled it is followed without a gap.
  const auto first = live_.find(extent.start);
  auto last = first;
  uint64_t at = extent.start;
  while (at < extent.end() && last != live_.end() && last->first == at) {
    at += last->second.second;
    ++last;
  }
  if (at != extent.end()) {
    return Status::InvalidArgument("free does not tile live buddy blocks");
  }

  for (auto it = first; it != last; it = live_.erase(it)) {
    uint32_t order = it->second.first;
    uint64_t start = it->first;
    internal_waste_ -= BlockSize(order) - it->second.second;
    free_clusters_ += BlockSize(order);
    // Merge with the buddy while it is free.
    while (order < max_order_) {
      const uint64_t buddy = start ^ BlockSize(order);
      auto& fl = free_lists_[order];
      auto bit = fl.find(buddy);
      if (bit == fl.end()) break;
      fl.erase(bit);
      start = std::min(start, buddy);
      ++order;
    }
    free_lists_[order].insert(start);
  }
  return Status::OK();
}

FreeSpaceStats BuddyAllocator::FreeStats() const {
  FreeSpaceStats s;
  s.free_clusters = free_clusters_;
  uint64_t largest = 0;
  uint64_t count = 0;
  for (uint32_t o = 0; o <= max_order_; ++o) {
    if (!free_lists_[o].empty()) {
      largest = BlockSize(o);
      count += free_lists_[o].size();
    }
  }
  s.run_count = count;
  s.largest_run = largest;
  s.mean_run = count ? static_cast<double>(free_clusters_) /
                           static_cast<double>(count)
                     : 0.0;
  s.external_fragmentation =
      free_clusters_ == 0
          ? 0.0
          : 1.0 - static_cast<double>(largest) /
                      static_cast<double>(free_clusters_);
  return s;
}

Status BuddyAllocator::CheckConsistency() const {
  uint64_t total = 0;
  std::vector<std::pair<uint64_t, uint64_t>> ranges;  // (start, end)
  for (uint32_t o = 0; o < free_lists_.size(); ++o) {
    for (uint64_t start : free_lists_[o]) {
      if (start % BlockSize(o) != 0) {
        return Status::Corruption("misaligned free block");
      }
      ranges.emplace_back(start, start + BlockSize(o));
      total += BlockSize(o);
    }
  }
  for (const auto& [start, len_req] : live_) {
    ranges.emplace_back(start, start + BlockSize(len_req.first));
  }
  std::sort(ranges.begin(), ranges.end());
  for (size_t i = 1; i < ranges.size(); ++i) {
    if (ranges[i].first < ranges[i - 1].second) {
      return Status::Corruption("overlapping buddy blocks");
    }
  }
  if (total != free_clusters_) {
    return Status::Corruption("free cluster accounting mismatch");
  }
  return Status::OK();
}

}  // namespace alloc
}  // namespace lor
