#include "db/lob_allocation_unit.h"

#include <algorithm>
#include <bit>

namespace lor {
namespace db {

uint64_t LobAllocationUnit::PickExtent() {
  if (sequential_fill_) {
    // Only the tail of the extent we are currently filling qualifies.
    return with_free_.IsFree(hint_extent_) ? hint_extent_ : kNoExtent;
  }
  if (with_free_.free_count() == 0) return kNoExtent;
  const uint64_t extent = with_free_.FindLowestFree(hint_extent_);
  return extent != kNoExtent ? extent : with_free_.FindLowestFree(0);
}

Result<uint64_t> LobAllocationUnit::AllocatePage() {
  uint64_t extent = PickExtent();
  if (extent == kNoExtent) {
    auto fresh = file_->AllocateExtent();
    if (!fresh.ok()) return fresh.status();
    extent = *fresh;
    bitmaps_[extent] = all_free_;
    with_free_.MarkFree(extent);
    ++owned_count_;
    reserved_free_ += pages_per_extent_;
  }
  uint16_t& bitmap = bitmaps_[extent];
  const int bit = std::countr_zero(bitmap);
  bitmap = static_cast<uint16_t>(bitmap & ~(1u << bit));
  if (bitmap == 0) with_free_.MarkUsed(extent);
  --reserved_free_;
  ++allocated_pages_;
  hint_extent_ = extent;
  return file_->ExtentFirstPage(extent) + static_cast<uint64_t>(bit);
}

Status LobAllocationUnit::AllocatePages(uint64_t count,
                                        alloc::ExtentList* out) {
  const size_t base = out->size();
  const uint64_t base_back_length = base > 0 ? (*out)[base - 1].length : 0;
  auto rollback = [&]() {
    for (size_t i = base; i < out->size(); ++i) {
      Status s = FreePages((*out)[i]);
      (void)s;
    }
    out->resize(base);
    if (base > 0 && (*out)[base - 1].length > base_back_length) {
      const alloc::Extent& back = (*out)[base - 1];
      Status s = FreePages({back.start + base_back_length,
                            back.length - base_back_length});
      (void)s;
      (*out)[base - 1].length = base_back_length;
    }
  };

  uint64_t remaining = count;
  while (remaining > 0) {
    uint64_t extent = PickExtent();
    if (extent == kNoExtent && remaining >= pages_per_extent_) {
      // A fresh extent drains whole, so PickExtent keeps failing while a
      // whole extent's pages remain: take them all from the GAM as one
      // run, owned and fully used from the start.
      auto fresh = file_->AllocateExtentRun(remaining / pages_per_extent_);
      if (!fresh.ok()) {
        rollback();
        return fresh.status();
      }
      const auto [first, length] = *fresh;
      for (uint64_t e = first; e < first + length; ++e) bitmaps_[e] = 0;
      const uint64_t pages = length * pages_per_extent_;
      alloc::AppendCoalescing(out, {file_->ExtentFirstPage(first), pages});
      owned_count_ += length;
      allocated_pages_ += pages;
      hint_extent_ = first + length - 1;
      remaining -= pages;
      continue;
    }
    if (extent == kNoExtent) {
      auto fresh = file_->AllocateExtent();
      if (!fresh.ok()) {
        rollback();
        return fresh.status();
      }
      extent = *fresh;
      bitmaps_[extent] = all_free_;
      with_free_.MarkFree(extent);
      ++owned_count_;
      reserved_free_ += pages_per_extent_;
    }
    // Drain the extent's free bits lowest-first, one run of set bits at
    // a time — the page-id sequence repeated AllocatePage calls would
    // produce.
    uint16_t& bitmap = bitmaps_[extent];
    const uint64_t first_page = file_->ExtentFirstPage(extent);
    uint64_t taken = 0;
    while (bitmap != 0 && taken < remaining) {
      const int bit = std::countr_zero(bitmap);
      const uint64_t run = std::min<uint64_t>(
          std::countr_one(static_cast<uint16_t>(bitmap >> bit)),
          remaining - taken);
      bitmap = static_cast<uint16_t>(bitmap & ~(((1u << run) - 1) << bit));
      alloc::AppendCoalescing(
          out, {first_page + static_cast<uint64_t>(bit), run});
      taken += run;
    }
    if (bitmap == 0) with_free_.MarkUsed(extent);
    reserved_free_ -= taken;
    allocated_pages_ += taken;
    hint_extent_ = extent;
    remaining -= taken;
  }
  return Status::OK();
}

Status LobAllocationUnit::FreePage(uint64_t page_id) {
  const uint64_t extent = page_id / pages_per_extent_;
  const uint64_t bit = page_id % pages_per_extent_;
  if (extent >= bitmaps_.size() || bitmaps_[extent] == kUnowned) {
    return Status::InvalidArgument("page's extent not owned by unit");
  }
  uint16_t& bitmap = bitmaps_[extent];
  if ((bitmap >> bit) & 1u) {
    return Status::InvalidArgument("double free of page");
  }
  if (!quarantined_pages_.empty() && quarantined_pages_.count(page_id) != 0) {
    return Status::InvalidArgument("double free of page");
  }
  if (!pending_bad_pages_.empty()) {
    auto it = pending_bad_pages_.find(page_id);
    if (it != pending_bad_pages_.end()) {
      // Divert: the bit stays "used", so the page is never re-issued
      // and the extent never returns to the GAM, but no blob owns it.
      pending_bad_pages_.erase(it);
      quarantined_pages_.insert(page_id);
      file_->InvalidatePages(page_id, 1);
      --allocated_pages_;
      return Status::OK();
    }
  }
  bitmap = static_cast<uint16_t>(bitmap | (1u << bit));
  // The page changes owner even while its extent stays with the unit —
  // any cached frame must die before the next AllocatePage hands it out.
  file_->InvalidatePages(page_id, 1);
  ++reserved_free_;
  --allocated_pages_;
  if (bitmap == all_free_) {
    bitmaps_[extent] = kUnowned;
    with_free_.MarkUsed(extent);
    --owned_count_;
    reserved_free_ -= pages_per_extent_;
    return file_->FreeExtents(extent, 1);
  }
  with_free_.MarkFree(extent);
  return Status::OK();
}

Status LobAllocationUnit::FreePages(const alloc::Extent& run) {
  if (!pending_bad_pages_.empty() || !quarantined_pages_.empty()) {
    // Rare repair regime: per-page frees so marked pages can divert to
    // the quarantine list individually.
    for (uint64_t p = run.start; p < run.start + run.length; ++p) {
      LOR_RETURN_IF_ERROR(FreePage(p));
    }
    return Status::OK();
  }
  if (run.empty()) return Status::OK();
  const uint64_t first = run.start / pages_per_extent_;
  const uint64_t last = (run.end() - 1) / pages_per_extent_;
  // The run's pages within `extent`.
  auto mask_in = [&](uint64_t extent) {
    const uint64_t base = extent * pages_per_extent_;
    const uint64_t lo = std::max(run.start, base) - base;
    const uint64_t hi = std::min(run.end(), base + pages_per_extent_) - base;
    return static_cast<uint16_t>(((1u << hi) - 1) & ~((1u << lo) - 1));
  };
  for (uint64_t extent = first; extent <= last; ++extent) {
    if (extent >= bitmaps_.size() || bitmaps_[extent] == kUnowned) {
      return Status::InvalidArgument("page's extent not owned by unit");
    }
    if ((bitmaps_[extent] & mask_in(extent)) != 0) {
      return Status::InvalidArgument("double free of page");
    }
  }
  // One pool invalidation for the whole run: frames drop in ascending
  // order however many extents it spans.
  file_->InvalidatePages(run.start, run.length);
  reserved_free_ += run.length;
  allocated_pages_ -= run.length;
  // Only the first and last extents can keep used pages, so the extents
  // the run frees entirely are consecutive and go back in one call.
  uint64_t freed_first = 0;
  uint64_t freed_count = 0;
  for (uint64_t extent = first; extent <= last; ++extent) {
    uint16_t& bitmap = bitmaps_[extent];
    bitmap = static_cast<uint16_t>(bitmap | mask_in(extent));
    if (bitmap != all_free_) {
      with_free_.MarkFree(extent);
      continue;
    }
    bitmap = kUnowned;
    with_free_.MarkUsed(extent);
    --owned_count_;
    reserved_free_ -= pages_per_extent_;
    if (freed_count++ == 0) freed_first = extent;
  }
  return freed_count > 0 ? file_->FreeExtents(freed_first, freed_count)
                         : Status::OK();
}

Status LobAllocationUnit::CheckConsistency() const {
  uint64_t free_pages = 0;
  uint64_t used_pages = 0;
  uint64_t owned = 0;
  for (uint64_t extent = 0; extent < bitmaps_.size(); ++extent) {
    const uint16_t bitmap = bitmaps_[extent];
    if (bitmap == kUnowned) {
      if (with_free_.IsFree(extent)) {
        return Status::Corruption("free index lists unowned extent");
      }
      continue;
    }
    ++owned;
    const int free_bits = std::popcount(bitmap);
    free_pages += static_cast<uint64_t>(free_bits);
    used_pages += file_->pages_per_extent() - static_cast<uint64_t>(free_bits);
    if ((bitmap != 0) != with_free_.IsFree(extent)) {
      return Status::Corruption("free index disagrees with bitmap");
    }
    if (bitmap == ((1u << file_->pages_per_extent()) - 1)) {
      return Status::Corruption("fully free extent still owned");
    }
    if (file_->gam().IsFree(extent)) {
      return Status::Corruption("owned extent is free in the GAM");
    }
  }
  if (owned != owned_count_) {
    return Status::Corruption("owned extent count mismatch");
  }
  if (free_pages != reserved_free_) {
    return Status::Corruption("reserved free page count mismatch");
  }
  // Quarantined pages hold a "used" bit but belong to no blob, so they
  // account separately from allocated_pages_.
  if (used_pages != allocated_pages_ + quarantined_pages_.size()) {
    return Status::Corruption("allocated page count mismatch");
  }
  for (const uint64_t page : quarantined_pages_) {
    const uint64_t qx = page / pages_per_extent_;
    if (qx >= bitmaps_.size() || bitmaps_[qx] == kUnowned) {
      return Status::Corruption("quarantined page in unowned extent");
    }
    if ((bitmaps_[qx] >> (page % pages_per_extent_)) & 1u) {
      return Status::Corruption("quarantined page marked free");
    }
  }
  return Status::OK();
}

}  // namespace db
}  // namespace lor
