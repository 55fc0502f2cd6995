#include "db/page_file.h"

#include <algorithm>

namespace lor {
namespace db {

PageFile::PageFile(sim::BlockDevice* device, PageFileOptions options)
    : device_(device),
      options_(options),
      gam_(0),
      capacity_extents_(0) {
  const uint64_t max_bytes =
      options_.max_bytes == 0
          ? device_->capacity()
          : std::min(options_.max_bytes, device_->capacity());
  capacity_extents_ = max_bytes / extent_bytes();
  gam_ = GamBitmap(capacity_extents_);
  const uint64_t initial_extents = std::min(
      capacity_extents_,
      std::max<uint64_t>(1, options_.initial_bytes / extent_bytes()));
  file_extents_ = initial_extents;
  Status s = gam_.Release(0, initial_extents);
  (void)s;
}

sim::BufferPool* PageFile::ActivePool() const {
  sim::BufferPool* pool = device_->buffer_pool();
  return (pool != nullptr && pool->enabled()) ? pool : nullptr;
}

void PageFile::InvalidatePages(uint64_t first_page, uint64_t count) {
  if (count == 0) return;
  if (sim::BufferPool* pool = ActivePool()) {
    pool->Invalidate(PageOffset(first_page), count * options_.page_bytes);
  }
}

Status PageFile::Grow() {
  if (file_extents_ >= capacity_extents_) {
    return Status::NoSpace("data file at capacity");
  }
  uint64_t grow_extents = static_cast<uint64_t>(
      static_cast<double>(file_extents_) * options_.autogrow_fraction);
  grow_extents = std::max<uint64_t>(grow_extents, 1);
  grow_extents = std::min(grow_extents, capacity_extents_ - file_extents_);
  LOR_RETURN_IF_ERROR(gam_.Release(file_extents_, grow_extents));
  file_extents_ += grow_extents;
  ++stats_.growths;
  // Growth zero-fills the new region (instant file initialization was
  // not the default in 2005); charge the sequential write.
  LOR_RETURN_IF_ERROR(device_->Write(
      (file_extents_ - grow_extents) * extent_bytes(),
      grow_extents * extent_bytes()));
  return Status::OK();
}

uint64_t PageFile::GrowBy(uint64_t extents) {
  const uint64_t grow =
      std::min(extents, capacity_extents_ - file_extents_);
  if (grow == 0) return 0;
  Status s = gam_.Release(file_extents_, grow);
  if (!s.ok()) return 0;
  file_extents_ += grow;
  ++stats_.growths;
  Status io = device_->Write((file_extents_ - grow) * extent_bytes(),
                             grow * extent_bytes());
  (void)io;
  return grow;
}

Status PageFile::ReleasePending(uint64_t due) {
  // Each entry leaves the queue as it is processed, so one that fails to
  // release is dropped and reported once instead of failing every later
  // allocation.
  Status result = Status::OK();
  while (!pending_.empty() && pending_.front().due <= due) {
    const PendingFree p = pending_.front();
    pending_.pop_front();
    pending_extents_ -= p.count;
    Status s = gam_.Release(p.first, p.count);
    if (result.ok() && !s.ok()) result = std::move(s);
  }
  return result;
}

Status PageFile::ReleaseAllPending() { return ReleasePending(UINT64_MAX); }

Result<uint64_t> PageFile::AllocateExtent() {
  auto run = AllocateExtentRun(1);
  if (!run.ok()) return run.status();
  return run->first;
}

Result<std::pair<uint64_t, uint64_t>> PageFile::AllocateExtentRun(
    uint64_t count) {
  LOR_RETURN_IF_ERROR(ReleasePending(alloc_counter_));
  // Stop before the next deferred free comes due: single calls would
  // release it ahead of the allocation that reaches its due point.
  if (!pending_.empty()) {
    count = std::min(count, pending_.front().due - alloc_counter_);
  }
  const uint64_t from = scan_cursor_;
  auto run = gam_.AllocateRun(count, from);
  if (run.first == kNoExtent && from != 0) {
    run = gam_.AllocateRun(count, 0);  // Wrap the scan.
  }
  if (run.first == kNoExtent) {
    Status grown = Grow();
    if (!grown.ok()) {
      // Space pressure: release everything pending and retry before
      // failing, as the engine forces ghost cleanup when full.
      LOR_RETURN_IF_ERROR(ReleaseAllPending());
    }
    run = gam_.AllocateRun(count, 0);
    if (run.first == kNoExtent) return Status::NoSpace("no free extent");
  }
  scan_cursor_ = run.first + run.second;
  stats_.extents_allocated += run.second;
  alloc_counter_ += run.second;
  return run;
}

Status PageFile::FreeExtents(uint64_t first, uint64_t count) {
  if (first + count > file_extents_) {
    return Status::InvalidArgument("free beyond end of file");
  }
  // The extents leave their owner whether the release is immediate or
  // deferred — cached frames must die now, so a dirty frame can never
  // flush over the next owner's pages.
  InvalidatePages(ExtentFirstPage(first), count * options_.pages_per_extent);
  stats_.extents_freed += count;
  if (options_.deferred_free_allocations == 0) {
    return gam_.Release(first, count);
  }
  pending_.push_back(
      {alloc_counter_ + options_.deferred_free_allocations, first, count});
  pending_extents_ += count;
  return Status::OK();
}

Status PageFile::ReadPages(uint64_t first_page, uint64_t count,
                           std::vector<uint8_t>* out) {
  if (count == 0) return Status::OK();
  const uint64_t end_extent =
      (first_page + count - 1) / options_.pages_per_extent;
  if (end_extent >= file_extents_) {
    return Status::InvalidArgument("page read beyond end of file");
  }
  const uint64_t offset = PageOffset(first_page);
  const uint64_t length = count * options_.page_bytes;
  if (sim::BufferPool* pool = ActivePool()) {
    if (out != nullptr) out->resize(length);
    cache_slices_.assign(
        1, {offset, length, nullptr, out != nullptr ? out->data() : nullptr,
            offset, length});
    return pool->ReadThrough(cache_slices_);
  }
  return device_->Read(offset, length, out);
}

Status PageFile::WritePages(uint64_t first_page, uint64_t count,
                            std::span<const uint8_t> data) {
  if (count == 0) return Status::OK();
  const uint64_t end_extent =
      (first_page + count - 1) / options_.pages_per_extent;
  if (end_extent >= file_extents_) {
    return Status::InvalidArgument("page write beyond end of file");
  }
  const uint64_t offset = PageOffset(first_page);
  const uint64_t length = count * options_.page_bytes;
  if (sim::BufferPool* pool = ActivePool()) {
    cache_slices_.assign(
        1, {offset, length, data.empty() ? nullptr : data.data(), nullptr,
            offset, length});
    return pool->WriteThrough(cache_slices_);
  }
  return device_->Write(offset, length, data);
}

Status PageFile::CollectSlices(std::span<const PageRun> runs, bool write) {
  io_slices_.clear();
  for (const PageRun& run : runs) {
    if (run.count == 0) continue;
    const uint64_t end_extent =
        (run.first_page + run.count - 1) / options_.pages_per_extent;
    if (end_extent >= file_extents_) {
      return Status::InvalidArgument(write
                                         ? "page write beyond end of file"
                                         : "page read beyond end of file");
    }
    sim::IoSlice slice;
    slice.offset = PageOffset(run.first_page);
    slice.length = run.count * options_.page_bytes;
    slice.src = run.src;
    slice.dst = run.dst;
    io_slices_.push_back(slice);
  }
  return Status::OK();
}

Status PageFile::ReadPagesV(std::span<const PageRun> runs) {
  LOR_RETURN_IF_ERROR(CollectSlices(runs, /*write=*/false));
  if (io_slices_.empty()) return Status::OK();
  if (sim::BufferPool* pool = ActivePool()) {
    // Each run fills as one frame: the caller's batch plan (extent runs,
    // capped read-ahead) is exactly the granularity the pool caches at.
    cache_slices_.clear();
    for (const sim::IoSlice& s : io_slices_) {
      cache_slices_.push_back(
          {s.offset, s.length, nullptr, s.dst, s.offset, s.length});
    }
    return pool->ReadThrough(cache_slices_);
  }
  return device_->ReadV(io_slices_);
}

Status PageFile::WritePagesV(std::span<const PageRun> runs) {
  LOR_RETURN_IF_ERROR(CollectSlices(runs, /*write=*/true));
  if (io_slices_.empty()) return Status::OK();
  if (sim::BufferPool* pool = ActivePool()) {
    cache_slices_.clear();
    for (const sim::IoSlice& s : io_slices_) {
      cache_slices_.push_back(
          {s.offset, s.length, s.src, nullptr, s.offset, s.length});
    }
    return pool->WriteThrough(cache_slices_);
  }
  return device_->WriteV(io_slices_);
}

}  // namespace db
}  // namespace lor
