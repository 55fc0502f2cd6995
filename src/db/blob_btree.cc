#include "db/blob_btree.h"

#include <algorithm>
#include <cstring>

#include "sim/buffer_pool.h"

namespace lor {
namespace db {

namespace {

/// Maximum bytes fetched by one read-ahead device request.
constexpr uint64_t kReadAheadBytes = 512 * kKiB;

/// Serializes a uint64 little-endian.
void PutU64(uint8_t* dst, uint64_t v) {
  for (int i = 0; i < 8; ++i) dst[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint64_t GetU64(const uint8_t* src) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(src[i]) << (8 * i);
  return v;
}

/// Enumerates all data page ids of a layout in logical order.
std::vector<uint64_t> EnumeratePages(const alloc::ExtentList& runs) {
  std::vector<uint64_t> pages;
  pages.reserve(TotalLength(runs));
  for (const alloc::Extent& run : runs) {
    for (uint64_t p = run.start; p < run.end(); ++p) pages.push_back(p);
  }
  return pages;
}

}  // namespace

uint64_t BlobBtree::DataPagesFor(const PageFile& file, uint64_t nbytes) {
  const uint64_t payload = PayloadPerPage(file);
  return (nbytes + payload - 1) / payload;
}

Result<BlobLayout> BlobBtree::Write(PageFile* file, LobAllocationUnit* unit,
                                    uint64_t nbytes,
                                    std::span<const uint8_t> data,
                                    uint64_t write_request_bytes,
                                    const sim::OpCostModel& costs) {
  if (nbytes == 0) return Status::InvalidArgument("empty blob");
  if (!data.empty() && data.size() != nbytes) {
    return Status::InvalidArgument("data size does not match blob size");
  }
  if (write_request_bytes == 0) {
    return Status::InvalidArgument("zero write request size");
  }

  const uint64_t payload = PayloadPerPage(*file);
  const uint64_t page_bytes = file->page_bytes();
  const uint64_t total_pages = DataPagesFor(*file, nbytes);
  const bool retain =
      file->device()->data_mode() == sim::DataMode::kRetain && !data.empty();

  BlobLayout layout;
  layout.data_bytes = nbytes;

  auto free_partial = [&]() {
    for (const alloc::Extent& run : layout.data_runs) {
      Status s = unit->FreePages(run);
      (void)s;
    }
    for (uint64_t p : layout.pointer_pages) {
      Status s = unit->FreePage(p);
      (void)s;
    }
  };

  file->device()->BeginStreamWindow();

  // Stream the blob in client write-request slices. Pages come from
  // the unit all at once when it certainly holds the blob, else as each
  // slice arrives; either way into layout.data_runs, in slice order.
  const bool ahead = unit->pages_without_growth() >= total_pages;
  if (ahead) {
    // Certain to succeed; AllocatePages rolls back any failure itself.
    LOR_RETURN_IF_ERROR(unit->AllocatePages(total_pages, &layout.data_runs));
  }
  uint64_t pages_done = 0;
  uint64_t bytes_done = 0;
  size_t run_index = 0;      // Position of page pages_done in
  uint64_t page_in_run = 0;  // layout.data_runs.
  std::vector<alloc::Extent> slice_runs;  // Per-slice allocation scratch.
  // Vectored batch plan, borrowed from the PageFile's reusable scratch
  // (no allocation per call; PageFile calls never read it).
  std::vector<PageFile::PageRun>& page_runs = file->plan_scratch();

  while (bytes_done < nbytes) {
    const uint64_t slice = std::min(write_request_bytes, nbytes - bytes_done);
    const uint64_t end_pages =
        std::min(total_pages, (bytes_done + slice + payload - 1) / payload);

    if (!ahead) {
      slice_runs.clear();
      Status allocated = unit->AllocatePages(end_pages - pages_done,
                                             &slice_runs);
      if (!allocated.ok()) {
        // AllocatePages rolled its own pages back; release prior slices.
        free_partial();
        return allocated;
      }
      for (const alloc::Extent& run : slice_runs) {
        alloc::AppendCoalescing(&layout.data_runs, run);
      }
    }

    // Write the slice's pages: one vectored submission carrying one
    // run per contiguous page run. Content (in retain mode) is fixed
    // up after the loop, once the full logical-to-physical mapping is
    // known.
    page_runs.clear();
    for (uint64_t left = end_pages - pages_done; left > 0;) {
      // Step over a used-up run only now: the next slice's pages may
      // still coalesce into the last one.
      if (page_in_run == layout.data_runs[run_index].length) {
        ++run_index;
        page_in_run = 0;
      }
      const alloc::Extent& run = layout.data_runs[run_index];
      const uint64_t take = std::min(left, run.length - page_in_run);
      page_runs.push_back({run.start + page_in_run, take, nullptr, nullptr});
      left -= take;
      page_in_run += take;
    }
    Status s = file->WritePagesV(page_runs);
    if (!s.ok()) {
      free_partial();
      return s;
    }
    pages_done = end_pages;
    bytes_done += slice;
  }

  // When retaining data (integrity tests on small volumes), rewrite the
  // page payloads with the real bytes now that the full mapping is
  // known. This charges extra device time; retain mode is a
  // correctness harness, not a timing one. One vectored submission
  // carries the per-page rewrite charges; the payload itself moves
  // straight from the caller's buffer into the arena via WriteView —
  // no per-page image staging.
  if (retain) {
    sim::BufferPool* pool = file->device()->buffer_pool();
    const bool pooled = pool != nullptr && pool->enabled();
    const std::vector<uint64_t> pages = EnumeratePages(layout.data_runs);
    // Timing-only per-page writes (zeros stored, headers included)...
    Status s;
    if (pooled) {
      // The streamed submissions above installed frames for these
      // pages, so the rewrite must run against the pool too — a raw
      // device write here would be clobbered by a later dirty flush.
      std::vector<sim::CacheSlice> rewrite;
      rewrite.reserve(pages.size());
      for (uint64_t page : pages) {
        const uint64_t off = file->PageOffset(page);
        rewrite.push_back({off, page_bytes, nullptr, nullptr, off,
                           page_bytes});
      }
      s = pool->WriteThrough(rewrite);
    } else {
      std::vector<sim::IoSlice> rewrite;
      rewrite.reserve(pages.size());
      for (uint64_t page : pages) {
        rewrite.push_back({file->PageOffset(page), page_bytes, nullptr,
                           nullptr});
      }
      s = file->device()->WriteV(rewrite);
    }
    if (!s.ok()) {
      free_partial();
      return s;
    }
    // ...then the payload lands zero-copy behind the page headers —
    // into the resident frames when cached, straight into the arena
    // otherwise.
    for (uint64_t i = 0; i < pages.size(); ++i) {
      const uint64_t off = i * payload;
      const uint64_t chunk = std::min(payload, nbytes - off);
      const uint8_t* src = data.data() + off;
      auto fill = [&src](std::span<uint8_t> dst) {
        std::memcpy(dst.data(), src, dst.size());
        src += dst.size();
      };
      const uint64_t dst_off = file->PageOffset(pages[i]) + kPageHeaderBytes;
      if (pooled) {
        pool->WriteViewThrough(dst_off, chunk, fill);
      } else {
        file->device()->WriteView(dst_off, chunk, fill);
      }
    }
  }

  file->device()->EndStreamWindow(nbytes, costs.db_write_stream_bandwidth);
  file->device()->ChargeCpu(costs.db_per_page_cpu_s *
                            static_cast<double>(total_pages));

  // Build the pointer-page levels bottom-up, allocating tree pages from
  // the same unit (SQL Server's LOB tree pages live in the same
  // allocation unit as the data). Metadata-only devices never read the
  // serialized children back, so that path skips the page enumeration
  // entirely — only the level sizes matter — and submits each level's
  // node writes as one vectored batch of single-page runs (the same
  // request sequence the write-per-node loop issued).
  const uint64_t fanout = Fanout(*file);
  const bool serialize =
      file->device()->data_mode() == sim::DataMode::kRetain;
  std::vector<uint64_t> level;
  if (serialize) level = EnumeratePages(layout.data_runs);
  uint64_t level_size = total_pages;
  std::vector<uint64_t> node_pages;
  while (level_size > 1) {
    const uint64_t nodes = (level_size + fanout - 1) / fanout;
    node_pages.clear();
    node_pages.reserve(nodes);
    for (uint64_t n = 0; n < nodes; ++n) {
      auto page = unit->AllocatePage();
      if (!page.ok()) {
        for (uint64_t p : node_pages) {
          Status s = unit->FreePage(p);
          (void)s;
        }
        free_partial();
        return page.status();
      }
      node_pages.push_back(*page);
    }
    if (serialize) {
      // Serialize and write each pointer page.
      for (uint64_t n = 0; n < nodes; ++n) {
        const uint64_t begin = n * fanout;
        const uint64_t end = std::min<uint64_t>(begin + fanout, level.size());
        std::vector<uint8_t> image(page_bytes, 0);
        PutU64(image.data(), end - begin);  // Child count in the header.
        for (uint64_t c = begin; c < end; ++c) {
          PutU64(image.data() + kPageHeaderBytes + (c - begin) * 8, level[c]);
        }
        Status s = file->WritePages(node_pages[n], 1, image);
        if (!s.ok()) {
          for (uint64_t i = n; i < nodes; ++i) {
            Status undo = unit->FreePage(node_pages[i]);
            (void)undo;
          }
          free_partial();
          return s;
        }
        layout.pointer_pages.push_back(node_pages[n]);
      }
      level.assign(node_pages.begin(), node_pages.begin() + nodes);
    } else {
      page_runs.clear();
      for (uint64_t n = 0; n < nodes; ++n) {
        page_runs.push_back({node_pages[n], 1, nullptr, nullptr});
      }
      Status s = file->WritePagesV(page_runs);
      if (!s.ok()) {
        for (uint64_t p : node_pages) {
          Status undo = unit->FreePage(p);
          (void)undo;
        }
        free_partial();
        return s;
      }
      layout.pointer_pages.insert(layout.pointer_pages.end(),
                                  node_pages.begin(), node_pages.end());
    }
    level_size = nodes;
  }

  return layout;
}

Status BlobBtree::Read(PageFile* file, const BlobLayout& layout,
                       const sim::OpCostModel& costs,
                       std::vector<uint8_t>* out) {
  return ReadAt(file, layout, costs, 0, layout.data_bytes, out, nullptr);
}

Status BlobBtree::ReadAt(PageFile* file, const BlobLayout& layout,
                         const sim::OpCostModel& costs, uint64_t offset,
                         uint64_t length, std::vector<uint8_t>* out,
                         ReadCursor* cursor) {
  if (length > layout.data_bytes || offset > layout.data_bytes - length) {
    return Status::InvalidArgument("read beyond end of blob");
  }
  const uint64_t page_bytes = file->page_bytes();
  const uint64_t payload = PayloadPerPage(*file);
  const uint64_t total_pages = layout.data_page_count();
  const uint64_t first_page = std::min(total_pages, offset / payload);
  const uint64_t end_page =
      length == 0 ? first_page
                  : std::min(total_pages,
                             (offset + length + payload - 1) / payload);

  // Position on first_page: a cursor sitting on it resumes the
  // previous read (no descent, no run scan). A read that stopped
  // *inside* a page leaves the cursor one past the partially-consumed
  // page (next_page is the ceil), so a sequential resume may start on
  // next_page - 1 — step back one page rather than re-descending.
  // Otherwise walk the runs from the front and charge the pointer-page
  // descent.
  size_t run_index = 0;
  uint64_t page_in_run = 0;
  bool positioned = false;
  if (cursor != nullptr && cursor->valid) {
    if (cursor->next_page == first_page) {
      run_index = cursor->run_index;
      page_in_run = cursor->page_in_run;
      positioned = true;
    } else if (cursor->next_page == first_page + 1) {
      run_index = cursor->run_index;
      page_in_run = cursor->page_in_run;
      if (page_in_run > 0) {
        --page_in_run;
        positioned = true;
      } else if (run_index > 0) {
        --run_index;
        page_in_run = layout.data_runs[run_index].length - 1;
        positioned = true;
      }
    }
  }
  if (!positioned) {
    uint64_t seen = 0;
    while (run_index < layout.data_runs.size() &&
           seen + layout.data_runs[run_index].length <= first_page) {
      seen += layout.data_runs[run_index].length;
      ++run_index;
    }
    page_in_run = first_page - seen;
  }
  // Pointer pages are buffer-pool hits (CPU only), data pages charge
  // CPU per page on top of the device reads below.
  file->device()->ChargeCpu(
      costs.db_per_page_cpu_s *
      static_cast<double>(
          (positioned ? 0 : layout.pointer_pages.size()) +
          (end_page - first_page)));

  if (out != nullptr) {
    out->clear();
    out->reserve(length);
  }

  // Plan the read-ahead: contiguous page runs split into capped
  // sequential requests, all submitted as one vectored batch (each
  // request still charged individually — continuations are sequential
  // hits, exactly as the historical request-per-batch loop). The plan
  // vector is reused across calls on this thread — no allocation on
  // the measured read path.
  std::vector<PageFile::PageRun>& batches = file->plan_scratch();
  batches.clear();
  uint64_t page = first_page;
  while (page < end_page) {
    const alloc::Extent& run = layout.data_runs[run_index];
    const uint64_t batch = std::min(
        {run.length - page_in_run, end_page - page,
         std::max<uint64_t>(1, kReadAheadBytes / page_bytes)});
    batches.push_back({run.start + page_in_run, batch, nullptr, nullptr});
    page += batch;
    page_in_run += batch;
    if (page_in_run == run.length) {
      ++run_index;
      page_in_run = 0;
    }
  }

  sim::BufferPool* pool = file->device()->buffer_pool();
  const bool pooled = pool != nullptr && pool->enabled();
  // Media admission for the unpooled payload path: the charged batch
  // read below carries no destination (payload moves via views), so
  // the device's implicit read-side fault check never sees it. With a
  // pool active the miss fills carry frame memory and are admitted
  // there — and resident frames legitimately serve their cached bytes
  // without touching media.
  if (out != nullptr && !pooled) {
    for (const PageFile::PageRun& b : batches) {
      LOR_RETURN_IF_ERROR(file->device()->CheckMediaRead(
          file->PageOffset(b.first_page), b.count * page_bytes));
    }
  }

  file->device()->BeginStreamWindow();
  LOR_RETURN_IF_ERROR(file->ReadPagesV(batches));
  if (out != nullptr) {
    // Payload moves straight from the arena into `out` via ReadView —
    // no page-image staging buffer. Unwritten pages (and metadata-only
    // devices) view as zeros, preserving the historical bytes. With a
    // buffer pool active the view goes through the pool instead, so
    // dirty write-back frames are served their cached bytes.
    const auto sink = [out](std::span<const uint8_t> src) {
      out->insert(out->end(), src.begin(), src.end());
    };
    uint64_t logical = first_page;
    for (const PageFile::PageRun& b : batches) {
      for (uint64_t i = 0; i < b.count; ++i) {
        const uint64_t pstart = (logical + i) * payload;
        const uint64_t pend = std::min(pstart + payload, layout.data_bytes);
        const uint64_t lo = std::max(pstart, offset);
        const uint64_t hi = std::min(pend, offset + length);
        if (hi <= lo) continue;
        const uint64_t src_off = file->PageOffset(b.first_page + i) +
                                 kPageHeaderBytes + (lo - pstart);
        if (pooled) {
          pool->View(src_off, hi - lo, sink);
        } else {
          file->device()->ReadView(src_off, hi - lo, sink);
        }
      }
      logical += b.count;
    }
  }
  file->device()->EndStreamWindow(length, costs.db_read_stream_bandwidth);
  if (cursor != nullptr) {
    cursor->valid = true;
    cursor->next_page = end_page;
    cursor->run_index = run_index;
    cursor->page_in_run = page_in_run;
  }
  return Status::OK();
}

Status BlobBtree::Free(LobAllocationUnit* unit, const BlobLayout& layout) {
  for (const alloc::Extent& run : layout.data_runs) {
    LOR_RETURN_IF_ERROR(unit->FreePages(run));
  }
  for (uint64_t p : layout.pointer_pages) {
    LOR_RETURN_IF_ERROR(unit->FreePage(p));
  }
  return Status::OK();
}

Status BlobBtree::VerifyTree(PageFile* file, const BlobLayout& layout) {
  if (file->device()->data_mode() != sim::DataMode::kRetain) {
    return Status::NotSupported("tree verification needs a data-retaining device");
  }
  const std::vector<uint64_t> data_pages = EnumeratePages(layout.data_runs);
  if (layout.pointer_pages.empty()) {
    if (data_pages.size() > 1) {
      return Status::Corruption("multi-page blob without pointer pages");
    }
    return Status::OK();
  }
  // Walk levels top-down starting from the root and expand to leaves.
  std::vector<uint64_t> frontier = {layout.root_page()};
  const uint64_t fanout = Fanout(*file);
  (void)fanout;
  // Expand until the frontier no longer consists of pointer pages.
  auto is_pointer = [&](uint64_t page) {
    return std::find(layout.pointer_pages.begin(), layout.pointer_pages.end(),
                     page) != layout.pointer_pages.end();
  };
  while (!frontier.empty() && is_pointer(frontier.front())) {
    std::vector<uint64_t> next;
    for (uint64_t page : frontier) {
      std::vector<uint8_t> image;
      // Through the page file, not the raw device: a pooled node write
      // may still be parked in a dirty frame.
      LOR_RETURN_IF_ERROR(file->ReadPages(page, 1, &image));
      const uint64_t children = GetU64(image.data());
      for (uint64_t c = 0; c < children; ++c) {
        next.push_back(GetU64(image.data() + kPageHeaderBytes + c * 8));
      }
    }
    frontier.swap(next);
  }
  if (frontier != data_pages) {
    return Status::Corruption("pointer tree does not enumerate data pages");
  }
  return Status::OK();
}

}  // namespace db
}  // namespace lor
