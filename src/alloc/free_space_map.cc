#include "alloc/free_space_map.h"

#include <algorithm>

namespace lor {
namespace alloc {

std::string_view FitPolicyName(FitPolicy policy) {
  switch (policy) {
    case FitPolicy::kFirstFit:
      return "first-fit";
    case FitPolicy::kBestFit:
      return "best-fit";
    case FitPolicy::kWorstFit:
      return "worst-fit";
    case FitPolicy::kNextFit:
      return "next-fit";
  }
  return "unknown";
}

FreeSpaceMap::FreeSpaceMap(uint64_t clusters) {
  if (clusters > 0) InsertRun(runs_.end(), {0, clusters});
}

FreeSpaceMap::Pos FreeSpaceMap::Containing(uint64_t cluster) const {
  if (runs_.valid(last_run_)) {
    const Extent& run = runs_[last_run_];
    if (run.start <= cluster && cluster < run.end()) return last_run_;
  }
  const Pos after = runs_.UpperBound({cluster, 0});
  if (after == runs_.begin()) return runs_.end();
  const Pos at = runs_.Prev(after);
  return cluster < runs_[at].end() ? at : runs_.end();
}

bool FreeSpaceMap::InTop(const Extent& run) const {
  return top_count_ > 0 && !BySize{}(run, top_[top_count_ - 1]);
}

void FreeSpaceMap::TopInsert(const Extent& run) const {
  uint32_t i = top_count_++;
  for (; i > 0 && BySize{}(top_[i - 1], run); --i) top_[i] = top_[i - 1];
  top_[i] = run;
}

void FreeSpaceMap::TopErase(const Extent& run) const {
  uint32_t i = 0;
  while (!(top_[i] == run)) ++i;
  for (--top_count_; i < top_count_; ++i) top_[i] = top_[i + 1];
}

void FreeSpaceMap::PromoteRest() const {
  if (by_size_.empty()) return;
  // The largest of the rest sorts below every top run.
  top_[top_count_++] = by_size_.back();
  by_size_.Erase(by_size_.Prev(by_size_.end()));
}

FreeSpaceMap::SizeIndex::Pos FreeSpaceMap::FindRest(const Extent& run) const {
  if (by_size_.valid(last_size_) && by_size_[last_size_] == run) {
    return last_size_;
  }
  return by_size_.LowerBound(run);
}

void FreeSpaceMap::SizeInsert(const Extent& run) const {
  if (top_count_ < kTopRuns) {
    TopInsert(run);  // The rest is empty until the top is full.
    return;
  }
  if (BySize{}(top_[kTopRuns - 1], run)) {
    // `run` joins the top; the smallest top run heads the rest.
    by_size_.Insert(by_size_.end(), top_[--top_count_]);
    TopInsert(run);
    return;
  }
  last_size_ = by_size_.Insert(by_size_.LowerBound(run), run);
}

void FreeSpaceMap::SizeErase(const Extent& run) const {
  if (InTop(run)) {
    TopErase(run);
    PromoteRest();
  } else {
    by_size_.Erase(FindRest(run));
  }
}

void FreeSpaceMap::SizeRekey(const Extent& old, const Extent& run) const {
  if (InTop(old)) {
    TopErase(old);
    if (!by_size_.empty() && BySize{}(run, by_size_.back())) {
      PromoteRest();
      last_size_ = by_size_.Insert(by_size_.LowerBound(run), run);
    } else {
      TopInsert(run);
    }
    return;
  }
  const SizeIndex::Pos at = FindRest(old);
  if (BySize{}(top_[kTopRuns - 1], run)) {  // Grew past the top's tail.
    by_size_.Erase(at);
    SizeInsert(run);
    return;
  }
  last_size_ = by_size_.Rekey(at, run);
}

void FreeSpaceMap::SettleSizeKey() const {
  if (stale_key_.empty()) return;
  const Extent key = stale_key_;
  stale_key_ = {};
  SizeRekey(key, stale_run_);
}

Extent FreeSpaceMap::ClaimSizeKey(const Extent& run) {
  if (!stale_key_.empty() && stale_run_ == run) {
    const Extent key = stale_key_;
    stale_key_ = {};
    return key;
  }
  SettleSizeKey();
  return run;
}

void FreeSpaceMap::InsertRun(Pos at, const Extent& run) {
  runs_.Insert(at, run);
  SettleSizeKey();
  SizeInsert(run);
  free_clusters_ += run.length;
}

void FreeSpaceMap::EraseRun(Pos at) {
  const Extent run = runs_[at];
  runs_.Erase(at);
  SizeErase(ClaimSizeKey(run));
  free_clusters_ -= run.length;
}

void FreeSpaceMap::ResizeRun(Pos at, const Extent& run) {
  const Extent old = runs_[at];
  runs_.Assign(at, run);
  free_clusters_ = free_clusters_ - old.length + run.length;
  SizeRekey(ClaimSizeKey(old), run);
}

Status FreeSpaceMap::Free(const Extent& extent) {
  if (extent.empty()) return Status::OK();
  // The first run at or after the freed range and its predecessor.
  const Pos next = runs_.LowerBound({extent.start, 0});
  const bool has_next = next != runs_.end();
  if (has_next && runs_[next].start < extent.end()) {
    return Status::InvalidArgument("double free: overlaps following run");
  }
  const bool has_prev = next != runs_.begin();
  const Pos prev = has_prev ? runs_.Prev(next) : next;
  if (has_prev && runs_[prev].end() > extent.start) {
    return Status::InvalidArgument("double free: overlaps preceding run");
  }
  const bool join_prev = has_prev && runs_[prev].end() == extent.start;
  const bool join_next = has_next && runs_[next].start == extent.end();
  if (join_prev) {
    const uint64_t after = join_next ? runs_[next].length : 0;
    // Grow the predecessor first: its position survives the resize,
    // while erasing the successor may move blocks.
    ResizeRun(prev, {runs_[prev].start,
                     runs_[prev].length + extent.length + after});
    if (join_next) EraseRun(next);
  } else if (join_next) {
    ResizeRun(next, {extent.start, extent.length + runs_[next].length});
  } else {
    InsertRun(next, extent);
  }
  return Status::OK();
}

Status FreeSpaceMap::FreeAll(std::span<const Extent> extents) {
  batch_.assign(extents.begin(), extents.end());
  std::sort(batch_.begin(), batch_.end(),
            [](const Extent& a, const Extent& b) { return a.start < b.start; });
  Status result = Status::OK();
  auto note = [&result](Status s) {
    if (result.ok() && !s.ok()) result = std::move(s);
  };
  Extent joined{};
  for (const Extent& e : batch_) {
    if (e.empty()) continue;
    if (!joined.empty() && e.start < joined.end()) {
      note(Status::InvalidArgument("double free: overlaps another free"));
    } else if (!joined.empty() && e.start == joined.end()) {
      joined.length += e.length;
    } else {
      if (!joined.empty()) note(Free(joined));
      joined = e;
    }
  }
  if (!joined.empty()) note(Free(joined));
  return result;
}

FreeSpaceMap::Pos FreeSpaceMap::LargestRun() const {
  SettleSizeKey();
  if (top_count_ == 0) return runs_.end();
  return runs_.LowerBound(top_[0]);
}

FreeSpaceMap::Pos FreeSpaceMap::FindFrom(uint64_t length,
                                         uint64_t cursor) const {
  Pos at = runs_.LowerBound({cursor, 0});
  for (uint32_t b = at.block; b < runs_.block_count(); ++b) {
    if (runs_.BlockMax(b) < length) continue;
    const std::span<const Extent> block = runs_.block(b);
    for (uint32_t i = b == at.block ? at.index : 0; i < block.size(); ++i) {
      if (block[i].length >= length) return {b, i};
    }
  }
  return runs_.end();
}

FreeSpaceMap::Pos FreeSpaceMap::SelectRun(uint64_t length,
                                          FitPolicy policy) const {
  switch (policy) {
    case FitPolicy::kFirstFit:
      return FindFrom(length, 0);
    case FitPolicy::kBestFit: {
      SettleSizeKey();
      // Every top run is larger than the rest, so a fitting rest run
      // wins; otherwise the smallest fitting top run does.
      const SizeIndex::Pos sized = by_size_.LowerBound({0, length});
      if (sized != by_size_.end()) return runs_.LowerBound(by_size_[sized]);
      for (uint32_t i = top_count_; i-- > 0;) {
        if (top_[i].length >= length) return runs_.LowerBound(top_[i]);
      }
      return runs_.end();
    }
    case FitPolicy::kWorstFit: {
      const Pos at = LargestRun();
      if (at == runs_.end() || runs_[at].length < length) return runs_.end();
      return at;
    }
    case FitPolicy::kNextFit: {
      // First fit at or after the cursor; runs before it only qualify
      // on the wrapped pass (which no run >= cursor can win, so a plain
      // lowest-address query is equivalent).
      const Pos at = FindFrom(length, next_fit_cursor_);
      return at != runs_.end() ? at : FindFrom(length, 0);
    }
  }
  return runs_.end();
}

Extent FreeSpaceMap::TakeFromRun(Pos at, uint64_t take) {
  const Extent run = runs_[at];
  if (take >= run.length) {
    EraseRun(at);
  } else {
    // [start, end) becomes [start+take, end): the address entry keeps
    // its rank and is rewritten in place. The size key is left stale
    // (see SettleSizeKey), so a run of takes re-keys the run once.
    const Extent rest{run.start + take, run.length - take};
    runs_.Assign(at, rest);
    free_clusters_ -= take;
    stale_key_ = ClaimSizeKey(run);
    stale_run_ = rest;
    last_run_ = at;
  }
  next_fit_cursor_ = run.start + take;
  return Extent{run.start, take};
}

Result<Extent> FreeSpaceMap::AllocateContiguous(uint64_t length,
                                                FitPolicy policy) {
  if (length == 0) return Status::InvalidArgument("zero-length allocation");
  const Pos at = SelectRun(length, policy);
  if (at == runs_.end()) {
    return Status::NoSpace("no contiguous run of requested length");
  }
  return TakeFromRun(at, length);
}

Extent FreeSpaceMap::AllocateUpTo(uint64_t max_length, FitPolicy policy) {
  if (max_length == 0 || runs_.empty()) return Extent{};
  Pos at = SelectRun(max_length, policy);
  if (at == runs_.end()) {
    // No run fits the whole request; fall back to the largest run so the
    // caller makes forward progress (this is where fragmentation happens).
    at = LargestRun();
  }
  return TakeFromRun(at, std::min(max_length, runs_[at].length));
}

Extent FreeSpaceMap::AllocateFrom(uint64_t cursor, uint64_t max_length) {
  if (max_length == 0 || runs_.empty()) return Extent{};
  Pos at = runs_.LowerBound({cursor, 0});
  if (at == runs_.end()) at = runs_.begin();
  return TakeFromRun(at, std::min(max_length, runs_[at].length));
}

Status FreeSpaceMap::AllocateAt(const Extent& extent) {
  if (extent.empty()) return Status::InvalidArgument("empty extent");
  const Pos at = Containing(extent.start);
  if (at == runs_.end() || runs_[at].end() < extent.end()) {
    return Status::NoSpace("requested range not free");
  }
  const Extent run = runs_[at];
  if (run.start == extent.start) {
    // Head take (the run-cache allocator's common case), which
    // AllocateAt must not let move the next-fit cursor.
    const uint64_t cursor = next_fit_cursor_;
    TakeFromRun(at, extent.length);
    next_fit_cursor_ = cursor;
    return Status::OK();
  }
  // Keep the head, claim the middle, re-add the tail.
  ResizeRun(at, {run.start, extent.start - run.start});
  const uint64_t tail = run.end() - extent.end();
  if (tail > 0) InsertRun(runs_.Next(at), {extent.end(), tail});
  return Status::OK();
}

uint64_t FreeSpaceMap::ExtendAt(uint64_t start, uint64_t max_length) {
  if (max_length == 0) return 0;
  const Pos at = Containing(start);
  if (at == runs_.end()) return 0;
  const Extent run = runs_[at];
  if (run.start == start) {
    const uint64_t take = std::min(max_length, run.length);
    TakeFromRun(at, take);
    return take;
  }
  // `start` is inside the run but not at its head: the head stays free
  // and the clusters after the claim become a run of their own.
  const uint64_t rest = run.end() - start;
  const uint64_t take = std::min(max_length, rest);
  ResizeRun(at, {run.start, start - run.start});
  if (take < rest) InsertRun(runs_.Next(at), {start + take, rest - take});
  next_fit_cursor_ = start + take;
  return take;
}

uint64_t FreeSpaceMap::FreeRunFrom(uint64_t start) const {
  const Pos at = Containing(start);
  return at == runs_.end() ? 0 : runs_[at].end() - start;
}

bool FreeSpaceMap::IsFree(const Extent& extent) const {
  if (extent.empty()) return false;
  const Pos at = Containing(extent.start);
  return at != runs_.end() && runs_[at].end() >= extent.end();
}

uint64_t FreeSpaceMap::largest_run() const {
  SettleSizeKey();
  return top_count_ == 0 ? 0 : top_[0].length;
}

FreeSpaceStats FreeSpaceMap::Stats() const {
  FreeSpaceStats s;
  s.free_clusters = free_clusters_;
  s.run_count = runs_.size();
  s.largest_run = largest_run();
  s.mean_run = runs_.empty() ? 0.0
                             : static_cast<double>(free_clusters_) /
                                   static_cast<double>(runs_.size());
  s.external_fragmentation =
      free_clusters_ == 0
          ? 0.0
          : 1.0 - static_cast<double>(s.largest_run) /
                      static_cast<double>(free_clusters_);
  return s;
}

std::vector<Extent> FreeSpaceMap::Snapshot() const {
  std::vector<Extent> out;
  out.reserve(runs_.size());
  runs_.ForEach([&out](const Extent& run) {
    out.push_back(run);
    return true;
  });
  return out;
}

std::vector<Extent> FreeSpaceMap::LargestRuns(uint32_t k) const {
  std::vector<Extent> out;
  out.reserve(std::min<size_t>(k, runs_.size()));
  ForEachLargestRun(k, [&out](const Extent& run) {
    out.push_back(run);
    return true;
  });
  // The walk gives (size desc, start desc); fix ties to (size desc,
  // start asc).
  std::stable_sort(out.begin(), out.end(),
                   [](const Extent& a, const Extent& b) {
                     if (a.length != b.length) return a.length > b.length;
                     return a.start < b.start;
                   });
  return out;
}

Status FreeSpaceMap::CheckConsistency() const {
  SettleSizeKey();
  if (!runs_.CheckInvariants() || !by_size_.CheckInvariants()) {
    return Status::Corruption("index block structure broken");
  }
  if (runs_.size() != top_count_ + by_size_.size() ||
      top_count_ != std::min<uint64_t>(kTopRuns, runs_.size())) {
    return Status::Corruption("index sizes disagree");
  }
  for (uint32_t i = 1; i < top_count_; ++i) {
    if (!BySize{}(top_[i], top_[i - 1])) {
      return Status::Corruption("top runs out of order");
    }
  }
  if (!by_size_.empty() && !BySize{}(by_size_.back(), top_[top_count_ - 1])) {
    return Status::Corruption("a run outside the top outranks it");
  }
  Status status = Status::OK();
  uint64_t total = 0;
  uint64_t prev_end = 0;
  bool first = true;
  runs_.ForEach([&](const Extent& run) {
    if (run.length == 0) {
      status = Status::Corruption("zero-length run");
    } else if (!first && run.start <= prev_end) {
      status = Status::Corruption(run.start == prev_end
                                      ? "uncoalesced adjacent runs"
                                      : "overlapping runs");
    } else {
      const SizeIndex::Pos sized = by_size_.LowerBound(run);
      const bool in_rest = sized != by_size_.end() && by_size_[sized] == run;
      if (!in_rest &&
          std::find(top_.begin(), top_.begin() + top_count_, run) ==
              top_.begin() + top_count_) {
        status = Status::Corruption("run missing from size index");
      }
    }
    total += run.length;
    prev_end = run.end();
    first = false;
    return status.ok();
  });
  if (!status.ok()) return status;
  if (total != free_clusters_) {
    return Status::Corruption("free cluster count disagrees with runs");
  }
  return Status::OK();
}

}  // namespace alloc
}  // namespace lor
