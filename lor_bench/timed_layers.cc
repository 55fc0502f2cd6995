#include "timed_layers.h"

#include <algorithm>
#include <chrono>

#include "alloc/run_cache_allocator.h"

namespace lor {
namespace bench {

namespace {

/// Nanoseconds on the steady clock since the first call in the process
/// (one epoch for every shard, so spans share a timeline).
int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

bool Failed(const Status& s) { return !s.ok(); }
template <typename T>
bool Failed(const Result<T>& r) {
  return !r.ok();
}
bool Failed(bool) { return false; }

}  // namespace

// -- ShardTracer --------------------------------------------------------

int32_t ShardTracer::Keep(const char* name, int64_t start_ns, int32_t parent) {
  if (spans_budget_ == nullptr || !spans_budget_->Take()) return -1;
  spans_.push_back({name, start_ns, 0, parent});
  return static_cast<int32_t>(spans_.size() - 1);
}

void ShardTracer::Finish(const Mark& mark, Layer layer, int64_t end_ns) {
  const int64_t dur = end_ns - mark.start_ns;
  hists_[static_cast<size_t>(layer)].Add(static_cast<double>(dur) * 1e-9);
  if (mark.span >= 0) spans_[static_cast<size_t>(mark.span)].dur_ns = dur;
}

void ShardTracer::BeginPhase(const char* name) {
  if (!timing_) return;
  phase_start_ns_ = NowNs();
  phase_repo_ns_ = repo_ns_;
  phase_span_ = Keep(name, phase_start_ns_, -1);
}

ShardTracer::PhaseTime ShardTracer::EndPhase() {
  if (!timing_) return {};
  const int64_t dur = NowNs() - phase_start_ns_;
  if (phase_span_ >= 0) spans_[static_cast<size_t>(phase_span_)].dur_ns = dur;
  phase_span_ = -1;
  return {dur, repo_ns_ - phase_repo_ns_};
}

ShardTracer::Mark ShardTracer::BeginOp(const char* name) {
  if (!timing_) return {};
  Mark mark;
  mark.start_ns = NowNs();
  if (phase_span_ >= 0 && op_index_ % kSpanSampleEvery == 0) {
    mark.span = Keep(name, mark.start_ns, phase_span_);
  }
  ++op_index_;
  op_span_ = mark.span;
  return mark;
}

void ShardTracer::EndOp(const Mark& mark, Layer layer) {
  if (!timing_) return;
  const int64_t end = NowNs();
  Finish(mark, layer, end);
  repo_ns_ += end - mark.start_ns;
  op_span_ = -1;
}

ShardTracer::Mark ShardTracer::BeginCall(const char* name) {
  if (!timing_) return {};
  Mark mark;
  mark.start_ns = NowNs();
  if (op_span_ >= 0) mark.span = Keep(name, mark.start_ns, op_span_);
  return mark;
}

void ShardTracer::EndCall(const Mark& mark, Layer layer) {
  if (!timing_) return;
  Finish(mark, layer, NowNs());
}

// -- TimedAllocator -----------------------------------------------------

Status TimedAllocator::Allocate(uint64_t length, uint64_t extend_hint,
                                alloc::ExtentList* out) {
  ++counters_.allocate_calls;
  const size_t before = out->size();
  const uint64_t tail_length = before > 0 ? out->back().length : 0;
  const ShardTracer::Mark mark = tracer_->BeginCall("alloc.allocate");
  const Status s = inner_->Allocate(length, extend_hint, out);
  tracer_->EndCall(mark, Layer::kAllocate);
  if (!s.ok()) return s;
  // A first piece that continues the file's tail is merged into it, so
  // it shows as a longer tail rather than a new list entry.
  const bool extended_tail =
      before > 0 && (*out)[before - 1].length != tail_length;
  counters_.extents += out->size() - before + (extended_tail ? 1 : 0);
  return s;
}

Status TimedAllocator::Free(const alloc::Extent& extent) {
  ++counters_.free_calls;
  const ShardTracer::Mark mark = tracer_->BeginCall("alloc.free");
  const Status s = inner_->Free(extent);
  tracer_->EndCall(mark, Layer::kFree);
  return s;
}

void TimedAllocator::Tick() {
  const ShardTracer::Mark mark = tracer_->BeginCall("alloc.tick");
  inner_->Tick();
  tracer_->EndCall(mark, Layer::kTick);
}

void TimedAllocator::CommitPending() {
  const ShardTracer::Mark mark = tracer_->BeginCall("alloc.tick");
  inner_->CommitPending();
  tracer_->EndCall(mark, Layer::kTick);
}

// -- TimedRepository ----------------------------------------------------

template <typename Fn>
auto TimedRepository::Call(const char* name, Layer layer, Fn&& fn) const
    -> decltype(fn()) {
  ++calls_;
  const ShardTracer::Mark mark = tracer_->BeginOp(name);
  auto result = fn();
  tracer_->EndOp(mark, layer);
  if (Failed(result)) ++failed_;
  return result;
}

Status TimedRepository::Put(const std::string& key, uint64_t size,
                            std::span<const uint8_t> data) {
  return Call("core.put", Layer::kSafeWrite,
              [&] { return inner_->Put(key, size, data); });
}

Status TimedRepository::SafeWrite(const std::string& key, uint64_t size,
                                  std::span<const uint8_t> data) {
  return Call("core.safe_write", Layer::kSafeWrite,
              [&] { return inner_->SafeWrite(key, size, data); });
}

Status TimedRepository::Get(const std::string& key, std::vector<uint8_t>* out) {
  return Call("core.get", Layer::kGet, [&] { return inner_->Get(key, out); });
}

Status TimedRepository::Delete(const std::string& key) {
  return Call("core.delete", Layer::kOtherOp,
              [&] { return inner_->Delete(key); });
}

bool TimedRepository::Exists(const std::string& key) const {
  return Call("core.exists", Layer::kOtherOp,
              [&] { return inner_->Exists(key); });
}

Result<alloc::ExtentList> TimedRepository::GetLayout(
    const std::string& key) const {
  return Call("core.get_layout", Layer::kOtherOp,
              [&] { return inner_->GetLayout(key); });
}

Result<uint64_t> TimedRepository::GetSize(const std::string& key) const {
  return Call("core.get_size", Layer::kOtherOp,
              [&] { return inner_->GetSize(key); });
}

Result<core::ObjectHandle> TimedRepository::Open(const std::string& key) {
  return Call("core.open", Layer::kOpen, [&] { return inner_->Open(key); });
}

Result<core::ObjectHandle> TimedRepository::OpenForWrite(
    const std::string& key) {
  return Call("core.open_for_write", Layer::kOpen,
              [&] { return inner_->OpenForWrite(key); });
}

Status TimedRepository::Release(core::ObjectHandle* handle) {
  return Call("core.release", Layer::kOtherOp,
              [&] { return inner_->Release(handle); });
}

Status TimedRepository::Get(const core::ObjectHandle& handle,
                            std::vector<uint8_t>* out) {
  return Call("core.get", Layer::kGet,
              [&] { return inner_->Get(handle, out); });
}

Status TimedRepository::SafeWrite(const core::ObjectHandle& handle,
                                  uint64_t size,
                                  std::span<const uint8_t> data) {
  return Call("core.safe_write", Layer::kSafeWrite,
              [&] { return inner_->SafeWrite(handle, size, data); });
}

Status TimedRepository::Delete(core::ObjectHandle* handle) {
  return Call("core.delete", Layer::kOtherOp,
              [&] { return inner_->Delete(handle); });
}

Result<alloc::ExtentList> TimedRepository::GetLayout(
    const core::ObjectHandle& handle) const {
  return Call("core.get_layout", Layer::kOtherOp,
              [&] { return inner_->GetLayout(handle); });
}

Result<uint64_t> TimedRepository::GetSize(
    const core::ObjectHandle& handle) const {
  return Call("core.get_size", Layer::kOtherOp,
              [&] { return inner_->GetSize(handle); });
}

Status TimedRepository::FlushCache() {
  return Call("core.flush_cache", Layer::kOtherOp,
              [&] { return inner_->FlushCache(); });
}

Status TimedRepository::SetQueueDepth(uint32_t depth,
                                      sim::SchedPolicy policy) {
  return Call("core.set_queue_depth", Layer::kOtherOp,
              [&] { return inner_->SetQueueDepth(depth, policy); });
}

Status TimedRepository::DrainIo() {
  return Call("core.drain_io", Layer::kOtherOp,
              [&] { return inner_->DrainIo(); });
}

Status TimedRepository::SettleIo() {
  return Call("core.settle_io", Layer::kOtherOp,
              [&] { return inner_->SettleIo(); });
}

Result<core::MountReport> TimedRepository::Mount() {
  return Call("core.mount", Layer::kOtherOp, [&] { return inner_->Mount(); });
}

Result<core::FsckReport> TimedRepository::Fsck() {
  return Call("core.fsck", Layer::kOtherOp, [&] { return inner_->Fsck(); });
}

Result<core::ScrubReport> TimedRepository::Scrub(
    const core::ScrubOptions& options) {
  return Call("core.scrub", Layer::kOtherOp,
              [&] { return inner_->Scrub(options); });
}

Status TimedRepository::CheckConsistency() const {
  return Call("core.check_consistency", Layer::kOtherOp,
              [&] { return inner_->CheckConsistency(); });
}

// -- Factories ----------------------------------------------------------

std::unique_ptr<core::ObjectRepository> TimedFsFactory::Create(
    uint32_t shard, uint32_t shard_count) const {
  core::FsRepositoryConfig config = base_config();
  config.volume_bytes = base_config().volume_bytes / shard_count;
  config.cache.capacity_bytes = base_config().cache.capacity_bytes / shard_count;
  config.spindle = PlaneForShard(shard, shard_count, config.volume_bytes,
                                 config.disk, config.data_mode);
  config.spindle_owner =
      config.spindle != nullptr ? shard % topology_.owners_per_spindle : 0;
  // The allocator fs::FileStore builds when none is injected.
  const uint64_t clusters = config.volume_bytes / config.store.cluster_bytes;
  const uint64_t mft_clusters = std::max<uint64_t>(
      1, static_cast<uint64_t>(static_cast<double>(clusters) *
                               config.store.mft_zone_fraction));
  auto tracer = std::make_unique<ShardTracer>(timing_, spans_);
  auto allocator = std::make_unique<TimedAllocator>(
      std::make_unique<alloc::RunCacheAllocator>(clusters, config.store.alloc,
                                                 mft_clusters),
      tracer.get());
  const TimedAllocator* timed = allocator.get();
  auto inner = std::make_unique<core::FsRepository>(std::move(config),
                                                    std::move(allocator));
  return std::make_unique<TimedRepository>(std::move(tracer), std::move(inner),
                                           timed);
}

std::unique_ptr<core::ObjectRepository> TimedDbFactory::Create(
    uint32_t shard, uint32_t shard_count) const {
  return std::make_unique<TimedRepository>(
      std::make_unique<ShardTracer>(timing_, spans_),
      DbRepositoryFactory::Create(shard, shard_count), nullptr);
}

}  // namespace bench
}  // namespace lor
