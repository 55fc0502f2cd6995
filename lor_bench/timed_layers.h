// Outside-in layer instrumentation for lor_bench: decorators on the
// public interfaces of the repository layer (core::ObjectRepository)
// and of the filesystem allocator (alloc::ExtentAllocator), so the
// benchmark counts, times and traces calls into each layer without
// touching the library.
//
// Untraced, the decorators only count: repository calls and their non-OK
// statuses, and allocator calls and the extents they return. Traced,
// every call is also timed with std::chrono::steady_clock into a
// per-layer histogram, and every 64th repository op of a shard (chosen
// by op index, so the choice is deterministic) keeps its spans: phase ->
// repository op -> allocator call. Spans live in memory until the run
// ends.
//
// Threading: one ShardTracer per shard, confined to the shard's worker
// thread, except BeginPhase/EndPhase, which the driving thread calls
// while the shard is parked between workload::ShardedRunner phases (the
// runner's phase hand-off orders those accesses).

#ifndef LOR_BENCH_TIMED_LAYERS_H_
#define LOR_BENCH_TIMED_LAYERS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "alloc/allocator.h"
#include "core/object_repository.h"
#include "core/repository_factory.h"
#include "util/histogram.h"

namespace lor {
namespace bench {

/// Host-time layers that keep their own histogram.
enum class Layer : uint8_t {
  kSafeWrite,  ///< ObjectRepository::SafeWrite / Put.
  kGet,        ///< ObjectRepository::Get.
  kOpen,       ///< ObjectRepository::Open / OpenForWrite.
  kOtherOp,    ///< Every other repository call.
  kAllocate,   ///< ExtentAllocator::Allocate.
  kFree,       ///< ExtentAllocator::Free.
  kTick,       ///< ExtentAllocator::Tick / CommitPending.
};
inline constexpr size_t kLayerCount = 7;

/// One traced interval on a shard's timeline. `parent` indexes the same
/// shard's span vector; -1 marks a root (phase) span.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  int32_t parent = -1;
};

/// Cap on the spans one run keeps, shared by every shard. Spans are
/// claimed parent-first and the budget only shrinks, so a kept span's
/// parent is always kept too.
class SpanBudget {
 public:
  explicit SpanBudget(int64_t spans) : remaining_(spans) {}
  bool Take() { return remaining_.fetch_sub(1, std::memory_order_relaxed) > 0; }

 private:
  std::atomic<int64_t> remaining_;
};

/// Repository ops between two kept op spans on one shard.
inline constexpr uint64_t kSpanSampleEvery = 64;

/// Per-shard host-time recorder shared by the shard's TimedRepository
/// and TimedAllocator.
class ShardTracer {
 public:
  /// `timing` turns on per-call timing; `spans` (may be null) is where
  /// sampled spans draw their budget — null keeps no spans.
  ShardTracer(bool timing, SpanBudget* spans)
      : timing_(timing), spans_budget_(spans) {}

  /// Host time one phase spent, and the part of it inside top-level
  /// repository calls.
  struct PhaseTime {
    int64_t dur_ns = 0;
    int64_t repo_ns = 0;
  };
  void BeginPhase(const char* name);
  PhaseTime EndPhase();

  /// Start of a timed call; `span` is the kept span's index or -1.
  struct Mark {
    int64_t start_ns = 0;
    int32_t span = -1;
  };
  /// A top-level repository op: counted toward the op index, and kept
  /// as a span every kSpanSampleEvery ops while a phase is open.
  Mark BeginOp(const char* name);
  void EndOp(const Mark& mark, Layer layer);
  /// A call made from inside the current op (allocator calls): kept as
  /// a child span when the op's span is kept.
  Mark BeginCall(const char* name);
  void EndCall(const Mark& mark, Layer layer);

  const LatencyHistogram& histogram(Layer layer) const {
    return hists_[static_cast<size_t>(layer)];
  }
  /// Hands over the kept spans (the tracer keeps none afterwards).
  std::vector<Span> TakeSpans() { return std::move(spans_); }

 private:
  int32_t Keep(const char* name, int64_t start_ns, int32_t parent);
  void Finish(const Mark& mark, Layer layer, int64_t end_ns);

  const bool timing_;
  SpanBudget* const spans_budget_;
  std::array<LatencyHistogram, kLayerCount> hists_;
  std::vector<Span> spans_;
  uint64_t op_index_ = 0;
  /// Host ns inside top-level repository calls, all phases.
  int64_t repo_ns_ = 0;
  int64_t phase_start_ns_ = 0;
  int64_t phase_repo_ns_ = 0;
  int32_t phase_span_ = -1;
  /// Kept span of the op in progress (-1: none, or not sampled).
  int32_t op_span_ = -1;
};

/// alloc::ExtentAllocator decorator that counts (and, traced, times)
/// every call into the wrapped allocator.
class TimedAllocator : public alloc::ExtentAllocator {
 public:
  struct Counters {
    uint64_t allocate_calls = 0;
    uint64_t free_calls = 0;
    /// Extents the Allocate calls returned (a piece that extends the
    /// file's tail extent in place counts as one).
    uint64_t extents = 0;
  };

  TimedAllocator(std::unique_ptr<alloc::ExtentAllocator> inner,
                 ShardTracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  Status Allocate(uint64_t length, uint64_t extend_hint,
                  alloc::ExtentList* out) override;
  Status Free(const alloc::Extent& extent) override;
  void Tick() override;
  void CommitPending() override;
  uint64_t free_clusters() const override { return inner_->free_clusters(); }
  uint64_t total_unused_clusters() const override {
    return inner_->total_unused_clusters();
  }
  alloc::FreeSpaceStats FreeStats() const override {
    return inner_->FreeStats();
  }
  alloc::FreeSpaceMap* free_map() override { return inner_->free_map(); }
  std::string name() const override { return inner_->name(); }

  const Counters& counters() const { return counters_; }

 private:
  std::unique_ptr<alloc::ExtentAllocator> inner_;
  ShardTracer* tracer_;
  Counters counters_;
};

/// core::ObjectRepository decorator that forwards every virtual —
/// the handle surface included, so handles minted by the wrapped
/// repository are served by its own handle table rather than the base
/// class's name-routed defaults — and counts (traced: times) each
/// status-returning call.
class TimedRepository : public core::ObjectRepository {
 public:
  /// `allocator` is the TimedAllocator inside `inner` (fs), or null.
  TimedRepository(std::unique_ptr<ShardTracer> tracer,
                  std::unique_ptr<core::ObjectRepository> inner,
                  const TimedAllocator* allocator)
      : tracer_(std::move(tracer)),
        inner_(std::move(inner)),
        allocator_(allocator) {}

  core::ObjectRepository* inner() { return inner_.get(); }
  ShardTracer* tracer() { return tracer_.get(); }
  const TimedAllocator* allocator() const { return allocator_; }
  uint64_t calls() const { return calls_; }
  uint64_t failed() const { return failed_; }

  Status Put(const std::string& key, uint64_t size,
             std::span<const uint8_t> data = {}) override;
  Status SafeWrite(const std::string& key, uint64_t size,
                   std::span<const uint8_t> data = {}) override;
  Status Get(const std::string& key,
             std::vector<uint8_t>* out = nullptr) override;
  Status Delete(const std::string& key) override;
  bool Exists(const std::string& key) const override;
  Result<alloc::ExtentList> GetLayout(const std::string& key) const override;
  Result<uint64_t> GetSize(const std::string& key) const override;

  Result<core::ObjectHandle> Open(const std::string& key) override;
  Result<core::ObjectHandle> OpenForWrite(const std::string& key) override;
  Status Release(core::ObjectHandle* handle) override;
  Status Get(const core::ObjectHandle& handle,
             std::vector<uint8_t>* out = nullptr) override;
  Status SafeWrite(const core::ObjectHandle& handle, uint64_t size,
                   std::span<const uint8_t> data = {}) override;
  Status Delete(core::ObjectHandle* handle) override;
  Result<alloc::ExtentList> GetLayout(
      const core::ObjectHandle& handle) const override;
  Result<uint64_t> GetSize(const core::ObjectHandle& handle) const override;

  std::vector<std::string> ListKeys() const override {
    return inner_->ListKeys();
  }
  void VisitObjects(
      const std::function<void(const std::string& key,
                               const alloc::ExtentList& layout,
                               uint64_t size_bytes)>& visit) const override {
    inner_->VisitObjects(visit);
  }
  const core::FragmentationTracker* fragmentation_tracker() const override {
    return inner_->fragmentation_tracker();
  }
  uint64_t object_count() const override { return inner_->object_count(); }
  uint64_t live_bytes() const override { return inner_->live_bytes(); }
  uint64_t volume_bytes() const override { return inner_->volume_bytes(); }
  uint64_t free_bytes() const override { return inner_->free_bytes(); }
  double now() const override { return inner_->now(); }
  sim::IoStats device_stats() const override {
    return inner_->device_stats();
  }
  sim::BufferPoolStats cache_stats() const override {
    return inner_->cache_stats();
  }
  bool shared_spindle() const override { return inner_->shared_spindle(); }
  const sim::LatencyRecorder* latency_recorder() const override {
    return inner_->latency_recorder();
  }
  std::string name() const override { return inner_->name(); }

  Status FlushCache() override;
  Status SetQueueDepth(
      uint32_t depth,
      sim::SchedPolicy policy = sim::SchedPolicy::kSptf) override;
  Status DrainIo() override;
  Status SettleIo() override;
  Result<core::MountReport> Mount() override;
  Result<core::FsckReport> Fsck() override;
  Result<core::ScrubReport> Scrub(
      const core::ScrubOptions& options = {}) override;
  Status CheckConsistency() const override;

 private:
  /// Counts one call of `fn` (and its failure), timing it when traced.
  template <typename Fn>
  auto Call(const char* name, Layer layer, Fn&& fn) const -> decltype(fn());

  // Declared before inner_: the allocator inside inner_ points at the
  // tracer, so the tracer must outlive it.
  std::unique_ptr<ShardTracer> tracer_;
  std::unique_ptr<core::ObjectRepository> inner_;
  const TimedAllocator* allocator_;
  // Const introspection (Exists, GetLayout, ...) is counted too.
  mutable uint64_t calls_ = 0;
  mutable uint64_t failed_ = 0;
};

/// FsRepositoryFactory whose shards are TimedRepository over an
/// FsRepository built with an injected TimedAllocator around the same
/// RunCacheAllocator FileStore builds by default. Create mirrors
/// FsRepositoryFactory::Create: volume and cache split per shard, and
/// the shard's shared spindle from PlaneForShard.
class TimedFsFactory : public core::FsRepositoryFactory {
 public:
  TimedFsFactory(core::FsRepositoryConfig base, bool timing,
                 SpanBudget* spans)
      : FsRepositoryFactory(std::move(base)), timing_(timing), spans_(spans) {}

  std::unique_ptr<core::ObjectRepository> Create(
      uint32_t shard, uint32_t shard_count) const override;

 private:
  bool timing_;
  SpanBudget* spans_;
};

/// DbRepositoryFactory whose shards are TimedRepository over the stock
/// DbRepository.
class TimedDbFactory : public core::DbRepositoryFactory {
 public:
  TimedDbFactory(core::DbRepositoryConfig base, bool timing,
                 SpanBudget* spans)
      : DbRepositoryFactory(std::move(base)), timing_(timing), spans_(spans) {}

  std::unique_ptr<core::ObjectRepository> Create(
      uint32_t shard, uint32_t shard_count) const override;

 private:
  bool timing_;
  SpanBudget* spans_;
};

}  // namespace bench
}  // namespace lor

#endif  // LOR_BENCH_TIMED_LAYERS_H_
