// Trace record/replay: the "trace based load generation" alternative
// the paper surveys in §3.3. A trace is an ordered list of repository
// primitives; it can be captured from any workload via the recording
// decorator, saved to a text format, and replayed against any back end
// — enabling apples-to-apples comparisons on identical op sequences.

#ifndef LOREPO_WORKLOAD_TRACE_H_
#define LOREPO_WORKLOAD_TRACE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/object_repository.h"
#include "util/result.h"
#include "util/status.h"

namespace lor {
namespace workload {

/// One traced repository primitive.
struct TraceOp {
  enum class Kind : uint8_t { kPut, kSafeWrite, kGet, kDelete };
  Kind kind = Kind::kPut;
  std::string key;
  uint64_t size = 0;  ///< Unused for kGet/kDelete.

  bool operator==(const TraceOp& other) const = default;
};

/// An ordered op sequence with text (de)serialization.
class Trace {
 public:
  void Add(TraceOp op) { ops_.push_back(std::move(op)); }
  const std::vector<TraceOp>& ops() const { return ops_; }
  size_t size() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }

  /// Line format: "<op> <key> [<size>]", one op per line.
  void Serialize(std::ostream& os) const;
  /// Parses Serialize's format; blank lines and '#' lines are skipped.
  /// A size must be an unsigned decimal that fits in 64 bits, and
  /// nothing may follow the last field: any other line is an
  /// InvalidArgument naming its line number.
  static Result<Trace> Deserialize(std::istream& is);

  /// Applies every op to `repo`, stopping at the first failure.
  Status Replay(core::ObjectRepository* repo) const;

  /// Total bytes written by puts and safe writes.
  uint64_t BytesWritten() const;

 private:
  std::vector<TraceOp> ops_;
};

/// ObjectRepository decorator that appends every successful Put,
/// SafeWrite, Get and Delete to a Trace while forwarding every call to
/// the wrapped repository. Handle ops are the wrapped repository's own
/// (its table handles); handle Get/SafeWrite/Delete are recorded under
/// handle.key(), so a handle workload replays as name ops.
class RecordingRepository : public core::ObjectRepository {
 public:
  RecordingRepository(core::ObjectRepository* inner, Trace* trace)
      : inner_(inner), trace_(trace) {}

  Status Put(const std::string& key, uint64_t size,
             std::span<const uint8_t> data = {}) override;
  Status SafeWrite(const std::string& key, uint64_t size,
                   std::span<const uint8_t> data = {}) override;
  Status Get(const std::string& key,
             std::vector<uint8_t>* out = nullptr) override;
  Status Delete(const std::string& key) override;
  Status Get(const core::ObjectHandle& handle,
             std::vector<uint8_t>* out = nullptr) override;
  Status SafeWrite(const core::ObjectHandle& handle, uint64_t size,
                   std::span<const uint8_t> data = {}) override;
  Status Delete(core::ObjectHandle* handle) override;

  Result<core::ObjectHandle> Open(const std::string& key) override {
    return inner_->Open(key);
  }
  Result<core::ObjectHandle> OpenForWrite(const std::string& key) override {
    return inner_->OpenForWrite(key);
  }
  Status Release(core::ObjectHandle* handle) override {
    return inner_->Release(handle);
  }
  Result<alloc::ExtentList> GetLayout(
      const core::ObjectHandle& handle) const override {
    return inner_->GetLayout(handle);
  }
  Result<uint64_t> GetSize(const core::ObjectHandle& handle) const override {
    return inner_->GetSize(handle);
  }

  bool Exists(const std::string& key) const override {
    return inner_->Exists(key);
  }
  Result<alloc::ExtentList> GetLayout(const std::string& key) const override {
    return inner_->GetLayout(key);
  }
  Result<uint64_t> GetSize(const std::string& key) const override {
    return inner_->GetSize(key);
  }
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
  Status FlushCache() override { return inner_->FlushCache(); }
  Status CheckConsistency() const override {
    return inner_->CheckConsistency();
  }
  Status SetQueueDepth(
      uint32_t depth,
      sim::SchedPolicy policy = sim::SchedPolicy::kSptf) override {
    return inner_->SetQueueDepth(depth, policy);
  }
  Status DrainIo() override { return inner_->DrainIo(); }
  Status SettleIo() override { return inner_->SettleIo(); }
  bool shared_spindle() const override { return inner_->shared_spindle(); }
  const sim::LatencyRecorder* latency_recorder() const override {
    return inner_->latency_recorder();
  }
  /// Recovery and verification are observations, not workload ops — they
  /// forward without being traced.
  Result<core::MountReport> Mount() override { return inner_->Mount(); }
  Result<core::FsckReport> Fsck() override { return inner_->Fsck(); }
  Result<core::ScrubReport> Scrub(
      const core::ScrubOptions& options = {}) override {
    return inner_->Scrub(options);
  }
  std::string name() const override { return inner_->name() + "+recorded"; }

 private:
  core::ObjectRepository* inner_;
  Trace* trace_;
};

}  // namespace workload
}  // namespace lor

#endif  // LOREPO_WORKLOAD_TRACE_H_
