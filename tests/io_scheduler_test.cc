// Tests for the queued charge pipeline: IoScheduler service order and
// closed-loop admission, LatencyRecorder accounting, the pinned charge
// decisions of every device entry point across the synchronous path,
// the dedicated scheduler and the spindle plane, and queue-depth
// windows driven through the repositories and the workload runners.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "core/db_repository.h"
#include "core/fs_repository.h"
#include "core/repository_factory.h"
#include "sim/block_device.h"
#include "sim/fault_injector.h"
#include "sim/io_scheduler.h"
#include "sim/latency_recorder.h"
#include "sim/media_fault.h"
#include "sim/spindle_plane.h"
#include "util/fnv.h"
#include "util/random.h"
#include "workload/getput_runner.h"
#include "workload/sharded_runner.h"

namespace lor {
namespace sim {
namespace {

DiskParams SmallDisk() {
  return DiskParams::St3400832as().WithCapacity(kGiB);
}

// ---------------------------------------------------------------------
// LatencyRecorder

TEST(LatencyRecorderTest, RecordsPerClassAndIgnoresControl) {
  LatencyRecorder rec;
  rec.Record(OpClass::kGet, 0.010);
  rec.Record(OpClass::kGet, 0.020);
  rec.Record(OpClass::kPut, 0.030);
  rec.Record(OpClass::kControl, 0.500);
  EXPECT_EQ(rec.histogram(OpClass::kGet).count(), 2u);
  EXPECT_EQ(rec.histogram(OpClass::kPut).count(), 1u);
  EXPECT_EQ(rec.histogram(OpClass::kSafeWrite).count(), 0u);
  EXPECT_EQ(rec.histogram(OpClass::kDelete).count(), 0u);
  EXPECT_EQ(rec.total_count(), 3u);
}

TEST(LatencyRecorderTest, WritesMergesPutAndSafeWrite) {
  LatencyRecorder rec;
  rec.Record(OpClass::kPut, 0.001);
  rec.Record(OpClass::kSafeWrite, 0.002);
  rec.Record(OpClass::kGet, 0.003);
  const LatencyHistogram writes = rec.writes();
  EXPECT_EQ(writes.count(), 2u);
  EXPECT_DOUBLE_EQ(writes.min(), 0.001);
  EXPECT_DOUBLE_EQ(writes.max(), 0.002);
}

TEST(LatencyRecorderTest, MergeAndSubtractAreExact) {
  LatencyRecorder a, b;
  for (int i = 1; i <= 10; ++i) a.Record(OpClass::kGet, 1e-3 * i);
  for (int i = 1; i <= 5; ++i) b.Record(OpClass::kSafeWrite, 1e-2 * i);
  LatencyRecorder merged = a;
  merged.Merge(b);
  EXPECT_EQ(merged.total_count(), 15u);
  EXPECT_EQ(merged.histogram(OpClass::kGet).count(), 10u);
  EXPECT_EQ(merged.histogram(OpClass::kSafeWrite).count(), 5u);
  // Cumulative-snapshot differencing returns exactly the suffix.
  const LatencyRecorder delta = merged - a;
  EXPECT_EQ(delta.total_count(), 5u);
  EXPECT_EQ(delta.histogram(OpClass::kGet).count(), 0u);
  EXPECT_EQ(delta.histogram(OpClass::kSafeWrite).count(), 5u);
}

TEST(LatencyRecorderTest, OpClassNamesAreStable) {
  EXPECT_STREQ(OpClassName(OpClass::kGet), "get");
  EXPECT_STREQ(OpClassName(OpClass::kPut), "put");
  EXPECT_STREQ(OpClassName(OpClass::kSafeWrite), "safe-write");
  EXPECT_STREQ(OpClassName(OpClass::kDelete), "delete");
}

// ---------------------------------------------------------------------
// IoScheduler, device level

TEST(IoSchedulerTest, SyncOpScopeRecordsElapsedLatency) {
  BlockDevice dev(SmallDisk());
  LatencyRecorder rec;
  IoScheduler sched(&dev, &rec);
  dev.AttachScheduler(&sched);
  const double t0 = dev.clock().now();
  {
    OpScope scope(&sched, OpClass::kGet);
    ASSERT_TRUE(dev.Read(10 * kMiB, 64 * kKiB).ok());
  }
  const LatencyHistogram& h = rec.histogram(OpClass::kGet);
  ASSERT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), dev.clock().now() - t0);
}

TEST(IoSchedulerTest, NullSchedulerScopeIsNoOp) {
  // Wrapper back ends without a pipeline construct scopes on null.
  OpScope scope(nullptr, OpClass::kPut);
}

TEST(IoSchedulerTest, EngageValidation) {
  BlockDevice dev(SmallDisk());
  IoScheduler sched(&dev, nullptr);
  dev.AttachScheduler(&sched);
  EXPECT_TRUE(sched.Engage(0).IsInvalidArgument());
  EXPECT_FALSE(sched.engaged());
  {
    OpScope scope(&sched, OpClass::kGet);
    EXPECT_FALSE(sched.Engage(4).ok());  // Mid-op engagement refused.
  }
  ASSERT_TRUE(sched.Engage(4, SchedPolicy::kFifo).ok());
  EXPECT_TRUE(sched.engaged());
  EXPECT_EQ(sched.queue_depth(), 4u);
  EXPECT_EQ(sched.policy(), SchedPolicy::kFifo);
  // Re-engaging drains and switches parameters.
  ASSERT_TRUE(sched.Engage(2, SchedPolicy::kSptf).ok());
  EXPECT_EQ(sched.queue_depth(), 2u);
  ASSERT_TRUE(sched.Disengage().ok());
  EXPECT_FALSE(sched.engaged());
}

TEST(IoSchedulerTest, DrainOnIdleSchedulerIsFree) {
  BlockDevice dev(SmallDisk());
  LatencyRecorder rec;
  IoScheduler sched(&dev, &rec);
  dev.AttachScheduler(&sched);
  // Disengaged: nothing queued, nothing charged.
  const double t0 = dev.clock().now();
  sched.Drain();
  EXPECT_DOUBLE_EQ(dev.clock().now(), t0);
  // Engaged but idle: still free, and repeatable.
  ASSERT_TRUE(sched.Engage(4, SchedPolicy::kSptf).ok());
  sched.Drain();
  sched.Drain();
  EXPECT_DOUBLE_EQ(dev.clock().now(), t0);
  EXPECT_EQ(dev.stats().writes, 0u);
  ASSERT_TRUE(sched.Disengage().ok());
}

// Replays the same mixed request sequence against a device; each
// repository-style op is bracketed by an OpScope.
void DriveMixedSequence(BlockDevice* dev, IoScheduler* sched) {
  const uint64_t offsets[] = {200 * kMiB, 4 * kMiB, 700 * kMiB, 4 * kMiB + 256 * kKiB};
  for (uint64_t off : offsets) {
    OpScope scope(sched, OpClass::kPut);
    ASSERT_TRUE(dev->Write(off, 256 * kKiB).ok());
  }
  {
    OpScope scope(sched, OpClass::kControl);
    dev->Flush();
  }
  {
    OpScope scope(sched, OpClass::kControl);
    dev->ChargeCpu(0.0025);
  }
  for (uint64_t off : {500 * kMiB, 4 * kMiB}) {
    OpScope scope(sched, OpClass::kGet);
    ASSERT_TRUE(dev->Read(off, 128 * kKiB).ok());
  }
  {
    // A multi-request chain: write then flush, like a safe write.
    OpScope scope(sched, OpClass::kSafeWrite);
    ASSERT_TRUE(dev->Write(900 * kMiB, 64 * kKiB).ok());
    dev->Flush();
  }
}

TEST(IoSchedulerTest, AsyncQd1FifoMatchesSyncExactly) {
  // Queue depth 1 + FIFO replays the synchronous service order: the
  // clock and every stat must come out bit-identical, not just close.
  BlockDevice sync_dev(SmallDisk());
  LatencyRecorder sync_rec;
  IoScheduler sync_sched(&sync_dev, &sync_rec);
  sync_dev.AttachScheduler(&sync_sched);
  DriveMixedSequence(&sync_dev, &sync_sched);

  BlockDevice async_dev(SmallDisk());
  LatencyRecorder async_rec;
  IoScheduler async_sched(&async_dev, &async_rec);
  async_dev.AttachScheduler(&async_sched);
  ASSERT_TRUE(async_sched.Engage(1, SchedPolicy::kFifo).ok());
  DriveMixedSequence(&async_dev, &async_sched);
  ASSERT_TRUE(async_sched.Disengage().ok());

  EXPECT_EQ(sync_dev.clock().now(), async_dev.clock().now());
  const IoStats& a = sync_dev.stats();
  const IoStats& b = async_dev.stats();
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
  EXPECT_EQ(a.seeks, b.seeks);
  EXPECT_EQ(a.sequential_hits, b.sequential_hits);
  EXPECT_EQ(a.seek_time_s, b.seek_time_s);
  EXPECT_EQ(a.rotational_time_s, b.rotational_time_s);
  EXPECT_EQ(a.transfer_time_s, b.transfer_time_s);
  EXPECT_EQ(a.busy_time_s, b.busy_time_s);
  // Per-class sample counts agree (latency values differ only in that
  // the sync scope also spans charge-submission bookkeeping).
  EXPECT_EQ(sync_rec.total_count(), async_rec.total_count());
}

constexpr uint64_t kOrderReadBytes = 4 * kKiB;

/// Issues one single-read op per offset (in submission order) through
/// a scheduler engaged at depth 4, drains, and returns the submission
/// indices in the order the device serviced them. The order is read
/// off the charged seek total: each permutation moves the head through
/// different seeks from the initial head at 0, and exactly one sums to
/// what the device charged.
std::vector<int> ServiceOrder(SchedPolicy policy,
                              const std::vector<uint64_t>& offsets) {
  BlockDevice dev(SmallDisk());
  IoScheduler sched(&dev, nullptr);
  dev.AttachScheduler(&sched);
  EXPECT_TRUE(sched.Engage(4, policy).ok());
  for (uint64_t offset : offsets) {
    OpScope scope(&sched, OpClass::kGet);
    EXPECT_TRUE(dev.Read(offset, kOrderReadBytes).ok());
  }
  sched.Drain();
  EXPECT_EQ(sched.completed_ops(), offsets.size());
  EXPECT_EQ(sched.serviced_requests(), offsets.size());

  std::vector<int> perm(offsets.size());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<int>(i);
  std::vector<int> order;
  do {
    double seek = 0.0;
    uint64_t head = 0;
    for (int i : perm) {
      seek += dev.model().SeekTime(head, offsets[i]);
      head = offsets[i] + kOrderReadBytes;
    }
    if (seek == dev.stats().seek_time_s) {
      EXPECT_TRUE(order.empty()) << "two service orders charge alike";
      order = perm;
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  return order;
}

TEST(IoSchedulerTest, SptfServicesShortestPositioningFirst) {
  // Submission order: far, near, mid from the initial head at 0. All
  // three are admitted (depth 4), so the drain chooses service order:
  // nearest first — 10 MB, then 100 MB (head now at ~10 MB), then 300.
  EXPECT_EQ(ServiceOrder(SchedPolicy::kSptf,
                         {300 * kMiB, 10 * kMiB, 100 * kMiB}),
            (std::vector<int>{1, 2, 0}));
}

TEST(IoSchedulerTest, FifoServicesSubmissionOrder) {
  EXPECT_EQ(ServiceOrder(SchedPolicy::kFifo,
                         {300 * kMiB, 10 * kMiB, 100 * kMiB}),
            (std::vector<int>{0, 1, 2}));
}

TEST(IoSchedulerTest, InflightNeverExceedsQueueDepth) {
  BlockDevice dev(SmallDisk());
  IoScheduler sched(&dev, nullptr);
  dev.AttachScheduler(&sched);
  ASSERT_TRUE(sched.Engage(2).ok());
  for (int i = 0; i < 8; ++i) {
    OpScope scope(&sched, OpClass::kGet);
    ASSERT_TRUE(dev.Read((i * 97 + 1) * kMiB % (kGiB / 2), 4 * kKiB).ok());
    EXPECT_LE(sched.inflight_ops(), 2u);
  }
  sched.Drain();
  EXPECT_EQ(sched.inflight_ops(), 0u);
  EXPECT_EQ(sched.completed_ops(), 8u);
}

TEST(IoSchedulerTest, PortedInflightCountsHeldOps) {
  // A ported owner holds sealed ops until it can hand over whole
  // batches carrying at least kHandoffOps ops; until then they are in
  // flight from the scheduler's point of view, as is the open op.
  for (uint32_t depth : {1u, 3u}) {
    SpindlePlane::Params params;
    params.region_bytes = 64 * kMiB;
    params.owners = 1;
    SpindlePlane plane(params);
    std::unique_ptr<BlockDevice> view = plane.CreateOwnerDevice(0);
    IoScheduler sched(view.get(), nullptr);
    view->AttachScheduler(&sched);
    sched.AttachSpindle(&plane, 0);
    if (depth > 1) {
      ASSERT_TRUE(sched.Engage(depth).ok());
    }
    uint32_t held = 0;
    for (uint32_t i = 0; i < 100; ++i) {
      {
        OpScope scope(&sched, OpClass::kGet);
        ASSERT_TRUE(view->Read((i * 97 + 1) * kMiB % (60 * kMiB), 4 * kKiB)
                        .ok());
        EXPECT_EQ(sched.inflight_ops(), held + 1);
      }
      ++held;
      if (held >= IoScheduler::kHandoffOps && held % depth == 0) held = 0;
      EXPECT_EQ(sched.inflight_ops(), held) << "depth " << depth << " op " << i;
    }
    EXPECT_GT(held, 0u);  // the last hand-over left ops behind
    sched.Settle();
    EXPECT_EQ(sched.inflight_ops(), 0u);
    EXPECT_EQ(sched.completed_ops(), 100u);
  }
}

// Issues `n` single-read ops at scattered offsets through a scheduler
// engaged at `depth` and returns the recorder.
LatencyRecorder RunScatteredReads(uint32_t depth, int n) {
  BlockDevice dev(SmallDisk());
  LatencyRecorder rec;
  IoScheduler sched(&dev, &rec);
  dev.AttachScheduler(&sched);
  EXPECT_TRUE(sched.Engage(depth, SchedPolicy::kSptf).ok());
  for (int i = 0; i < n; ++i) {
    OpScope scope(&sched, OpClass::kGet);
    const uint64_t offset = (static_cast<uint64_t>(i) * 37 * kMiB) % (kGiB - kMiB);
    EXPECT_TRUE(dev.Read(offset, 4 * kKiB).ok());
  }
  sched.Drain();
  return rec;
}

TEST(IoSchedulerTest, QueueingDelayVisibleInTailLatency) {
  // At depth 1 an op's completion latency is its own service time; at
  // depth 8 it additionally waits for the ops serviced before it, so
  // the tail must grow by well over the service time itself.
  const LatencyRecorder qd1 = RunScatteredReads(1, 200);
  const LatencyRecorder qd8 = RunScatteredReads(8, 200);
  ASSERT_EQ(qd1.histogram(OpClass::kGet).count(), 200u);
  ASSERT_EQ(qd8.histogram(OpClass::kGet).count(), 200u);
  const double p99_qd1 = qd1.histogram(OpClass::kGet).Quantile(0.99);
  const double p99_qd8 = qd8.histogram(OpClass::kGet).Quantile(0.99);
  EXPECT_GT(p99_qd8, 2.0 * p99_qd1);
  EXPECT_GT(qd8.histogram(OpClass::kGet).mean(),
            qd1.histogram(OpClass::kGet).mean());
}

TEST(IoSchedulerTest, DeterministicAcrossRuns) {
  const LatencyRecorder a = RunScatteredReads(8, 100);
  const LatencyRecorder b = RunScatteredReads(8, 100);
  EXPECT_EQ(a.total_count(), b.total_count());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_DOUBLE_EQ(a.histogram(OpClass::kGet).Quantile(q),
                     b.histogram(OpClass::kGet).Quantile(q));
  }
  EXPECT_DOUBLE_EQ(a.histogram(OpClass::kGet).sum(),
                   b.histogram(OpClass::kGet).sum());
}

// ---------------------------------------------------------------------
// Device charge decisions, pinned

/// FNV-1a over the bytes of 64-bit values.
class ChargeHash {
 public:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= kFnvPrime;
    }
  }
  void MixDouble(double d) { Mix(std::bit_cast<uint64_t>(d)); }
  void MixStatus(const Status& s) { Mix(s.ok() ? 0 : 1 + s.ToString().size()); }

  void MixStats(const IoStats& io) {
    for (uint64_t v : {io.reads, io.writes, io.bytes_read, io.bytes_written,
                       io.seeks, io.sequential_hits, io.vectored_requests,
                       io.coalesced_runs, io.interference_seeks,
                       io.media_read_errors, io.degraded_requests}) {
      Mix(v);
    }
    for (double v : {io.seek_time_s, io.rotational_time_s, io.transfer_time_s,
                     io.busy_time_s, io.interference_seek_time_s,
                     io.queue_wait_s, io.degraded_time_s}) {
      MixDouble(v);
    }
  }

  void MixScheduler(const IoScheduler& sched, const LatencyRecorder& rec) {
    for (OpClass cls : {OpClass::kGet, OpClass::kPut, OpClass::kSafeWrite,
                        OpClass::kDelete}) {
      Mix(rec.histogram(cls).count());
      MixDouble(rec.histogram(cls).sum());
    }
    Mix(sched.completed_ops());
    Mix(sched.serviced_requests());
  }

  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = kFnvBasis;
};

/// Seeded churn over every charge entry point of one device: scalar
/// writes and reads (timing-only and payload), vectored batches with
/// zero-length runs, flushes, CPU charges and stream windows, mostly
/// inside op scopes of every class. Offsets continue the previous
/// request often enough to exercise sequential hits. Statuses (typed
/// media errors included) and read-back bytes fold into the hash.
class ChargeChurn {
 public:
  ChargeChurn(uint64_t seed, BlockDevice* dev, IoScheduler* sched,
              bool scoped_only)
      : rng_(seed),
        dev_(dev),
        sched_(sched),
        scoped_only_(scoped_only),
        payload_(2 * kMaxLen),
        scratch_(4 * kMaxLen) {
    for (uint8_t& b : payload_) b = static_cast<uint8_t>(rng_.Next());
  }

  /// Runs `ops` op scopes (or unscoped charge groups) and returns the
  /// hash of everything they returned.
  uint64_t Run(int ops) {
    for (int i = 0; i < ops; ++i) Step();
    return hash_.value();
  }

 private:
  static constexpr uint64_t kMaxLen = kMiB;

  void Step() {
    static constexpr OpClass kClasses[] = {OpClass::kGet, OpClass::kPut,
                                           OpClass::kSafeWrite,
                                           OpClass::kDelete, OpClass::kControl};
    const bool scoped = scoped_only_ || rng_.Bernoulli(0.8);
    OpScope scope(scoped ? sched_ : nullptr, kClasses[rng_.Uniform(5)]);
    const bool window = rng_.Bernoulli(0.2);
    if (window) dev_->BeginStreamWindow();
    uint64_t bytes = 0;
    const uint64_t n = 1 + rng_.Uniform(3);
    for (uint64_t i = 0; i < n; ++i) bytes += Charge();
    if (window) {
      static constexpr double kCaps[] = {20e6, 60e6, 400e6};
      dev_->EndStreamWindow(bytes, kCaps[rng_.Uniform(3)]);
    }
  }

  uint64_t Length() {
    const uint64_t r = rng_.Uniform(100);
    if (r < 5) return 0;
    if (r < 90) return rng_.UniformRange(8, 256) * 512;
    return rng_.UniformRange(257, kMaxLen / 512) * 512;
  }

  /// Continues the previous request, lands near it, or jumps anywhere.
  uint64_t Offset(uint64_t len) {
    const uint64_t cap = dev_->capacity();
    const uint64_t r = rng_.Uniform(100);
    uint64_t off;
    if (r < 30) {
      off = next_;
    } else if (r < 50) {
      off = next_ + rng_.Uniform(2048) * 512;
    } else {
      off = rng_.Uniform(cap / 512) * 512;
    }
    if (off + len > cap) off = (cap - len) / 512 * 512;
    next_ = off + len;
    return off;
  }

  const uint8_t* Src(uint64_t len) {
    if (rng_.Bernoulli(0.4)) return nullptr;
    return payload_.data() + rng_.Uniform(payload_.size() - len + 1);
  }

  void HashBytes(const uint8_t* p, uint64_t len) {
    if (len == 0) return;
    for (uint64_t at : {uint64_t{0}, len / 3, len - 1}) hash_.Mix(p[at]);
  }

  std::vector<IoSlice> Slices(bool write) {
    std::vector<IoSlice> slices(1 + rng_.Uniform(4));
    uint64_t used = 0;
    for (IoSlice& s : slices) {
      s.length = rng_.Bernoulli(0.15) ? 0 : Length();
      s.offset = Offset(s.length);
      if (write) {
        s.src = Src(s.length);
      } else if (rng_.Bernoulli(0.5) && used + s.length <= scratch_.size()) {
        s.dst = scratch_.data() + used;
        used += s.length;
      }
    }
    return slices;
  }

  /// One device call; returns the bytes it asked for.
  uint64_t Charge() {
    const uint64_t r = rng_.Uniform(100);
    if (r < 25) {
      const uint64_t len = Length();
      const uint64_t off = Offset(len);
      const uint8_t* src = Src(len);
      hash_.MixStatus(
          src == nullptr
              ? dev_->Write(off, len)
              : dev_->Write(off, len, std::span<const uint8_t>(src, len)));
      return len;
    }
    if (r < 45) {
      const uint64_t len = Length();
      const uint64_t off = Offset(len);
      if (rng_.Bernoulli(0.5)) {
        hash_.MixStatus(dev_->Read(off, len));
      } else {
        const Status s = dev_->Read(off, len, &out_);
        hash_.MixStatus(s);
        if (s.ok()) HashBytes(out_.data(), out_.size());
      }
      return len;
    }
    if (r < 75) {
      const bool write = r >= 60;
      const std::vector<IoSlice> slices = Slices(write);
      const Status s = write ? dev_->WriteV(slices) : dev_->ReadV(slices);
      hash_.MixStatus(s);
      uint64_t bytes = 0;
      for (const IoSlice& slice : slices) {
        bytes += slice.length;
        if (s.ok() && slice.dst != nullptr) HashBytes(slice.dst, slice.length);
      }
      return bytes;
    }
    if (r < 85) {
      dev_->Flush();
      return 0;
    }
    dev_->ChargeCpu(static_cast<double>(rng_.UniformRange(1, 2000)) * 1e-6);
    return 0;
  }

  Rng rng_;
  BlockDevice* dev_;
  IoScheduler* sched_;
  bool scoped_only_;
  std::vector<uint8_t> payload_;
  std::vector<uint8_t> scratch_;
  std::vector<uint8_t> out_;
  uint64_t next_ = 0;
  ChargeHash hash_;
};

/// Fault planes that change charges without firing: a power cut that
/// never trips and a media model with latent-sector-error and degraded
/// regions (no at-rest corruption).
struct ArmedFaults {
  FaultInjector injector;
  MediaFaultModel media;

  void AttachAndArm(BlockDevice* dev, uint64_t seed) {
    dev->AttachFaultInjector(&injector);
    dev->AttachMediaFaults(&media);
    CrashSpec cut;
    cut.crash_after_writes = 1ull << 40;
    injector.Arm(cut);
    MediaFaultSpec spec;
    spec.seed = seed;
    spec.lse_rate = 0.03;
    spec.degraded_rate = 0.1;
    media.Arm(spec);
  }
};

/// One dedicated device: `depth` 0 leaves the scheduler disengaged (the
/// synchronous path, with some charges between op scopes).
uint64_t DedicatedChargeRun(uint64_t seed, uint32_t depth, SchedPolicy policy,
                            DataMode mode, bool faults) {
  ArmedFaults armed;  // Outlives the device and its scheduler.
  BlockDevice dev(DiskParams::St3400832as().WithCapacity(64 * kMiB), mode);
  LatencyRecorder rec;
  IoScheduler sched(&dev, &rec);
  dev.AttachScheduler(&sched);
  if (faults) armed.AttachAndArm(&dev, seed);
  if (depth > 0) {
    EXPECT_TRUE(sched.Engage(depth, policy).ok());
  }
  ChargeChurn churn(seed, &dev, &sched, /*scoped_only=*/depth > 0);
  ChargeHash hash;
  hash.Mix(churn.Run(3000));
  sched.Drain();
  hash.MixDouble(dev.clock().now());
  hash.MixStats(dev.stats());
  hash.MixScheduler(sched, rec);
  return hash.value();
}

/// A shared spindle: each owner runs its own churn on its own thread
/// (the plane needs every owner submitting to form a round). Faults
/// are armed only for a single owner: the models are not thread-safe.
uint64_t PlaneChargeRun(uint64_t seed, uint32_t owners, uint32_t depth,
                        SchedPolicy policy, DataMode mode, bool faults) {
  SpindlePlane::Params params;
  params.disk = DiskParams::St3400832as();
  params.region_bytes = 32 * kMiB;
  params.owners = owners;
  params.data_mode = mode;
  params.policy = policy;
  params.seed = seed;
  SpindlePlane plane(params);
  std::vector<std::unique_ptr<BlockDevice>> views;
  std::vector<std::unique_ptr<LatencyRecorder>> recs;
  std::vector<std::unique_ptr<IoScheduler>> scheds;
  std::vector<std::unique_ptr<ArmedFaults>> armed;
  for (uint32_t o = 0; o < owners; ++o) {
    views.push_back(plane.CreateOwnerDevice(o));
    recs.push_back(std::make_unique<LatencyRecorder>());
    scheds.push_back(
        std::make_unique<IoScheduler>(views[o].get(), recs[o].get()));
    views[o]->AttachScheduler(scheds[o].get());
    scheds[o]->AttachSpindle(&plane, o);
    armed.push_back(std::make_unique<ArmedFaults>());
    if (faults) armed[o]->AttachAndArm(views[o].get(), seed + o);
  }
  std::vector<uint64_t> churn_hashes(owners);
  std::vector<std::thread> threads;
  for (uint32_t o = 0; o < owners; ++o) {
    threads.emplace_back([&, o] {
      EXPECT_TRUE(scheds[o]->Engage(depth, policy).ok());
      ChargeChurn churn(seed * 31 + o, views[o].get(), scheds[o].get(),
                        /*scoped_only=*/true);
      churn_hashes[o] = churn.Run(2000);
      scheds[o]->Settle();
      scheds[o]->SettlePhase();
    });
  }
  for (std::thread& t : threads) t.join();
  ChargeHash hash;
  for (uint32_t o = 0; o < owners; ++o) {
    hash.Mix(churn_hashes[o]);
    hash.MixStats(views[o]->stats());
    hash.MixScheduler(*scheds[o], *recs[o]);
  }
  hash.MixDouble(plane.hub()->clock().now());
  hash.Mix(plane.service_hash());
  hash.Mix(plane.rounds());
  scheds.clear();
  views.clear();
  return hash.value();
}

TEST(DeviceChargeTest, DeviceChargeDecisionsArePinned) {
  // Every way a request reaches the clock: the synchronous path, the
  // dedicated scheduler at depth 1 and 4 under both policies, and the
  // shared-spindle plane with one and two owners. The pinned value is
  // what the device produced when each entry point kept its own
  // sync-or-queue branch; any change to a charge, a counter, a service
  // order or a latency record changes it.
  ChargeHash hash;
  hash.Mix(DedicatedChargeRun(11, 0, SchedPolicy::kFifo,
                              DataMode::kMetadataOnly, /*faults=*/true));
  hash.Mix(DedicatedChargeRun(12, 1, SchedPolicy::kFifo, DataMode::kRetain,
                              /*faults=*/false));
  hash.Mix(DedicatedChargeRun(13, 4, SchedPolicy::kFifo, DataMode::kRetain,
                              /*faults=*/false));
  hash.Mix(DedicatedChargeRun(14, 4, SchedPolicy::kSptf,
                              DataMode::kMetadataOnly, /*faults=*/true));
  hash.Mix(PlaneChargeRun(15, 1, 1, SchedPolicy::kFifo,
                          DataMode::kMetadataOnly, /*faults=*/true));
  hash.Mix(PlaneChargeRun(16, 2, 2, SchedPolicy::kSptf, DataMode::kRetain,
                          /*faults=*/false));
  EXPECT_EQ(hash.value(), 0x0d0699e62d9ffc47ull);
}

// ---------------------------------------------------------------------
// Repository level

TEST(IoSchedulerTest, RepositoryAsyncQd1MatchesSyncClosely) {
  // The same name-based operation sequence against a synchronous
  // repository and one engaged at depth 1 / FIFO: layouts must be
  // identical (payload moves at submission) and the clocks agree to
  // float-accumulation noise.
  core::FsRepositoryConfig config;
  config.volume_bytes = 256 * kMiB;
  core::FsRepository sync_repo(config);
  core::FsRepository async_repo(config);
  ASSERT_TRUE(async_repo.io_scheduler()->Engage(1, SchedPolicy::kFifo).ok());

  auto drive = [](core::FsRepository* repo) {
    for (int i = 0; i < 24; ++i) {
      const std::string key = "obj" + std::to_string(i);
      ASSERT_TRUE(repo->Put(key, 256 * kKiB).ok());
    }
    for (int i = 0; i < 24; i += 2) {
      const std::string key = "obj" + std::to_string(i);
      ASSERT_TRUE(repo->SafeWrite(key, 256 * kKiB).ok());
    }
    for (int i = 0; i < 24; i += 3) {
      ASSERT_TRUE(repo->Get("obj" + std::to_string(i)).ok());
    }
    for (int i = 1; i < 24; i += 8) {
      ASSERT_TRUE(repo->Delete("obj" + std::to_string(i)).ok());
    }
  };
  drive(&sync_repo);
  drive(&async_repo);
  ASSERT_TRUE(async_repo.SetQueueDepth(1).ok());  // Drain + disengage.

  EXPECT_EQ(sync_repo.object_count(), async_repo.object_count());
  EXPECT_EQ(sync_repo.live_bytes(), async_repo.live_bytes());
  EXPECT_TRUE(sync_repo.CheckConsistency().ok());
  EXPECT_TRUE(async_repo.CheckConsistency().ok());
  for (const std::string& key : sync_repo.ListKeys()) {
    auto a = sync_repo.GetLayout(key);
    auto b = async_repo.GetLayout(key);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b) << key;
  }
  EXPECT_NEAR(async_repo.now(), sync_repo.now(), 1e-6 * sync_repo.now());
  // Both paths recorded every tracked op.
  EXPECT_EQ(sync_repo.latency_recorder()->total_count(),
            async_repo.latency_recorder()->total_count());
}

TEST(IoSchedulerTest, SetQueueDepthValidation) {
  core::FsRepositoryConfig config;
  config.volume_bytes = 64 * kMiB;
  core::FsRepository repo(config);
  EXPECT_TRUE(repo.SetQueueDepth(0).IsInvalidArgument());
  EXPECT_TRUE(repo.SetQueueDepth(1).ok());
  EXPECT_TRUE(repo.SetQueueDepth(8).ok());
  EXPECT_TRUE(repo.io_scheduler()->engaged());
  EXPECT_TRUE(repo.DrainIo().ok());
  EXPECT_TRUE(repo.SetQueueDepth(1).ok());
  EXPECT_FALSE(repo.io_scheduler()->engaged());
}

// ---------------------------------------------------------------------
// Workload level (QueueDepth* names keep these in the tsan CI subset)

workload::WorkloadConfig SmallWorkload(uint32_t queue_depth) {
  workload::WorkloadConfig config;
  config.sizes = workload::SizeDistribution::Constant(256 * kKiB);
  config.target_occupancy = 0.3;
  config.read_probe_samples = 64;
  config.queue_depth = queue_depth;
  return config;
}

TEST(QueueDepthWorkloadTest, AgedLayoutIndependentOfDepth) {
  // Payload and allocation decisions happen at submission in program
  // order, so a queued run must produce byte-for-byte the layout of the
  // synchronous run; only the timing differs.
  auto run = [](uint32_t qd) {
    core::FsRepositoryConfig config;
    config.volume_bytes = 128 * kMiB;
    auto repo = std::make_unique<core::FsRepository>(config);
    workload::GetPutRunner runner(repo.get(), SmallWorkload(qd));
    EXPECT_TRUE(runner.BulkLoad().ok());
    EXPECT_TRUE(runner.AgeTo(1.0).ok());
    EXPECT_TRUE(runner.MeasureReadThroughput().ok());
    EXPECT_TRUE(repo->CheckConsistency().ok());
    struct Shape {
      uint64_t objects, live, fragments;
    };
    const core::FragmentationReport frag = runner.Fragmentation();
    return Shape{repo->object_count(), repo->live_bytes(),
                 frag.max_fragments};
  };
  const auto sync_shape = run(1);
  const auto queued_shape = run(8);
  EXPECT_EQ(sync_shape.objects, queued_shape.objects);
  EXPECT_EQ(sync_shape.live, queued_shape.live);
  EXPECT_EQ(sync_shape.fragments, queued_shape.fragments);
}

TEST(QueueDepthWorkloadTest, RunnerProducesLatenciesAtDepth4) {
  core::FsRepositoryConfig config;
  config.volume_bytes = 128 * kMiB;
  core::FsRepository repo(config);
  workload::GetPutRunner runner(&repo, SmallWorkload(4));
  ASSERT_TRUE(runner.BulkLoad().ok());
  ASSERT_TRUE(runner.AgeTo(1.0).ok());
  ASSERT_TRUE(runner.MeasureReadThroughput().ok());
  const LatencyRecorder lat = runner.latency();
  EXPECT_GT(lat.writes().count(), 0u);
  EXPECT_GT(lat.histogram(OpClass::kGet).count(), 0u);
  // The queue-depth window closed behind each phase.
  EXPECT_FALSE(repo.io_scheduler()->engaged());
}

TEST(QueueDepthWorkloadTest, DbBackendRunsQueued) {
  core::DbRepositoryConfig config;
  config.volume_bytes = 128 * kMiB;
  core::DbRepository repo(config);
  workload::GetPutRunner runner(&repo, SmallWorkload(4));
  ASSERT_TRUE(runner.BulkLoad().ok());
  ASSERT_TRUE(runner.AgeTo(1.0).ok());
  ASSERT_TRUE(runner.MeasureReadThroughput().ok());
  ASSERT_TRUE(repo.CheckConsistency().ok());
  EXPECT_GT(runner.latency().total_count(), 0u);
}

TEST(QueueDepthShardedTest, TwoShardsRunQueuedConcurrently) {
  core::FsRepositoryConfig config;
  config.volume_bytes = 128 * kMiB;
  core::FsRepositoryFactory factory(config);
  workload::ShardedRunner runner(factory, SmallWorkload(4), 2);
  ASSERT_TRUE(runner.BulkLoad().ok());
  ASSERT_TRUE(runner.AgeTo(1.0).ok());
  ASSERT_TRUE(runner.MeasureReadThroughput().ok());
  const LatencyRecorder lat = runner.latency();
  EXPECT_GT(lat.total_count(), 0u);
  EXPECT_GT(lat.writes().count(), 0u);
}

}  // namespace
}  // namespace sim
}  // namespace lor
