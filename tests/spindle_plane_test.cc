// Tests for the shared-spindle execution plane (sim::SpindlePlane and
// its integration through core::RepositoryFactory / the workload
// runners):
//
//   * deterministic concurrent submission — same seed ⇒ identical hub
//     clock, per-view stats, and service interleave (service_hash)
//     across repeated runs AND across perturbed thread schedules;
//   * SPTF fairness — an adversarial two-owner interleave (one owner
//     parked at the head's home position, the other scattered far)
//     finishes in a bounded number of service rounds with no
//     starvation, because a round takes one batch from every owner;
//   * single-owner parity — one owner alone on a shared spindle at
//     queue depth 1 reproduces the dedicated synchronous timeline bit
//     for bit (samples, device stats, latency histograms);
//   * interference attribution — cross-owner seeks are charged only
//     when spindles are actually shared;
//   * retirement — schedulers destroyed before settling still see
//     every op they submitted serviced;
//   * phase fusion — AgeAndMeasure equals the barrier-separated
//     AgeTo + MeasureReadThroughput.

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/repository_factory.h"
#include "sim/block_device.h"
#include "sim/io_scheduler.h"
#include "sim/latency_recorder.h"
#include "sim/spindle_plane.h"
#include "workload/sharded_runner.h"

namespace lor {
namespace sim {
namespace {

// ---------------------------------------------------------------------
// Direct plane tests: fabricated op streams through ported IoSchedulers.
// ---------------------------------------------------------------------

constexpr uint64_t kRegion = 8 * kMiB;
constexpr uint64_t kBlock = 4 * kKiB;

/// Offset (region-relative) of owner `owner`'s `i`-th request.
using OffsetFn = std::function<uint64_t(uint32_t owner, uint32_t i)>;

struct PlaneRun {
  uint64_t service_hash = 0;
  uint64_t rounds = 0;
  double hub_clock = 0.0;
  std::vector<IoStats> view_stats;
  std::vector<uint64_t> completed_ops;
};

/// How DrivePlane perturbs the host schedule; the simulated outcome
/// must not notice any of them.
enum class Stagger {
  kNone,
  /// Every thread sleeps a pseudo-random few microseconds between ops.
  kJitter,
  /// The last owner starts late and pauses every 16 ops, so its peers
  /// fill their queues to the backpressure window and block there.
  kSlowOwner,
};

/// Drives `owners` concurrent owners, each submitting `batches` batches
/// of `depth` single-write ops at `offset_of(owner, i)`, then settling
/// and phase-settling. Depth 1 never calls Engage, like a bulk load:
/// the owners stay at the port path's default of one op per batch.
PlaneRun DrivePlane(SchedPolicy policy, uint64_t seed, uint32_t owners,
                    uint32_t depth, uint32_t batches,
                    const OffsetFn& offset_of, Stagger stagger) {
  SpindlePlane::Params params;
  params.region_bytes = kRegion;
  params.owners = owners;
  params.policy = policy;
  params.seed = seed;
  SpindlePlane plane(params);

  std::vector<std::unique_ptr<BlockDevice>> views;
  std::vector<std::unique_ptr<LatencyRecorder>> recorders;
  std::vector<std::unique_ptr<IoScheduler>> scheds;
  for (uint32_t o = 0; o < owners; ++o) {
    views.push_back(plane.CreateOwnerDevice(o));
    recorders.push_back(std::make_unique<LatencyRecorder>());
    scheds.push_back(
        std::make_unique<IoScheduler>(views[o].get(), recorders[o].get()));
    scheds[o]->AttachSpindle(&plane, o);
  }

  std::vector<std::thread> threads;
  for (uint32_t o = 0; o < owners; ++o) {
    threads.emplace_back([&, o] {
      // Engage fences, so it must run symmetrically on the owners'
      // threads (the plane pops one fence per active owner at a time).
      if (depth > 1) {
        ASSERT_TRUE(scheds[o]->Engage(depth, policy).ok());
      }
      std::mt19937 jitter(seed ^ (o + 1));
      const bool slow = stagger == Stagger::kSlowOwner && o + 1 == owners;
      if (slow) std::this_thread::sleep_for(std::chrono::milliseconds(5));
      for (uint32_t i = 0; i < batches * depth; ++i) {
        scheds[o]->BeginOp(OpClass::kPut);
        IoScheduler::Request write;
        write.write = true;
        write.offset = offset_of(o, i);
        write.len = kBlock;
        scheds[o]->Enqueue(write);
        scheds[o]->EndOp();
        if (stagger == Stagger::kJitter && (jitter() & 3u) == 0) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(jitter() % 200));
        }
        if (slow && i % 16 == 15) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
      }
      scheds[o]->Settle();
      scheds[o]->SettlePhase();
    });
  }
  for (std::thread& t : threads) t.join();

  PlaneRun run;
  run.service_hash = plane.service_hash();
  run.rounds = plane.rounds();
  run.hub_clock = plane.hub()->clock().now();
  for (uint32_t o = 0; o < owners; ++o) {
    run.view_stats.push_back(views[o]->stats());
    run.completed_ops.push_back(scheds[o]->completed_ops());
  }
  // Teardown order matters: schedulers retire against the live plane,
  // then the views release their hub regions.
  scheds.clear();
  views.clear();
  return run;
}

void ExpectSameStats(const IoStats& a, const IoStats& b) {
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
  EXPECT_EQ(a.seeks, b.seeks);
  EXPECT_EQ(a.sequential_hits, b.sequential_hits);
  EXPECT_EQ(a.interference_seeks, b.interference_seeks);
  EXPECT_DOUBLE_EQ(a.seek_time_s, b.seek_time_s);
  EXPECT_DOUBLE_EQ(a.rotational_time_s, b.rotational_time_s);
  EXPECT_DOUBLE_EQ(a.transfer_time_s, b.transfer_time_s);
  EXPECT_DOUBLE_EQ(a.busy_time_s, b.busy_time_s);
  EXPECT_DOUBLE_EQ(a.interference_seek_time_s, b.interference_seek_time_s);
  EXPECT_DOUBLE_EQ(a.queue_wait_s, b.queue_wait_s);
}

uint64_t ScatteredOffset(uint32_t owner, uint32_t i) {
  // A full-region pseudo-random walk, distinct per owner.
  const uint64_t blocks = kRegion / kBlock;
  return ((i * 2654435761ull + owner * 40503ull) % blocks) * kBlock;
}

TEST(SpindlePlaneDeterminismTest, SameSeedSameOutcomeAcrossRunsAndSchedules) {
  // The 4-owner service order is pinned as well as self-consistent:
  // a change to how chains are built, moved or consumed must not move
  // the interleave, the round count or the hub clock by a bit.
  struct Pin {
    SchedPolicy policy;
    uint64_t service_hash;
    uint64_t rounds;
    uint64_t hub_clock_bits;
  };
  constexpr Pin kPins[] = {
      {SchedPolicy::kFifo, 0x5a776ab443cb8af1ull, 16u, 0x400b0e73f3bd4d9aull},
      {SchedPolicy::kSptf, 0xfce3655cb86da8c4ull, 16u, 0x4002dbd785f84d46ull},
  };
  for (const Pin& pin : kPins) {
    const SchedPolicy policy = pin.policy;
    const PlaneRun baseline = DrivePlane(policy, /*seed=*/7, /*owners=*/4,
                                         /*depth=*/4, /*batches=*/16,
                                         ScatteredOffset, Stagger::kNone);
    EXPECT_EQ(baseline.service_hash, pin.service_hash);
    EXPECT_EQ(baseline.rounds, pin.rounds);
    EXPECT_EQ(std::bit_cast<uint64_t>(baseline.hub_clock), pin.hub_clock_bits);
    const PlaneRun repeat = DrivePlane(policy, 7, 4, 4, 16, ScatteredOffset,
                                       Stagger::kNone);
    const PlaneRun perturbed = DrivePlane(policy, 7, 4, 4, 16,
                                          ScatteredOffset, Stagger::kJitter);
    for (const PlaneRun* other : {&repeat, &perturbed}) {
      EXPECT_EQ(baseline.service_hash, other->service_hash);
      EXPECT_EQ(baseline.rounds, other->rounds);
      EXPECT_DOUBLE_EQ(baseline.hub_clock, other->hub_clock);
      ASSERT_EQ(baseline.view_stats.size(), other->view_stats.size());
      for (size_t o = 0; o < baseline.view_stats.size(); ++o) {
        ExpectSameStats(baseline.view_stats[o], other->view_stats[o]);
        EXPECT_EQ(baseline.completed_ops[o], other->completed_ops[o]);
      }
    }
    EXPECT_GT(baseline.service_hash, 0u);
    EXPECT_GT(baseline.rounds, 0u);
  }
}

TEST(SpindlePlaneDeterminismTest, SeedChangesTheFifoInterleave) {
  // The FIFO slot shuffle is salted by the plane seed, so different
  // seeds interleave the owners differently (equal work, different
  // service order and therefore different head movement).
  const PlaneRun a = DrivePlane(SchedPolicy::kFifo, 1, 4, 4, 16,
                                ScatteredOffset, Stagger::kNone);
  const PlaneRun b = DrivePlane(SchedPolicy::kFifo, 2, 4, 4, 16,
                                ScatteredOffset, Stagger::kNone);
  EXPECT_NE(a.service_hash, b.service_hash);
}

TEST(SpindlePlaneDeterminismTest, BulkLoadShapeIsPinnedUnderBackpressure) {
  // The bulk-load shape: four owners that never Engage (one op per
  // batch), each submitting well past four backpressure windows (64
  // batches) before it settles. The service order, round count and hub
  // clock are pinned, and hold when one owner lags so that its peers
  // block at the window again and again.
  struct Pin {
    SchedPolicy policy;
    uint64_t service_hash;
    uint64_t rounds;
    uint64_t hub_clock_bits;
  };
  constexpr uint32_t kBatches = 4 * 64 + 44;
  constexpr Pin kPins[] = {
      {SchedPolicy::kFifo, 0xf25dcd15f5c73bf9ull, 300u, 0x4030c8486108ca2full},
      {SchedPolicy::kSptf, 0xf14982f324af3f5bull, 300u, 0x402ab002ccb5e7b2ull},
  };
  for (const Pin& pin : kPins) {
    const PlaneRun baseline =
        DrivePlane(pin.policy, /*seed=*/42, /*owners=*/4, /*depth=*/1,
                   kBatches, ScatteredOffset, Stagger::kNone);
    EXPECT_EQ(baseline.service_hash, pin.service_hash);
    EXPECT_EQ(baseline.rounds, pin.rounds);
    EXPECT_EQ(std::bit_cast<uint64_t>(baseline.hub_clock), pin.hub_clock_bits);
    const PlaneRun lagging = DrivePlane(pin.policy, 42, 4, 1, kBatches,
                                        ScatteredOffset, Stagger::kSlowOwner);
    EXPECT_EQ(lagging.service_hash, pin.service_hash);
    EXPECT_EQ(lagging.rounds, pin.rounds);
    EXPECT_EQ(std::bit_cast<uint64_t>(lagging.hub_clock), pin.hub_clock_bits);
    for (uint32_t o = 0; o < 4; ++o) {
      EXPECT_EQ(baseline.completed_ops[o], kBatches);
      ExpectSameStats(baseline.view_stats[o], lagging.view_stats[o]);
      EXPECT_EQ(lagging.completed_ops[o], kBatches);
    }
  }
}

TEST(SpindlePlaneRetireTest, UndeliveredBatchesCompleteThroughRetire) {
  // Schedulers destroyed without settling: whatever each owner still
  // holds (full batches and a partial one) or has queued but not seen
  // serviced is handed over at retirement and serviced solo, in owner
  // order. Submission is single-threaded and stays under the window,
  // so nothing is serviced before the first retirement and the outcome
  // is a pinned function of the submissions.
  constexpr uint32_t kOwners = 4;
  constexpr uint32_t kOps = 41;  // at depth 4: ten full batches, one partial
  // Solo drains service each owner's chains contiguously in program
  // order, so neither the policy nor the depth moves the outcome.
  constexpr uint64_t kServiceHash = 0xb6e25145616a2bccull;
  constexpr uint64_t kHubClockBits = 0x3ff6ec3812c58d55ull;
  for (uint32_t depth : {1u, 4u}) {
    for (SchedPolicy policy : {SchedPolicy::kFifo, SchedPolicy::kSptf}) {
      SpindlePlane::Params params;
      params.region_bytes = kRegion;
      params.owners = kOwners;
      params.policy = policy;
      params.seed = 7;
      SpindlePlane plane(params);
      std::vector<std::unique_ptr<BlockDevice>> views;
      std::vector<std::unique_ptr<LatencyRecorder>> recorders;
      std::vector<std::unique_ptr<IoScheduler>> scheds;
      for (uint32_t o = 0; o < kOwners; ++o) {
        views.push_back(plane.CreateOwnerDevice(o));
        recorders.push_back(std::make_unique<LatencyRecorder>());
        scheds.push_back(std::make_unique<IoScheduler>(views[o].get(),
                                                       recorders[o].get()));
        scheds[o]->AttachSpindle(&plane, o);
      }
      if (depth > 1) {
        // Engage fences in lockstep, so every owner engages on its own
        // thread; the submissions below then run on this one.
        std::vector<std::thread> threads;
        for (uint32_t o = 0; o < kOwners; ++o) {
          threads.emplace_back([&, o] {
            ASSERT_TRUE(scheds[o]->Engage(depth, policy).ok());
          });
        }
        for (std::thread& t : threads) t.join();
      }
      for (uint32_t o = 0; o < kOwners; ++o) {
        for (uint32_t i = 0; i < kOps; ++i) {
          scheds[o]->BeginOp(OpClass::kPut);
          IoScheduler::Request write;
          write.write = true;
          write.offset = ScatteredOffset(o, i);
          write.len = kBlock;
          scheds[o]->Enqueue(write);
          scheds[o]->EndOp();
        }
      }
      EXPECT_EQ(plane.rounds(), 0u);
      scheds.clear();
      EXPECT_EQ(plane.rounds(), 0u);
      EXPECT_EQ(plane.service_hash(), kServiceHash);
      EXPECT_EQ(std::bit_cast<uint64_t>(plane.hub()->clock().now()),
                kHubClockBits);
      for (uint32_t o = 0; o < kOwners; ++o) {
        const IoStats& st = views[o]->stats();
        EXPECT_EQ(st.seeks + st.sequential_hits, kOps);  // serviced requests
        EXPECT_EQ(recorders[o]->total_count(), kOps);
      }
      views.clear();
    }
  }
}

TEST(SpindlePlaneSptfFairnessTest, AdversarialInterleaveBoundedRounds) {
  // Owner 0 hammers the head's home position (offset 0: near-zero
  // positioning cost every time); owner 1 scatters across its whole
  // region. Under unbounded global SPTF owner 0 would starve owner 1
  // indefinitely; the plane's round construction services one batch
  // from EVERY owner before the next round forms, so owner 1 finishes
  // within a round budget linear in the batches submitted.
  constexpr uint32_t kDepth = 4;
  constexpr uint32_t kBatches = 32;
  const OffsetFn adversarial = [](uint32_t owner, uint32_t i) {
    return owner == 0 ? 0 : ScatteredOffset(owner, i);
  };
  const PlaneRun run = DrivePlane(SchedPolicy::kSptf, 7, /*owners=*/2,
                                  kDepth, kBatches, adversarial,
                                  Stagger::kNone);

  // No starvation: every op of both owners completed (their phase
  // fences returned, and the per-owner counters agree). Each serviced
  // device request charges exactly one of {seek, sequential hit} on
  // its owner's view, so the sum counts serviced requests exactly.
  ASSERT_EQ(run.completed_ops.size(), 2u);
  for (uint32_t o = 0; o < 2; ++o) {
    EXPECT_EQ(run.completed_ops[o], uint64_t{kDepth} * kBatches);
    EXPECT_EQ(run.view_stats[o].seeks + run.view_stats[o].sequential_hits,
              uint64_t{kDepth} * kBatches);
    EXPECT_GT(run.view_stats[o].busy_time_s, 0.0);
  }

  // Bounded service rounds: each round consumes at least one batch, at
  // most one per owner — so between kBatches (fully paired) and
  // 2*kBatches (fully solo) rounds, never more.
  EXPECT_GE(run.rounds, uint64_t{kBatches});
  EXPECT_LE(run.rounds, uint64_t{2} * kBatches);

  // The interleave crossed owner regions, so the shared head paid
  // interference seeks a dedicated layout would not have.
  EXPECT_GT(run.view_stats[0].interference_seeks +
                run.view_stats[1].interference_seeks,
            0u);
}

}  // namespace
}  // namespace sim

// ---------------------------------------------------------------------
// Workload-level tests: factory topology, parity, and phase fusion.
// ---------------------------------------------------------------------

namespace workload {
namespace {

constexpr uint64_t kVolume = 512 * kMiB;  // MiB-aligned per shard: parity.

std::unique_ptr<core::RepositoryFactory> MakeFactory(
    const std::string& backend) {
  if (backend == "filesystem") {
    core::FsRepositoryConfig config;
    config.volume_bytes = kVolume;
    return std::make_unique<core::FsRepositoryFactory>(config);
  }
  core::DbRepositoryConfig config;
  config.volume_bytes = kVolume;
  return std::make_unique<core::DbRepositoryFactory>(config);
}

WorkloadConfig SmallWorkload(uint32_t queue_depth = 1) {
  WorkloadConfig config;
  config.sizes = SizeDistribution::Uniform(kMiB);
  config.seed = 42;
  config.read_probe_samples = 64;
  config.queue_depth = queue_depth;
  return config;
}

core::SpindleTopology SharedTopology(uint32_t owners_per_spindle) {
  core::SpindleTopology topology;
  topology.owners_per_spindle = owners_per_spindle;
  return topology;
}

struct RunOutcome {
  ThroughputSample load;
  ThroughputSample aged;
  ThroughputSample read;
  sim::IoStats device;
  std::string latency;
  uint64_t objects = 0;
};

RunOutcome RunAging(const core::RepositoryFactory& factory,
                    const WorkloadConfig& config, uint32_t shards) {
  RunOutcome out;
  ShardedRunner runner(factory, config, shards);
  auto load = runner.BulkLoad();
  EXPECT_TRUE(load.ok()) << load.status().ToString();
  auto aged = runner.AgeTo(1.0);
  EXPECT_TRUE(aged.ok()) << aged.status().ToString();
  auto read = runner.MeasureReadThroughput();
  EXPECT_TRUE(read.ok()) << read.status().ToString();
  if (load.ok()) out.load = *load;
  if (aged.ok()) out.aged = *aged;
  if (read.ok()) out.read = *read;
  out.device = runner.device_stats();
  out.latency = runner.latency().ToString();
  out.objects = runner.object_count();
  return out;
}

void ExpectSameSample(const ThroughputSample& a, const ThroughputSample& b) {
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.operations, b.operations);
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
}

void ExpectSameOutcome(const RunOutcome& a, const RunOutcome& b) {
  ExpectSameSample(a.load, b.load);
  ExpectSameSample(a.aged, b.aged);
  ExpectSameSample(a.read, b.read);
  sim::ExpectSameStats(a.device, b.device);
  EXPECT_EQ(a.latency, b.latency);
  EXPECT_EQ(a.objects, b.objects);
}

class SpindlePlaneBackendTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(SpindlePlaneBackendTest, SingleOwnerPlaneMatchesDedicatedBitForBit) {
  // One owner alone on a shared spindle at queue depth 1 must replay
  // the dedicated synchronous timeline exactly: same samples, same
  // device stats (including every double), same latency histograms.
  // owners_per_spindle=2 with one shard builds a real plane whose only
  // spindle holds a single owner, so the whole port path runs.
  auto factory = MakeFactory(GetParam());
  const RunOutcome dedicated = RunAging(*factory, SmallWorkload(), 1);

  factory->set_spindle_topology(SharedTopology(2));
  const RunOutcome ported = RunAging(*factory, SmallWorkload(), 1);

  EXPECT_EQ(dedicated.device.interference_seeks, 0u);
  EXPECT_EQ(ported.device.interference_seeks, 0u);
  ExpectSameOutcome(dedicated, ported);
}

TEST_P(SpindlePlaneBackendTest, SharedSpindleDeterministicAcrossRuns) {
  // Four shards contending for one spindle at queue depth 4: the
  // maximally concurrent configuration. Two runs must agree on every
  // simulated number — the interleave is a function of the per-owner
  // submission sequences, never of host thread timing.
  auto run_once = [&] {
    auto factory = MakeFactory(GetParam());
    factory->set_spindle_topology(SharedTopology(4));
    return RunAging(*factory, SmallWorkload(/*queue_depth=*/4), 4);
  };
  const RunOutcome a = run_once();
  const RunOutcome b = run_once();
  ExpectSameOutcome(a, b);
  EXPECT_GT(a.device.interference_seeks, 0u);
}

TEST_P(SpindlePlaneBackendTest, InterferenceChargedOnlyWhenShared) {
  auto factory = MakeFactory(GetParam());
  const RunOutcome dedicated =
      RunAging(*factory, SmallWorkload(/*queue_depth=*/4), 2);
  EXPECT_EQ(dedicated.device.interference_seeks, 0u);
  EXPECT_DOUBLE_EQ(dedicated.device.interference_seek_time_s, 0.0);

  factory->set_spindle_topology(SharedTopology(2));
  const RunOutcome shared =
      RunAging(*factory, SmallWorkload(/*queue_depth=*/4), 2);
  EXPECT_GT(shared.device.interference_seeks, 0u);
  EXPECT_GT(shared.device.interference_seek_time_s, 0.0);
  EXPECT_GT(shared.device.queue_wait_s, 0.0);
  // Equal work, contended head: the shared deployment cannot finish
  // its aging pass faster than the dedicated one.
  EXPECT_GE(shared.aged.seconds, dedicated.aged.seconds);
}

TEST_P(SpindlePlaneBackendTest, FusedAgeAndMeasureMatchesSeparatePhases) {
  // AgeAndMeasure overlaps the read probe with peers still aging; the
  // simulated outcome must equal the barrier-separated AgeTo +
  // MeasureReadThroughput on both topologies.
  for (uint32_t owners : {1u, 2u}) {
    auto factory = MakeFactory(GetParam());
    factory->set_spindle_topology(SharedTopology(owners));

    ShardedRunner separate(*factory, SmallWorkload(), 2);
    ASSERT_TRUE(separate.BulkLoad().ok());
    auto aged = separate.AgeTo(1.0);
    ASSERT_TRUE(aged.ok()) << aged.status().ToString();
    auto read = separate.MeasureReadThroughput();
    ASSERT_TRUE(read.ok()) << read.status().ToString();

    ShardedRunner fused(*factory, SmallWorkload(), 2);
    ASSERT_TRUE(fused.BulkLoad().ok());
    auto both = fused.AgeAndMeasure(1.0);
    ASSERT_TRUE(both.ok()) << both.status().ToString();

    ExpectSameSample(both->aged, *aged);
    ExpectSameSample(both->read, *read);
    sim::ExpectSameStats(fused.device_stats(), separate.device_stats());
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, SpindlePlaneBackendTest,
                         ::testing::Values("filesystem", "database"));

}  // namespace
}  // namespace workload
}  // namespace lor
