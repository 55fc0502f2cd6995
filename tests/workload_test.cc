// Tests for size distributions, the get/put runner, and trace
// record/replay.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "core/fs_repository.h"
#include "workload/getput_runner.h"
#include "workload/size_distribution.h"
#include "workload/trace.h"

namespace lor {
namespace workload {
namespace {

std::unique_ptr<core::FsRepository> MakeRepo(uint64_t volume = 256 * kMiB) {
  core::FsRepositoryConfig config;
  config.volume_bytes = volume;
  return std::make_unique<core::FsRepository>(config);
}

TEST(SizeDistributionTest, ConstantAlwaysMean) {
  Rng rng(1);
  auto d = SizeDistribution::Constant(10 * kMiB);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(d.Sample(&rng), 10 * kMiB);
}

TEST(SizeDistributionTest, UniformStaysInHalfToThreeHalves) {
  Rng rng(2);
  auto d = SizeDistribution::Uniform(10 * kMiB);
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const uint64_t s = d.Sample(&rng);
    EXPECT_GE(s, 5 * kMiB);
    EXPECT_LE(s, 15 * kMiB);
    sum += static_cast<double>(s);
  }
  EXPECT_NEAR(sum / kN, static_cast<double>(10 * kMiB),
              static_cast<double>(kMiB) * 0.1);
}

TEST(SizeDistributionTest, LogNormalMeanApproximatesTarget) {
  Rng rng(3);
  auto d = SizeDistribution::LogNormal(10 * kMiB, 0.5);
  double sum = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) sum += static_cast<double>(d.Sample(&rng));
  EXPECT_NEAR(sum / kN, static_cast<double>(10 * kMiB),
              static_cast<double>(10 * kMiB) * 0.05);
}

TEST(SizeDistributionTest, ClampsToOneKiB) {
  Rng rng(4);
  auto d = SizeDistribution::LogNormal(2 * kKiB, 3.0);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(d.Sample(&rng), kKiB);
}

TEST(GetPutRunnerTest, BulkLoadReachesOccupancy) {
  auto repo = MakeRepo();
  WorkloadConfig config;
  config.sizes = SizeDistribution::Constant(kMiB);
  config.target_occupancy = 0.5;
  GetPutRunner runner(repo.get(), config);
  auto load = runner.BulkLoad();
  ASSERT_TRUE(load.ok()) << load.status().ToString();
  const double occupancy = static_cast<double>(repo->live_bytes()) /
                           static_cast<double>(repo->volume_bytes());
  EXPECT_NEAR(occupancy, 0.5, 0.02);
  EXPECT_GT(load->mb_per_s(), 0.0);
  EXPECT_EQ(load->operations, runner.object_count());
  EXPECT_DOUBLE_EQ(runner.storage_age(), 0.0);
}

TEST(GetPutRunnerTest, BulkLoadTwiceRejected) {
  auto repo = MakeRepo();
  WorkloadConfig config;
  config.sizes = SizeDistribution::Constant(kMiB);
  GetPutRunner runner(repo.get(), config);
  ASSERT_TRUE(runner.BulkLoad().ok());
  EXPECT_TRUE(runner.BulkLoad().status().IsInvalidArgument());
}

TEST(GetPutRunnerTest, AgingReachesTargetAge) {
  auto repo = MakeRepo();
  WorkloadConfig config;
  config.sizes = SizeDistribution::Constant(kMiB);
  GetPutRunner runner(repo.get(), config);
  ASSERT_TRUE(runner.BulkLoad().ok());
  auto aged = runner.AgeTo(2.0);
  ASSERT_TRUE(aged.ok()) << aged.status().ToString();
  EXPECT_GE(runner.storage_age(), 2.0);
  EXPECT_LT(runner.storage_age(), 2.1);
  // Live bytes stay constant under constant-size replacement.
  const double occupancy = static_cast<double>(repo->live_bytes()) /
                           static_cast<double>(repo->volume_bytes());
  EXPECT_NEAR(occupancy, 0.5, 0.02);
  EXPECT_TRUE(repo->CheckConsistency().ok());
}

TEST(GetPutRunnerTest, AgeBeforeLoadRejected) {
  auto repo = MakeRepo();
  GetPutRunner runner(repo.get(), {});
  EXPECT_TRUE(runner.AgeTo(1.0).status().IsInvalidArgument());
  EXPECT_TRUE(runner.MeasureReadThroughput().status().IsInvalidArgument());
}

TEST(GetPutRunnerTest, ReadProbeSamplesPopulation) {
  auto repo = MakeRepo();
  WorkloadConfig config;
  config.sizes = SizeDistribution::Constant(kMiB);
  config.read_probe_samples = 32;
  GetPutRunner runner(repo.get(), config);
  ASSERT_TRUE(runner.BulkLoad().ok());
  auto read = runner.MeasureReadThroughput();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->operations, 32u);
  EXPECT_GT(read->mb_per_s(), 0.0);
}

TEST(GetPutRunnerTest, FragmentationGrowsWithAge) {
  auto repo = MakeRepo();
  WorkloadConfig config;
  config.sizes = SizeDistribution::Constant(2 * kMiB);
  GetPutRunner runner(repo.get(), config);
  ASSERT_TRUE(runner.BulkLoad().ok());
  const double frag0 = runner.Fragmentation().fragments_per_object;
  ASSERT_TRUE(runner.AgeTo(4.0).ok());
  const double frag4 = runner.Fragmentation().fragments_per_object;
  EXPECT_GE(frag4, frag0);
  EXPECT_GT(frag4, 1.0);  // Churn fragments even constant-size objects.
}

TEST(GetPutRunnerTest, DeterministicAcrossRuns) {
  auto run_once = [](uint64_t seed) {
    auto repo = MakeRepo();
    WorkloadConfig config;
    config.sizes = SizeDistribution::Uniform(kMiB);
    config.seed = seed;
    GetPutRunner runner(repo.get(), config);
    EXPECT_TRUE(runner.BulkLoad().ok());
    EXPECT_TRUE(runner.AgeTo(1.0).ok());
    return runner.Fragmentation().fragments_per_object;
  };
  EXPECT_DOUBLE_EQ(run_once(7), run_once(7));
  // Different seeds usually differ (not a hard guarantee, but with
  // uniform sizes the layouts essentially always diverge).
  EXPECT_NE(run_once(7), run_once(8));
}

TEST(TraceTest, SerializeRoundTrip) {
  Trace trace;
  trace.Add({TraceOp::Kind::kPut, "a", 1000});
  trace.Add({TraceOp::Kind::kSafeWrite, "a", 2000});
  trace.Add({TraceOp::Kind::kGet, "a", 0});
  trace.Add({TraceOp::Kind::kDelete, "a", 0});
  std::stringstream ss;
  trace.Serialize(ss);
  auto back = Trace::Deserialize(ss);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ops(), trace.ops());
  EXPECT_EQ(back->BytesWritten(), 3000u);
}

TEST(TraceTest, DeserializeRejectsGarbage) {
  std::stringstream bad1("fly away home\n");
  EXPECT_TRUE(Trace::Deserialize(bad1).status().IsInvalidArgument());
  std::stringstream bad2("put keyonly\n");
  EXPECT_TRUE(Trace::Deserialize(bad2).status().IsInvalidArgument());
  std::stringstream comments("# header\n\nput k 100\n");
  auto ok = Trace::Deserialize(comments);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->size(), 1u);
}

// Deserialize's error for `text`, which must name `line`.
void ExpectRejectedAtLine(const std::string& text, int line) {
  std::stringstream ss(text);
  const Status s = Trace::Deserialize(ss).status();
  EXPECT_TRUE(s.IsInvalidArgument()) << text;
  EXPECT_NE(s.message().find("line " + std::to_string(line)),
            std::string::npos)
      << s.ToString();
}

TEST(TraceTest, DeserializeRejectsNegativeSize) {
  // Stream extraction would wrap "-1" to 2^64-1.
  ExpectRejectedAtLine("put a 100\nput a -1\n", 2);
  ExpectRejectedAtLine("safewrite a +5\n", 1);
}

TEST(TraceTest, DeserializeRejectsOverflowingSize) {
  ExpectRejectedAtLine("put a 18446744073709551616\n", 1);
  ExpectRejectedAtLine("# c\nput a 99999999999999999999999\n", 2);
  // The largest value still parses.
  std::stringstream max("put a 18446744073709551615\n");
  auto ok = Trace::Deserialize(max);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->ops()[0].size, UINT64_MAX);
}

TEST(TraceTest, DeserializeRejectsTrailingJunk) {
  ExpectRejectedAtLine("put a 100 200\n", 1);
  ExpectRejectedAtLine("put a 100x\n", 1);
  ExpectRejectedAtLine("get a\nget a b\n", 2);
  ExpectRejectedAtLine("delete a extra\n", 1);
}

TEST(TraceTest, StrictParserKeepsValidRoundTrip) {
  Trace trace;
  trace.Add({TraceOp::Kind::kPut, "obj0", 0});
  trace.Add({TraceOp::Kind::kSafeWrite, "obj0", UINT64_MAX});
  trace.Add({TraceOp::Kind::kGet, "obj0", 0});
  trace.Add({TraceOp::Kind::kDelete, "obj0", 0});
  std::stringstream ss;
  trace.Serialize(ss);
  auto back = Trace::Deserialize(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->ops(), trace.ops());
  // Surrounding whitespace is not junk.
  std::stringstream spaced("  put  k  7  \n");
  auto k = Trace::Deserialize(spaced);
  ASSERT_TRUE(k.ok()) << k.status().ToString();
  EXPECT_EQ(k->ops()[0].size, 7u);
}

TEST(TraceTest, RecordAndReplayProduceSameState) {
  Trace trace;
  {
    auto repo = MakeRepo();
    RecordingRepository recorder(repo.get(), &trace);
    ASSERT_TRUE(recorder.Put("a", 100 * kKiB).ok());
    ASSERT_TRUE(recorder.Put("b", 200 * kKiB).ok());
    ASSERT_TRUE(recorder.SafeWrite("a", 150 * kKiB).ok());
    ASSERT_TRUE(recorder.Get("b").ok());
    ASSERT_TRUE(recorder.Delete("b").ok());
    EXPECT_EQ(recorder.object_count(), 1u);
  }
  EXPECT_EQ(trace.size(), 5u);
  auto replayed = MakeRepo();
  ASSERT_TRUE(trace.Replay(replayed.get()).ok());
  EXPECT_EQ(replayed->object_count(), 1u);
  EXPECT_EQ(replayed->live_bytes(), 150 * kKiB);
  auto size = replayed->GetSize("a");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 150 * kKiB);
}

TEST(TraceTest, CapturedGetPutRunReplaysToIdenticalDeviceStats) {
  // Capture a short get/put run through the recording decorator, replay
  // the trace against a fresh repository, and require the replayed
  // device to land on bit-identical stats — the property that makes
  // trace-based load generation an apples-to-apples methodology.
  Trace trace;
  sim::IoStats recorded;
  double recorded_clock = 0.0;
  uint64_t recorded_live = 0;
  {
    auto repo = MakeRepo();
    RecordingRepository recorder(repo.get(), &trace);
    WorkloadConfig config;
    config.sizes = SizeDistribution::Uniform(256 * kKiB);
    config.seed = 11;
    config.use_handles = false;  // Replay drives the name surface.
    GetPutRunner runner(&recorder, config);
    ASSERT_TRUE(runner.BulkLoad().ok());
    ASSERT_TRUE(runner.AgeTo(0.5).ok());
    recorded = recorder.device_stats();
    recorded_clock = recorder.now();
    recorded_live = recorder.live_bytes();
  }
  ASSERT_FALSE(trace.empty());

  auto replayed = MakeRepo();
  ASSERT_TRUE(trace.Replay(replayed.get()).ok());
  const sim::IoStats replay = replayed->device_stats();
  EXPECT_EQ(replay.reads, recorded.reads);
  EXPECT_EQ(replay.writes, recorded.writes);
  EXPECT_EQ(replay.bytes_read, recorded.bytes_read);
  EXPECT_EQ(replay.bytes_written, recorded.bytes_written);
  EXPECT_EQ(replay.seeks, recorded.seeks);
  EXPECT_EQ(replay.sequential_hits, recorded.sequential_hits);
  EXPECT_DOUBLE_EQ(replay.seek_time_s, recorded.seek_time_s);
  EXPECT_DOUBLE_EQ(replay.transfer_time_s, recorded.transfer_time_s);
  EXPECT_DOUBLE_EQ(replayed->now(), recorded_clock);
  EXPECT_EQ(replayed->live_bytes(), recorded_live);
}

TEST(TraceTest, HandlesThroughTheRecorderAreTheInnerTableHandles) {
  Trace trace;
  auto repo = MakeRepo();
  RecordingRepository recorder(repo.get(), &trace);
  core::ObjectRepository& wrapped = recorder;
  ASSERT_TRUE(wrapped.Put("a", 64 * kKiB).ok());

  // Open pins an entry in the wrapped store's handle table.
  auto read = wrapped.Open("a");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(repo->store()->open_handle_count(), 1u);
  ASSERT_TRUE(wrapped.Get(*read).ok());
  auto size = wrapped.GetSize(*read);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 64 * kKiB);
  ASSERT_TRUE(wrapped.Release(&*read).ok());
  EXPECT_EQ(repo->store()->open_handle_count(), 0u);

  // Handle writes and deletes are traced under the handle's key.
  auto write = wrapped.OpenForWrite("b");
  ASSERT_TRUE(write.ok());
  ASSERT_TRUE(wrapped.SafeWrite(*write, 32 * kKiB).ok());
  ASSERT_TRUE(wrapped.Delete(&*write).ok());
  EXPECT_FALSE(write->valid());
  const std::vector<TraceOp> expected = {
      {TraceOp::Kind::kPut, "a", 64 * kKiB},
      {TraceOp::Kind::kGet, "a", 0},
      {TraceOp::Kind::kSafeWrite, "b", 32 * kKiB},
      {TraceOp::Kind::kDelete, "b", 0}};
  EXPECT_EQ(trace.ops(), expected);
}

TEST(TraceTest, CapturedHandleRunReplaysToTheSameObjects) {
  // The handle path records bulk-load creates as safe writes, not puts,
  // so op kinds and device stats differ from the name path; the
  // replayed objects must not.
  Trace trace;
  auto repo = MakeRepo();
  {
    RecordingRepository recorder(repo.get(), &trace);
    WorkloadConfig config;
    config.sizes = SizeDistribution::Uniform(256 * kKiB);
    config.seed = 11;
    config.use_handles = true;
    GetPutRunner runner(&recorder, config);
    ASSERT_TRUE(runner.BulkLoad().ok());
    ASSERT_TRUE(runner.AgeTo(0.5).ok());
    ASSERT_TRUE(runner.MeasureReadThroughput().ok());
  }
  ASSERT_FALSE(trace.empty());

  auto replayed = MakeRepo();
  ASSERT_TRUE(trace.Replay(replayed.get()).ok());
  EXPECT_EQ(replayed->object_count(), repo->object_count());
  EXPECT_EQ(replayed->live_bytes(), repo->live_bytes());
  for (const std::string& key : repo->ListKeys()) {
    auto want = repo->GetSize(key);
    auto got = replayed->GetSize(key);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, *want) << key;
  }
}

TEST(TraceTest, FailedOpsAreNotRecorded) {
  Trace trace;
  auto repo = MakeRepo();
  RecordingRepository recorder(repo.get(), &trace);
  EXPECT_TRUE(recorder.Get("missing").IsNotFound());
  EXPECT_TRUE(trace.empty());
}

TEST(TraceTest, ReplayStopsOnFailure) {
  Trace trace;
  trace.Add({TraceOp::Kind::kGet, "missing", 0});
  auto repo = MakeRepo();
  EXPECT_TRUE(trace.Replay(repo.get()).IsNotFound());
}

}  // namespace
}  // namespace workload
}  // namespace lor
