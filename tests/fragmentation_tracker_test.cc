// Tests for the incremental fragmentation accounting: unit tests of
// core::FragmentationTracker and property tests asserting its snapshot
// stays field-for-field equal to the full layout scan after randomized
// Put/SafeWrite/Delete/defragment sequences on both repositories.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>

#include "core/db_repository.h"
#include "core/fragmentation.h"
#include "core/fs_repository.h"
#include "util/random.h"

namespace lor {
namespace core {
namespace {

TEST(FragmentationTrackerTest, EmptySnapshot) {
  FragmentationTracker tracker;
  FragmentationReport report = tracker.Snapshot();
  EXPECT_EQ(report.objects, 0u);
  EXPECT_EQ(report.fragments_per_object, 0.0);
  EXPECT_EQ(report.histogram.count(), 0u);
}

TEST(FragmentationTrackerTest, AddUpdateRemove) {
  FragmentationTracker tracker;
  tracker.Add(1, 1000);
  tracker.Add(3, 3000);
  EXPECT_EQ(tracker.objects(), 2u);
  EXPECT_EQ(tracker.total_fragments(), 4u);
  EXPECT_EQ(tracker.total_bytes(), 4000u);

  FragmentationReport report = tracker.Snapshot();
  EXPECT_DOUBLE_EQ(report.fragments_per_object, 2.0);
  EXPECT_EQ(report.max_fragments, 3u);
  EXPECT_DOUBLE_EQ(report.contiguous_fraction, 0.5);
  EXPECT_DOUBLE_EQ(report.mean_fragment_bytes, 1000.0);

  tracker.Update(3, 3000, 1, 3000);  // Defragmented in place.
  report = tracker.Snapshot();
  EXPECT_EQ(report.max_fragments, 1u);
  EXPECT_DOUBLE_EQ(report.contiguous_fraction, 1.0);

  tracker.Remove(1, 1000);
  tracker.Remove(1, 3000);
  EXPECT_EQ(tracker.objects(), 0u);
  EXPECT_EQ(tracker.total_bytes(), 0u);
}

TEST(FragmentationTrackerTest, OverflowFragmentCounts) {
  FragmentationTracker tracker;
  const uint64_t huge = FragmentationReport::kHistogramResolution + 123;
  tracker.Add(huge, 1 * kMiB);
  tracker.Add(2, 64 * kKiB);
  FragmentationReport report = tracker.Snapshot();
  EXPECT_EQ(report.max_fragments, huge);
  EXPECT_EQ(report.objects, 2u);
  tracker.Remove(huge, 1 * kMiB);
  EXPECT_EQ(tracker.Snapshot().max_fragments, 2u);
}

// -- Tracker vs full scan on live repositories ------------------------

using RepoFactory = std::function<std::unique_ptr<ObjectRepository>()>;

std::unique_ptr<ObjectRepository> MakeFs() {
  FsRepositoryConfig config;
  config.volume_bytes = 256 * kMiB;
  return std::make_unique<FsRepository>(config);
}

std::unique_ptr<ObjectRepository> MakeDb() {
  DbRepositoryConfig config;
  config.volume_bytes = 256 * kMiB;
  return std::make_unique<DbRepository>(config);
}

struct BackendCase {
  std::string label;
  RepoFactory make;
};

/// Names the case by its label, so test names stay stable across runs
/// (gtest would otherwise print the struct's raw bytes, pointers
/// included).
void PrintTo(const BackendCase& c, std::ostream* os) { *os << c.label; }

void ExpectReportsEqual(const FragmentationReport& tracked,
                        const FragmentationReport& scanned) {
  EXPECT_EQ(tracked.objects, scanned.objects);
  EXPECT_DOUBLE_EQ(tracked.fragments_per_object,
                   scanned.fragments_per_object);
  EXPECT_EQ(tracked.max_fragments, scanned.max_fragments);
  EXPECT_EQ(tracked.p50_fragments, scanned.p50_fragments);
  EXPECT_EQ(tracked.p99_fragments, scanned.p99_fragments);
  EXPECT_DOUBLE_EQ(tracked.mean_fragment_bytes, scanned.mean_fragment_bytes);
  EXPECT_DOUBLE_EQ(tracked.contiguous_fraction, scanned.contiguous_fraction);
  EXPECT_EQ(tracked.histogram.count(), scanned.histogram.count());
  for (uint64_t f = 0; f <= tracked.max_fragments &&
                       f <= FragmentationReport::kHistogramResolution;
       ++f) {
    EXPECT_EQ(tracked.histogram.BucketCount(f),
              scanned.histogram.BucketCount(f))
        << "fragment count " << f;
  }
}

class TrackerEquivalenceTest : public ::testing::TestWithParam<BackendCase> {};

TEST_P(TrackerEquivalenceTest, TrackerExistsAndStartsEmpty) {
  auto repo = GetParam().make();
  ASSERT_NE(repo->fragmentation_tracker(), nullptr);
  EXPECT_EQ(repo->fragmentation_tracker()->objects(), 0u);
}

TEST_P(TrackerEquivalenceTest, RandomizedChurnMatchesFullScan) {
  auto repo = GetParam().make();
  Rng rng(777);
  std::vector<std::string> live;
  uint64_t next_id = 0;
  for (int op = 0; op < 400; ++op) {
    const double dice = rng.NextDouble();
    if (live.size() < 8 || dice < 0.45) {
      const std::string key = "obj" + std::to_string(next_id++);
      const uint64_t size = (64 + rng.Uniform(512)) * kKiB;
      if (repo->Put(key, size).ok()) live.push_back(key);
    } else if (dice < 0.8) {
      const std::string& key = live[rng.Uniform(live.size())];
      const uint64_t size = (64 + rng.Uniform(512)) * kKiB;
      Status s = repo->SafeWrite(key, size);
      EXPECT_TRUE(s.ok() || s.IsNoSpace()) << s.ToString();
    } else {
      const size_t idx = rng.Uniform(live.size());
      ASSERT_TRUE(repo->Delete(live[idx]).ok());
      live[idx] = live.back();
      live.pop_back();
    }
    if (op % 50 == 0) {
      ExpectReportsEqual(repo->fragmentation_tracker()->Snapshot(),
                         AnalyzeFragmentationFullScan(*repo));
    }
  }
  ExpectReportsEqual(repo->fragmentation_tracker()->Snapshot(),
                     AnalyzeFragmentationFullScan(*repo));
  // AnalyzeFragmentation must serve the tracker's snapshot (and, in
  // debug builds, cross-check it against the scan itself).
  ExpectReportsEqual(AnalyzeFragmentation(*repo),
                     AnalyzeFragmentationFullScan(*repo));
  EXPECT_TRUE(repo->CheckConsistency().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Backends, TrackerEquivalenceTest,
    ::testing::Values(BackendCase{"filesystem", MakeFs},
                      BackendCase{"database", MakeDb}),
    [](const auto& info) { return info.param.label; });

// Defragmentation relocates extents behind the repository API; the
// tracker must follow those moves too.
TEST(TrackerEquivalenceTest, FsDefragmentationTracked) {
  FsRepositoryConfig config;
  config.volume_bytes = 128 * kMiB;
  FsRepository repo(config);
  Rng rng(99);
  std::vector<std::string> live;
  for (int i = 0; i < 60; ++i) {
    const std::string key = "obj" + std::to_string(i);
    ASSERT_TRUE(repo.Put(key, (128 + rng.Uniform(256)) * kKiB).ok());
    live.push_back(key);
  }
  for (int i = 0; i < 30; ++i) {  // Churn to fragment the volume.
    const std::string& key = live[rng.Uniform(live.size())];
    ASSERT_TRUE(repo.SafeWrite(key, (128 + rng.Uniform(256)) * kKiB).ok());
  }
  for (const std::string& key : live) {
    auto moved = repo.store()->DefragmentFile(key);
    ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  }
  ExpectReportsEqual(repo.fragmentation_tracker()->Snapshot(),
                     AnalyzeFragmentationFullScan(repo));
  EXPECT_TRUE(repo.CheckConsistency().ok());
}

}  // namespace
}  // namespace core
}  // namespace lor
