// Tests for the handle-based object access layer: the handle path must
// be observably identical to the name path on both back ends — same
// payload bytes, layouts, sizes, and fragmentation-tracker state after
// identical operation streams, including under ShardedRunner at four
// shards — and handle misuse (use-after-delete, double release, foreign
// or read-only handles) must fail cleanly instead of touching stale
// state. Also covers the recycled safe-write temp records on the
// filesystem back end and the positioned range-read cursor on the
// database back end.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/db_repository.h"
#include "core/fragmentation.h"
#include "core/fs_repository.h"
#include "core/object_handle.h"
#include "core/repository_factory.h"
#include "util/random.h"
#include "workload/getput_runner.h"
#include "workload/sharded_runner.h"

namespace lor {
namespace core {
namespace {

std::vector<uint8_t> Pattern(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> data(n);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  return data;
}

using RepoFactory =
    std::function<std::unique_ptr<ObjectRepository>(sim::DataMode)>;

std::unique_ptr<ObjectRepository> MakeFs(sim::DataMode mode) {
  FsRepositoryConfig config;
  config.volume_bytes = 256 * kMiB;
  config.data_mode = mode;
  return std::make_unique<FsRepository>(config);
}

std::unique_ptr<ObjectRepository> MakeDb(sim::DataMode mode) {
  DbRepositoryConfig config;
  config.volume_bytes = 256 * kMiB;
  config.data_mode = mode;
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

/// Full observable state of a repository, keyed by object.
std::map<std::string, std::pair<alloc::ExtentList, uint64_t>> Snapshot(
    const ObjectRepository& repo) {
  std::map<std::string, std::pair<alloc::ExtentList, uint64_t>> state;
  repo.VisitObjects([&](const std::string& key,
                        const alloc::ExtentList& layout, uint64_t size) {
    state[key] = {layout, size};
  });
  return state;
}

void ExpectIdenticalState(ObjectRepository* name_repo,
                          ObjectRepository* handle_repo) {
  EXPECT_EQ(name_repo->object_count(), handle_repo->object_count());
  EXPECT_EQ(name_repo->live_bytes(), handle_repo->live_bytes());
  EXPECT_EQ(name_repo->free_bytes(), handle_repo->free_bytes());
  EXPECT_EQ(Snapshot(*name_repo), Snapshot(*handle_repo));

  const FragmentationReport a = AnalyzeFragmentation(*name_repo);
  const FragmentationReport b = AnalyzeFragmentation(*handle_repo);
  EXPECT_EQ(a.objects, b.objects);
  EXPECT_DOUBLE_EQ(a.fragments_per_object, b.fragments_per_object);
  EXPECT_EQ(a.max_fragments, b.max_fragments);

  EXPECT_TRUE(name_repo->CheckConsistency().ok());
  EXPECT_TRUE(handle_repo->CheckConsistency().ok());
}

class ObjectHandleContractTest : public ::testing::TestWithParam<BackendCase> {
};

// The tentpole property: an identical stream of puts, safe writes, and
// reads produces identical repositories whether every operation
// resolves its key by name or runs through handles opened once per
// object. Payload bytes are verified on data-retaining devices.
TEST_P(ObjectHandleContractTest, HandlePathMatchesNamePathUnderChurn) {
  auto name_repo = GetParam().make(sim::DataMode::kRetain);
  auto handle_repo = GetParam().make(sim::DataMode::kRetain);

  constexpr int kObjects = 24;
  constexpr int kChurnOps = 96;
  std::vector<std::string> keys;
  std::vector<ObjectHandle> handles;
  std::vector<uint64_t> versions(kObjects, 0);

  Rng sizes(7);
  for (int i = 0; i < kObjects; ++i) {
    const std::string key = "obj" + std::to_string(i);
    const uint64_t size = 32 * kKiB + (sizes.Next() % 5) * 48 * kKiB;
    const std::vector<uint8_t> data = Pattern(size, i);
    ASSERT_TRUE(name_repo->Put(key, size, data).ok());
    ASSERT_TRUE(handle_repo->Put(key, size, data).ok());
    auto handle = handle_repo->OpenForWrite(key);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    keys.push_back(key);
    handles.push_back(std::move(*handle));
  }

  Rng churn(11);
  for (int op = 0; op < kChurnOps; ++op) {
    const int victim = static_cast<int>(churn.Next() % kObjects);
    if (churn.Next() % 3 == 0) {
      // Read and compare payloads through both paths.
      std::vector<uint8_t> via_name, via_handle;
      ASSERT_TRUE(name_repo->Get(keys[victim], &via_name).ok());
      ASSERT_TRUE(handle_repo->Get(handles[victim], &via_handle).ok());
      EXPECT_EQ(via_name, via_handle) << keys[victim];
    } else {
      const uint64_t size = 32 * kKiB + (churn.Next() % 7) * 32 * kKiB;
      const std::vector<uint8_t> data =
          Pattern(size, 1000 + 31 * victim + ++versions[victim]);
      ASSERT_TRUE(name_repo->SafeWrite(keys[victim], size, data).ok());
      ASSERT_TRUE(handle_repo->SafeWrite(handles[victim], size, data).ok());
    }
    // Handle introspection agrees with name introspection mid-churn.
    auto name_size = name_repo->GetSize(keys[victim]);
    auto handle_size = handle_repo->GetSize(handles[victim]);
    ASSERT_TRUE(name_size.ok());
    ASSERT_TRUE(handle_size.ok());
    EXPECT_EQ(*name_size, *handle_size);
    auto name_layout = name_repo->GetLayout(keys[victim]);
    auto handle_layout = handle_repo->GetLayout(handles[victim]);
    ASSERT_TRUE(name_layout.ok());
    ASSERT_TRUE(handle_layout.ok());
    EXPECT_EQ(*name_layout, *handle_layout);
  }

  ExpectIdenticalState(name_repo.get(), handle_repo.get());

  for (ObjectHandle& handle : handles) {
    EXPECT_TRUE(handle_repo->Release(&handle).ok());
    EXPECT_FALSE(handle.valid());
  }
}

TEST_P(ObjectHandleContractTest, OpenForWriteCreatesOnFirstSafeWrite) {
  auto repo = GetParam().make(sim::DataMode::kMetadataOnly);
  auto handle = repo->OpenForWrite("fresh");
  ASSERT_TRUE(handle.ok());
  // Nothing exists yet: reads and introspection through the handle
  // report NotFound, the repository is untouched.
  EXPECT_TRUE(repo->Get(*handle).IsNotFound());
  EXPECT_TRUE(repo->GetSize(*handle).status().IsNotFound());
  EXPECT_FALSE(repo->Exists("fresh"));

  ASSERT_TRUE(repo->SafeWrite(*handle, 256 * kKiB).ok());
  EXPECT_TRUE(repo->Exists("fresh"));
  auto size = repo->GetSize(*handle);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 256 * kKiB);
  EXPECT_TRUE(repo->Get(*handle).ok());

  // And the handle keeps working across replacement.
  ASSERT_TRUE(repo->SafeWrite(*handle, 128 * kKiB).ok());
  size = repo->GetSize(*handle);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 128 * kKiB);
  EXPECT_TRUE(repo->Release(&*handle).ok());
}

TEST_P(ObjectHandleContractTest, DoubleReleaseFails) {
  auto repo = GetParam().make(sim::DataMode::kMetadataOnly);
  ASSERT_TRUE(repo->Put("k", 128 * kKiB).ok());
  auto handle = repo->Open("k");
  ASSERT_TRUE(handle.ok());
  EXPECT_TRUE(repo->Release(&*handle).ok());
  EXPECT_FALSE(repo->Release(&*handle).ok());  // Ticket already dead.
  EXPECT_FALSE(handle->valid());
}

TEST_P(ObjectHandleContractTest, UseAfterDeleteFails) {
  auto repo = GetParam().make(sim::DataMode::kMetadataOnly);
  ASSERT_TRUE(repo->Put("k", 128 * kKiB).ok());

  // Deleting by name invalidates an open handle...
  auto handle = repo->OpenForWrite("k");
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(repo->Delete("k").ok());
  EXPECT_FALSE(repo->Get(*handle).ok());
  EXPECT_FALSE(repo->SafeWrite(*handle, 64 * kKiB).ok());
  EXPECT_FALSE(repo->GetLayout(*handle).ok());
  EXPECT_FALSE(repo->Release(&*handle).ok());  // Slot already reclaimed.

  // ...and deleting through one handle invalidates the others.
  ASSERT_TRUE(repo->Put("k", 128 * kKiB).ok());
  auto writer = repo->OpenForWrite("k");
  auto reader = repo->Open("k");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(repo->Delete(&*writer).ok());
  EXPECT_FALSE(writer->valid());
  EXPECT_FALSE(repo->Get(*reader).ok());
  EXPECT_FALSE(repo->Exists("k"));
}

TEST_P(ObjectHandleContractTest, HandleMisuseIsRejected) {
  auto repo = GetParam().make(sim::DataMode::kMetadataOnly);
  auto other = GetParam().make(sim::DataMode::kMetadataOnly);
  ASSERT_TRUE(repo->Put("k", 128 * kKiB).ok());
  ASSERT_TRUE(other->Put("k", 128 * kKiB).ok());

  // Open on a missing key is NotFound; invalid tickets are rejected.
  EXPECT_TRUE(repo->Open("missing").status().IsNotFound());
  ObjectHandle invalid;
  EXPECT_FALSE(repo->Get(invalid).ok());
  EXPECT_FALSE(repo->Release(&invalid).ok());

  // A handle only works against the repository that minted it.
  auto handle = repo->Open("k");
  ASSERT_TRUE(handle.ok());
  EXPECT_FALSE(other->Get(*handle).ok());
  EXPECT_FALSE(other->Release(&*handle).ok());

  // Read handles cannot write or delete.
  EXPECT_FALSE(repo->SafeWrite(*handle, 64 * kKiB).ok());
  EXPECT_FALSE(repo->Delete(&*handle).ok());
  EXPECT_TRUE(handle->valid());
  EXPECT_TRUE(repo->Release(&*handle).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ObjectHandleContractTest,
    ::testing::Values(BackendCase{"filesystem", MakeFs},
                      BackendCase{"database", MakeDb}),
    [](const ::testing::TestParamInfo<BackendCase>& info) {
      return info.param.label;
    });

// ---------------------------------------------------------------------
// Back-end specifics.

TEST(ObjectHandleFsTest, SafeWriteTempsRecycleMftRecords) {
  FsRepositoryConfig config;
  config.volume_bytes = 256 * kMiB;
  auto repo = std::make_unique<FsRepository>(config);
  ASSERT_TRUE(repo->Put("k", 512 * kKiB).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(repo->SafeWrite("k", 512 * kKiB).ok());
  }
  // Every replacement freed the displaced record; the pool is primed
  // and creates drain it, so the id space stays bounded.
  EXPECT_GT(repo->store()->recycled_record_ids(), 0u);
}

TEST(ObjectHandleFsTest, SelfReplaceIsRejectedNotCorrupting) {
  FsRepositoryConfig config;
  config.volume_bytes = 128 * kMiB;
  auto repo = std::make_unique<FsRepository>(config);
  ASSERT_TRUE(repo->Put("k", 256 * kKiB).ok());
  fs::FileStore* store = repo->store();

  // By name, and through two distinct handles on the same name: a
  // replacement onto itself must fail cleanly, not free the live file.
  EXPECT_FALSE(store->Replace("k", "k").ok());
  auto a = store->OpenWrite("k");
  auto b = store->OpenWrite("k");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(store->Replace(*a, *b).ok());
  EXPECT_TRUE(store->Close(*a).ok());
  EXPECT_TRUE(store->Close(*b).ok());
  EXPECT_TRUE(repo->Exists("k"));
  EXPECT_TRUE(repo->Get("k").ok());
  EXPECT_TRUE(repo->CheckConsistency().ok());
}

TEST(ObjectHandleFsTest, StaleHandleSafeWriteLeaksNoTempFile) {
  FsRepositoryConfig config;
  config.volume_bytes = 128 * kMiB;
  auto repo = std::make_unique<FsRepository>(config);
  ASSERT_TRUE(repo->Put("k", 256 * kKiB).ok());
  auto handle = repo->OpenForWrite("k");
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(repo->Delete("k").ok());
  // The stale ticket must fail before the temp cycle starts: no file,
  // no bytes, no handle slot may be left behind.
  EXPECT_FALSE(repo->SafeWrite(*handle, 64 * kKiB).ok());
  EXPECT_EQ(repo->object_count(), 0u);
  EXPECT_EQ(repo->live_bytes(), 0u);
  EXPECT_EQ(repo->store()->open_handle_count(), 0u);
  EXPECT_TRUE(repo->CheckConsistency().ok());
}

TEST(ObjectHandleDbTest, PinnedRowStaysCoherentAcrossWrites) {
  DbRepositoryConfig config;
  config.volume_bytes = 128 * kMiB;
  auto repo = std::make_unique<DbRepository>(config);
  ASSERT_TRUE(repo->Put("k", 256 * kKiB).ok());
  db::BlobStore* store = repo->blob_store();

  auto reader = store->OpenRead("k");
  auto writer = store->OpenWrite("k");
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(writer.ok());

  // The read handle pinned the row at open; the write handle pays no
  // row lookup, so its row is not pinned until a write refreshes it.
  auto row = store->Row(*reader);
  ASSERT_TRUE(row.ok());
  const uint64_t version_before = row->version;
  EXPECT_EQ(row->size_bytes, 256 * kKiB);
  EXPECT_TRUE(store->Row(*writer).status().IsNotFound());

  // A safe write through the write handle refreshes the pinned row on
  // *every* open handle of the key — no metadata charge to observe it.
  ASSERT_TRUE(store->SafeWrite(*writer, 128 * kKiB).ok());
  for (const db::BlobHandle& h : {*reader, *writer}) {
    row = store->Row(h);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(row->size_bytes, 128 * kKiB);
    EXPECT_GT(row->version, version_before);
  }
  EXPECT_TRUE(store->Close(*reader).ok());
  EXPECT_TRUE(store->Close(*writer).ok());
}

TEST(ObjectHandleFsTest, SelfMoveKeepsHandleAlive) {
  FsRepositoryConfig config;
  config.volume_bytes = 128 * kMiB;
  auto repo = std::make_unique<FsRepository>(config);
  ASSERT_TRUE(repo->Put("k", 256 * kKiB).ok());
  auto handle = repo->Open("k");
  ASSERT_TRUE(handle.ok());
  ObjectHandle& alias = *handle;
  *handle = std::move(alias);
  EXPECT_TRUE(handle->valid());
  EXPECT_TRUE(repo->Get(*handle).ok());
  EXPECT_TRUE(repo->Release(&*handle).ok());
}

TEST(ObjectHandleFsTest, NoHandleLeaksAcrossWrappedOperations) {
  FsRepositoryConfig config;
  config.volume_bytes = 128 * kMiB;
  auto repo = std::make_unique<FsRepository>(config);
  ASSERT_TRUE(repo->Put("k", 256 * kKiB).ok());
  ASSERT_TRUE(repo->SafeWrite("k", 256 * kKiB).ok());
  ASSERT_TRUE(repo->Get("k").ok());
  EXPECT_FALSE(repo->Put("k", 256 * kKiB).ok());
  EXPECT_FALSE(repo->Get("missing").ok());
  // The name-based wrappers release every handle they open.
  EXPECT_EQ(repo->store()->open_handle_count(), 0u);
}

TEST(ObjectHandleDbTest, PositionedRangeReadsMatchWholeRead) {
  DbRepositoryConfig config;
  config.volume_bytes = 128 * kMiB;
  config.data_mode = sim::DataMode::kRetain;
  auto repo = std::make_unique<DbRepository>(config);

  const uint64_t size = 300 * kKiB;
  const std::vector<uint8_t> data = Pattern(size, 3);
  ASSERT_TRUE(repo->Put("k", size, data).ok());

  db::BlobStore* store = repo->blob_store();
  auto handle = store->OpenRead("k");
  ASSERT_TRUE(handle.ok());

  // A sequence of sequential range reads through the positioned cursor
  // reassembles the exact payload a whole-object read returns.
  std::vector<uint8_t> whole;
  ASSERT_TRUE(store->Get(*handle, &whole).ok());
  EXPECT_EQ(whole, data);

  std::vector<uint8_t> assembled;
  std::vector<uint8_t> piece;
  const uint64_t step = 64 * kKiB;
  for (uint64_t offset = 0; offset < size; offset += step) {
    const uint64_t len = std::min(step, size - offset);
    ASSERT_TRUE(store->GetRange(*handle, offset, len, &piece).ok());
    assembled.insert(assembled.end(), piece.begin(), piece.end());
  }
  EXPECT_EQ(assembled, data);

  // Reads past the end fail — including offsets chosen to overflow the
  // offset+length arithmetic; the cursor survives replacement resets.
  EXPECT_FALSE(store->GetRange(*handle, size - 8, 16, &piece).ok());
  EXPECT_FALSE(store->GetRange(*handle, UINT64_MAX - 1, 2, &piece).ok());
  ASSERT_TRUE(repo->SafeWrite("k", 128 * kKiB).ok());
  ASSERT_TRUE(store->GetRange(*handle, 0, 64 * kKiB, &piece).ok());
  EXPECT_EQ(piece.size(), 64 * kKiB);
  EXPECT_TRUE(store->Close(*handle).ok());
  EXPECT_EQ(store->open_handle_count(), 0u);
}

TEST(ObjectHandleDbTest, PositionedCursorSkipsDescentOnSequentialReads) {
  DbRepositoryConfig config;
  config.volume_bytes = 128 * kMiB;
  auto repo = std::make_unique<DbRepository>(config);
  const uint64_t size = 300 * kKiB;  // Multi-page: has pointer pages.
  ASSERT_TRUE(repo->Put("k", size).ok());

  db::BlobStore* store = repo->blob_store();
  auto layout = store->GetLayout("k");
  ASSERT_TRUE(layout.ok());
  ASSERT_FALSE(layout->pointer_pages.empty());
  db::PageFile* file = store->mutable_page_file();
  const sim::OpCostModel& costs = store->options().costs;
  const uint64_t chunk = 64 * kKiB;  // Not payload-aligned on purpose.

  // Each pass reads [0, chunk) untimed — leaving the simulated head in
  // the same spot — then times the sequential continuation at `chunk`
  // (which starts mid-page, exercising the cursor's step-back resume).
  // The device work of the timed reads is identical; the positioned
  // pass skips only the pointer-page descent CPU, so it must be
  // strictly cheaper.
  db::BlobBtree::ReadCursor cursor;
  ASSERT_TRUE(
      db::BlobBtree::ReadAt(file, *layout, costs, 0, chunk, nullptr, &cursor)
          .ok());
  const double warm0 = repo->now();
  ASSERT_TRUE(db::BlobBtree::ReadAt(file, *layout, costs, chunk, chunk,
                                    nullptr, &cursor)
                  .ok());
  const double warm = repo->now() - warm0;

  ASSERT_TRUE(db::BlobBtree::ReadAt(file, *layout, costs, 0, chunk, nullptr,
                                    nullptr)
                  .ok());
  const double cold0 = repo->now();
  ASSERT_TRUE(db::BlobBtree::ReadAt(file, *layout, costs, chunk, chunk,
                                    nullptr, nullptr)
                  .ok());
  const double cold = repo->now() - cold0;
  EXPECT_LT(warm, cold);
}

// The measure phase's payload materialization: one scratch buffer for
// the whole phase, reused across every probe.
TEST(ObjectHandleWorkloadTest, MaterializedReadProbesReuseOneScratch) {
  FsRepositoryConfig config;
  config.volume_bytes = 128 * kMiB;
  config.data_mode = sim::DataMode::kRetain;
  FsRepository repo(config);
  workload::WorkloadConfig wc;
  wc.sizes = workload::SizeDistribution::Constant(256 * kKiB);
  wc.read_probe_samples = 32;
  wc.materialize_reads = true;
  workload::GetPutRunner runner(&repo, wc);
  auto load = runner.BulkLoad();
  ASSERT_TRUE(load.ok()) << load.status().ToString();
  auto read = runner.MeasureReadThroughput();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_GT(read->bytes, 0u);
  EXPECT_EQ(read->operations, 32u);
}

// ---------------------------------------------------------------------
// Sharded equivalence: with four concurrent shards per back end, the
// handle-converted hot loops must reproduce the name path exactly —
// same merged counts, same fragmentation, same layouts.

std::unique_ptr<RepositoryFactory> MakeShardFactory(
    const std::string& backend) {
  if (backend == "filesystem") {
    FsRepositoryConfig config;
    config.volume_bytes = 512 * kMiB;
    return std::make_unique<FsRepositoryFactory>(config);
  }
  DbRepositoryConfig config;
  config.volume_bytes = 512 * kMiB;
  return std::make_unique<DbRepositoryFactory>(config);
}

class ObjectHandleShardedTest : public ::testing::TestWithParam<const char*> {
};

TEST_P(ObjectHandleShardedTest, FourShardHandlePathMatchesNamePath) {
  constexpr uint32_t kShards = 4;
  workload::WorkloadConfig name_config;
  name_config.sizes = workload::SizeDistribution::Uniform(kMiB);
  name_config.read_probe_samples = 64;
  name_config.use_handles = false;
  workload::WorkloadConfig handle_config = name_config;
  handle_config.use_handles = true;

  auto factory = MakeShardFactory(GetParam());
  workload::ShardedRunner name_runner(*factory, name_config, kShards);
  workload::ShardedRunner handle_runner(*factory, handle_config, kShards);

  auto run = [](workload::ShardedRunner* runner) {
    auto load = runner->BulkLoad();
    ASSERT_TRUE(load.ok()) << load.status().ToString();
    auto aged = runner->AgeTo(1.5);
    ASSERT_TRUE(aged.ok()) << aged.status().ToString();
    auto read = runner->MeasureReadThroughput();
    ASSERT_TRUE(read.ok()) << read.status().ToString();
  };
  run(&name_runner);
  run(&handle_runner);

  EXPECT_EQ(name_runner.object_count(), handle_runner.object_count());
  EXPECT_DOUBLE_EQ(name_runner.storage_age(), handle_runner.storage_age());

  const FragmentationReport a = name_runner.Fragmentation();
  const FragmentationReport b = handle_runner.Fragmentation();
  EXPECT_EQ(a.objects, b.objects);
  EXPECT_DOUBLE_EQ(a.fragments_per_object, b.fragments_per_object);
  EXPECT_EQ(a.max_fragments, b.max_fragments);
  EXPECT_EQ(a.p99_fragments, b.p99_fragments);

  for (uint32_t shard = 0; shard < kShards; ++shard) {
    EXPECT_EQ(name_runner.engine(shard)->keys(),
              handle_runner.engine(shard)->keys());
    // Per-shard layouts are bit-identical between the paths.
    EXPECT_EQ(Snapshot(*name_runner.repository(shard)),
              Snapshot(*handle_runner.repository(shard)));
    EXPECT_TRUE(name_runner.repository(shard)->CheckConsistency().ok());
    EXPECT_TRUE(handle_runner.repository(shard)->CheckConsistency().ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, ObjectHandleShardedTest,
                         ::testing::Values("filesystem", "database"));

}  // namespace
}  // namespace core
}  // namespace lor
