// Micro-benchmarks for the storage engines (google-benchmark): file
// store append/read/safe-write, blob B-tree write/read, the LOB page
// allocator at blob shapes, and metadata B+tree operations. These
// measure *host* CPU per simulated operation — the cost of running
// experiments — not simulated time.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/db_repository.h"
#include "core/fs_repository.h"
#include "db/lob_allocation_unit.h"
#include "db/metadata_table.h"
#include "fs/file_store.h"
#include "util/random.h"

namespace lor {
namespace {

void BM_FileStoreSafeWrite(benchmark::State& state) {
  core::FsRepositoryConfig config;
  config.volume_bytes = 8 * kGiB;
  core::FsRepository repo(config);
  const uint64_t size = static_cast<uint64_t>(state.range(0)) * kKiB;
  Rng rng(1);
  uint64_t created = 0;
  for (auto _ : state) {
    // Keep ~256 live objects so churn replaces rather than grows.
    const std::string key =
        "obj" + std::to_string(created < 256 ? created : rng.Uniform(256));
    ++created;
    Status s = repo.SafeWrite(key, size);
    benchmark::DoNotOptimize(s.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}
BENCHMARK(BM_FileStoreSafeWrite)->Arg(256)->Arg(1024)->Arg(10240);

void BM_FileStoreRead(benchmark::State& state) {
  core::FsRepositoryConfig config;
  config.volume_bytes = 8 * kGiB;
  core::FsRepository repo(config);
  for (int i = 0; i < 128; ++i) {
    Status s = repo.Put("obj" + std::to_string(i), kMiB);
    benchmark::DoNotOptimize(s.ok());
  }
  Rng rng(2);
  for (auto _ : state) {
    Status s = repo.Get("obj" + std::to_string(rng.Uniform(128)));
    benchmark::DoNotOptimize(s.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kMiB));
}
BENCHMARK(BM_FileStoreRead);

void BM_BlobStoreReplace(benchmark::State& state) {
  core::DbRepositoryConfig config;
  config.volume_bytes = 8 * kGiB;
  core::DbRepository repo(config);
  const uint64_t size = static_cast<uint64_t>(state.range(0)) * kKiB;
  for (int i = 0; i < 256; ++i) {
    Status s = repo.Put("obj" + std::to_string(i), size);
    benchmark::DoNotOptimize(s.ok());
  }
  Rng rng(3);
  for (auto _ : state) {
    Status s =
        repo.SafeWrite("obj" + std::to_string(rng.Uniform(256)), size);
    benchmark::DoNotOptimize(s.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}
BENCHMARK(BM_BlobStoreReplace)->Arg(256)->Arg(1024)->Arg(10240);

void BM_BlobStoreRead(benchmark::State& state) {
  core::DbRepositoryConfig config;
  config.volume_bytes = 8 * kGiB;
  core::DbRepository repo(config);
  for (int i = 0; i < 128; ++i) {
    Status s = repo.Put("obj" + std::to_string(i), kMiB);
    benchmark::DoNotOptimize(s.ok());
  }
  Rng rng(4);
  for (auto _ : state) {
    Status s = repo.Get("obj" + std::to_string(rng.Uniform(128)));
    benchmark::DoNotOptimize(s.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kMiB));
}
BENCHMARK(BM_BlobStoreRead);

// The database's page allocation layer alone, at blob shapes: 32 pages
// (a 256 KiB blob) and 1,296 pages (a 10 MiB blob with its pointer
// pages). About 1 GiB of blobs live in a 2 GiB device under the default
// deferred frees; each blob is replaced ten times to age the unit, then
// each iteration is one more replacement in safe-write order: allocate
// the new copy, then free the old one.
void BM_LobAllocationUnitAgedBlobWrite(benchmark::State& state) {
  const uint64_t pages = static_cast<uint64_t>(state.range(0));
  auto dev = std::make_unique<sim::BlockDevice>(
      sim::DiskParams::St3400832as().WithCapacity(2 * kGiB));
  db::PageFile file(dev.get());
  db::LobAllocationUnit unit(&file);
  const uint64_t blobs = kGiB / file.page_bytes() / pages;
  std::vector<alloc::ExtentList> live(blobs);
  for (alloc::ExtentList& blob : live) {
    Status s = unit.AllocatePages(pages, &blob);
    benchmark::DoNotOptimize(s.ok());
  }
  Rng rng(6);
  alloc::ExtentList fresh;
  uint64_t runs = 0;
  auto replace = [&]() {
    alloc::ExtentList& blob = live[rng.Uniform(blobs)];
    fresh.clear();
    Status s = unit.AllocatePages(pages, &fresh);
    benchmark::DoNotOptimize(s.ok());
    for (const alloc::Extent& run : blob) {
      s = unit.FreePages(run);
      benchmark::DoNotOptimize(s.ok());
    }
    blob.swap(fresh);
    runs += blob.size();
  };
  for (uint64_t i = 0; i < 10 * blobs; ++i) replace();
  runs = 0;
  for (auto _ : state) replace();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pages));
  state.counters["runs_per_blob"] =
      static_cast<double>(runs) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_LobAllocationUnitAgedBlobWrite)->Arg(32)->Arg(1296);

void BM_MetadataTableLookup(benchmark::State& state) {
  auto dev = std::make_unique<sim::BlockDevice>(
      sim::DiskParams::St3400832as().WithCapacity(kGiB));
  db::PageFile file(dev.get());
  sim::OpCostModel costs;
  db::MetadataTable table(&file, &costs);
  const int rows = static_cast<int>(state.range(0));
  for (int i = 0; i < rows; ++i) {
    Status s = table.Insert({.key = "key" + std::to_string(i)});
    benchmark::DoNotOptimize(s.ok());
  }
  Rng rng(5);
  for (auto _ : state) {
    auto row = table.Lookup("key" + std::to_string(rng.Uniform(rows)));
    benchmark::DoNotOptimize(row.ok());
  }
}
BENCHMARK(BM_MetadataTableLookup)->Arg(1000)->Arg(100000);

void BM_MetadataTableInsert(benchmark::State& state) {
  auto dev = std::make_unique<sim::BlockDevice>(
      sim::DiskParams::St3400832as().WithCapacity(kGiB));
  db::PageFile file(dev.get());
  sim::OpCostModel costs;
  db::MetadataTable table(&file, &costs);
  uint64_t i = 0;
  for (auto _ : state) {
    Status s = table.Insert({.key = "key" + std::to_string(i++)});
    benchmark::DoNotOptimize(s.ok());
  }
}
BENCHMARK(BM_MetadataTableInsert);

}  // namespace
}  // namespace lor

BENCHMARK_MAIN();
