// Cross-backend tests of the ObjectRepository interface: both back ends
// must provide the same semantics (the paper's "fair comparison"
// requirement, §4), verified with a parameterized suite, plus
// backend-specific behaviours.

#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <memory>
#include <ostream>

#include "core/db_repository.h"
#include "core/fragmentation.h"
#include "core/fs_repository.h"
#include "core/repository_factory.h"
#include "core/storage_age.h"
#include "sim/fault_injector.h"
#include "sim/media_fault.h"
#include "util/random.h"
#include "workload/trace.h"

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

class RepositoryContractTest : public ::testing::TestWithParam<BackendCase> {
 protected:
  std::unique_ptr<ObjectRepository> Make(
      sim::DataMode mode = sim::DataMode::kMetadataOnly) {
    return GetParam().make(mode);
  }
};

TEST_P(RepositoryContractTest, PutGetDelete) {
  auto repo = Make();
  ASSERT_TRUE(repo->Put("k", 256 * kKiB).ok());
  EXPECT_TRUE(repo->Exists("k"));
  EXPECT_EQ(repo->object_count(), 1u);
  EXPECT_EQ(repo->live_bytes(), 256 * kKiB);
  EXPECT_TRUE(repo->Get("k").ok());
  ASSERT_TRUE(repo->Delete("k").ok());
  EXPECT_FALSE(repo->Exists("k"));
  EXPECT_EQ(repo->live_bytes(), 0u);
  EXPECT_TRUE(repo->CheckConsistency().ok());
}

TEST_P(RepositoryContractTest, PutRejectsDuplicates) {
  auto repo = Make();
  ASSERT_TRUE(repo->Put("k", 1024).ok());
  EXPECT_TRUE(repo->Put("k", 1024).IsAlreadyExists());
}

TEST_P(RepositoryContractTest, GetMissingIsNotFound) {
  auto repo = Make();
  EXPECT_TRUE(repo->Get("nope").IsNotFound());
  EXPECT_TRUE(repo->Delete("nope").IsNotFound());
  EXPECT_TRUE(repo->GetLayout("nope").status().IsNotFound());
  EXPECT_TRUE(repo->GetSize("nope").status().IsNotFound());
}

TEST_P(RepositoryContractTest, SafeWriteCreatesAndReplaces) {
  auto repo = Make(sim::DataMode::kRetain);
  const auto v1 = Pattern(200 * kKiB, 1);
  const auto v2 = Pattern(300 * kKiB, 2);
  ASSERT_TRUE(repo->SafeWrite("k", v1.size(), v1).ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(repo->Get("k", &out).ok());
  EXPECT_EQ(out, v1);
  ASSERT_TRUE(repo->SafeWrite("k", v2.size(), v2).ok());
  ASSERT_TRUE(repo->Get("k", &out).ok());
  EXPECT_EQ(out, v2);
  EXPECT_EQ(repo->object_count(), 1u);
  EXPECT_EQ(repo->live_bytes(), v2.size());
  EXPECT_TRUE(repo->CheckConsistency().ok());
}

TEST_P(RepositoryContractTest, DataIntegrityAcrossChurn) {
  auto repo = Make(sim::DataMode::kRetain);
  Rng rng(1234);
  // Seed objects with known contents derived from (key, version).
  std::vector<uint64_t> versions(10, 0);
  for (int i = 0; i < 10; ++i) {
    const auto data = Pattern(64 * kKiB + i * 1000, i * 100);
    ASSERT_TRUE(
        repo->Put("obj" + std::to_string(i), data.size(), data).ok());
  }
  for (int round = 0; round < 50; ++round) {
    const int i = static_cast<int>(rng.Uniform(10));
    versions[i] = round + 1;
    const auto data =
        Pattern(64 * kKiB + i * 1000, i * 100 + versions[i]);
    ASSERT_TRUE(
        repo->SafeWrite("obj" + std::to_string(i), data.size(), data).ok());
  }
  for (int i = 0; i < 10; ++i) {
    const auto expected =
        Pattern(64 * kKiB + i * 1000, i * 100 + versions[i]);
    std::vector<uint8_t> out;
    ASSERT_TRUE(repo->Get("obj" + std::to_string(i), &out).ok());
    EXPECT_EQ(out, expected) << "obj" << i;
  }
  EXPECT_TRUE(repo->CheckConsistency().ok());
}

TEST_P(RepositoryContractTest, LayoutCoversObjectSize) {
  auto repo = Make();
  ASSERT_TRUE(repo->Put("k", 10 * kMiB).ok());
  auto layout = repo->GetLayout("k");
  ASSERT_TRUE(layout.ok());
  EXPECT_GE(alloc::TotalLength(*layout), 10 * kMiB);
  auto size = repo->GetSize("k");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 10 * kMiB);
}

TEST_P(RepositoryContractTest, ClockAdvancesWithWork) {
  auto repo = Make();
  const double t0 = repo->now();
  ASSERT_TRUE(repo->Put("k", kMiB).ok());
  EXPECT_GT(repo->now(), t0);
}

TEST_P(RepositoryContractTest, FreeBytesShrinkWithData) {
  auto repo = Make();
  const uint64_t free0 = repo->free_bytes();
  ASSERT_TRUE(repo->Put("k", 10 * kMiB).ok());
  EXPECT_LT(repo->free_bytes(), free0);
  EXPECT_GT(repo->volume_bytes(), repo->live_bytes());
}

TEST_P(RepositoryContractTest, ListKeysMatchesPopulation) {
  auto repo = Make();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(repo->Put("obj" + std::to_string(i), 64 * kKiB).ok());
  }
  EXPECT_EQ(repo->ListKeys().size(), 5u);
}

INSTANTIATE_TEST_SUITE_P(
    BothBackends, RepositoryContractTest,
    ::testing::Values(BackendCase{"filesystem", MakeFs},
                      BackendCase{"database", MakeDb}),
    [](const auto& info) { return info.param.label; });

TEST(FragmentationAnalyzerTest, CleanStoreIsContiguous) {
  auto repo = MakeFs(sim::DataMode::kMetadataOnly);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(repo->Put("obj" + std::to_string(i), kMiB).ok());
  }
  FragmentationReport report = AnalyzeFragmentation(*repo);
  EXPECT_EQ(report.objects, 10u);
  EXPECT_DOUBLE_EQ(report.fragments_per_object, 1.0);
  EXPECT_DOUBLE_EQ(report.contiguous_fraction, 1.0);
  EXPECT_EQ(report.p50_fragments, 1u);
}

TEST(FragmentationAnalyzerTest, EmptyRepository) {
  auto repo = MakeFs(sim::DataMode::kMetadataOnly);
  FragmentationReport report = AnalyzeFragmentation(*repo);
  EXPECT_EQ(report.objects, 0u);
  EXPECT_DOUBLE_EQ(report.fragments_per_object, 0.0);
}

TEST(StorageAgeTest, FollowsPaperDefinition) {
  StorageAgeTracker age;
  age.RecordBulkLoad(1000);
  EXPECT_DOUBLE_EQ(age.age(), 0.0);
  age.MarkBulkLoadComplete();
  EXPECT_DOUBLE_EQ(age.age(), 0.0);
  // Replace all data once: age 1 ("one safe write per object").
  age.RecordReplacement(1000, 1000);
  EXPECT_DOUBLE_EQ(age.age(), 1.0);
  age.RecordReplacement(1000, 1000);
  EXPECT_DOUBLE_EQ(age.age(), 2.0);
}

TEST(StorageAgeTest, TracksLiveByteChanges) {
  StorageAgeTracker age;
  age.RecordBulkLoad(1000);
  age.MarkBulkLoadComplete();
  age.RecordReplacement(500, 1500);  // Store grows to 2000 live bytes.
  EXPECT_EQ(age.live_bytes(), 2000u);
  EXPECT_DOUBLE_EQ(age.age(), 1500.0 / 2000.0);
  age.RecordDelete(2000);
  EXPECT_EQ(age.live_bytes(), 0u);
  EXPECT_DOUBLE_EQ(age.age(), 0.0);  // Guarded division.
}

TEST(DbRepositoryTest, BulkLoadWriteFasterThanFs) {
  // The paper's Fig. 4: during bulk load the database writes faster
  // than the filesystem's safe-write path (17.7 vs 10.1 MB/s for
  // 512 KB objects).
  auto fs = MakeFs(sim::DataMode::kMetadataOnly);
  auto db = MakeDb(sim::DataMode::kMetadataOnly);
  constexpr int kObjects = 100;
  for (int i = 0; i < kObjects; ++i) {
    ASSERT_TRUE(fs->Put("obj" + std::to_string(i), 512 * kKiB).ok());
    ASSERT_TRUE(db->Put("obj" + std::to_string(i), 512 * kKiB).ok());
  }
  EXPECT_LT(db->now(), fs->now());
}

TEST(FsRepositoryTest, JournalBatchingKeepsLayoutsAndSavesMetadataIo) {
  // Batching coalesces the journal records of one safe write (create
  // temp + fsync + replace) into a single lazy-writer commit: fewer
  // device writes and less simulated time, with bit-identical layouts
  // (journal charges never touch the allocator).
  FsRepositoryConfig batched_config;
  batched_config.volume_bytes = 256 * kMiB;
  FsRepositoryConfig unbatched_config = batched_config;
  unbatched_config.store.batch_journal_charges = false;

  FsRepository batched(batched_config);
  FsRepository unbatched(unbatched_config);
  auto churn = [](FsRepository* repo) {
    Rng rng(11);
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(repo->SafeWrite("obj" + std::to_string(i), kMiB).ok());
    }
    for (int round = 0; round < 120; ++round) {
      const std::string key = "obj" + std::to_string(rng.Uniform(30));
      ASSERT_TRUE(repo->SafeWrite(key, kMiB).ok());
    }
  };
  churn(&batched);
  churn(&unbatched);

  for (int i = 0; i < 30; ++i) {
    const std::string key = "obj" + std::to_string(i);
    auto a = batched.GetLayout(key);
    auto b = unbatched.GetLayout(key);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b) << key;
  }
  EXPECT_LT(batched.device()->stats().writes,
            unbatched.device()->stats().writes);
  EXPECT_LT(batched.now(), unbatched.now());
  EXPECT_TRUE(batched.CheckConsistency().ok());
}

TEST(FsRepositoryTest, PreallocationReducesFragmentsUnderChurn) {
  FsRepositoryConfig base;
  base.volume_bytes = 256 * kMiB;
  FsRepositoryConfig prealloc = base;
  prealloc.preallocate_on_safe_write = true;

  auto churn = [](FsRepository* repo) {
    Rng rng(5);
    for (int i = 0; i < 40; ++i) {
      EXPECT_TRUE(
          repo->SafeWrite("obj" + std::to_string(i), 2 * kMiB).ok());
    }
    for (int round = 0; round < 400; ++round) {
      const std::string key = "obj" + std::to_string(rng.Uniform(40));
      EXPECT_TRUE(repo->SafeWrite(key, 2 * kMiB).ok());
    }
  };
  FsRepository plain(base);
  FsRepository hinted(prealloc);
  churn(&plain);
  churn(&hinted);
  const double plain_frags =
      AnalyzeFragmentation(plain).fragments_per_object;
  const double hinted_frags =
      AnalyzeFragmentation(hinted).fragments_per_object;
  EXPECT_LE(hinted_frags, plain_frags);
}

TEST(FsRepositoryTest, KeysContainingTmpSurviveMount) {
  // Safe-write temps are named <key>.tmp<digits>, and only names of
  // exactly that form are orphans: a user key that merely contains
  // ".tmp" is an acknowledged object and must survive a clean mount.
  FsRepositoryConfig config;
  config.volume_bytes = 64 * kMiB;
  config.data_mode = sim::DataMode::kRetain;
  FsRepository repo(config);
  const std::vector<uint8_t> photo = Pattern(64 * kKiB, 3);
  const std::vector<uint8_t> notes = Pattern(16 * kKiB, 4);
  ASSERT_TRUE(repo.Put("holiday.tmp.jpg", photo.size(), photo).ok());
  ASSERT_TRUE(repo.Put("notes.tmp", notes.size(), notes).ok());
  auto before = repo.Fsck();
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before->clean());

  auto mount = repo.Mount();
  ASSERT_TRUE(mount.ok()) << mount.status().ToString();
  EXPECT_EQ(mount->orphan_temps_discarded, 0u);
  EXPECT_EQ(mount->data_loss_bytes, 0u);
  std::vector<uint8_t> out;
  ASSERT_TRUE(repo.Get("holiday.tmp.jpg", &out).ok());
  EXPECT_EQ(out, photo);
  ASSERT_TRUE(repo.Get("notes.tmp", &out).ok());
  EXPECT_EQ(out, notes);
  auto after = repo.Fsck();
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->clean());

  // Keys of the temp form itself are refused before any I/O, and before
  // the op scope opens: a refusal inside one would record a 0-latency op.
  const double now = repo.now();
  const uint64_t writes = repo.device_stats().writes;
  const std::string latencies = repo.latency_recorder()->ToString();
  EXPECT_TRUE(repo.Put("x.tmp3", 4 * kKiB).IsInvalidArgument());
  EXPECT_TRUE(repo.SafeWrite("x.tmp3", 4 * kKiB).IsInvalidArgument());
  EXPECT_TRUE(repo.OpenForWrite("x.tmp3").status().IsInvalidArgument());
  EXPECT_FALSE(repo.Exists("x.tmp3"));
  EXPECT_EQ(repo.now(), now);
  EXPECT_EQ(repo.device_stats().writes, writes);
  EXPECT_EQ(repo.latency_recorder()->ToString(), latencies);
}

// -- Decision pin --------------------------------------------------------

/// FNV-1a fold of everything a repository decides and reports.
class RepoHash {
 public:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  void MixDouble(double d) { Mix(std::bit_cast<uint64_t>(d)); }
  void MixString(const std::string& s) {
    Mix(s.size());
    for (char c : s) Mix(static_cast<uint8_t>(c));
  }
  void MixStatus(const Status& s) {
    Mix(s.ok() ? 0 : 1 + static_cast<uint64_t>(s.code()));
  }

  void MixRepository(const ObjectRepository& repo) {
    MixDouble(repo.now());
    const sim::IoStats io = repo.device_stats();
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
    const sim::BufferPoolStats c = repo.cache_stats();
    for (uint64_t v : {c.hits, c.misses, c.fills, c.evictions, c.writebacks,
                       c.invalidations, c.hit_bytes, c.miss_bytes,
                       c.fill_bytes, c.writeback_bytes, c.frame_allocs,
                       c.frame_recycles, c.pinned_hits, c.eviction_refusals,
                       c.write_installs, c.forced_write_through}) {
      Mix(v);
    }
    MixString(repo.latency_recorder()->ToString());
  }

  void MixScrub(const ScrubReport& r) {
    for (uint64_t v : {r.objects_scanned, r.bytes_scanned, r.read_errors,
                       r.corruptions_detected, r.repaired, r.unrecoverable,
                       r.quarantined_units}) {
      Mix(v);
    }
  }

  void MixFsck(const FsckReport& r) {
    Mix(r.issues.size());
    for (const FsckIssue& issue : r.issues) {
      Mix(static_cast<uint64_t>(issue.kind));
    }
    Mix(r.objects_checked);
    Mix(r.payloads_hashed);
    Mix(r.quarantined_units);
  }

  void MixMount(const MountReport& r) {
    for (uint64_t v : {r.entries_scanned, r.ops_redone, r.ops_rolled_back,
                       r.orphan_temps_discarded, r.lost_objects,
                       r.data_loss_bytes}) {
      Mix(v);
    }
    MixDouble(r.recovery_seconds);
  }

  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

struct PinCase {
  bool db = false;
  uint32_t queue_depth = 1;
  sim::SchedPolicy policy = sim::SchedPolicy::kSptf;
  bool shared_plane = false;
  uint64_t cache_bytes = 0;
};

std::unique_ptr<ObjectRepository> MakePinned(const PinCase& c) {
  FsRepositoryConfig fs;
  DbRepositoryConfig db;
  fs.volume_bytes = db.volume_bytes = 64 * kMiB;
  db.log_volume_bytes = 8 * kMiB;
  fs.data_mode = db.data_mode = sim::DataMode::kRetain;
  fs.cache.capacity_bytes = db.cache.capacity_bytes = c.cache_bytes;
  if (!c.shared_plane) {
    if (c.db) return std::make_unique<DbRepository>(db);
    return std::make_unique<FsRepository>(fs);
  }
  // One shard on a two-owner topology: a real plane whose spindle holds
  // a single owner, so the whole port path runs on this thread.
  SpindleTopology topology;
  topology.owners_per_spindle = 2;
  std::unique_ptr<RepositoryFactory> factory;
  if (c.db) {
    factory = std::make_unique<DbRepositoryFactory>(db);
  } else {
    factory = std::make_unique<FsRepositoryFactory>(fs);
  }
  factory->set_spindle_topology(topology);
  return factory->Create(0, 1);
}

uint64_t RunPinned(const PinCase& c, uint64_t seed) {
  // Fault planes first: they must outlive the devices they attach to.
  sim::FaultInjector injector;
  sim::MediaFaultModel media;
  std::unique_ptr<ObjectRepository> repo = MakePinned(c);
  EXPECT_EQ(repo->shared_spindle(), c.shared_plane);
  sim::BlockDevice* device = static_cast<VolumeRepository*>(repo.get())->device();
  device->AttachMediaFaults(&media);
  RepoHash hash;
  Rng rng(seed);
  auto key = [](uint64_t i) { return "obj" + std::to_string(i); };
  auto payload = [&rng](uint64_t bytes) {
    std::vector<uint8_t> data(bytes);
    for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
    return data;
  };

  // Seeded op mix over both access surfaces.
  constexpr uint64_t kKeys = 24;
  const uint32_t alt_depth = c.queue_depth > 1 ? 1 : 2;
  uint32_t depth = c.queue_depth;
  hash.MixStatus(repo->SetQueueDepth(depth, c.policy));
  for (int op = 0; op < 240; ++op) {
    const std::string k = key(rng.Uniform(kKeys));
    const uint64_t bytes = rng.UniformRange(1, 12) * 16 * kKiB;
    const uint64_t pick = rng.Uniform(100);
    Status s;
    if (pick < 20) {
      const std::vector<uint8_t> data = payload(bytes);
      s = repo->Put(k, bytes, data);
    } else if (pick < 35) {
      const std::vector<uint8_t> data = payload(bytes);
      s = repo->SafeWrite(k, bytes, data);
    } else if (pick < 45) {
      const std::vector<uint8_t> data = payload(bytes);
      auto h = repo->OpenForWrite(k);
      s = h.status();
      if (h.ok()) {
        s = repo->SafeWrite(*h, bytes, data);
        hash.MixStatus(repo->Release(&*h));
      }
    } else if (pick < 60) {
      std::vector<uint8_t> out;
      s = repo->Get(k, &out);
      hash.Mix(out.size());
    } else if (pick < 70) {
      auto h = repo->Open(k);
      s = h.status();
      if (h.ok()) {
        std::vector<uint8_t> out;
        s = repo->Get(*h, &out);
        hash.Mix(out.size());
        hash.MixStatus(repo->Release(&*h));
      }
    } else if (pick < 78) {
      s = repo->Delete(k);
    } else if (pick < 84) {
      auto h = repo->OpenForWrite(k);
      s = h.status();
      if (h.ok()) {
        s = repo->Delete(&*h);
        if (!s.ok()) hash.MixStatus(repo->Release(&*h));
      }
    } else if (pick < 88) {
      depth = depth == c.queue_depth ? alt_depth : c.queue_depth;
      s = repo->SetQueueDepth(depth, c.policy);
    } else if (pick < 92) {
      s = repo->DrainIo();
    } else if (pick < 96) {
      s = repo->SettleIo();
    } else {
      s = repo->FlushCache();
    }
    hash.MixStatus(s);
  }
  hash.MixStatus(repo->DrainIo());
  hash.MixRepository(*repo);

  // Transient and persistent latent sector errors plus rot, then
  // bounded scrub passes that lap the cursor, then the verifier.
  sim::MediaFaultSpec spec;
  spec.seed = seed;
  spec.lse_rate = 0.25;
  spec.transient_fraction = 0.75;
  spec.transient_failures = 1;
  spec.corruption_rate = 0.05;
  media.Arm(spec);
  ScrubOptions options;
  options.max_objects = 7;
  for (int pass = 0; pass < 4; ++pass) {
    auto scrub = repo->Scrub(options);
    hash.MixStatus(scrub.status());
    if (scrub.ok()) hash.MixScrub(*scrub);
  }
  media.Disarm();
  auto fsck = repo->Fsck();
  hash.MixStatus(fsck.status());
  if (fsck.ok()) hash.MixFsck(*fsck);
  hash.MixStatus(repo->DrainIo());
  hash.MixRepository(*repo);

  if (c.shared_plane) {
    EXPECT_TRUE(repo->Mount().status().IsNotSupported());
    hash.MixStatus(repo->Mount().status());
    return hash.value();
  }

  // Power cut a few writes into a safe-write burst, then recovery.
  device->AttachFaultInjector(&injector);
  if (c.db) {
    sim::BlockDevice* log = static_cast<DbRepository*>(repo.get())->log_device();
    if (log != nullptr) log->AttachFaultInjector(&injector);
  }
  sim::CrashSpec cut;
  cut.crash_after_writes = 9;
  cut.seed = seed;
  injector.Arm(cut);
  for (int i = 0; i < 32 && !injector.tripped(); ++i) {
    const uint64_t bytes = rng.UniformRange(1, 8) * 16 * kKiB;
    const std::vector<uint8_t> data = payload(bytes);
    hash.MixStatus(repo->SafeWrite(key(rng.Uniform(kKeys)), bytes, data));
  }
  EXPECT_TRUE(injector.tripped());
  injector.MaterializeCrash();
  auto mount = repo->Mount();
  hash.MixStatus(mount.status());
  if (mount.ok()) hash.MixMount(*mount);
  auto after = repo->Fsck();
  hash.MixStatus(after.status());
  if (after.ok()) hash.MixFsck(*after);
  hash.MixRepository(*repo);
  return hash.value();
}

TEST(RepositoryPinTest, RepositoryDecisionsArePinned) {
  // Both back ends through every data-volume path the repositories
  // share: the queue depth and its policy, drains, settles and cache
  // flushes, the scrub cursor and repair, the verifier, and mount after
  // a power cut. Any change to a charge, a counter, a latency record or
  // a report changes the fold.
  RepoHash hash;
  uint64_t seed = 100;
  for (bool db : {false, true}) {
    PinCase dedicated_qd1;
    dedicated_qd1.db = db;
    PinCase dedicated_qd8 = dedicated_qd1;
    dedicated_qd8.queue_depth = 8;
    PinCase plane = dedicated_qd1;
    plane.shared_plane = true;
    PinCase cached = dedicated_qd1;
    cached.cache_bytes = 2 * kMiB;
    for (const PinCase& c : {dedicated_qd1, dedicated_qd8, plane, cached}) {
      const uint64_t value = RunPinned(c, ++seed);
      hash.Mix(value);
    }
  }
  EXPECT_EQ(hash.value(), 0xb882dd0a034070e6ull);
}

TEST(RecordingRepositoryTest, ForwardsTheSharedSpindleFence) {
  // A recorder around a shard on a shared spindle must report the plane
  // and carry the phase fence to it: at qd 8 one write sits in the
  // owner's undelivered batch until SettleIo fences the plane.
  PinCase c;
  c.shared_plane = true;
  std::unique_ptr<ObjectRepository> inner = MakePinned(c);
  workload::Trace trace;
  workload::RecordingRepository recorder(inner.get(), &trace);
  EXPECT_TRUE(recorder.shared_spindle());
  ASSERT_TRUE(recorder.SetQueueDepth(8).ok());
  ASSERT_TRUE(recorder.SafeWrite("obj", 64 * kKiB).ok());
  const double before = inner->now();
  ASSERT_TRUE(recorder.SettleIo().ok());
  EXPECT_GT(inner->now(), before);
  EXPECT_EQ(trace.size(), 1u);
}

// -- Streams that fail part way ---------------------------------------

/// A first-fit allocator whose map runs kOverhang clusters past the
/// device's end and keeps them out of the accounting. A stream handed
/// clusters there fails part way, at the first request that crosses the
/// end (a device write beyond capacity), after taking clusters ahead
/// for requests it never writes.
class OverhangAllocator : public alloc::ExtentAllocator {
 public:
  static constexpr uint64_t kOverhang = 4096;

  OverhangAllocator(uint64_t clusters, uint64_t reserved)
      : inner_(clusters + kOverhang,
               {.selection = alloc::RunSelection::kFirstFit,
                .deferred_free = false},
               reserved) {}

  Status Allocate(uint64_t length, uint64_t extend_hint,
                  alloc::ExtentList* out) override {
    return inner_.Allocate(length, extend_hint, out);
  }
  Status Free(const alloc::Extent& extent) override {
    return inner_.Free(extent);
  }
  uint64_t free_clusters() const override {
    return inner_.free_clusters() - kOverhang;
  }
  alloc::FreeSpaceStats FreeStats() const override {
    return inner_.FreeStats();
  }
  alloc::FreeSpaceMap* free_map() override { return inner_.free_map(); }
  std::string name() const override { return "overhang"; }

 private:
  alloc::RunCacheAllocator inner_;
};

TEST(StreamFailureTest, FsStreamFailingPartWayReleasesClustersTakenAhead) {
  FsRepositoryConfig config;
  config.volume_bytes = 64 * kMiB;
  config.data_mode = sim::DataMode::kRetain;
  const uint64_t cluster = config.store.cluster_bytes;
  const uint64_t clusters = config.volume_bytes / cluster;
  FsRepository repo(
      config, std::make_unique<OverhangAllocator>(
                  clusters, static_cast<uint64_t>(
                                static_cast<double>(clusters) *
                                config.store.mft_zone_fraction)));
  // First fit fills the volume from the front, so the free run at the
  // end of it runs on past the device's end.
  for (int i = 0; i < 13; ++i) {
    const std::vector<uint8_t> data = Pattern(4 * kMiB, i);
    ASSERT_TRUE(repo.Put("fill" + std::to_string(i), data.size(), data).ok());
  }
  ASSERT_LT(repo.free_bytes(), 12 * kMiB);

  // The store keeps the clusters of the requests it wrote and releases
  // the rest of what it took.
  fs::FileStore* store = repo.store();
  const uint64_t free_before = store->allocator()->free_clusters();
  ASSERT_TRUE(store->Create("partial").ok());
  EXPECT_TRUE(store->AppendStream("partial", 16 * kMiB, 64 * kKiB)
                  .IsInvalidArgument());
  auto size = store->GetSize("partial");
  ASSERT_TRUE(size.ok());
  EXPECT_GT(*size, 0u);
  EXPECT_EQ(*size % (64 * kKiB), 0u);
  auto extents = store->GetExtents("partial");
  ASSERT_TRUE(extents.ok());
  EXPECT_EQ(alloc::TotalLength(*extents), *size / cluster);
  EXPECT_EQ(store->allocator()->free_clusters(),
            free_before - *size / cluster);
  EXPECT_TRUE(store->CheckConsistency().ok());
  ASSERT_TRUE(store->Delete("partial").ok());
  EXPECT_EQ(store->allocator()->free_clusters(), free_before);

  // Through the repository: the failed safe write leaves nothing behind.
  const uint64_t free_bytes = repo.free_bytes();
  const std::vector<uint8_t> big = Pattern(16 * kMiB, 99);
  EXPECT_TRUE(repo.Put("big", big.size(), big).IsInvalidArgument());
  EXPECT_EQ(repo.free_bytes(), free_bytes);
  EXPECT_TRUE(repo.CheckConsistency().ok());
  auto fsck = repo.Fsck();
  ASSERT_TRUE(fsck.ok());
  EXPECT_TRUE(fsck->clean());
  const std::vector<uint8_t> small = Pattern(2 * kMiB, 100);
  ASSERT_TRUE(repo.Put("small", small.size(), small).ok());
  fsck = repo.Fsck();
  ASSERT_TRUE(fsck.ok());
  EXPECT_TRUE(fsck->clean());
}

TEST(StreamFailureTest, DbBlobRunningOutOfSpaceReleasesItsPages) {
  DbRepositoryConfig config;
  config.volume_bytes = 32 * kMiB;
  config.data_mode = sim::DataMode::kRetain;
  DbRepository repo(config);
  Status last = Status::OK();
  int stored = 0;
  for (; stored < 64; ++stored) {
    const std::vector<uint8_t> data = Pattern(3 * kMiB, stored);
    last = repo.Put("obj" + std::to_string(stored), data.size(), data);
    if (!last.ok()) break;
  }
  EXPECT_TRUE(last.IsNoSpace());
  EXPECT_GT(stored, 4);
  EXPECT_TRUE(repo.CheckConsistency().ok());
  auto fsck = repo.Fsck();
  ASSERT_TRUE(fsck.ok());
  EXPECT_TRUE(fsck->clean());
  // Deletes make room; a blob that fits is written and verifies.
  ASSERT_TRUE(repo.Delete("obj0").ok());
  ASSERT_TRUE(repo.Delete("obj1").ok());
  const std::vector<uint8_t> data = Pattern(2 * kMiB, 77);
  ASSERT_TRUE(repo.Put("after", data.size(), data).ok());
  fsck = repo.Fsck();
  ASSERT_TRUE(fsck.ok());
  EXPECT_TRUE(fsck->clean());
}

}  // namespace
}  // namespace core
}  // namespace lor
