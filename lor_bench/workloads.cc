#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <unordered_map>

#include "core/fragmentation.h"
#include "workload/sharded_runner.h"

namespace lor {
namespace bench {

namespace {

// The whys are repeated verbatim in BENCHMARK.json and in the header
// comment of lor_bench.cc; lor_bench_test keeps them in sync.
constexpr Workload kWorkloads[] = {
    {"aged_10mb",
     "Fig. 2 regime: 10 MiB objects aged to 10, where fragmentation "
     "dominates; allocation does most host work and seeks turn fragments "
     "into lost read MB/s.",
     /*uniform_sizes=*/false, 10 * kMiB, 200 * kGiB, /*cache_bytes=*/0,
     /*shards=*/1, /*owners_per_spindle=*/1, /*queue_depth=*/1, /*age=*/10,
     /*probe_gets=*/10000},
    {"aged_256k",
     "The paper's 256 KiB crossover size: 40x the ops per byte of "
     "aged_10mb, so per-op layers (engine, handles, tracker, latency "
     "recorder, metadata) take the host time.",
     false, 256 * kKiB, 20 * kGiB, 0, 1, 1, 1, 10, 16000},
    {"shared_qd8",
     "4 shards on one spindle at qd 8 (SPTF): the only workload that runs "
     "the I/O scheduler and spindle plane; uniform sizes test that they "
     "fragment like constant ones.",
     true, 1 * kMiB, 256 * kGiB, 0, 4, 4, 8, 2, 4000},
    // A hit costs exactly the stack's streaming cap, so a pool that held
    // every object, or constant sizes, would make the read metrics the
    // same for every seed.
    {"cached_pool",
     "The only workload with the buffer pool on: a 3.5 GiB pool under a "
     "~4 GiB live set, so most probe reads hit and eviction and write-back "
     "run while the device idles.",
     true, 1 * kMiB, 8 * kGiB, 3584 * kMiB, 1, 1, 1, 12, 4000},
};

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Host time of one region, at reference host speed: its wall time over
/// the host's slowdown, which is ReferenceSeconds() right before and
/// right after the region over kReferenceSeconds. On a shared machine
/// the speed drifts by tens of percent over minutes; the reference
/// kernel drifts with it.
class HostTimer {
 public:
  HostTimer()
      : reference_before_(ReferenceSeconds()),
        t0_(std::chrono::steady_clock::now()) {}

  /// Stops the clock; returns the region's seconds at reference speed.
  double Stop() {
    const double wall = SecondsSince(t0_);
    slowdown_ =
        (reference_before_ + ReferenceSeconds()) / 2.0 / kReferenceSeconds;
    return wall / slowdown_;
  }
  double slowdown() const { return slowdown_; }

 private:
  double reference_before_;
  std::chrono::steady_clock::time_point t0_;
  double slowdown_ = 1.0;
};

core::ObjectRepository* Unwrap(core::ObjectRepository* repo) {
  if (auto* timed = dynamic_cast<TimedRepository*>(repo)) {
    return timed->inner();
  }
  return repo;
}

/// Buffer-pool counters the metrics use, summed over shards.
struct PoolCounts {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t fills = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;

  PoolCounts operator-(const PoolCounts& o) const {
    return {hits - o.hits, misses - o.misses, fills - o.fills,
            evictions - o.evictions, writebacks - o.writebacks};
  }
};

/// Cumulative counters of every layer below the workload, summed over
/// shards; phases are measured as differences of two snapshots.
struct Counters {
  sim::IoStats dev;  ///< Data volumes.
  sim::IoStats log;  ///< db log volumes.
  PoolCounts pool;
  uint64_t log_bytes = 0;  ///< db engine log bytes.
  TimedAllocator::Counters alloc;
  sim::LatencyRecorder latency;
};

Counters Snapshot(workload::ShardedRunner& runner) {
  Counters c;
  c.dev = runner.device_stats();
  c.latency = runner.latency();
  for (uint32_t s = 0; s < runner.shard_count(); ++s) {
    core::ObjectRepository* wrapped = runner.repository(s);
    core::ObjectRepository* repo = Unwrap(wrapped);
    const sim::BufferPoolStats pool = repo->cache_stats();
    c.pool.hits += pool.hits;
    c.pool.misses += pool.misses;
    c.pool.fills += pool.fills;
    c.pool.evictions += pool.evictions;
    c.pool.writebacks += pool.writebacks;
    if (auto* db = dynamic_cast<core::DbRepository*>(repo)) {
      if (db->log_device() != nullptr) c.log += db->log_device()->stats();
      c.log_bytes += db->blob_store()->stats().log_bytes;
    }
    auto* timed = dynamic_cast<TimedRepository*>(wrapped);
    if (timed != nullptr && timed->allocator() != nullptr) {
      const TimedAllocator::Counters& a = timed->allocator()->counters();
      c.alloc.allocate_calls += a.allocate_calls;
      c.alloc.free_calls += a.free_calls;
      c.alloc.extents += a.extents;
    }
  }
  return c;
}

/// One phase of the runner, inside a phase span on every shard.
struct Phase {
  workload::ThroughputSample sample;
  /// Traced: summed over shards, host ns of the phase and of the
  /// top-level repository calls inside it.
  int64_t phase_ns = 0;
  int64_t repo_ns = 0;
};

template <typename Fn>
Result<Phase> RunPhase(const std::vector<TimedRepository*>& timed,
                       const char* name, Fn&& fn) {
  for (TimedRepository* t : timed) t->tracer()->BeginPhase(name);
  Result<workload::ThroughputSample> sample = fn();
  Phase phase;
  for (TimedRepository* t : timed) {
    const ShardTracer::PhaseTime pt = t->tracer()->EndPhase();
    phase.phase_ns += pt.dur_ns;
    phase.repo_ns += pt.repo_ns;
  }
  if (!sample.ok()) return sample.status();
  phase.sample = *sample;
  return phase;
}

bool SameReport(const core::FragmentationReport& a,
                const core::FragmentationReport& b) {
  return a.objects == b.objects &&
         a.fragments_per_object == b.fragments_per_object &&
         a.max_fragments == b.max_fragments &&
         a.p50_fragments == b.p50_fragments &&
         a.p99_fragments == b.p99_fragments &&
         a.mean_fragment_bytes == b.mean_fragment_bytes &&
         a.contiguous_fraction == b.contiguous_fraction;
}

/// The correctness gate, run after the measured phases.
std::vector<std::string> CheckShards(workload::ShardedRunner& runner) {
  std::vector<std::string> failures;
  for (uint32_t s = 0; s < runner.shard_count(); ++s) {
    core::ObjectRepository* repo = runner.repository(s);
    const std::string where = "shard " + std::to_string(s) + ": ";
    const Status consistency = repo->CheckConsistency();
    if (!consistency.ok()) {
      failures.push_back(where + "CheckConsistency: " + consistency.ToString());
    }
    Result<core::FsckReport> fsck = repo->Fsck();
    if (!fsck.ok()) {
      failures.push_back(where + "Fsck: " + fsck.status().ToString());
    } else if (!fsck->clean()) {
      failures.push_back(where + "Fsck: " + fsck->issues.front().detail);
    }
    if (!SameReport(core::AnalyzeFragmentation(*repo),
                    core::AnalyzeFragmentationFullScan(*repo))) {
      failures.push_back(where +
                         "AnalyzeFragmentation differs from the full scan");
    }
  }
  return failures;
}

}  // namespace

std::span<const Workload> Workloads() { return kWorkloads; }

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

double ReferenceSeconds() {
  // The simulator's kind of work — ordered-map churn (free-space and
  // extent maps), hashed string lookups (object names), and a fill and
  // sort — built from the standard library only, so an optimization of
  // the library never moves it. Main thread only.
  static std::map<uint64_t, uint64_t> ordered;
  static std::unordered_map<std::string, uint64_t> hashed;
  static std::vector<std::string> names;
  static std::vector<uint64_t> words(1 << 18);
  static uint64_t x = 0x9E3779B97F4A7C15ull;
  auto next = [] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  if (names.empty()) {
    for (uint64_t i = 0; i < (1 << 16); ++i) {
      ordered.emplace(next(), i);
      names.push_back("object-" + std::to_string(next() % 1'000'003));
      hashed.emplace(names.back(), i);
    }
  }
  uint64_t sum = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < 20'000; ++i) {
    auto it = ordered.lower_bound(next());
    if (it == ordered.end()) it = ordered.begin();
    sum += it->second;
    ordered.erase(it);
    ordered.emplace(next(), i);
  }
  for (int i = 0; i < 100'000; ++i) {
    sum += hashed.find(names[next() % names.size()])->second;
  }
  for (int round = 0; round < 4; ++round) {
    for (uint64_t& word : words) word = next();
    std::sort(words.begin(), words.begin() + (1 << 15));
  }
  const double seconds = SecondsSince(t0);
  // Keeps the work observable without changing the result.
  return sum + words[x & 0x7FFF] == 1 ? seconds + 1e-12 : seconds;
}

double InterpolatedQuantile(const LatencyHistogram& h, double q) {
  const uint64_t n = h.count();
  if (n == 0) return 0.0;
  const uint64_t rank = std::clamp<uint64_t>(
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(n))), 1, n);
  // Bucket of the sample with 1-based rank r (monotone in r). Asking
  // for the middle of the rank keeps ceil() away from its boundary.
  auto bucket_of = [&](uint64_t r) {
    return LatencyHistogram::BucketIndex(h.Quantile(
        (static_cast<double>(r) - 0.5) / static_cast<double>(n)));
  };
  const size_t bucket = bucket_of(rank);
  uint64_t lo = 1;
  uint64_t hi = rank;
  while (lo < hi) {  // First rank in the bucket.
    const uint64_t mid = lo + (hi - lo) / 2;
    if (bucket_of(mid) < bucket) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const uint64_t first = lo;
  lo = rank;
  hi = n;
  while (lo < hi) {  // Last rank in the bucket.
    const uint64_t mid = lo + (hi - lo + 1) / 2;
    if (bucket_of(mid) > bucket) {
      hi = mid - 1;
    } else {
      lo = mid;
    }
  }
  const uint64_t last = lo;
  const double lower =
      std::max(LatencyHistogram::BucketLowerBound(bucket), h.min());
  const double upper =
      std::min(LatencyHistogram::BucketUpperBound(bucket), h.max());
  const double within = (static_cast<double>(rank - first) + 0.5) /
                        static_cast<double>(last - first + 1);
  return lower + (upper - lower) * within;
}

Result<BackendRun> RunBackend(Backend backend, const RunConfig& config) {
  const Workload& w = *config.workload;
  const bool fs = backend == Backend::kFilesystem;
  const bool timed = config.deployment == Deployment::kTimed;
  const bool timing = timed && config.timing;
  auto scaled = [&](uint64_t bytes) {
    return static_cast<uint64_t>(static_cast<double>(bytes) * config.scale);
  };

  std::unique_ptr<core::RepositoryFactory> factory = MakeRepositoryFactory(
      backend, scaled(w.volume_bytes), 64 * kKiB, scaled(w.cache_bytes));
  if (timed && fs) {
    factory = std::make_unique<TimedFsFactory>(
        static_cast<core::FsRepositoryFactory&>(*factory).base_config(),
        timing, config.spans);
  } else if (timed) {
    factory = std::make_unique<TimedDbFactory>(
        static_cast<core::DbRepositoryFactory&>(*factory).base_config(),
        timing, config.spans);
  }
  if (w.owners_per_spindle > 1) {
    factory->set_spindle_topology(
        {w.owners_per_spindle, sim::SchedPolicy::kSptf, config.seed});
  }

  workload::WorkloadConfig wc;
  wc.sizes = w.uniform_sizes
                 ? workload::SizeDistribution::Uniform(w.object_bytes)
                 : workload::SizeDistribution::Constant(w.object_bytes);
  wc.target_occupancy = 0.5;
  wc.seed = config.seed;
  wc.read_probe_samples = w.probe_gets;
  wc.queue_depth = w.queue_depth;
  wc.queue_policy = sim::SchedPolicy::kSptf;

  BackendRun run;
  HostTimer setup_timer;
  workload::ShardedRunner runner(*factory, wc, w.shards);
  std::vector<TimedRepository*> wrappers;
  for (uint32_t s = 0; timed && s < runner.shard_count(); ++s) {
    wrappers.push_back(static_cast<TimedRepository*>(runner.repository(s)));
  }
  LOR_RETURN_IF_ERROR(RunPhase(wrappers, "workload.load", [&] {
                        return runner.BulkLoad();
                      }).status());
  run.setup_s = setup_timer.Stop();

  const Counters c0 = Snapshot(runner);
  HostTimer age_timer;
  LOR_ASSIGN_OR_RETURN(Phase age, RunPhase(wrappers, "workload.age", [&] {
                         return runner.AgeTo(w.age);
                       }));
  const double age_s = age_timer.Stop();
  const Counters c1 = Snapshot(runner);
  HostTimer probe_timer;
  LOR_ASSIGN_OR_RETURN(Phase probe, RunPhase(wrappers, "workload.probe", [&] {
                         return runner.MeasureReadThroughput();
                       }));
  const double probe_s = probe_timer.Stop();
  const Counters c2 = Snapshot(runner);
  const core::FragmentationReport frag = runner.Fragmentation();
  run.host_slowdown = (setup_timer.slowdown() + age_timer.slowdown() +
                       probe_timer.slowdown()) /
                      3.0;

  const std::string p = fs ? "fs." : "db.";
  auto add = [&](const std::string& name, double value, const char* unit,
                 MetricKind kind, MetricGroup group) {
    run.metrics.push_back({p + name, value, unit, kind, group});
  };
  const MetricKind kSim = MetricKind::kSim;
  const MetricKind kHost = MetricKind::kHost;
  const MetricGroup kE2e = MetricGroup::kEndToEnd;
  const MetricGroup kLayer = MetricGroup::kLayer;
  const MetricGroup kTraced = MetricGroup::kLayerTraced;

  const double age_ops = static_cast<double>(age.sample.operations);
  const double probe_ops = static_cast<double>(probe.sample.operations);
  const double ops = age_ops + probe_ops;
  const LatencyHistogram gets =
      (c2.latency - c1.latency).histogram(sim::OpClass::kGet);
  run.get_samples = gets.count();

  // End to end.
  add("read_mb_s", probe.sample.mb_per_s(), "MB/s", kSim, kE2e);
  add("write_mb_s", age.sample.mb_per_s(), "MB/s", kSim, kE2e);
  add("frags_per_obj", frag.fragments_per_object, "frags/obj", kSim, kE2e);
  add("get_p50_ms", InterpolatedQuantile(gets, 0.50) * 1e3, "ms", kSim, kE2e);
  add("get_p99_ms", InterpolatedQuantile(gets, 0.99) * 1e3, "ms", kSim, kE2e);
  run.ops = age.sample.operations + probe.sample.operations;
  run.ops_s = age_s + probe_s;
  add("host_kops_s", ops / run.ops_s / 1e3, "kops/s", kHost, kLayer);

  // workload (ShardEngine): phase host time outside repository calls.
  if (timing) {
    add("workload.self_frac",
        1.0 - Ratio(static_cast<double>(age.repo_ns + probe.repo_ns),
                    static_cast<double>(age.phase_ns + probe.phase_ns)),
        "frac", kHost, kTraced);
  }

  // core (Fs/DbRepository): host time per call.
  if (timing) {
    std::array<LatencyHistogram, kLayerCount> merged;
    for (TimedRepository* t : wrappers) {
      for (size_t l = 0; l < kLayerCount; ++l) {
        merged[l].Merge(t->tracer()->histogram(static_cast<Layer>(l)));
      }
    }
    auto us = [&](Layer layer, double q) {
      return InterpolatedQuantile(merged[static_cast<size_t>(layer)], q) * 1e6;
    };
    add("core.safe_write_us_p50", us(Layer::kSafeWrite, 0.50), "us", kHost,
        kTraced);
    add("core.safe_write_us_p99", us(Layer::kSafeWrite, 0.99), "us", kHost,
        kTraced);
    add("core.get_us_p50", us(Layer::kGet, 0.50), "us", kHost, kTraced);
    add("core.get_us_p99", us(Layer::kGet, 0.99), "us", kHost, kTraced);
    add("core.open_us_p50", us(Layer::kOpen, 0.50), "us", kHost, kTraced);
    if (fs) {
      add("alloc.allocate_ns_mean",
          merged[static_cast<size_t>(Layer::kAllocate)].mean() * 1e9, "ns",
          kHost, kTraced);
      add("alloc.free_ns_mean",
          merged[static_cast<size_t>(Layer::kFree)].mean() * 1e9, "ns", kHost,
          kTraced);
      add("alloc.extents_per_allocate",
          Ratio(static_cast<double>(c1.alloc.extents - c0.alloc.extents),
                static_cast<double>(c1.alloc.allocate_calls -
                                    c0.alloc.allocate_calls)),
          "extents/call", kSim, kTraced);
    }
  }

  // alloc (fs): call counts and the free space left at the final age.
  uint64_t free_clusters = 0;
  uint64_t free_runs = 0;
  uint64_t used_bytes = 0;
  uint64_t live_bytes = 0;
  uint64_t objects = 0;
  uint64_t cluster_bytes = 0;
  for (uint32_t s = 0; s < runner.shard_count(); ++s) {
    core::ObjectRepository* repo = Unwrap(runner.repository(s));
    used_bytes += repo->volume_bytes() - repo->free_bytes();
    live_bytes += repo->live_bytes();
    objects += repo->object_count();
    if (auto* fsr = dynamic_cast<core::FsRepository*>(repo)) {
      const alloc::FreeSpaceStats free = fsr->store()->allocator()->FreeStats();
      free_clusters += free.free_clusters;
      free_runs += free.run_count;
      cluster_bytes = fsr->config().store.cluster_bytes;
    }
  }
  if (fs) {
    if (timed) {
      add("alloc.calls_per_op",
          Ratio(static_cast<double>(
                    c1.alloc.allocate_calls + c1.alloc.free_calls -
                    c0.alloc.allocate_calls - c0.alloc.free_calls),
                age_ops),
          "calls/op", kSim, kLayer);
    }
    add("alloc.free_runs", static_cast<double>(free_runs), "count", kSim,
        kLayer);
    // The paper's ratio of free space to object size: the mean free run
    // over the mean live object.
    add("alloc.free_run_over_object",
        Ratio(Ratio(static_cast<double>(free_clusters * cluster_bytes),
                    static_cast<double>(free_runs)),
              Ratio(static_cast<double>(live_bytes),
                    static_cast<double>(objects))),
        "ratio", kSim, kLayer);
  }

  // fs/db store.
  add("store.space_amp",
      Ratio(static_cast<double>(used_bytes), static_cast<double>(live_bytes)),
      "ratio", kSim, kLayer);
  if (!fs) {
    add("store.log_bytes_per_op",
        Ratio(static_cast<double>(c1.log_bytes - c0.log_bytes), age_ops),
        "B/op", kSim, kLayer);
    add("log.busy_ms_per_op",
        Ratio((c1.log.busy_time_s - c0.log.busy_time_s) * 1e3, age_ops),
        "ms/op", kSim, kLayer);
  }

  // sim.device: the aging phase and the final probe.
  const sim::IoStats aged = c1.dev - c0.dev;
  const sim::IoStats probed = c2.dev - c1.dev;
  const sim::IoStats both = c2.dev - c0.dev;
  add("dev.age_requests_per_op",
      Ratio(static_cast<double>(aged.reads + aged.writes), age_ops), "req/op",
      kSim, kLayer);
  add("dev.age_write_amp",
      Ratio(static_cast<double>(aged.bytes_written),
            static_cast<double>(age.sample.bytes)),
      "ratio", kSim, kLayer);
  add("dev.age_position_frac",
      Ratio(aged.seek_time_s + aged.rotational_time_s, aged.busy_time_s),
      "frac", kSim, kLayer);
  add("dev.probe_seeks_per_get",
      Ratio(static_cast<double>(probed.seeks), probe_ops), "seeks/op", kSim,
      kLayer);
  add("dev.probe_position_frac",
      Ratio(probed.seek_time_s + probed.rotational_time_s, probed.busy_time_s),
      "frac", kSim, kLayer);

  // sim.scheduler / spindle_plane: zero on a dedicated spindle at qd 1.
  add("sched.queue_wait_ms_per_op", Ratio(both.queue_wait_s * 1e3, ops),
      "ms/op", kSim, kLayer);
  add("plane.interference_seeks_per_op",
      Ratio(static_cast<double>(both.interference_seeks), ops), "seeks/op",
      kSim, kLayer);
  add("plane.interference_frac",
      Ratio(both.interference_seek_time_s, both.busy_time_s), "frac", kSim,
      kLayer);

  // sim.buffer_pool: zero with the pool off.
  const PoolCounts probe_pool = c2.pool - c1.pool;
  const PoolCounts pool = c2.pool - c0.pool;
  add("pool.probe_hit_rate",
      Ratio(static_cast<double>(probe_pool.hits),
            static_cast<double>(probe_pool.hits + probe_pool.misses)),
      "frac", kSim, kLayer);
  add("pool.writebacks_per_op", Ratio(static_cast<double>(pool.writebacks), ops),
      "count/op", kSim, kLayer);
  add("pool.evictions_per_op", Ratio(static_cast<double>(pool.evictions), ops),
      "count/op", kSim, kLayer);
  add("pool.fills_per_op", Ratio(static_cast<double>(pool.fills), ops),
      "count/op", kSim, kLayer);

  run.gate_failures = CheckShards(runner);
  for (TimedRepository* t : wrappers) {
    run.calls += t->calls();
    run.failed += t->failed();
    run.spans.push_back(t->tracer()->TakeSpans());
  }
  if (run.failed > 0) {
    run.gate_failures.push_back(std::to_string(run.failed) + " of " +
                                std::to_string(run.calls) +
                                " repository calls failed");
  }
  return run;
}

}  // namespace bench
}  // namespace lor
