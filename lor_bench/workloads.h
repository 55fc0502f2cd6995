// lor_bench's workloads, and one measured run of a workload on one back
// end: a fresh deployment from bench::MakeRepositoryFactory, driven
// phase by phase through workload::ShardedRunner (BulkLoad, AgeTo,
// MeasureReadThroughput) so every phase gets its own counter deltas,
// then checked for correctness.

#ifndef LOR_BENCH_WORKLOADS_H_
#define LOR_BENCH_WORKLOADS_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "timed_layers.h"
#include "util/histogram.h"
#include "util/result.h"

namespace lor {
namespace bench {

/// One benchmark workload. Closed loop: one zero-think-time client per
/// shard. Volumes and the pool are deployment totals; occupancy after
/// bulk load is 50%, and aging is uniform-random safe writes.
struct Workload {
  const char* name;
  /// Why the workload exists (one line; BENCHMARK.json carries the same).
  const char* why;
  bool uniform_sizes;  ///< Uniform on [mean/2, 3*mean/2]; else constant.
  uint64_t object_bytes;  ///< Mean object size.
  uint64_t volume_bytes;
  uint64_t cache_bytes;  ///< Buffer pool; 0 = off.
  uint32_t shards;
  uint32_t owners_per_spindle;
  uint32_t queue_depth;
  double age;
  uint64_t probe_gets;  ///< Gets in the final read probe, per shard.
};

std::span<const Workload> Workloads();
/// Null for an unknown name.
const Workload* FindWorkload(std::string_view name);

/// How a metric combines across repetitions of a run.
enum class MetricKind {
  kSim,   ///< Simulated or counted: must repeat bit for bit.
  kHost,  ///< Host time: the median of the repetitions.
};

/// Where a metric is reported.
enum class MetricGroup {
  kEndToEnd,     ///< What a user of the repository sees.
  kLayer,        ///< One layer, from counters: printed by every run.
  kLayerTraced,  ///< One layer, from per-call timing: traced runs only.
};

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
  MetricKind kind = MetricKind::kSim;
  MetricGroup group = MetricGroup::kEndToEnd;
};

/// Which repositories a run builds.
enum class Deployment {
  kStock,  ///< MakeRepositoryFactory's repositories, undecorated.
  kTimed,  ///< The same, behind TimedRepository / TimedAllocator.
};

struct RunConfig {
  const Workload* workload = nullptr;
  uint64_t seed = 42;
  /// Multiplies the workload's volume and pool.
  double scale = 1.0;
  Deployment deployment = Deployment::kTimed;
  /// Time every call (kTimed only); adds the kLayerTraced metrics.
  bool timing = false;
  /// Budget for kept spans; null keeps none.
  SpanBudget* spans = nullptr;
};

/// One back end's run of a workload.
struct BackendRun {
  /// Prefixed "fs." / "db.", in a fixed order.
  std::vector<Metric> metrics;
  /// Host seconds to build the deployment and bulk-load it, at reference
  /// host speed (see host_slowdown).
  double setup_s = 0.0;
  /// Repository ops of the aging phase and the read probe, and the host
  /// seconds they took at reference host speed.
  uint64_t ops = 0;
  double ops_s = 0.0;
  /// How much slower the host ran than the reference during this run's
  /// timed regions: ReferenceSeconds() around each of them over
  /// kReferenceSeconds, averaged. Set-up and op host times divide each
  /// region's wall time by its own slowdown, so that a neighbour slowing
  /// the whole machine for minutes does not read as a change in the
  /// simulator; per-call host times stay raw.
  double host_slowdown = 1.0;
  /// Repository calls made through TimedRepository, and the failed ones.
  uint64_t calls = 0;
  uint64_t failed = 0;
  /// Gets behind get_p50_ms / get_p99_ms.
  uint64_t get_samples = 0;
  /// Correctness-gate findings; empty when the run is correct.
  std::vector<std::string> gate_failures;
  /// Kept spans, per shard.
  std::vector<std::vector<Span>> spans;
};

Result<BackendRun> RunBackend(Backend backend, const RunConfig& config);

/// Host seconds a fixed kernel of the simulator's kind of work (map
/// churn, hashed string lookups, fill and sort) takes right now.
double ReferenceSeconds();
/// ReferenceSeconds() on the reference host: a 4-vCPU 2.1 GHz Xeon
/// virtual machine, median of unloaded runs.
inline constexpr double kReferenceSeconds = 0.030;

/// Quantile `q` of `h`, interpolated linearly across the samples inside
/// the histogram sub-bucket that holds it. LatencyHistogram::Quantile
/// returns the bucket midpoint, which would pin a percentile to one of
/// a few values ~4% apart.
double InterpolatedQuantile(const LatencyHistogram& h, double q);

}  // namespace bench
}  // namespace lor

#endif  // LOR_BENCH_WORKLOADS_H_
