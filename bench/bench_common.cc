#include "bench_common.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <system_error>

namespace lor {
namespace bench {

namespace {

constexpr const char* kUsage =
    "flags: --scale=small|paper|<number in (0, 100]> --seed=<n> --csv\n"
    "       --shards=<n>|--threads=<n> --name-path --qd=<n> --sync\n"
    "       --cache-mb=<n> --owners=<n> --fifo\n"
    "       (env: LOR_BENCH_SCALE, LOR_BENCH_SHARDS)\n";

/// Exits 2 naming the rejected argument: a bench never runs a
/// configuration other than the one it was asked for.
[[noreturn]] void Reject(const char* program, const char* what,
                         std::string_view arg) {
  std::fprintf(stderr, "%s: %s '%.*s'\n%s", program, what,
               static_cast<int>(arg.size()), arg.data(), kUsage);
  std::exit(2);
}

/// The whole of `text` as an integer in [lo, hi] (no sign, no spaces).
bool ParseUint(std::string_view text, uint64_t lo, uint64_t hi,
               uint64_t* out) {
  uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end || v < lo || v > hi) {
    return false;
  }
  *out = v;
  return true;
}

/// small, paper, or the whole of `text` as a number in (0, 100].
bool ParseScale(std::string_view text, double* out) {
  if (text == "small") {
    *out = 0.1;
    return true;
  }
  if (text == "paper") {
    *out = 1.0;
    return true;
  }
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end || !std::isfinite(v) ||
      v <= 0.0 || v > 100.0) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

Options Options::FromArgs(int argc, char** argv) {
  Options opts;
  const char* program = argc > 0 ? argv[0] : "bench";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string_view flag = arg.substr(0, eq);
    const bool has_value = eq != std::string_view::npos;
    const std::string_view value = has_value ? arg.substr(eq + 1) : "";
    auto count = [&](uint64_t lo, uint64_t hi) {
      uint64_t n = 0;
      if (!has_value || !ParseUint(value, lo, hi, &n)) {
        Reject(program, "invalid value in", arg);
      }
      return n;
    };
    if (flag == "--scale") {
      if (!has_value || !ParseScale(value, &opts.scale)) {
        Reject(program, "invalid value in", arg);
      }
    } else if (flag == "--seed") {
      opts.seed = count(0, UINT64_MAX);
    } else if (flag == "--qd") {
      opts.queue_depth = static_cast<uint32_t>(count(1, UINT32_MAX));
    } else if (flag == "--cache-mb") {
      opts.cache_mb = count(0, UINT64_MAX / kMiB);
    } else if (flag == "--owners") {
      opts.owners_per_spindle = static_cast<uint32_t>(count(1, UINT32_MAX));
    } else if (flag == "--shards" || flag == "--threads") {
      opts.shards = static_cast<uint32_t>(count(1, UINT32_MAX));
      opts.shards_set = true;
    } else if (arg == "--csv") {
      opts.csv = true;
    } else if (arg == "--name-path") {
      opts.name_path = true;
    } else if (arg == "--sync") {
      opts.queue_depth = 1;
    } else if (arg == "--fifo") {
      opts.fifo = true;
    } else {
      Reject(program, "unknown flag", arg);
    }
  }
  // Environment overrides used by CI sweeps; an empty value is unset.
  const char* env = std::getenv("LOR_BENCH_SCALE");
  if (env != nullptr && *env != '\0' && !ParseScale(env, &opts.scale)) {
    Reject(program, "invalid LOR_BENCH_SCALE", env);
  }
  env = std::getenv("LOR_BENCH_SHARDS");
  if (env != nullptr && *env != '\0') {
    uint64_t n = 0;
    if (!ParseUint(env, 1, UINT32_MAX, &n)) {
      Reject(program, "invalid LOR_BENCH_SHARDS", env);
    }
    opts.shards = static_cast<uint32_t>(n);
    opts.shards_set = true;
  }
  return opts;
}

uint64_t Options::ScaleBytes(uint64_t paper_bytes) const {
  return static_cast<uint64_t>(static_cast<double>(paper_bytes) * scale);
}

std::unique_ptr<core::RepositoryFactory> MakeRepositoryFactory(
    Backend backend, uint64_t volume_bytes, uint64_t write_request_bytes,
    uint64_t cache_bytes) {
  if (backend == Backend::kFilesystem) {
    core::FsRepositoryConfig config;
    config.volume_bytes = volume_bytes;
    config.write_request_bytes = write_request_bytes;
    config.cache.capacity_bytes = cache_bytes;
    return std::make_unique<core::FsRepositoryFactory>(config);
  }
  core::DbRepositoryConfig config;
  config.volume_bytes = volume_bytes;
  config.store.write_request_bytes = write_request_bytes;
  config.cache.capacity_bytes = cache_bytes;
  return std::make_unique<core::DbRepositoryFactory>(config);
}

std::unique_ptr<core::ObjectRepository> MakeRepository(
    Backend backend, uint64_t volume_bytes, uint64_t write_request_bytes,
    uint64_t cache_bytes) {
  return MakeRepositoryFactory(backend, volume_bytes, write_request_bytes,
                               cache_bytes)
      ->Create(0, 1);
}

namespace {

/// The checkpoint protocol shared by the single-shard and sharded
/// aging drivers: bulk load is the age-0 checkpoint, then every target
/// age records the interval's write sample, an optional read probe,
/// the measured age, and a fragmentation report. `Runner` is
/// GetPutRunner or ShardedRunner (identical phase interface).
template <typename Runner>
Result<std::vector<AgingCheckpoint>> CollectCheckpoints(
    Runner* runner, const std::vector<double>& ages, bool probe_reads) {
  std::vector<AgingCheckpoint> checkpoints;

  auto snapshot = [&](AgingCheckpoint* cp) {
    cp->measured_age = runner->storage_age();
    cp->fragmentation = runner->Fragmentation();
    cp->device = runner->device_stats();
    cp->latency = runner->latency();
    uint64_t hits = 0;
    uint64_t misses = 0;
    bool first = true;
    for (const sim::BufferPoolStats& pool : runner->shard_cache_stats()) {
      hits += pool.hits;
      misses += pool.misses;
      const double rate = pool.hit_rate();
      cp->cache_hit_min = first ? rate : std::min(cp->cache_hit_min, rate);
      cp->cache_hit_max = first ? rate : std::max(cp->cache_hit_max, rate);
      first = false;
    }
    cp->cache_hit = hits + misses == 0
                        ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(hits + misses);
  };

  AgingCheckpoint zero;
  zero.target_age = 0.0;
  LOR_ASSIGN_OR_RETURN(zero.write, runner->BulkLoad());
  if (probe_reads) {
    LOR_ASSIGN_OR_RETURN(zero.read, runner->MeasureReadThroughput());
  }
  snapshot(&zero);
  checkpoints.push_back(std::move(zero));

  for (double age : ages) {
    AgingCheckpoint cp;
    cp.target_age = age;
    if (probe_reads) {
      // One dispatch for age + probe: a shard done aging moves straight
      // into its probe instead of idling at a host barrier. Simulated
      // results are identical to the separate calls.
      LOR_ASSIGN_OR_RETURN(workload::AgeMeasureSample fused,
                           runner->AgeAndMeasure(age));
      cp.write = fused.aged;
      cp.read = fused.read;
    } else {
      LOR_ASSIGN_OR_RETURN(cp.write, runner->AgeTo(age));
    }
    snapshot(&cp);
    checkpoints.push_back(std::move(cp));
  }
  return checkpoints;
}

}  // namespace

Result<std::vector<AgingCheckpoint>> RunAging(
    core::ObjectRepository* repo, const workload::WorkloadConfig& config,
    const std::vector<double>& ages, bool probe_reads) {
  workload::GetPutRunner runner(repo, config);
  return CollectCheckpoints(&runner, ages, probe_reads);
}

Result<std::vector<AgingCheckpoint>> RunShardedAging(
    const core::RepositoryFactory& factory, uint32_t shards,
    const workload::WorkloadConfig& config, const std::vector<double>& ages,
    bool probe_reads) {
  workload::ShardedRunner runner(factory, config, shards);
  return CollectCheckpoints(&runner, ages, probe_reads);
}

void PrintBanner(const std::string& title, const std::string& paper_ref,
                 const Options& options) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("Reproduces: %s (Sears & van Ingen, CIDR 2007)\n",
              paper_ref.c_str());
  std::printf("Scale: %.2fx of the paper's volumes (seed %llu)\n\n",
              options.scale, static_cast<unsigned long long>(options.seed));
}

}  // namespace bench
}  // namespace lor
