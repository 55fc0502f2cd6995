// lor_bench: the repository's performance benchmark, on both clocks —
// simulated (the paper's MB/s, fragments per object and get latency on a
// modelled 2007 spindle) and host (how fast the simulator produces
// them) — end to end and layer by layer.
//
//   lor_bench --workload=<name> [--seed=<n>] [--seconds=<s>]
//             [--trace=<file>] [--scale=<f>]
//
// One invocation runs one workload on both back ends (fs, db). Each
// repetition builds a fresh deployment per back end, bulk-loads it,
// ages it and probes reads. There are at least three repetitions, and
// another starts only while one as long as the last still ends within
// --seconds. Simulated metrics must repeat bit for bit; host metrics
// are the median of the repetitions, taken at reference host speed
// (see HostTimer in workloads.cc), and peak RSS is the first
// repetition's. The end-to-end host throughput, host_kops_s, counts
// both back ends' ops over both back ends' host time. Every metric prints as `name value unit`, and the last
// line is one JSON object: {"correct", "attempted", "failed",
// "metrics"} with the end-to-end metrics, or with --trace the
// per-layer ones.
//
// With --trace every repository and allocator call is timed into a
// per-layer histogram, and the first repetition's sampled spans (phase
// -> repository op -> allocator call) are written to <file> as Chrome
// trace-event JSON (chrome://tracing, Perfetto). --scale multiplies
// every volume and the pool; it exists for the smoke test.
//
// Workloads (closed loop, one zero-think-time client per shard, 50%
// occupancy, uniform-random safe-write aging; volumes and the pool are
// deployment totals, gets are per shard). Each "why" is the one in
// BENCHMARK.json.
//   aged_10mb   10 MiB constant, 200 GiB, 1 shard, qd 1, age 10, 10000
//               gets. Why: Fig. 2 regime: 10 MiB objects aged to 10,
//               where fragmentation dominates; allocation does most host
//               work and seeks turn fragments into lost read MB/s.
//   aged_256k   256 KiB constant, 20 GiB, 1 shard, qd 1, age 10, 16000
//               gets. Why: The paper's 256 KiB crossover size: 40x the
//               ops per byte of aged_10mb, so per-op layers (engine,
//               handles, tracker, latency recorder, metadata) take the
//               host time.
//   shared_qd8  1 MiB uniform, 256 GiB, 4 shards on one spindle, qd 8,
//               age 2, 4000 gets. Why: 4 shards on one spindle at qd 8
//               (SPTF): the only workload that runs the I/O scheduler
//               and spindle plane; uniform sizes test that they fragment
//               like constant ones.
//   cached_pool 1 MiB uniform, 8 GiB, 3.5 GiB pool, 1 shard, qd 1, age
//               12, 4000 gets. Why: The only workload with the buffer
//               pool on: a 3.5 GiB pool under a ~4 GiB live set, so most
//               probe reads hit and eviction and write-back run while
//               the device idles.
//
// Correctness gate, after every run and outside the timed phases: each
// shard passes CheckConsistency and a clean Fsck, its tracked
// fragmentation equals the full layout scan, no repository call
// failed, and every simulated metric matches the other repetitions.
// Any failure exits 1 after the metrics print; bad flags exit 2.

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.h"
#include "workloads.h"

namespace lor {
namespace bench {
namespace {

constexpr int kMinRepetitions = 3;
/// Spans one traced run keeps at most.
constexpr int64_t kMaxSpans = 1'000'000;

constexpr const char* kUsage =
    "usage: lor_bench --workload=<name> [--seed=<n>] [--seconds=<s>]\n"
    "                 [--trace=<file>] [--scale=<f>]\n"
    "workloads: aged_10mb aged_256k shared_qd8 cached_pool\n";

struct Cli {
  const Workload* workload = nullptr;
  uint64_t seed = 42;
  double seconds = 0.0;
  double scale = 1.0;
  std::string trace_path;  ///< Empty: untraced.
};

bool ParseNumber(std::string_view text, double* out) {
  if (text.empty()) return false;
  const std::string copy(text);
  char* end = nullptr;
  const double v = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size() || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

/// Strict flag parsing: every argument must be a known --flag=value.
bool ParseCli(int argc, char** argv, Cli* cli, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string_view flag = arg.substr(0, eq);
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view() : arg.substr(eq + 1);
    if (eq == std::string_view::npos) {
      *error = "expected --flag=value, got '" + std::string(arg) + "'";
      return false;
    }
    if (flag == "--workload") {
      cli->workload = FindWorkload(value);
      if (cli->workload == nullptr) {
        *error = "unknown workload '" + std::string(value) + "'";
        return false;
      }
    } else if (flag == "--seed") {
      const char* end = value.data() + value.size();
      const auto [ptr, ec] = std::from_chars(value.data(), end, cli->seed);
      if (value.empty() || ec != std::errc() || ptr != end) {
        *error = "--seed must be a non-negative integer";
        return false;
      }
    } else if (flag == "--seconds") {
      if (!ParseNumber(value, &cli->seconds) || cli->seconds < 0.0 ||
          cli->seconds > 3600.0) {
        *error = "--seconds must be a number in [0, 3600]";
        return false;
      }
    } else if (flag == "--scale") {
      if (!ParseNumber(value, &cli->scale) || cli->scale <= 0.0 ||
          cli->scale > 1.0) {
        *error = "--scale must be a number in (0, 1]";
        return false;
      }
    } else if (flag == "--trace") {
      if (value.empty()) {
        *error = "--trace needs a file name";
        return false;
      }
      cli->trace_path = std::string(value);
    } else {
      *error = "unknown flag '" + std::string(flag) + "'";
      return false;
    }
  }
  if (cli->workload == nullptr) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

void PrintParameters(const Cli& cli) {
  const Workload& w = *cli.workload;
  auto scaled = [&](uint64_t bytes) {
    return FormatBytes(
        static_cast<uint64_t>(static_cast<double>(bytes) * cli.scale));
  };
  std::printf("# lor_bench workload=%s seed=%llu\n", w.name,
              static_cast<unsigned long long>(cli.seed));
  std::printf("# why: %s\n", w.why);
  std::printf("# sizes: %s, mean %s\n", w.uniform_sizes ? "uniform" : "constant",
              FormatBytes(w.object_bytes).c_str());
  std::printf("# volume: %s (deployment total, scale %g), occupancy 0.5\n",
              scaled(w.volume_bytes).c_str(), cli.scale);
  std::printf("# age: %g (uniform-random safe writes)\n", w.age);
  std::printf("# shards: %u, owners per spindle: %u, queue depth: %u (SPTF)\n",
              w.shards, w.owners_per_spindle, w.queue_depth);
  std::printf("# pool: %s\n",
              w.cache_bytes == 0 ? "off" : scaled(w.cache_bytes).c_str());
  std::printf("# probe: %llu gets per shard\n",
              static_cast<unsigned long long>(w.probe_gets));
  std::printf("# repetitions: at least %d, within %g s; trace: %s\n",
              kMinRepetitions, cli.seconds,
              cli.trace_path.empty() ? "off" : cli.trace_path.c_str());
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Folds one back end's repetitions into one metric list: simulated
/// metrics must agree bit for bit, host metrics take the median.
std::vector<Metric> Combine(const std::vector<const BackendRun*>& runs,
                            std::vector<std::string>* failures) {
  std::vector<Metric> out = runs.front()->metrics;
  for (size_t i = 0; i < out.size(); ++i) {
    std::vector<double> values;
    for (const BackendRun* run : runs) {
      values.push_back(run->metrics[i].value);
      if (out[i].kind == MetricKind::kSim &&
          std::bit_cast<uint64_t>(run->metrics[i].value) !=
              std::bit_cast<uint64_t>(out[i].value)) {
        failures->push_back(out[i].name + " differs between repetitions");
      }
    }
    if (out[i].kind == MetricKind::kHost) out[i].value = Median(values);
  }
  return out;
}

/// Writes the kept spans as Chrome trace-event JSON: one process per
/// back end, one thread per shard, and each span's id and parent id
/// (0 = none) in its args.
bool WriteTrace(const std::string& path, const BackendRun& fs,
                const BackendRun& db) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  uint64_t next_id = 1;
  int pid = 0;
  for (const BackendRun* run : {&fs, &db}) {
    ++pid;
    std::fprintf(f,
                 "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                 "\"tid\":0,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", pid, pid == 1 ? "fs" : "db");
    first = false;
    for (size_t shard = 0; shard < run->spans.size(); ++shard) {
      const std::vector<Span>& spans = run->spans[shard];
      for (size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        const std::string_view name = s.name;
        const std::string_view cat = name.substr(0, name.find('.'));
        std::fprintf(
            f,
            ",\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
            "\"ts\":%lld.%03lld,\"dur\":%lld.%03lld,\"pid\":%d,\"tid\":%zu,"
            "\"args\":{\"id\":%llu,\"parent\":%llu}}",
            s.name, static_cast<int>(cat.size()), cat.data(),
            static_cast<long long>(s.start_ns / 1000),
            static_cast<long long>(s.start_ns % 1000),
            static_cast<long long>(s.dur_ns / 1000),
            static_cast<long long>(s.dur_ns % 1000), pid, shard,
            static_cast<unsigned long long>(next_id + i),
            static_cast<unsigned long long>(
                s.parent < 0 ? 0 : next_id + static_cast<uint64_t>(s.parent)));
      }
      next_id += spans.size();
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

int Main(int argc, char** argv) {
  Cli cli;
  std::string error;
  if (!ParseCli(argc, argv, &cli, &error)) {
    std::fprintf(stderr, "lor_bench: %s\n%s", error.c_str(), kUsage);
    return 2;
  }
  const bool traced = !cli.trace_path.empty();
  PrintParameters(cli);

  SpanBudget span_budget(kMaxSpans);
  std::vector<BackendRun> fs_runs;
  std::vector<BackendRun> db_runs;
  std::vector<double> setups;
  std::vector<double> host_kops;
  double peak_rss_mb = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  // Another repetition starts only if one as long as the last still ends
  // within --seconds.
  double last_repetition_s = 0.0;
  while (static_cast<int>(setups.size()) < kMinRepetitions ||
         elapsed() + last_repetition_s <= cli.seconds) {
    const double repetition_t0 = elapsed();
    RunConfig config;
    config.workload = cli.workload;
    config.seed = cli.seed;
    config.scale = cli.scale;
    config.timing = traced;
    // Only the first repetition keeps spans; every one is timed.
    config.spans = traced && setups.empty() ? &span_budget : nullptr;
    std::printf("# repetition %zu:", setups.size() + 1);
    double setup = 0.0;
    double ops = 0.0;
    double ops_s = 0.0;
    for (const Backend backend : {Backend::kFilesystem, Backend::kDatabase}) {
      const bool fs = backend == Backend::kFilesystem;
      Result<BackendRun> run = RunBackend(backend, config);
      if (!run.ok()) {
        std::printf("\n");
        std::fprintf(stderr, "lor_bench: %s run failed: %s\n",
                     fs ? "fs" : "db", run.status().ToString().c_str());
        return 1;
      }
      std::printf(" %s.host_kops_s %.4g (host slowdown %.3f)", fs ? "fs" : "db",
                  static_cast<double>(run->ops) / run->ops_s / 1e3,
                  run->host_slowdown);
      setup += run->setup_s;
      ops += static_cast<double>(run->ops);
      ops_s += run->ops_s;
      (fs ? fs_runs : db_runs).push_back(std::move(*run));
    }
    setups.push_back(setup);
    host_kops.push_back(ops / ops_s / 1e3);
    // Later repetitions reuse the heap, so only the first one's peak
    // reflects the deployment rather than how many repetitions fit.
    if (setups.size() == 1) peak_rss_mb = PeakRssMb();
    last_repetition_s = elapsed() - repetition_t0;
    std::printf(" host_kops_s %.4g setup_s %.4g (at %.1f s)\n",
                host_kops.back(), setup, elapsed());
    std::fflush(stdout);
  }

  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  for (const std::vector<BackendRun>* runs : {&fs_runs, &db_runs}) {
    std::vector<const BackendRun*> ptrs;
    for (const BackendRun& run : *runs) {
      ptrs.push_back(&run);
      attempted += run.calls;
      failed += run.failed;
      for (const std::string& f : run.gate_failures) failures.push_back(f);
    }
    std::vector<Metric> combined = Combine(ptrs, &failures);
    metrics.insert(metrics.end(), combined.begin(), combined.end());
    std::printf("# %s.get samples: n=%llu\n",
                runs == &fs_runs ? "fs" : "db",
                static_cast<unsigned long long>(runs->front().get_samples));
  }
  metrics.push_back({"host_kops_s", Median(host_kops), "kops/s",
                     MetricKind::kHost, MetricGroup::kEndToEnd});
  metrics.push_back({"setup_s", Median(setups), "s", MetricKind::kHost,
                     MetricGroup::kEndToEnd});
  metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB", MetricKind::kHost,
                     MetricGroup::kEndToEnd});
  // End-to-end metrics first, then the layers.
  std::stable_partition(metrics.begin(), metrics.end(), [](const Metric& m) {
    return m.group == MetricGroup::kEndToEnd;
  });

  for (const Metric& m : metrics) {
    std::printf("%s %.9g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("# failed_op_frac = %.9g (%llu of %llu repository calls)\n",
              attempted == 0 ? 0.0
                             : static_cast<double>(failed) /
                                   static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  if (traced) {
    if (!WriteTrace(cli.trace_path, fs_runs.front(), db_runs.front())) {
      failures.push_back("cannot write trace " + cli.trace_path);
    } else {
      std::printf("# trace: %s\n", cli.trace_path.c_str());
    }
  }
  for (const std::string& f : failures) std::printf("# FAIL: %s\n", f.c_str());
  const bool correct = failures.empty();
  std::printf("# correctness gate: %s\n", correct ? "pass" : "FAIL");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const Metric& m : metrics) {
    if ((m.group == MetricGroup::kEndToEnd) == traced) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(), m.value, m.unit);
    first = false;
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace lor

int main(int argc, char** argv) { return lor::bench::Main(argc, argv); }
