// Figure 7 (contended) — shared-spindle multi-client scaling: what the
// multi-client sweep looks like when several shards' volumes live on
// ONE physical disk instead of a spindle each.
//
// fig7_multi_client gives every shard a dedicated spindle, so aggregate
// MB/s scales ~linearly with the shard count. Production consolidation
// maps several clients' volumes onto disjoint regions of one drive:
// interleaved request streams then drag the shared head across region
// boundaries, and every such crossing is a seek that a dedicated layout
// would not have paid. This bench sweeps shards x owners-per-spindle x
// both back ends (core::RepositoryFactory::set_spindle_topology over
// sim::SpindlePlane) and reports the interference explicitly:
//
//   - interference seeks / interference s: seeks charged because the
//     previous request on the spindle belonged to a different owner —
//     the contention cost, identically zero on dedicated spindles;
//   - queue wait s: simulated seconds operations sat in the plane's
//     round queues before the head reached them;
//   - the wall columns: real host seconds per phase (shards submit
//     concurrently and overlap host work with peers' service rounds).
//
// Expected shape: aggregate MB/s is sublinear in the shard count once
// owners/spindle > 1 (and degrades as owners grow), interference seeks
// are zero only in the dedicated rows, and SPTF (default) beats FIFO
// (--fifo) on busy time at equal work.

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "util/table_writer.h"

namespace lor {
namespace bench {
namespace {

void Run(const Options& options) {
  PrintBanner(
      "Figure 7 (contended): shared-spindle multi-client scaling",
      "consolidation counterpart of Figure 7 (multi-client extension)",
      options);

  const uint64_t volume = options.ScaleBytes(16 * kGiB);
  const std::vector<double> ages = {1.5};
  const sim::SchedPolicy policy =
      options.fifo ? sim::SchedPolicy::kFifo : sim::SchedPolicy::kSptf;
  const uint32_t max_shards = options.shards_set ? options.shards : 8;
  std::vector<uint32_t> sweep;
  for (uint64_t n = 1; n < max_shards; n *= 2) {
    sweep.push_back(static_cast<uint32_t>(n));
  }
  sweep.push_back(max_shards);
  const std::vector<uint32_t> owner_sweep =
      options.owners_per_spindle > 0
          ? std::vector<uint32_t>{options.owners_per_spindle}
          : std::vector<uint32_t>{1, 2, 4};

  TableWriter table({"backend", "shards", "owners/spindle", "spindles",
                     "load mb/s", "aged write mb/s", "read mb/s",
                     "interference seeks", "interference s", "queue wait s",
                     "device busy s", "age wall s", "read wall s"});
  for (Backend backend : {Backend::kDatabase, Backend::kFilesystem}) {
    auto factory = MakeRepositoryFactory(backend, volume, 64 * kKiB,
                                         options.cache_mb << 20);
    for (uint32_t shards : sweep) {
      for (uint32_t owners : owner_sweep) {
        // owners > shards collapses to the all-shards-on-one-spindle
        // deployment already measured at owners == shards.
        if (owners > shards) continue;
        core::SpindleTopology topology;
        topology.owners_per_spindle = owners;
        topology.policy = policy;
        topology.seed = options.seed;
        factory->set_spindle_topology(topology);

        workload::WorkloadConfig config = options.MakeWorkloadConfig();
        config.sizes = workload::SizeDistribution::Constant(512 * kKiB);

        auto checkpoints = RunShardedAging(*factory, shards, config, ages);
        if (!checkpoints.ok()) {
          std::fprintf(stderr, "%s x%u owners=%u failed: %s\n",
                       factory->name().c_str(), shards, owners,
                       checkpoints.status().ToString().c_str());
          continue;
        }
        const AgingCheckpoint& loaded = checkpoints->front();
        const AgingCheckpoint& aged = checkpoints->back();
        table.Row()
            .Cell(factory->name())
            .Cell(static_cast<uint64_t>(shards))
            .Cell(static_cast<uint64_t>(owners))
            .Cell(static_cast<uint64_t>((shards + owners - 1) / owners))
            .Cell(loaded.write.mb_per_s())
            .Cell(aged.write.mb_per_s())
            .Cell(aged.read.mb_per_s())
            .Cell(aged.device.interference_seeks)
            .Cell(aged.device.interference_seek_time_s)
            .Cell(aged.device.queue_wait_s)
            .Cell(aged.device.busy_time_s)
            .Cell(aged.write.host_seconds, 3)
            .Cell(aged.read.host_seconds, 3);
      }
    }
  }
  if (options.csv) {
    table.PrintCsv();
  } else {
    table.PrintText();
  }
  std::printf(
      "\nShape check: the owners/spindle=1 rows are the dedicated layout\n"
      "(zero interference by construction). Packing more shards onto a\n"
      "spindle turns aggregate MB/s sublinear: the shared head pays an\n"
      "interference seek whenever consecutive service crosses an owner\n"
      "boundary, and queue wait grows as each owner's round share\n"
      "shrinks. Wall columns are real host seconds (not simulated):\n"
      "shards submit concurrently and overlap host work with peers'\n"
      "service.\n");
}

}  // namespace
}  // namespace bench
}  // namespace lor

int main(int argc, char** argv) {
  lor::bench::Run(lor::bench::Options::FromArgs(argc, argv));
  return 0;
}
