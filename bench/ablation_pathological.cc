// Ablation — aging an artificially, pathologically fragmented volume
// (paper §5.3: "When we ran on an artificially and pathologically
// fragmented NTFS volume, we found that fragmentation slowly decreases
// over time. This suggests that NTFS is indeed approaching an
// asymptote.")
//
// We pre-shatter the free space by pinning every other small run before
// the bulk load, release the pins, then churn and watch fragments per
// object drift back down toward the normal steady state.

#include <cstdio>

#include "alloc/allocator.h"
#include "core/fragmentation.h"
#include "core/fs_repository.h"
#include "bench_common.h"
#include "util/table_writer.h"
#include "workload/getput_runner.h"

namespace lor {
namespace bench {
namespace {

void Run(const Options& options) {
  PrintBanner("Ablation: pathologically pre-fragmented volume",
              "Section 5.3 (asymptote check)", options);

  const uint64_t volume = options.ScaleBytes(40 * kGiB);

  core::FsRepositoryConfig config;
  config.volume_bytes = volume;
  core::FsRepository repo(config);

  // Shatter free space: claim alternating 64 KB stripes across the
  // whole data zone, bulk load into the gaps, then free the stripes.
  alloc::FreeSpaceMap* map = repo.store()->allocator()->free_map();
  const uint64_t stripe_clusters = 64 * kKiB / config.store.cluster_bytes;
  std::vector<alloc::Extent> pins;
  for (const alloc::Extent& run : map->Snapshot()) {
    for (uint64_t at = run.start; at + 2 * stripe_clusters <= run.end();
         at += 2 * stripe_clusters) {
      alloc::Extent pin{at, stripe_clusters};
      if (map->AllocateAt(pin).ok()) pins.push_back(pin);
    }
  }

  workload::WorkloadConfig wc = options.MakeWorkloadConfig();
  wc.sizes = workload::SizeDistribution::Constant(2 * kMiB);
  // The pins hold ~half the data zone, so load to 35% of the volume.
  wc.target_occupancy = 0.35;
  workload::GetPutRunner runner(&repo, wc);
  auto load = runner.BulkLoad();
  if (!load.ok()) {
    std::fprintf(stderr, "bulk load failed: %s\n",
                 load.status().ToString().c_str());
    return;
  }
  // Release the pins: the volume now holds heavily fragmented files
  // over shattered free space.
  for (const alloc::Extent& pin : pins) {
    Status s = map->Free(pin);
    (void)s;
  }

  TableWriter table({"storage age", "fragments/object", "free runs"});
  table.Row()
      .Cell(uint64_t{0})
      .Cell(runner.Fragmentation().fragments_per_object)
      .Cell(repo.store()->allocator()->FreeStats().run_count);
  for (double age = 2.0; age <= 12.0; age += 2.0) {
    auto aged = runner.AgeTo(age);
    if (!aged.ok()) {
      std::fprintf(stderr, "aging failed: %s\n",
                   aged.status().ToString().c_str());
      break;
    }
    table.Row()
        .Cell(static_cast<uint64_t>(age))
        .Cell(runner.Fragmentation().fragments_per_object)
        .Cell(repo.store()->allocator()->FreeStats().run_count);
  }
  if (options.csv) {
    table.PrintCsv();
  } else {
    table.PrintText();
  }
  std::printf(
      "\nShape check: fragments/object starts far above the normal steady\n"
      "state and *decreases* with churn — the filesystem heals toward its\n"
      "asymptote rather than degrading without bound.\n");
}

}  // namespace
}  // namespace bench
}  // namespace lor

int main(int argc, char** argv) {
  lor::bench::Run(lor::bench::Options::FromArgs(argc, argv));
  return 0;
}
