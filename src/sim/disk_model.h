// Analytic model of a rotating disk: distance-dependent seeks, rotational
// latency, and zoned (outer-to-inner) transfer bandwidth.
//
// The paper's testbed used Seagate ST3400832AS 400 GB 7200 rpm SATA
// drives; `DiskParams::St3400832as()` reproduces that drive's datasheet
// characteristics. The model is deliberately first-order: the paper's
// conclusions depend on seek *counts* (fragments per object) and on the
// sequential-vs-random distinction, both of which the model captures.

#ifndef LOREPO_SIM_DISK_MODEL_H_
#define LOREPO_SIM_DISK_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/units.h"

namespace lor {
namespace sim {

/// Physical parameters of the simulated drive.
struct DiskParams {
  uint64_t capacity_bytes = 400 * kGiB;
  uint32_t sector_bytes = 512;
  double rpm = 7200.0;

  /// Track-to-track seek (adjacent cylinder), seconds.
  double min_seek_s = 0.0008;
  /// Full-stroke seek, seconds.
  double max_seek_s = 0.017;
  /// Weight of the sqrt component of the seek curve; the remainder is
  /// linear. Short seeks are dominated by the sqrt (acceleration) phase.
  double seek_sqrt_weight = 0.7;

  /// Sustained media bandwidth at the outermost zone, bytes/second.
  double outer_bandwidth = 65.0 * 1e6;
  /// Sustained media bandwidth at the innermost zone, bytes/second.
  double inner_bandwidth = 35.0 * 1e6;
  /// Number of discrete recording zones.
  uint32_t num_zones = 16;

  /// Controller + command overhead per request, seconds.
  double per_request_overhead_s = 0.0001;

  /// A 2006-era Seagate 400 GB 7200 rpm SATA drive (the paper's Table 1).
  static DiskParams St3400832as();

  /// Same drive geometry scaled to a different capacity (zone bandwidths
  /// and seek curve unchanged); used for the volume-size sweeps.
  DiskParams WithCapacity(uint64_t bytes) const;

  std::string ToString() const;
};

/// Pure-function time model over DiskParams. Stateless; the stateful
/// cursor (head position, sequential detection) lives in BlockDevice.
class DiskModel {
 public:
  explicit DiskModel(DiskParams params);

  const DiskParams& params() const { return params_; }

  /// Seconds to move the head between two byte offsets. Zero distance is
  /// free; otherwise the curve is
  ///   min + (max-min) * (w*sqrt(d) + (1-w)*d),  d = distance/capacity.
  double SeekTime(uint64_t from_byte, uint64_t to_byte) const;

  /// Average rotational latency (half a revolution), seconds.
  double RotationalLatency() const;

  /// Seconds to transfer `nbytes` starting at `byte_offset`, honouring
  /// zone boundaries (outer zones are faster): the sum over the zone
  /// chunks of chunk / BandwidthAt(chunk start), in address order. The
  /// bandwidths come from a per-zone table built at construction, so a
  /// transfer costs one integer division however many zones it spans.
  double TransferTime(uint64_t byte_offset, uint64_t nbytes) const;

  /// Bandwidth (bytes/s) of the zone containing `byte_offset`.
  double BandwidthAt(uint64_t byte_offset) const;

  /// Zone index (0 = outermost/fastest) of `byte_offset`.
  uint32_t ZoneOf(uint64_t byte_offset) const;

  /// Bytes per zone: TransferTime splits a transfer at every multiple
  /// of this, so one that stays between two multiples costs its length
  /// over that zone's bandwidth.
  uint64_t zone_size_bytes() const { return zone_size_bytes_; }

  /// Seconds for one full revolution.
  double RevolutionTime() const;

 private:
  DiskParams params_;
  uint64_t zone_size_bytes_;
  /// BandwidthAt of each zone, indexed by ZoneOf.
  std::vector<double> zone_bandwidth_;
};

}  // namespace sim
}  // namespace lor

#endif  // LOREPO_SIM_DISK_MODEL_H_
