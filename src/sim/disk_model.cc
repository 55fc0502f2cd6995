#include "sim/disk_model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace lor {
namespace sim {

DiskParams DiskParams::St3400832as() {
  DiskParams p;
  p.capacity_bytes = 400 * kGiB;
  p.rpm = 7200.0;
  p.min_seek_s = 0.0008;
  p.max_seek_s = 0.017;   // ~8.5 ms average seek.
  p.outer_bandwidth = 65.0 * 1e6;
  p.inner_bandwidth = 35.0 * 1e6;
  p.num_zones = 16;
  return p;
}

DiskParams DiskParams::WithCapacity(uint64_t bytes) const {
  DiskParams p = *this;
  p.capacity_bytes = bytes;
  return p;
}

std::string DiskParams::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s, %.0f rpm, seek %.1f-%.1f ms, media %.0f-%.0f MB/s, "
                "%u zones",
                FormatBytes(capacity_bytes).c_str(), rpm, min_seek_s * 1e3,
                max_seek_s * 1e3, outer_bandwidth / 1e6, inner_bandwidth / 1e6,
                num_zones);
  return buf;
}

DiskModel::DiskModel(DiskParams params) : params_(params) {
  zone_size_bytes_ =
      std::max<uint64_t>(1, params_.capacity_bytes / params_.num_zones);
  zone_bandwidth_.resize(std::max<uint32_t>(1, params_.num_zones));
  for (uint32_t z = 0; z < zone_bandwidth_.size(); ++z) {
    zone_bandwidth_[z] = BandwidthAt(z * zone_size_bytes_);
  }
}

double DiskModel::SeekTime(uint64_t from_byte, uint64_t to_byte) const {
  if (from_byte == to_byte) return 0.0;
  const uint64_t distance =
      from_byte > to_byte ? from_byte - to_byte : to_byte - from_byte;
  const double d = std::min(
      1.0, static_cast<double>(distance) /
               static_cast<double>(params_.capacity_bytes));
  const double w = params_.seek_sqrt_weight;
  const double shape = w * std::sqrt(d) + (1.0 - w) * d;
  return params_.min_seek_s + (params_.max_seek_s - params_.min_seek_s) * shape;
}

double DiskModel::RevolutionTime() const { return 60.0 / params_.rpm; }

double DiskModel::RotationalLatency() const { return RevolutionTime() / 2.0; }

uint32_t DiskModel::ZoneOf(uint64_t byte_offset) const {
  const uint64_t zone = byte_offset / zone_size_bytes_;
  return static_cast<uint32_t>(
      std::min<uint64_t>(zone, params_.num_zones - 1));
}

double DiskModel::BandwidthAt(uint64_t byte_offset) const {
  const uint32_t zone = ZoneOf(byte_offset);
  if (params_.num_zones <= 1) return params_.outer_bandwidth;
  const double t =
      static_cast<double>(zone) / static_cast<double>(params_.num_zones - 1);
  return params_.outer_bandwidth +
         t * (params_.inner_bandwidth - params_.outer_bandwidth);
}

double DiskModel::TransferTime(uint64_t byte_offset, uint64_t nbytes) const {
  // Chunks split at every multiple of the zone size, also past the last
  // zone, whose bandwidth the tail (capacity % num_zones) shares.
  const uint64_t last = zone_bandwidth_.size() - 1;
  uint64_t zone = byte_offset / zone_size_bytes_;
  uint64_t zone_end = (zone + 1) * zone_size_bytes_;
  double total = 0.0;
  uint64_t pos = byte_offset;
  uint64_t remaining = nbytes;
  while (remaining > 0) {
    const uint64_t chunk = std::min(remaining, zone_end - pos);
    total += static_cast<double>(chunk) / zone_bandwidth_[std::min(zone, last)];
    pos += chunk;
    remaining -= chunk;
    ++zone;
    zone_end += zone_size_bytes_;
  }
  return total;
}

}  // namespace sim
}  // namespace lor
