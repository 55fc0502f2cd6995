// Tests for the disk model, block device, and I/O statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <vector>

#include "sim/block_device.h"
#include "sim/disk_model.h"
#include "sim/op_cost_model.h"
#include "sim/sim_clock.h"

namespace lor {
namespace sim {
namespace {

DiskParams SmallDisk() {
  DiskParams p = DiskParams::St3400832as();
  return p.WithCapacity(kGiB);
}

TEST(DiskModelTest, SeekTimeZeroForSamePosition) {
  DiskModel m(SmallDisk());
  EXPECT_DOUBLE_EQ(m.SeekTime(1000, 1000), 0.0);
}

TEST(DiskModelTest, SeekTimeMonotonicInDistance) {
  DiskModel m(SmallDisk());
  double prev = 0.0;
  for (uint64_t d = 1; d <= kGiB / 2; d *= 4) {
    const double t = m.SeekTime(0, d);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(DiskModelTest, SeekTimeBounded) {
  DiskModel m(SmallDisk());
  const DiskParams& p = m.params();
  EXPECT_GE(m.SeekTime(0, 1), p.min_seek_s);
  EXPECT_LE(m.SeekTime(0, p.capacity_bytes), p.max_seek_s + 1e-12);
  EXPECT_NEAR(m.SeekTime(0, p.capacity_bytes), p.max_seek_s, 1e-9);
}

TEST(DiskModelTest, SeekTimeSymmetric) {
  DiskModel m(SmallDisk());
  EXPECT_DOUBLE_EQ(m.SeekTime(0, kMiB), m.SeekTime(kMiB, 0));
}

TEST(DiskModelTest, RotationalLatencyHalfRevolution) {
  DiskModel m(SmallDisk());
  EXPECT_NEAR(m.RotationalLatency(), 60.0 / 7200.0 / 2.0, 1e-12);
}

TEST(DiskModelTest, OuterZoneFasterThanInner) {
  DiskModel m(SmallDisk());
  EXPECT_GT(m.BandwidthAt(0), m.BandwidthAt(m.params().capacity_bytes - 1));
  EXPECT_EQ(m.ZoneOf(0), 0u);
  EXPECT_EQ(m.ZoneOf(m.params().capacity_bytes - 1),
            m.params().num_zones - 1);
}

TEST(DiskModelTest, TransferTimeMatchesBandwidth) {
  DiskModel m(SmallDisk());
  const double t = m.TransferTime(0, 65 * 1000 * 1000);
  EXPECT_NEAR(t, 1.0, 1e-9);  // Outer zone: 65 MB/s.
}

TEST(DiskModelTest, TransferAcrossZonesIsPiecewise) {
  DiskParams p = SmallDisk();
  p.num_zones = 2;
  DiskModel m(p);
  const uint64_t half = p.capacity_bytes / 2;
  const double inner = m.TransferTime(half, kMiB);
  const double outer = m.TransferTime(0, kMiB);
  const double straddle = m.TransferTime(half - kMiB / 2, kMiB);
  EXPECT_GT(inner, outer);
  EXPECT_NEAR(straddle, (inner + outer) / 2.0, 1e-9);
}

TEST(BlockDeviceTest, SequentialSkipsPositioning) {
  BlockDevice dev(SmallDisk());
  ASSERT_TRUE(dev.Write(0, kMiB).ok());
  const double after_first = dev.clock().now();
  ASSERT_TRUE(dev.Write(kMiB, kMiB).ok());
  const double second = dev.clock().now() - after_first;
  // Second write is sequential: transfer + overhead only.
  EXPECT_LT(second, after_first);
  EXPECT_EQ(dev.stats().sequential_hits, 1u);
  EXPECT_EQ(dev.stats().seeks, 1u);
}

TEST(BlockDeviceTest, RandomAccessPaysSeekAndRotation) {
  BlockDevice dev(SmallDisk());
  ASSERT_TRUE(dev.Write(0, 4096).ok());
  const double t0 = dev.clock().now();
  ASSERT_TRUE(dev.Write(512 * kMiB, 4096).ok());
  const double t = dev.clock().now() - t0;
  DiskModel m(SmallDisk());
  EXPECT_GE(t, m.RotationalLatency());
  EXPECT_EQ(dev.stats().seeks, 2u);
}

TEST(BlockDeviceTest, RejectsOutOfRange) {
  BlockDevice dev(SmallDisk());
  EXPECT_TRUE(dev.Write(kGiB - 10, 20).IsInvalidArgument());
  EXPECT_TRUE(dev.Read(2 * kGiB, 1).IsInvalidArgument());
}

TEST(BlockDeviceTest, RetainModeRoundTripsData) {
  BlockDevice dev(SmallDisk(), DataMode::kRetain);
  std::vector<uint8_t> data(100 * 1024);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  ASSERT_TRUE(dev.Write(12345, data.size(), data).ok());
  std::vector<uint8_t> back;
  ASSERT_TRUE(dev.Read(12345, data.size(), &back).ok());
  EXPECT_EQ(back, data);
}

TEST(BlockDeviceTest, RetainModeUnwrittenReadsZero) {
  BlockDevice dev(SmallDisk(), DataMode::kRetain);
  std::vector<uint8_t> back;
  ASSERT_TRUE(dev.Read(999, 64, &back).ok());
  EXPECT_EQ(back, std::vector<uint8_t>(64, 0));
}

TEST(BlockDeviceTest, RetainModePartialOverwrite) {
  BlockDevice dev(SmallDisk(), DataMode::kRetain);
  std::vector<uint8_t> a(256, 0xAA), b(64, 0xBB);
  ASSERT_TRUE(dev.Write(0, a.size(), a).ok());
  ASSERT_TRUE(dev.Write(100, b.size(), b).ok());
  std::vector<uint8_t> back;
  ASSERT_TRUE(dev.Read(0, 256, &back).ok());
  EXPECT_EQ(back[99], 0xAA);
  EXPECT_EQ(back[100], 0xBB);
  EXPECT_EQ(back[163], 0xBB);
  EXPECT_EQ(back[164], 0xAA);
}

TEST(BlockDeviceTest, MetadataOnlyReadsZeros) {
  BlockDevice dev(SmallDisk());
  std::vector<uint8_t> data(64, 0xCC);
  ASSERT_TRUE(dev.Write(0, data.size(), data).ok());
  std::vector<uint8_t> back;
  ASSERT_TRUE(dev.Read(0, 64, &back).ok());
  EXPECT_EQ(back, std::vector<uint8_t>(64, 0));
}

TEST(BlockDeviceTest, MismatchedDataLengthRejected) {
  BlockDevice dev(SmallDisk(), DataMode::kRetain);
  std::vector<uint8_t> data(10);
  EXPECT_TRUE(dev.Write(0, 20, data).IsInvalidArgument());
}

TEST(BlockDeviceTest, FlushBreaksSequentiality) {
  BlockDevice dev(SmallDisk());
  ASSERT_TRUE(dev.Write(0, kMiB).ok());
  dev.Flush();
  ASSERT_TRUE(dev.Write(kMiB, kMiB).ok());
  EXPECT_EQ(dev.stats().sequential_hits, 0u);
}

TEST(BlockDeviceTest, ChargeCpuAdvancesClockOnly) {
  BlockDevice dev(SmallDisk());
  dev.ChargeCpu(0.5);
  EXPECT_DOUBLE_EQ(dev.clock().now(), 0.5);
  EXPECT_EQ(dev.stats().reads + dev.stats().writes, 0u);
}

TEST(BlockDeviceTest, StatsSubtractionIsolatesPhases) {
  BlockDevice dev(SmallDisk());
  ASSERT_TRUE(dev.Write(0, kMiB).ok());
  const IoStats snap = dev.stats();
  ASSERT_TRUE(dev.Read(0, kMiB).ok());
  const IoStats delta = dev.stats() - snap;
  EXPECT_EQ(delta.reads, 1u);
  EXPECT_EQ(delta.writes, 0u);
  EXPECT_EQ(delta.bytes_read, kMiB);
}

TEST(IoStatsTest, SumMergesPerShardCountersExactly) {
  // Two devices driven independently (per-shard ownership); the merge
  // helper must reproduce the exact elementwise totals.
  BlockDevice a(SmallDisk());
  BlockDevice b(SmallDisk());
  ASSERT_TRUE(a.Write(0, kMiB).ok());
  ASSERT_TRUE(a.Read(0, 64 * kKiB).ok());
  ASSERT_TRUE(b.Write(kMiB, 2 * kMiB).ok());

  const IoStats parts[] = {a.stats(), b.stats()};
  const IoStats sum = Sum(parts);
  EXPECT_EQ(sum.writes, a.stats().writes + b.stats().writes);
  EXPECT_EQ(sum.reads, 1u);
  EXPECT_EQ(sum.bytes_written, 3 * kMiB);
  EXPECT_EQ(sum.bytes_read, 64 * kKiB);
  EXPECT_EQ(sum.seeks, a.stats().seeks + b.stats().seeks);
  EXPECT_DOUBLE_EQ(sum.busy_time_s,
                   a.stats().busy_time_s + b.stats().busy_time_s);

  // operator+ and Sum agree, and an empty span sums to zeros.
  const IoStats plus = a.stats() + b.stats();
  EXPECT_EQ(plus.bytes_written, sum.bytes_written);
  EXPECT_DOUBLE_EQ(plus.busy_time_s, sum.busy_time_s);
  EXPECT_EQ(Sum({}).writes, 0u);
}

TEST(OpCostModelTest, StreamPenaltyNonNegative) {
  // Device slower than the stack: no penalty.
  EXPECT_DOUBLE_EQ(OpCostModel::StreamPenalty(kMiB, 100e6, 1.0), 0.0);
  // Stack slower than the device: the difference is charged.
  const double penalty = OpCostModel::StreamPenalty(10 * kMiB, 10e6, 0.2);
  EXPECT_NEAR(penalty, 10.0 * kMiB / 10e6 - 0.2, 1e-9);
}

TEST(DiskParamsTest, ToStringMentionsCapacity) {
  const std::string s = DiskParams::St3400832as().ToString();
  EXPECT_NE(s.find("400 GB"), std::string::npos);
  EXPECT_NE(s.find("7200"), std::string::npos);
}

TEST(SimClockTest, AdvanceIsMonotonic) {
  SimClock c;
  c.Advance(1.0);
  c.Advance(0.0);  // Zero advance is legal and moves nothing.
  EXPECT_DOUBLE_EQ(c.now(), 1.0);
  double prev = c.now();
  for (int i = 0; i < 100; ++i) {
    c.Advance(1e-9 * i);
    EXPECT_GE(c.now(), prev);
    prev = c.now();
  }
  c.Reset();
  EXPECT_DOUBLE_EQ(c.now(), 0.0);
}

#ifdef NDEBUG
TEST(SimClockTest, NegativeAdvanceIgnoredInRelease) {
  // Release builds compile the assert out; the clock still refuses to
  // move backwards.
  SimClock c;
  c.Advance(1.0);
  c.Advance(-0.5);
  EXPECT_DOUBLE_EQ(c.now(), 1.0);
}
#else
TEST(SimClockDeathTest, NegativeAdvanceAssertsInDebug) {
  SimClock c;
  c.Advance(1.0);
  EXPECT_DEATH(c.Advance(-0.5), "Advance");
}
#endif

TEST(DiskModelTest, SeekCurveAtMinStroke) {
  // An adjacent-sector seek sits at the bottom of the curve: the
  // distance term is ~1/capacity, so the time is min_seek plus a
  // vanishing fraction of the stroke range.
  DiskModel m(SmallDisk());
  const DiskParams& p = m.params();
  const double t = m.SeekTime(0, 1);
  EXPECT_GE(t, p.min_seek_s);
  const double d = 1.0 / static_cast<double>(p.capacity_bytes);
  const double expected =
      p.min_seek_s + (p.max_seek_s - p.min_seek_s) *
                         (p.seek_sqrt_weight * std::sqrt(d) +
                          (1.0 - p.seek_sqrt_weight) * d);
  EXPECT_NEAR(t, expected, 1e-12);
}

TEST(DiskModelTest, SeekCurveAtMaxStroke) {
  // A full-stroke seek (offset 0 -> capacity) is exactly max_seek:
  // sqrt(1) and 1 both contribute their whole weight.
  DiskModel m(SmallDisk());
  const DiskParams& p = m.params();
  EXPECT_NEAR(m.SeekTime(0, p.capacity_bytes), p.max_seek_s, 1e-12);
  EXPECT_NEAR(m.SeekTime(p.capacity_bytes, 0), p.max_seek_s, 1e-12);
}

TEST(DiskModelTest, ZoneBoundaryBandwidthSteps) {
  // Bandwidth is a step function of the zone index: constant inside a
  // zone, strictly decreasing across each boundary, spanning the full
  // outer..inner range.
  DiskModel m(SmallDisk());
  const DiskParams& p = m.params();
  const uint64_t zone_size = p.capacity_bytes / p.num_zones;
  EXPECT_DOUBLE_EQ(m.BandwidthAt(0), p.outer_bandwidth);
  for (uint32_t z = 0; z < p.num_zones; ++z) {
    const uint64_t first = static_cast<uint64_t>(z) * zone_size;
    const uint64_t last = first + zone_size - 1;
    EXPECT_EQ(m.ZoneOf(first), z);
    EXPECT_EQ(m.ZoneOf(last), z);
    EXPECT_DOUBLE_EQ(m.BandwidthAt(first), m.BandwidthAt(last));
    if (z > 0) {
      EXPECT_LT(m.BandwidthAt(first), m.BandwidthAt(first - 1));
    }
  }
  EXPECT_DOUBLE_EQ(m.BandwidthAt(p.capacity_bytes - 1), p.inner_bandwidth);
}

TEST(DiskModelTest, TransferSplitsExactlyAtZoneBoundary) {
  // A transfer straddling a zone boundary is charged piecewise: the
  // bytes before the boundary at the outer zone's bandwidth, the rest
  // at the inner's. Compare against the hand-split sum.
  DiskParams p = SmallDisk();
  p.num_zones = 4;
  DiskModel m(p);
  const uint64_t zone_size = p.capacity_bytes / p.num_zones;
  const uint64_t before = 3 * kKiB;
  const uint64_t after = 5 * kKiB;
  const uint64_t start = zone_size - before;
  const double split = m.TransferTime(start, before + after);
  const double expected = static_cast<double>(before) / m.BandwidthAt(start) +
                          static_cast<double>(after) / m.BandwidthAt(zone_size);
  EXPECT_NEAR(split, expected, 1e-15);
}

TEST(DiskModelTest, CapacityNotDivisibleByZonesClampsToLastZone) {
  // With a capacity that is not a zone-size multiple the trailing
  // remainder bytes still belong to the innermost zone, never to a
  // phantom zone past num_zones.
  DiskParams p = SmallDisk();
  p.capacity_bytes = kGiB + 12345;
  DiskModel m(p);
  EXPECT_EQ(m.ZoneOf(p.capacity_bytes - 1), p.num_zones - 1);
  EXPECT_DOUBLE_EQ(m.BandwidthAt(p.capacity_bytes - 1), p.inner_bandwidth);
}

/// Uncached transfer time: the per-chunk BandwidthAt sum, split at
/// every multiple of the zone size.
double ReferenceTransferTime(const DiskModel& m, uint64_t offset,
                             uint64_t nbytes) {
  const DiskParams& p = m.params();
  const uint64_t zone_size =
      std::max<uint64_t>(1, p.capacity_bytes / p.num_zones);
  double total = 0.0;
  uint64_t pos = offset;
  uint64_t remaining = nbytes;
  while (remaining > 0) {
    const uint64_t zone_end = (pos / zone_size + 1) * zone_size;
    const uint64_t chunk = std::min(remaining, zone_end - pos);
    total += static_cast<double>(chunk) / m.BandwidthAt(pos);
    pos += chunk;
    remaining -= chunk;
  }
  return total;
}

// TransferTime reads zone bandwidths from a table built at
// construction; it must equal the per-chunk BandwidthAt sum bit for bit:
// across every zone boundary, in the tail a non-divisible capacity
// leaves, and past the last zone, whose bandwidth every later chunk
// shares.
TEST(DiskModelTest, TransferTimeTableIsBitExact) {
  const auto reference = ReferenceTransferTime;
  std::vector<DiskParams> disks = {SmallDisk(), DiskParams::St3400832as()};
  DiskParams odd = SmallDisk();
  odd.capacity_bytes = kGiB + 12345;  // Not a multiple of 16 zones.
  disks.push_back(odd);
  DiskParams seven = SmallDisk();
  seven.capacity_bytes = 1000003;
  seven.num_zones = 7;
  disks.push_back(seven);
  DiskParams one = SmallDisk();
  one.num_zones = 1;
  disks.push_back(one);
  uint64_t checked = 0;
  for (const DiskParams& p : disks) {
    const DiskModel m(p);
    const uint64_t zone_size = p.capacity_bytes / p.num_zones;
    std::vector<uint64_t> offsets = {0, p.capacity_bytes - 1,
                                     p.capacity_bytes,
                                     p.capacity_bytes + 3 * zone_size + 7};
    for (uint64_t z = 1; z <= p.num_zones + 2; ++z) {
      for (const uint64_t d : {uint64_t{0}, uint64_t{1}, uint64_t{4096},
                               zone_size / 3}) {
        offsets.push_back(z * zone_size - d);
        offsets.push_back(z * zone_size + d);
      }
    }
    const std::vector<uint64_t> lengths = {
        1, 511, 4096, 64 * kKiB, 10 * kMiB, zone_size - 1, zone_size,
        zone_size + 1, 3 * zone_size + 5, p.capacity_bytes,
        p.capacity_bytes + 2 * zone_size};
    for (const uint64_t offset : offsets) {
      for (const uint64_t length : lengths) {
        ASSERT_EQ(std::bit_cast<uint64_t>(m.TransferTime(offset, length)),
                  std::bit_cast<uint64_t>(reference(m, offset, length)))
            << p.ToString() << " offset " << offset << " length " << length;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 1000u);
}

// The hub device memoizes transfer times per (zone, length); every
// request must still be charged the uncached sum bit for bit: a length
// repeated inside a zone and in other zones, changes of length,
// requests that cross a zone boundary, the tail a non-divisible
// capacity leaves past the last zone, and two owner views sharing the
// hub's memo. Each device's accumulated transfer time is compared with
// the reference accumulated in the same order.
TEST(BlockDeviceTest, TransferMemoIsBitExact) {
  DiskParams p = SmallDisk();
  p.capacity_bytes = 64 * kMiB + 5;
  p.num_zones = 7;
  const uint64_t zone_size = p.capacity_bytes / p.num_zones;
  const uint64_t half = 32 * kMiB;
  BlockDevice hub(p);
  std::unique_ptr<BlockDevice> views[] = {
      hub.CreateOwnerView(0, 0, half),
      hub.CreateOwnerView(1, half, p.capacity_bytes - half)};
  double expected[3] = {0.0, 0.0, 0.0};  // hub, view 0, view 1
  const uint64_t lengths[] = {4096, 4096, 64 * kKiB, 4096, 73728,
                              1,    2,    zone_size - 1, zone_size + 3};
  uint64_t requests = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const uint64_t len : lengths) {
      std::vector<uint64_t> offsets = {0, p.capacity_bytes - len,
                                       p.capacity_bytes - len - 7};
      for (uint64_t z = 1; z <= p.num_zones; ++z) {
        for (const uint64_t at : {z * zone_size - len / 2, z * zone_size,
                                  z * zone_size - len, z * zone_size + 12345,
                                  z * zone_size - 3 * len}) {
          offsets.push_back(at);
        }
      }
      for (const uint64_t phys : offsets) {
        if (phys > p.capacity_bytes || len > p.capacity_bytes - phys) continue;
        // Alternate owners where the request fits one view's region.
        int who = 0;
        uint64_t offset = phys;
        if (requests % 3 == 1 && phys + len <= half) {
          who = 1;
        } else if (requests % 3 == 2 && phys >= half) {
          who = 2;
          offset = phys - half;
        }
        BlockDevice& dev = who == 0 ? hub : *views[who - 1];
        ASSERT_TRUE((requests % 2 == 0 ? dev.Write(offset, len)
                                       : dev.Read(offset, len))
                        .ok());
        expected[who] += ReferenceTransferTime(hub.model(), phys, len);
        ASSERT_EQ(std::bit_cast<uint64_t>(dev.stats().transfer_time_s),
                  std::bit_cast<uint64_t>(expected[who]))
            << "request " << requests << " owner " << who << " at " << phys
            << " length " << len;
        ++requests;
      }
    }
  }
  EXPECT_GT(requests, 200u);
}

}  // namespace
}  // namespace sim
}  // namespace lor
