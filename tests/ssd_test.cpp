// SSD substrate tests: addressing, flash timing, channel contention, FTL
// (mapping, GC, write amplification), DRAM timing config, host device, and
// graph layout.
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "partition/partitioned_graph.hpp"
#include "ssd/address.hpp"
#include "ssd/config.hpp"
#include "ssd/flash_array.hpp"
#include "ssd/ftl.hpp"
#include "ssd/graph_layout.hpp"
#include "ssd/ssd_device.hpp"

namespace fw::ssd {
namespace {

TEST(Config, PaperAggregates) {
  const SsdConfig cfg;  // Table I/III defaults
  // Paper §II.C: 32 channels at 333 MB/s ≈ 10.4 GB/s aggregate.
  EXPECT_EQ(cfg.aggregate_channel_mb_per_s(), 32u * 333u);
  // 1024 planes at 4 KB / 35 us each.
  EXPECT_NEAR(cfg.aggregate_plane_read_mb_per_s(), 1024 * 4096.0 * 1000 / 35000.0, 1.0);
  // PCIe: "1GB/s x 4".
  EXPECT_EQ(cfg.pcie.mb_per_s(), 4000u);
  // Channel bandwidth is the narrow stage: planes >> channels >> PCIe.
  EXPECT_GT(cfg.aggregate_plane_read_mb_per_s(),
            static_cast<double>(cfg.aggregate_channel_mb_per_s()));
  EXPECT_GT(cfg.aggregate_channel_mb_per_s(), cfg.pcie.mb_per_s());
}

TEST(Config, CapacityArithmetic) {
  const SsdConfig cfg = test_ssd_config();
  const auto& t = cfg.topo;
  EXPECT_EQ(cfg.topo.total_planes(),
            t.channels * t.chips_per_channel * t.dies_per_chip * t.planes_per_die);
  EXPECT_EQ(cfg.topo.capacity_bytes(),
            std::uint64_t{t.channels} * t.chips_per_channel * t.dies_per_chip *
                t.planes_per_die * t.blocks_per_plane * t.pages_per_block * t.page_bytes);
}

TEST(Config, DramLatencyFromTimings) {
  DramConfig d;  // DDR4-1600, CL=RCD=22
  // tCK = 2000/1600 = 1.25 ns; (22+22)*1.25 = 55 ns.
  EXPECT_EQ(d.access_latency(), 55u);
  EXPECT_EQ(d.peak_mb_per_s(), 1600u * 8u);
}

TEST(AddressMap, RoundTrip) {
  const SsdConfig cfg = test_ssd_config();
  AddressMap amap(cfg.topo);
  for (std::uint64_t ppn = 0; ppn < amap.total_pages(); ppn += 97) {
    EXPECT_EQ(amap.to_ppn(amap.from_ppn(ppn)), ppn);
  }
}

TEST(AddressMap, PlaneIndexIsDense) {
  const SsdConfig cfg = test_ssd_config();
  AddressMap amap(cfg.topo);
  std::vector<bool> seen(cfg.topo.total_planes(), false);
  for (std::uint32_t ch = 0; ch < cfg.topo.channels; ++ch) {
    for (std::uint32_t chip = 0; chip < cfg.topo.chips_per_channel; ++chip) {
      for (std::uint32_t pl = 0; pl < cfg.topo.planes_per_chip(); ++pl) {
        FlashAddress a{ch, chip, pl, 0, 0};
        const auto idx = amap.plane_index(a);
        ASSERT_LT(idx, seen.size());
        EXPECT_FALSE(seen[idx]);
        seen[idx] = true;
      }
    }
  }
}

TEST(FlashArray, InternalReadSkipsChannel) {
  FlashArray flash(test_ssd_config());
  FlashAddress a{};
  const Tick t = flash.read_page(0, a, /*over_channel=*/false);
  EXPECT_EQ(t, flash.config().timing.read_latency);
  EXPECT_EQ(flash.channel_bytes(), 0u);
  EXPECT_EQ(flash.read_bytes(), flash.config().topo.page_bytes);
}

TEST(FlashArray, ChannelReadAddsBusTime) {
  FlashArray flash(test_ssd_config());
  FlashAddress a{};
  const Tick t = flash.read_page(0, a, /*over_channel=*/true);
  const auto& cfg = flash.config();
  const Tick expected = cfg.timing.read_latency +
                        transfer_time_ns(cfg.topo.page_bytes, cfg.timing.channel_mb_per_s) +
                        cfg.timing.channel_cmd_overhead;
  EXPECT_EQ(t, expected);
  EXPECT_EQ(flash.channel_bytes(), cfg.topo.page_bytes);
}

TEST(FlashArray, PlaneSerializesSamePlaneReads) {
  FlashArray flash(test_ssd_config());
  FlashAddress a{};
  const Tick t1 = flash.read_page(0, a, false);
  const Tick t2 = flash.read_page(0, a, false);
  EXPECT_EQ(t2, 2 * t1);
}

TEST(FlashArray, DifferentPlanesReadInParallel) {
  FlashArray flash(test_ssd_config());
  FlashAddress a{}, b{};
  b.plane = 1;
  const Tick t1 = flash.read_page(0, a, false);
  const Tick t2 = flash.read_page(0, b, false);
  EXPECT_EQ(t1, t2);
}

TEST(FlashArray, ChipPagesStripeAcrossPlanes) {
  const SsdConfig cfg = test_ssd_config();
  FlashArray flash(cfg);
  const std::uint32_t planes = cfg.topo.planes_per_chip();
  // Reading `planes` pages internally takes one read latency (all parallel).
  const Tick t = flash.read_chip_pages(0, 0, 0, 0, planes, false);
  EXPECT_EQ(t, cfg.timing.read_latency);
  // Reading 2x planes pages takes two rounds.
  FlashArray flash2(cfg);
  const Tick t2 = flash2.read_chip_pages(0, 0, 0, 0, 2 * planes, false);
  EXPECT_EQ(t2, 2 * cfg.timing.read_latency);
}

TEST(FlashArray, ProgramSlowerThanRead) {
  FlashArray flash(test_ssd_config());
  FlashAddress a{};
  const Tick tr = flash.read_page(0, a, false);
  FlashArray flash2(test_ssd_config());
  const Tick tw = flash2.program_page(0, a, false);
  EXPECT_EQ(tw, 10 * tr);  // 350 us vs 35 us
}

TEST(FlashArray, EraseAccounted) {
  FlashArray flash(test_ssd_config());
  FlashAddress a{};
  flash.erase_block(0, a);
  EXPECT_EQ(flash.erase_count(), 1u);
}

TEST(FlashArray, UtilizationTracksBusyTime) {
  FlashArray flash(test_ssd_config());
  FlashAddress a{};
  const Tick t = flash.read_page(0, a, false);
  const double util = flash.plane_utilization(t);
  EXPECT_NEAR(util, 1.0 / flash.config().topo.total_planes(), 1e-9);
}

// --- FTL ---------------------------------------------------------------------

TEST(Ftl, WriteThenReadMapsCorrectly) {
  FlashArray flash(test_ssd_config());
  Ftl ftl(flash, /*reserved=*/4);
  EXPECT_FALSE(ftl.is_mapped(7));
  ftl.write_page(0, 7);
  EXPECT_TRUE(ftl.is_mapped(7));
  const Tick t = ftl.read_page(0, 7);
  EXPECT_GT(t, 0u);
  EXPECT_EQ(ftl.stats().host_page_writes, 1u);
  EXPECT_EQ(ftl.stats().host_page_reads, 1u);
}

TEST(Ftl, ReadUnmappedThrows) {
  FlashArray flash(test_ssd_config());
  Ftl ftl(flash, 4);
  EXPECT_THROW(ftl.read_page(0, 99), std::out_of_range);
}

TEST(Ftl, OverwriteInvalidatesOldPage) {
  FlashArray flash(test_ssd_config());
  Ftl ftl(flash, 4);
  ftl.write_page(0, 1);
  ftl.write_page(0, 1);
  EXPECT_EQ(ftl.stats().host_page_writes, 2u);
  ftl.read_page(0, 1);  // still readable after overwrite
}

TEST(Ftl, StripesAcrossPlanes) {
  const SsdConfig cfg = test_ssd_config();
  FlashArray flash(cfg);
  Ftl ftl(flash, 4);
  // N writes across N planes should overlap: total time ~ one program.
  Tick done = 0;
  for (std::uint32_t i = 0; i < cfg.topo.total_planes(); ++i) {
    done = std::max(done, ftl.write_page(0, i, /*over_channel=*/false));
  }
  EXPECT_EQ(done, cfg.timing.program_latency);
}

TEST(Ftl, GarbageCollectionReclaimsSpace) {
  SsdConfig cfg = test_ssd_config();
  cfg.topo.channels = 1;
  cfg.topo.chips_per_channel = 1;
  cfg.topo.dies_per_chip = 1;
  cfg.topo.planes_per_die = 1;
  cfg.topo.blocks_per_plane = 4;
  cfg.topo.pages_per_block = 4;
  FlashArray flash(cfg);
  Ftl ftl(flash, /*reserved=*/1);  // 3 usable blocks x 4 pages = 12 pages
  // Overwrite 4 LPNs repeatedly: most pages become invalid, so GC can
  // always reclaim.
  for (int round = 0; round < 20; ++round) {
    for (std::uint64_t lpn = 0; lpn < 4; ++lpn) ftl.write_page(0, lpn);
  }
  EXPECT_GT(ftl.stats().gc_erases, 0u);
  EXPECT_GE(ftl.stats().write_amplification(), 1.0);
  for (std::uint64_t lpn = 0; lpn < 4; ++lpn) ftl.read_page(0, lpn);  // survives GC
}

TEST(Ftl, RejectsFullReservation) {
  FlashArray flash(test_ssd_config());
  EXPECT_THROW(Ftl(flash, flash.config().topo.blocks_per_plane), std::invalid_argument);
}

// --- SsdDevice ---------------------------------------------------------------------

TEST(SsdDevice, LargeReadBottleneckedByNarrowStage) {
  const SsdConfig cfg = test_ssd_config();
  FlashArray flash(cfg);
  SsdDevice dev(flash);
  const std::uint64_t bytes = 4 * MiB;
  const Tick t = dev.host_read(0, bytes);
  // The read must take at least as long as the PCIe transfer and at least
  // one flash read.
  EXPECT_GE(t, transfer_time_ns(bytes, cfg.pcie.mb_per_s()));
  EXPECT_GE(t, cfg.timing.read_latency);
  EXPECT_EQ(dev.host_read_bytes(), bytes);
  EXPECT_GE(flash.read_bytes(), bytes);
}

TEST(SsdDevice, WriteGoesThroughPcieAndPrograms) {
  FlashArray flash(test_ssd_config());
  SsdDevice dev(flash);
  const Tick t = dev.host_write(0, 64 * KiB);
  EXPECT_GE(t, flash.config().timing.program_latency);
  EXPECT_GT(flash.programmed_bytes(), 0u);
}

TEST(SsdDevice, ZeroByteOpsAreFree) {
  FlashArray flash(test_ssd_config());
  SsdDevice dev(flash);
  EXPECT_EQ(dev.host_read(123, 0), 123u);
  EXPECT_EQ(dev.host_write(123, 0), 123u);
}

TEST(SsdDevice, BackToBackReadsQueue) {
  FlashArray flash(test_ssd_config());
  SsdDevice dev(flash);
  const Tick t1 = dev.host_read(0, 1 * MiB);
  const Tick t2 = dev.host_read(0, 1 * MiB);
  EXPECT_GT(t2, t1);
}

// --- GraphLayout ----------------------------------------------------------------------

class LayoutTest : public ::testing::Test {
 protected:
  LayoutTest() {
    graph::RmatParams p;
    p.num_vertices = 1 << 10;
    p.num_edges = 32 << 10;
    p.seed = 5;
    g_ = graph::generate_rmat(p);
    partition::PartitionConfig pc;
    pc.block_capacity_bytes = 2048;
    pg_ = std::make_unique<partition::PartitionedGraph>(g_, pc);
    cfg_ = test_ssd_config();
    layout_ = std::make_unique<GraphLayout>(*pg_, cfg_);
  }
  graph::CsrGraph g_;
  std::unique_ptr<partition::PartitionedGraph> pg_;
  SsdConfig cfg_;
  std::unique_ptr<GraphLayout> layout_;
};

TEST_F(LayoutTest, EverySubgraphPlacedInOneChip) {
  for (SubgraphId sg = 0; sg < pg_->num_subgraphs(); ++sg) {
    const auto& p = layout_->placement(sg);
    EXPECT_LT(p.channel, cfg_.topo.channels);
    EXPECT_LT(p.chip, cfg_.topo.chips_per_channel);
    EXPECT_GT(p.num_pages, 0u);
  }
}

TEST_F(LayoutTest, ChipSubgraphListsAreConsistent) {
  std::size_t total = 0;
  for (std::uint32_t ch = 0; ch < cfg_.topo.channels; ++ch) {
    for (std::uint32_t chip = 0; chip < cfg_.topo.chips_per_channel; ++chip) {
      for (SubgraphId sg : layout_->chip_subgraphs(ch, chip)) {
        EXPECT_EQ(layout_->placement(sg).channel, ch);
        EXPECT_EQ(layout_->placement(sg).chip, chip);
        ++total;
      }
    }
  }
  EXPECT_EQ(total, pg_->num_subgraphs());
}

TEST_F(LayoutTest, PlacementIsBalanced) {
  std::size_t min_count = ~0ull, max_count = 0;
  for (std::uint32_t ch = 0; ch < cfg_.topo.channels; ++ch) {
    for (std::uint32_t chip = 0; chip < cfg_.topo.chips_per_channel; ++chip) {
      const auto n = layout_->chip_subgraphs(ch, chip).size();
      min_count = std::min(min_count, n);
      max_count = std::max(max_count, n);
    }
  }
  EXPECT_LE(max_count - min_count, 1u);  // round-robin
}

TEST_F(LayoutTest, ReservationCoversGraphPages) {
  const auto reserved = layout_->reserved_blocks_per_plane();
  EXPECT_GT(reserved, 0u);
  EXPECT_LT(reserved, cfg_.topo.blocks_per_plane);
}

TEST_F(LayoutTest, FirstPagesAlignWithPlacements) {
  const auto pages = layout_->first_pages();
  ASSERT_EQ(pages.size(), pg_->num_subgraphs());
  AddressMap amap(cfg_.topo);
  for (SubgraphId sg = 0; sg < pg_->num_subgraphs(); ++sg) {
    const auto addr = amap.from_ppn(pages[sg]);
    EXPECT_EQ(addr.channel, layout_->placement(sg).channel);
    EXPECT_EQ(addr.chip, layout_->placement(sg).chip);
  }
}

TEST(Layout, ThrowsWhenGraphDoesNotFit) {
  graph::RmatParams p;
  p.num_vertices = 1 << 12;
  p.num_edges = 256 << 10;
  const auto g = graph::generate_rmat(p);
  partition::PartitionConfig pc;
  pc.block_capacity_bytes = 4096;
  const partition::PartitionedGraph pg(g, pc);
  SsdConfig tiny = test_ssd_config();
  tiny.topo.channels = 1;
  tiny.topo.chips_per_channel = 1;
  tiny.topo.blocks_per_plane = 2;
  tiny.topo.pages_per_block = 2;
  EXPECT_THROW(GraphLayout(pg, tiny), std::runtime_error);
}

}  // namespace
}  // namespace fw::ssd
