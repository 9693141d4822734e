// FTL garbage-collection regressions: copy-back must stay inside the
// victim's plane (the bug was round-robin reallocation scattering relocated
// pages across planes), idle-time GC (including open-block sealing), and
// determinism of engine runs that exercise GC. The FtlPins cases pin every
// observable of seeded overwrite/GC runs, and FtlMemory bounds what building
// the FTL on the full paper topology allocates.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "accel/builder.hpp"
#include "accel/engine.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "graph/datasets.hpp"
#include "ssd/address.hpp"
#include "ssd/config.hpp"
#include "ssd/flash_array.hpp"
#include "ssd/ftl.hpp"

namespace {
/// Bytes requested through global operator new by this test binary. The
/// replacements below are the only way to see what the FTL's containers
/// allocate; array and nothrow forms forward here by default.
std::atomic<std::uint64_t> g_new_bytes{0};

/// Each block starts this far ahead of the pointer new hands out (keeping
/// new's alignment), so delete frees a pointer malloc returned and never
/// one that new did.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void free_block(void* p) noexcept {
  if (p != nullptr) std::free(static_cast<char*>(p) - kHeader);
}
}  // namespace

void* operator new(std::size_t n) {
  g_new_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* base = std::malloc(n + kHeader)) return static_cast<char*>(base) + kHeader;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { free_block(p); }
void operator delete(void* p, std::size_t) noexcept { free_block(p); }

namespace fw::ssd {
namespace {

SsdConfig tiny_config(std::uint32_t planes, std::uint32_t blocks = 4,
                      std::uint32_t pages = 4) {
  SsdConfig cfg = test_ssd_config();
  cfg.topo.channels = 1;
  cfg.topo.chips_per_channel = 1;
  cfg.topo.dies_per_chip = 1;
  cfg.topo.planes_per_die = planes;
  cfg.topo.blocks_per_plane = blocks;
  cfg.topo.pages_per_block = pages;
  return cfg;
}

TEST(FtlGc, RelocationsStayInVictimPlane) {
  // Two planes; cold pages in both. Hammering hot LPNs forces GC in every
  // plane, and the cold survivors must be copied back within their own
  // plane — never migrate across the plane boundary.
  const SsdConfig cfg = tiny_config(/*planes=*/2);
  const AddressMap amap(cfg.topo);
  FlashArray flash(cfg);
  Ftl ftl(flash, /*reserved_blocks_per_plane=*/1);
  // usable = 3/plane, 1 spare -> host capacity 2 planes x 2 blocks x 4 pages.
  ASSERT_EQ(ftl.host_capacity_pages(), 16u);

  constexpr std::uint64_t kColdLpns = 8;
  for (std::uint64_t lpn = 0; lpn < kColdLpns; ++lpn) ftl.write_page(0, lpn);
  std::vector<std::uint32_t> home_plane;
  for (std::uint64_t lpn = 0; lpn < kColdLpns; ++lpn) {
    home_plane.push_back(amap.plane_index(amap.from_ppn(ftl.physical_of(lpn))));
  }

  // Hot overwrites: 4 live hot LPNs, rewritten until GC has run plenty.
  for (int round = 0; round < 30; ++round) {
    for (std::uint64_t lpn = kColdLpns; lpn < kColdLpns + 4; ++lpn) {
      ftl.write_page(0, lpn);
    }
  }
  ASSERT_GT(ftl.stats().gc_erases, 0u);
  ASSERT_GT(ftl.stats().gc_page_moves, 0u);

  for (std::uint64_t lpn = 0; lpn < kColdLpns; ++lpn) {
    const auto addr = amap.from_ppn(ftl.physical_of(lpn));
    EXPECT_EQ(amap.plane_index(addr), home_plane[lpn])
        << "LPN " << lpn << " migrated out of its plane during GC";
    ftl.read_page(0, lpn);  // still mapped and readable
  }
}

TEST(FtlGc, IdleGcWithNoGarbageIsNoOp) {
  const SsdConfig cfg = tiny_config(/*planes=*/1);
  FlashArray flash(cfg);
  Ftl ftl(flash, 1);
  ftl.write_page(0, 0);
  ftl.write_page(0, 1);  // two valid pages, zero invalid
  const Tick done = ftl.idle_gc(/*now=*/5000, /*max_episodes=*/16);
  EXPECT_EQ(done, 5000u);
  EXPECT_EQ(ftl.stats().gc_idle_episodes, 0u);
  EXPECT_EQ(ftl.stats().gc_erases, 0u);
}

TEST(FtlGc, IdleGcSealsFragmentedOpenBlock) {
  // The active block never fills, but half its pages are stale: background
  // GC must seal it (re-open on a free block) and compact the survivors.
  const SsdConfig cfg = tiny_config(/*planes=*/1);
  FlashArray flash(cfg);
  Ftl ftl(flash, 1);
  ftl.write_page(0, 0);
  ftl.write_page(0, 1);
  ftl.write_page(0, 0);  // overwrite: active block now written=3, invalid=1
  const Tick done = ftl.idle_gc(/*now=*/1000, /*max_episodes=*/16);
  EXPECT_GT(done, 1000u);
  EXPECT_EQ(ftl.stats().gc_idle_episodes, 1u);
  EXPECT_EQ(ftl.stats().gc_page_moves, 2u);  // LPNs 0 and 1 survive
  EXPECT_EQ(ftl.stats().gc_erases, 1u);
  ftl.read_page(0, 0);
  ftl.read_page(0, 1);
}

TEST(FtlGc, IdleGcHonorsEpisodeCap) {
  // Garbage in both planes, but only one episode allowed per pass.
  const SsdConfig cfg = tiny_config(/*planes=*/2);
  FlashArray flash(cfg);
  Ftl ftl(flash, 1);
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t lpn = 0; lpn < 8; ++lpn) ftl.write_page(0, lpn);
  }
  const auto before = ftl.stats().gc_idle_episodes;
  ftl.idle_gc(/*now=*/0, /*max_episodes=*/1);
  EXPECT_EQ(ftl.stats().gc_idle_episodes, before + 1);
}

TEST(FtlGc, PhysicalOfThrowsOnUnmapped) {
  FlashArray flash(test_ssd_config());
  Ftl ftl(flash, 4);
  EXPECT_THROW((void)ftl.physical_of(123), std::out_of_range);
}

TEST(FtlGc, EngineRunWithGcIsDeterministic) {
  // Same seed -> byte-identical results, including the FTL's GC activity
  // (allocation, victim choice, and the post-run idle pass are all
  // deterministic functions of the workload).
  const auto g = graph::make_dataset(graph::DatasetId::FS, graph::Scale::kTest);
  partition::PartitionConfig pc;
  pc.block_capacity_bytes = 4096;
  pc.subgraphs_per_partition = 1u << 20;
  pc.subgraphs_per_range = 8;
  const partition::PartitionedGraph pg(g, pc);
  auto opts = [] {
    accel::EngineOptions o;
    o.ssd = test_ssd_config();
    o.spec.num_walks = 2000;
    o.spec.length = 6;
    o.spec.seed = 99;
    return o;
  };
  auto e1 = accel::SimulationBuilder(pg).options(opts()).build();
  auto e2 = accel::SimulationBuilder(pg).options(opts()).build();
  const auto r1 = e1.run();
  const auto r2 = e2.run();
  EXPECT_EQ(r1.exec_time, r2.exec_time);
  EXPECT_EQ(r1.metrics.total_hops, r2.metrics.total_hops);
  EXPECT_EQ(r1.ftl.host_page_writes, r2.ftl.host_page_writes);
  EXPECT_EQ(r1.ftl.gc_page_moves, r2.ftl.gc_page_moves);
  EXPECT_EQ(r1.ftl.gc_erases, r2.ftl.gc_erases);
  EXPECT_EQ(r1.ftl.gc_idle_episodes, r2.ftl.gc_idle_episodes);
  EXPECT_EQ(r1.counters, r2.counters);
}

/// FNV-1a over 64-bit words: folds a long observable sequence into one pin.
class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Seeded overwrite workload: `writes` writes to LPNs drawn from [0, lpns),
/// one op per microsecond, a read of a drawn LPN every 8th op when it is
/// mapped, and an idle-GC pass of `idle_episodes` after every `idle_every`
/// writes. Returns a hash of every completion tick.
std::uint64_t drive(Ftl& ftl, std::uint64_t seed, std::uint64_t writes,
                    std::uint64_t lpns, std::uint64_t idle_every,
                    std::uint32_t idle_episodes) {
  Xoshiro256 rng(seed);
  Fnv ticks;
  Tick now = 0;
  for (std::uint64_t i = 1; i <= writes; ++i) {
    now += kUs;
    ticks.add(ftl.write_page(now, rng.bounded(lpns)));
    if (i % 8 == 0) {
      const std::uint64_t lpn = rng.bounded(lpns);
      if (ftl.is_mapped(lpn)) ticks.add(ftl.read_page(now, lpn));
    }
    if (i % idle_every == 0) ticks.add(ftl.idle_gc(now, idle_episodes));
  }
  return ticks.value();
}

/// The FTL state a run leaves: physical_of for every LPN in [0, lpns)
/// (unmapped ones as a sentinel) and the bad-block log in retirement order.
std::uint64_t state_hash(const Ftl& ftl, std::uint64_t lpns) {
  Fnv h;
  for (std::uint64_t lpn = 0; lpn < lpns; ++lpn) {
    h.add(ftl.is_mapped(lpn) ? ftl.physical_of(lpn) : ~std::uint64_t{0});
  }
  for (const auto& rb : ftl.bad_block_manager().retired()) {
    h.add(rb.plane);
    h.add(rb.block);
    h.add(static_cast<std::uint64_t>(rb.reason));
  }
  return h.value();
}

struct FtlPin {
  std::uint64_t host_page_writes;
  std::uint64_t host_page_reads;
  std::uint64_t gc_page_moves;
  std::uint64_t gc_erases;
  std::uint64_t gc_idle_episodes;
  std::uint32_t min_block_erases;
  std::uint32_t max_block_erases;
  std::uint64_t bad_blocks;
  std::uint64_t gc_uncorrectable;
  std::uint64_t ticks;
  std::uint64_t state;
};

void expect_pin(const Ftl& ftl, std::uint64_t ticks, std::uint64_t lpns,
                const FtlPin& pin) {
  const FtlStats s = ftl.stats();
  EXPECT_EQ(s.host_page_writes, pin.host_page_writes);
  EXPECT_EQ(s.host_page_reads, pin.host_page_reads);
  EXPECT_EQ(s.gc_page_moves, pin.gc_page_moves);
  EXPECT_EQ(s.gc_erases, pin.gc_erases);
  EXPECT_EQ(s.gc_idle_episodes, pin.gc_idle_episodes);
  EXPECT_EQ(s.min_block_erases, pin.min_block_erases);
  EXPECT_EQ(s.max_block_erases, pin.max_block_erases);
  EXPECT_EQ(s.bad_blocks, pin.bad_blocks);
  EXPECT_EQ(s.gc_uncorrectable, pin.gc_uncorrectable);
  EXPECT_EQ(ticks, pin.ticks) << std::hex << ticks;
  EXPECT_EQ(state_hash(ftl, lpns), pin.state) << std::hex << state_hash(ftl, lpns);
}

// The pinned constants below were recorded with the dense per-block FTL
// (one BlockState per usable block, free list as a deque); the sparse form
// must reproduce them exactly.

TEST(FtlPins, DefaultTopologySpacePressureGc) {
  // Paper topology (1024 planes, 64-page blocks) with all but four blocks
  // per plane reserved: one active, two free, one spare. 300k writes over a
  // 100k-LPN window keep every plane under space pressure.
  const SsdConfig cfg;
  FlashArray flash(cfg);
  Ftl ftl(flash, cfg.topo.blocks_per_plane - 4);
  constexpr std::uint64_t kLpns = 100000;
  const std::uint64_t ticks = drive(ftl, 7, 300000, kLpns, 50000, 512);
  ASSERT_GT(ftl.stats().gc_erases, 0u);
  expect_pin(ftl, ticks, kLpns,
             {300000, 25731, 58127, 2745, 2477, 0, 2, 0, 0, 0x44b13f08c752e438ull,
              0x153fb5b67e9544c8ull});
}

TEST(FtlPins, DefaultTopologyEngineReservation) {
  // Engine-like layout: few reserved blocks, so almost every block stays
  // untouched, and a rolling 1024-LPN window like the engine's walk flushes
  // (sequential LPNs) followed by idle compaction.
  const SsdConfig cfg;
  FlashArray flash(cfg);
  Ftl ftl(flash, 8);
  constexpr std::uint64_t kLpns = 1024;
  Fnv ticks;
  Tick now = 0;
  for (std::uint64_t i = 0; i < 200000; ++i) {
    now += kUs;
    ticks.add(ftl.write_page(now, i % kLpns));
  }
  ticks.add(ftl.idle_gc(now, 256));
  ticks.add(ftl.idle_gc(now + kMs, 4096));
  expect_pin(ftl, ticks.value(), kLpns,
             {200000, 0, 1024, 4096, 4096, 0, 1, 0, 0, 0x75a83e6bc2b58a74ull,
              0xda10d135929aea25ull});
}

SsdConfig small_faulty_config(double program_fail, double erase_fail,
                              double uncorrectable) {
  SsdConfig cfg = test_ssd_config();
  cfg.topo.channels = 2;
  cfg.topo.chips_per_channel = 2;
  cfg.topo.dies_per_chip = 1;
  cfg.topo.planes_per_die = 2;
  cfg.topo.blocks_per_plane = 32;
  cfg.topo.pages_per_block = 16;
  cfg.reliability.inject.program_fail = program_fail;
  cfg.reliability.inject.erase_fail = erase_fail;
  cfg.reliability.inject.uncorrectable = uncorrectable;
  cfg.reliability.fault_seed = 3;
  return cfg;
}

TEST(FtlPins, SmallTopologyWithFaults) {
  // Eight planes of 32 x 16-page blocks with program, erase and read faults
  // injected: blocks retire on every path (program failure, erase failure,
  // uncorrectable relocation), and spares rotate, retire and degrade.
  const SsdConfig cfg = small_faulty_config(0.004, 0.03, 0.1);
  FlashArray flash(cfg);
  Ftl ftl(flash, 2);
  constexpr std::uint64_t kLpns = 500;
  const std::uint64_t ticks = drive(ftl, 11, 12000, kLpns, 1000, 8);
  std::array<int, 3> reasons{};
  for (const auto& rb : ftl.bad_block_manager().retired()) {
    ++reasons[static_cast<std::size_t>(rb.reason)];
  }
  ASSERT_GT(reasons[0], 0);
  ASSERT_GT(reasons[1], 0);
  ASSERT_GT(reasons[2], 0);
  expect_pin(ftl, ticks, kLpns,
             {12000, 1436, 158, 595, 96, 0, 6, 79, 14, 0x5ce426def811850aull,
              0x8d777552deb9730dull});
}

TEST(FtlPins, SmallTopologyWearsEveryBlock) {
  // Erase failures only, on 8-page blocks: every block ends up erased at
  // least once, so the minimum wear comes from blocks the FTL touched.
  SsdConfig cfg = small_faulty_config(0.0, 0.03, 0.0);
  cfg.topo.pages_per_block = 8;
  FlashArray flash(cfg);
  Ftl ftl(flash, 2);
  constexpr std::uint64_t kLpns = 600;
  const std::uint64_t ticks = drive(ftl, 11, 12000, kLpns, 1000, 8);
  ASSERT_GT(ftl.stats().min_block_erases, 0u);
  expect_pin(ftl, ticks, kLpns,
             {12000, 1426, 319, 1350, 96, 1, 8, 35, 0, 0x7227127502449c95ull,
              0x769476fa84d62261ull});
}

TEST(FtlMemory, PaperTopologyBuildsUnderOneMiB) {
  // The modeled SSD has 2M blocks, but a run touches a few thousand: FTL
  // state must grow with the blocks written, not with the drive.
  const SsdConfig cfg;
  const std::uint64_t before = g_new_bytes.load();
  std::uint64_t bytes = 0;
  {
    FlashArray flash(cfg);
    Ftl ftl(flash, 8);
    bytes = g_new_bytes.load() - before;
  }
  EXPECT_LT(bytes, 1 * MiB);
}

}  // namespace
}  // namespace fw::ssd
