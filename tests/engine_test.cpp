// Integration tests for the FlashWalker engine: walk conservation,
// determinism, statistical equivalence with the host reference, feature
// toggles (Fig 9 machinery), dense pre-walking, partition rotation, walk
// writes, and timeline recording.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <ostream>

#include "accel/builder.hpp"
#include "accel/engine.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "rw/algorithms.hpp"

namespace fw::accel {
namespace {

partition::PartitionConfig small_pc(std::uint32_t per_partition = 1u << 20) {
  partition::PartitionConfig pc;
  pc.block_capacity_bytes = 4096;
  pc.subgraphs_per_partition = per_partition;
  pc.subgraphs_per_range = 8;
  return pc;
}

EngineOptions small_opts(std::uint64_t walks = 2000) {
  EngineOptions o;
  o.ssd = ssd::test_ssd_config();
  o.spec.num_walks = walks;
  o.spec.length = 6;
  o.spec.seed = 99;
  return o;
}

class EngineBasic : public ::testing::Test {
 protected:
  EngineBasic()
      : g_(graph::make_dataset(graph::DatasetId::FS, graph::Scale::kTest)),
        pg_(g_, small_pc()) {}
  graph::CsrGraph g_;
  partition::PartitionedGraph pg_;
};

TEST_F(EngineBasic, AllWalksComplete) {
  auto engine = SimulationBuilder(pg_).options(small_opts()).build();
  const auto r = engine.run();
  EXPECT_EQ(r.metrics.walks_started, 2000u);
  EXPECT_EQ(r.metrics.walks_completed, 2000u);
  EXPECT_GT(r.exec_time, 0u);
}

TEST_F(EngineBasic, HopAccountingConsistent) {
  auto engine = SimulationBuilder(pg_).options(small_opts()).build();
  const auto r = engine.run();
  // Every walk takes at most `length` hops; dead ends take fewer.
  EXPECT_LE(r.metrics.total_hops, 2000u * 6);
  EXPECT_GE(r.metrics.total_hops + r.metrics.dead_ends * 6, 2000u);
  // Visit counts sum to hop count.
  const auto visits =
      std::accumulate(r.visit_counts.begin(), r.visit_counts.end(), 0ull);
  EXPECT_EQ(visits, r.metrics.total_hops);
  // Updates across the three levels cover all hops + completions.
  EXPECT_GE(r.metrics.chip_updates + r.metrics.channel_updates + r.metrics.board_updates,
            r.metrics.total_hops);
}

TEST_F(EngineBasic, DeterministicAcrossRuns) {
  auto e1 = SimulationBuilder(pg_).options(small_opts()).build();
  auto e2 = SimulationBuilder(pg_).options(small_opts()).build();
  const auto r1 = e1.run();
  const auto r2 = e2.run();
  EXPECT_EQ(r1.exec_time, r2.exec_time);
  EXPECT_EQ(r1.metrics.total_hops, r2.metrics.total_hops);
  EXPECT_EQ(r1.visit_counts, r2.visit_counts);
  EXPECT_EQ(r1.flash_read_bytes, r2.flash_read_bytes);
}

TEST_F(EngineBasic, SeedChangesTrajectory) {
  auto o1 = small_opts();
  auto o2 = small_opts();
  o2.spec.seed = 123456;
  auto e1 = SimulationBuilder(pg_).options(o1).build();
  auto e2 = SimulationBuilder(pg_).options(o2).build();
  EXPECT_NE(e1.run().visit_counts, e2.run().visit_counts);
}

TEST_F(EngineBasic, VisitDistributionMatchesHostReference) {
  // The engine executes real hops: its stationary visit distribution must
  // match the host reference within sampling noise. Compare top-vertex
  // visit shares.
  auto opts = small_opts(20'000);
  auto engine = SimulationBuilder(pg_).options(opts).build();
  const auto r = engine.run();

  rw::WalkSpec ref_spec = opts.spec;
  const auto ref = rw::run_walks(g_, ref_spec);

  const double engine_total = static_cast<double>(r.metrics.total_hops);
  const double ref_total = static_cast<double>(ref.total_hops);
  ASSERT_GT(engine_total, 0);
  ASSERT_GT(ref_total, 0);

  // Compare visit share of the 20 most-visited (by reference) vertices.
  std::vector<VertexId> order(g_.num_vertices());
  std::iota(order.begin(), order.end(), 0u);
  std::partial_sort(order.begin(), order.begin() + 20, order.end(),
                    [&](VertexId a, VertexId b) {
                      return ref.visit_counts[a] > ref.visit_counts[b];
                    });
  for (int i = 0; i < 20; ++i) {
    const VertexId v = order[i];
    const double engine_share = r.visit_counts[v] / engine_total;
    const double ref_share = ref.visit_counts[v] / ref_total;
    EXPECT_NEAR(engine_share, ref_share, 0.25 * ref_share + 0.002)
        << "vertex " << v;
  }
}

TEST_F(EngineBasic, DensePrewalkingHappens) {
  auto engine = SimulationBuilder(pg_).options(small_opts()).build();
  // The FS test graph at 4 KB blocks has dense vertices.
  bool any_dense = false;
  for (const auto& sg : pg_.subgraphs()) any_dense |= sg.dense;
  ASSERT_TRUE(any_dense);
  const auto r = engine.run();
  EXPECT_GT(r.metrics.dense_prewalks, 0u);
  EXPECT_GT(r.metrics.bloom_lookups, 0u);
}

TEST_F(EngineBasic, InStorageReadsDominateChannelTraffic) {
  // The design's core claim: chip-level loads avoid the channel bus, so
  // bytes read at the planes exceed bytes moved over channels.
  auto engine = SimulationBuilder(pg_).options(small_opts(10'000)).build();
  const auto r = engine.run();
  EXPECT_GT(r.flash_read_bytes, r.channel_bytes);
}

TEST_F(EngineBasic, TimelineRecordsProgress) {
  auto opts = small_opts(5000);
  opts.timeline_interval = 50 * kUs;
  auto engine = SimulationBuilder(pg_).options(opts).build();
  const auto r = engine.run();
  ASSERT_GT(r.timeline.size(), 1u);
  // Progress is monotone and ends at 100%.
  for (std::size_t i = 1; i < r.timeline.size(); ++i) {
    EXPECT_GE(r.timeline[i].walks_done_pct, r.timeline[i - 1].walks_done_pct);
  }
  EXPECT_NEAR(r.timeline.back().walks_done_pct, 100.0, 20.0);
}

TEST_F(EngineBasic, ZeroWalksFinishInstantly) {
  auto engine = SimulationBuilder(pg_).options(small_opts(0)).build();
  const auto r = engine.run();
  EXPECT_EQ(r.metrics.walks_completed, 0u);
  EXPECT_EQ(r.exec_time, 0u);
}

TEST_F(EngineBasic, SingleSourceMode) {
  auto opts = small_opts(1000);
  opts.spec.start_mode = rw::StartMode::kSingleSource;
  opts.spec.source = 5;
  auto engine = SimulationBuilder(pg_).options(opts).build();
  const auto r = engine.run();
  EXPECT_EQ(r.metrics.walks_completed, 1000u);
}

TEST_F(EngineBasic, AllVerticesMode) {
  auto opts = small_opts();
  opts.spec.start_mode = rw::StartMode::kAllVertices;
  auto engine = SimulationBuilder(pg_).options(opts).build();
  const auto r = engine.run();
  EXPECT_EQ(r.metrics.walks_started, g_.num_vertices());
  EXPECT_EQ(r.metrics.walks_completed, g_.num_vertices());
}

TEST_F(EngineBasic, StopProbabilityTermination) {
  auto opts = small_opts(3000);
  opts.spec.stop_prob = 0.5;
  opts.spec.length = 20;
  auto engine = SimulationBuilder(pg_).options(opts).build();
  const auto r = engine.run();
  EXPECT_EQ(r.metrics.walks_completed, 3000u);
  // Expected hops/walk ≈ 1 with stop 0.5 (plus dead ends cut more).
  EXPECT_LT(r.metrics.total_hops, 3000u * 5);
}

// --- feature toggles (Fig 9 machinery) ----------------------------------------

struct FeatureCase {
  bool wq, hs, ss;
  const char* name;
};
// By name: gtest would print the raw bytes, `name`'s address among them, so
// the ctest names would change from build to build.
void PrintTo(const FeatureCase& c, std::ostream* os) { *os << c.name; }

class EngineFeatures : public ::testing::TestWithParam<FeatureCase> {
 protected:
  EngineFeatures()
      : g_(graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest)),
        pg_(g_, small_pc()) {}
  graph::CsrGraph g_;
  partition::PartitionedGraph pg_;
};

TEST_P(EngineFeatures, CompletesAndConserves) {
  auto opts = small_opts(4000);
  opts.accel.features.walk_query = GetParam().wq;
  opts.accel.features.hot_subgraphs = GetParam().hs;
  opts.accel.features.subgraph_scheduling = GetParam().ss;
  auto engine = SimulationBuilder(pg_).options(opts).build();
  const auto r = engine.run();
  EXPECT_EQ(r.metrics.walks_completed, 4000u);
  if (!GetParam().hs) {
    EXPECT_EQ(r.metrics.channel_updates, 0u);
    EXPECT_EQ(r.metrics.board_updates, 0u);
    EXPECT_EQ(r.metrics.hot_subgraph_loads, 0u);
  }
  if (!GetParam().wq) {
    EXPECT_EQ(r.metrics.query_cache_hits, 0u);
    EXPECT_EQ(r.metrics.range_searches, 0u);
  }
}

// A static array, not ::testing::Values: gtest prints the raw bytes of the
// parameter, padding included, into the test name, and only a static
// aggregate's padding is zero rather than indeterminate.
constexpr FeatureCase kFeatureCases[] = {
    {false, false, false, "none"},
    {true, false, false, "wq"},
    {true, true, false, "wq_hs"},
    {true, true, true, "all"},
    {false, true, true, "hs_ss"},
    {false, false, true, "ss"},
};

INSTANTIATE_TEST_SUITE_P(Toggles, EngineFeatures, ::testing::ValuesIn(kFeatureCases),
                         [](const auto& param_info) { return param_info.param.name; });

TEST(EngineFeaturesExtra, WalkQueryReducesSearchSteps) {
  const auto g = graph::make_dataset(graph::DatasetId::FS, graph::Scale::kTest);
  partition::PartitionedGraph pg(g, small_pc());
  auto base_opts = small_opts(5000);
  base_opts.accel.features = {false, false, false};
  auto wq_opts = small_opts(5000);
  wq_opts.accel.features = {true, false, false};
  auto base = SimulationBuilder(pg).options(base_opts).build();
  auto wq = SimulationBuilder(pg).options(wq_opts).build();
  const auto rb = base.run();
  const auto rw_ = wq.run();
  // WQ replaces full-table searches with range-limited + cached ones.
  EXPECT_LT(rw_.metrics.mapping_search_steps, rb.metrics.mapping_search_steps);
  EXPECT_GT(rw_.metrics.query_cache_hits + rw_.metrics.query_cache_misses, 0u);
}

TEST(EngineFeaturesExtra, HotSubgraphsOffloadChipUpdates) {
  const auto g = graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  partition::PartitionedGraph pg(g, small_pc());
  auto off = small_opts(5000);
  off.accel.features.hot_subgraphs = false;
  auto on = small_opts(5000);
  on.accel.features.hot_subgraphs = true;
  auto e_off = SimulationBuilder(pg).options(off).build();
  auto e_on = SimulationBuilder(pg).options(on).build();
  const auto r_off = e_off.run();
  const auto r_on = e_on.run();
  EXPECT_GT(r_on.metrics.channel_updates + r_on.metrics.board_updates, 0u);
  EXPECT_LT(r_on.metrics.chip_updates, r_off.metrics.chip_updates);
}

// --- partition rotation ----------------------------------------------------------

TEST(EnginePartitions, MultiPartitionRunCompletes) {
  const auto g = graph::make_dataset(graph::DatasetId::CW, graph::Scale::kTest);
  partition::PartitionedGraph pg(g, small_pc(/*per_partition=*/8));
  ASSERT_GT(pg.num_partitions(), 3u);
  auto opts = small_opts(3000);
  auto engine = SimulationBuilder(pg).options(opts).build();
  const auto r = engine.run();
  EXPECT_EQ(r.metrics.walks_completed, 3000u);
  EXPECT_GT(r.metrics.partition_switches, 0u);
  EXPECT_GT(r.metrics.foreigner_walks, 0u);
}

TEST(EnginePartitions, ForeignerFlushesAccounted) {
  const auto g = graph::make_dataset(graph::DatasetId::CW, graph::Scale::kTest);
  partition::PartitionedGraph pg(g, small_pc(8));
  auto opts = small_opts(5000);
  opts.accel.foreigner_buffer_bytes = 512;  // tiny buffer: force flushes
  auto engine = SimulationBuilder(pg).options(opts).build();
  const auto r = engine.run();
  EXPECT_GT(r.metrics.foreigner_flush_pages, 0u);
  EXPECT_GT(r.flash_write_bytes, 0u);
}

TEST(EnginePartitions, PwbOverflowTriggersFlashWrites) {
  const auto g = graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  partition::PartitionedGraph pg(g, small_pc());
  auto opts = small_opts(20'000);
  opts.accel.pwb_entry_bytes = 128;  // tiny entries: overflow quickly
  auto engine = SimulationBuilder(pg).options(opts).build();
  const auto r = engine.run();
  EXPECT_GT(r.metrics.pwb_overflow_events, 0u);
  EXPECT_GT(r.metrics.pwb_overflow_walks, 0u);
  EXPECT_EQ(r.metrics.walks_completed, 20'000u);
}

TEST(EnginePartitions, SchedulingReducesOverflowFlushes) {
  // SS prioritizes subgraphs whose entries are close to overflow; with the
  // same tiny entries, SS should flush no more than the baseline.
  const auto g = graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  partition::PartitionedGraph pg(g, small_pc());
  auto mk = [&](bool ss) {
    auto opts = small_opts(20'000);
    opts.accel.pwb_entry_bytes = 256;
    opts.accel.features.subgraph_scheduling = ss;
    auto e = SimulationBuilder(pg).options(opts).build();
    return e.run();
  };
  const auto with_ss = mk(true);
  const auto without = mk(false);
  EXPECT_LE(with_ss.metrics.pwb_overflow_walks,
            without.metrics.pwb_overflow_walks * 12 / 10);
}

// --- biased walks -----------------------------------------------------------------

TEST(EngineBiased, BiasedRunCompletesAndBiases) {
  graph::ZipfParams zp;
  zp.num_vertices = 1 << 10;
  zp.num_edges = 16 << 10;
  zp.weighted = true;
  zp.seed = 31;
  const auto g = graph::generate_zipf(zp);
  partition::PartitionConfig pc = small_pc();
  pc.weighted = true;
  partition::PartitionedGraph pg(g, pc);
  auto opts = small_opts(5000);
  opts.spec.biased = true;
  auto engine = SimulationBuilder(pg).options(opts).build();
  const auto r = engine.run();
  EXPECT_EQ(r.metrics.walks_completed, 5000u);

  // Cross-check against the biased host reference on aggregate visit mass.
  rw::ItsTable its(g);
  auto spec = opts.spec;
  const auto ref = rw::run_walks(g, spec, &its);
  const auto engine_hops = static_cast<double>(r.metrics.total_hops);
  const auto ref_hops = static_cast<double>(ref.total_hops);
  EXPECT_NEAR(engine_hops / 5000.0, ref_hops / 5000.0, 0.5);
}

TEST(EngineBiased, RequiresWeightedGraph) {
  const auto g = graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  partition::PartitionedGraph pg(g, small_pc());
  auto opts = small_opts();
  opts.spec.biased = true;
  EXPECT_THROW(SimulationBuilder(pg).options(opts).build(), std::invalid_argument);
}

// --- walk writes / FTL interaction --------------------------------------------------

TEST(EngineWrites, CompletedWalksFlushToFlash) {
  const auto g = graph::make_dataset(graph::DatasetId::FS, graph::Scale::kTest);
  partition::PartitionedGraph pg(g, small_pc());
  auto opts = small_opts(10'000);
  opts.accel.completed_buffer_bytes = 256;
  auto engine = SimulationBuilder(pg).options(opts).build();
  const auto r = engine.run();
  EXPECT_GT(r.metrics.completed_flush_pages, 0u);
  EXPECT_GT(r.ftl.host_page_writes, 0u);
}

TEST(EngineWrites, WriteTrafficIsSmallVsReads) {
  // Fig 8 observation: "very small flash memory write bandwidth".
  const auto g = graph::make_dataset(graph::DatasetId::FS, graph::Scale::kTest);
  partition::PartitionedGraph pg(g, small_pc());
  auto engine = SimulationBuilder(pg).options(small_opts(10'000)).build();
  const auto r = engine.run();
  EXPECT_LT(r.flash_write_bytes, r.flash_read_bytes / 2);
}

}  // namespace
}  // namespace fw::accel
