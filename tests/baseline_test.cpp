// GraphWalker / DrunkardMob baseline tests: conservation, scheduling
// behaviour, memory-capacity sensitivity (Fig 7 mechanism), breakdown
// accounting (Fig 1 mechanism), and the iteration-barrier penalty.
#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <string>

#include "baseline/drunkardmob.hpp"
#include "baseline/graphwalker.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"

namespace fw::baseline {
namespace {

GraphWalkerOptions gw_opts(std::uint64_t walks = 3000) {
  GraphWalkerOptions o;
  o.ssd = ssd::test_ssd_config();
  o.spec.num_walks = walks;
  o.spec.length = 6;
  o.spec.seed = 7;
  o.host.memory_bytes = 64 * KiB;
  o.host.block_bytes = 8 * KiB;
  return o;
}

class GraphWalkerBasic : public ::testing::Test {
 protected:
  GraphWalkerBasic() : g_(graph::make_dataset(graph::DatasetId::FS, graph::Scale::kTest)) {}
  graph::CsrGraph g_;
};

TEST_F(GraphWalkerBasic, AllWalksComplete) {
  GraphWalkerEngine engine(g_, gw_opts());
  const auto r = engine.run();
  EXPECT_EQ(r.walks_started, 3000u);
  EXPECT_EQ(r.walks_completed, 3000u);
  EXPECT_GT(r.exec_time, 0u);
}

TEST_F(GraphWalkerBasic, BreakdownSumsToExecTime) {
  GraphWalkerEngine engine(g_, gw_opts());
  const auto r = engine.run();
  EXPECT_EQ(r.breakdown.total(), r.exec_time);
  EXPECT_GT(r.breakdown.graph_load, 0u);
  EXPECT_GT(r.breakdown.compute, 0u);
}

TEST_F(GraphWalkerBasic, Deterministic) {
  GraphWalkerEngine e1(g_, gw_opts()), e2(g_, gw_opts());
  const auto r1 = e1.run();
  const auto r2 = e2.run();
  EXPECT_EQ(r1.exec_time, r2.exec_time);
  EXPECT_EQ(r1.visit_counts, r2.visit_counts);
}

TEST_F(GraphWalkerBasic, VisitCountsSumToHops) {
  GraphWalkerEngine engine(g_, gw_opts());
  const auto r = engine.run();
  const auto visits =
      std::accumulate(r.visit_counts.begin(), r.visit_counts.end(), 0ull);
  EXPECT_EQ(visits, r.total_hops);
}

TEST_F(GraphWalkerBasic, SmallMemoryCausesMoreLoads) {
  // Fig 7 mechanism: shrinking the cache forces block re-reads.
  auto small = gw_opts();
  small.host.memory_bytes = 16 * KiB;
  auto large = gw_opts();
  large.host.memory_bytes = 10 * MiB;  // whole graph fits
  GraphWalkerEngine es(g_, small), el(g_, large);
  const auto rs = es.run();
  const auto rl = el.run();
  EXPECT_GT(rs.block_loads, rl.block_loads);
  EXPECT_GT(rs.bytes_read, rl.bytes_read);
  EXPECT_GE(rs.exec_time, rl.exec_time);
}

TEST_F(GraphWalkerBasic, WholeGraphInMemoryLoadsEachBlockOnce) {
  auto opts = gw_opts();
  opts.host.memory_bytes = 64 * MiB;
  GraphWalkerEngine engine(g_, opts);
  const auto r = engine.run();
  EXPECT_LE(r.block_loads, engine.num_blocks());
  EXPECT_EQ(r.bytes_written, 0u);  // nothing spills when everything is cached
}

TEST_F(GraphWalkerBasic, TightMemorySpillsWalks) {
  auto opts = gw_opts(10'000);
  opts.host.memory_bytes = 16 * KiB;
  opts.host.spill_buffer_bytes = 1 * KiB;
  GraphWalkerEngine engine(g_, opts);
  const auto r = engine.run();
  EXPECT_GT(r.bytes_written, 0u);
  EXPECT_GT(r.breakdown.walk_write, 0u);
  EXPECT_GT(r.breakdown.walk_load, 0u);
}

TEST_F(GraphWalkerBasic, GraphLoadDominatesWhenMemoryTight) {
  // Fig 1: loading graph structure is the majority of GraphWalker's time on
  // graphs much larger than memory.
  const auto cw = graph::make_dataset(graph::DatasetId::CW, graph::Scale::kTest);
  auto opts = gw_opts(2000);
  opts.host.memory_bytes = 32 * KiB;
  GraphWalkerEngine engine(cw, opts);
  const auto r = engine.run();
  EXPECT_GT(r.breakdown.graph_load, r.exec_time / 2);
}

TEST_F(GraphWalkerBasic, CacheHitsHappenWithWarmCache) {
  GraphWalkerEngine engine(g_, gw_opts(5000));
  const auto r = engine.run();
  EXPECT_GT(r.cache_hits, 0u);
}

TEST(GraphWalkerModes, SingleSourceAndAllVertices) {
  const auto g = graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  auto opts = gw_opts(500);
  opts.spec.start_mode = rw::StartMode::kSingleSource;
  opts.spec.source = 3;
  GraphWalkerEngine e1(g, opts);
  EXPECT_EQ(e1.run().walks_completed, 500u);

  opts.spec.start_mode = rw::StartMode::kAllVertices;
  GraphWalkerEngine e2(g, opts);
  EXPECT_EQ(e2.run().walks_completed, g.num_vertices());
}

TEST(GraphWalkerModes, StopProbability) {
  const auto g = graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  auto opts = gw_opts(2000);
  opts.spec.stop_prob = 0.5;
  opts.spec.length = 20;
  GraphWalkerEngine engine(g, opts);
  const auto r = engine.run();
  EXPECT_EQ(r.walks_completed, 2000u);
  EXPECT_LT(r.total_hops, 2000u * 4);
}

TEST(GraphWalkerBiased, WeightedWalks) {
  graph::ZipfParams zp;
  zp.num_vertices = 1 << 10;
  zp.num_edges = 16 << 10;
  zp.weighted = true;
  const auto g = graph::generate_zipf(zp);
  auto opts = gw_opts(1000);
  opts.spec.biased = true;
  GraphWalkerEngine engine(g, opts);
  EXPECT_EQ(engine.run().walks_completed, 1000u);
}

TEST_F(GraphWalkerBasic, RejectsSecondOrderSpecNamingItself) {
  // GraphWalker steps first-order walks only: a node2vec spec would run as
  // DeepWalk and compare two different workloads.
  auto opts = gw_opts();
  opts.spec.second_order.enabled = true;
  try {
    GraphWalkerEngine engine(g_, opts);
    ADD_FAILURE() << "GraphWalker accepted a second-order spec";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("GraphWalker"), std::string::npos) << e.what();
  }
}

// --- DrunkardMob -------------------------------------------------------------

TEST(DrunkardMob, AllWalksComplete) {
  const auto g = graph::make_dataset(graph::DatasetId::FS, graph::Scale::kTest);
  DrunkardMobOptions opts;
  opts.ssd = ssd::test_ssd_config();
  opts.spec.num_walks = 3000;
  opts.spec.length = 6;
  opts.host.block_bytes = 8 * KiB;
  DrunkardMobEngine engine(g, opts);
  const auto r = engine.run();
  EXPECT_EQ(r.walks_started, 3000u);
  EXPECT_EQ(r.walks_completed, 3000u);
}

TEST(DrunkardMob, IterationBarrierCostsMoreThanGraphWalker) {
  // §II.B: the iteration-synchronous engine re-reads blocks every hop and
  // writes walks back each iteration — it must be slower than GraphWalker
  // on the same workload.
  const auto g = graph::make_dataset(graph::DatasetId::FS, graph::Scale::kTest);
  DrunkardMobOptions dopts;
  dopts.ssd = ssd::test_ssd_config();
  dopts.spec.num_walks = 3000;
  dopts.spec.length = 6;
  dopts.host.block_bytes = 8 * KiB;
  DrunkardMobEngine dm(g, dopts);
  const auto rd = dm.run();

  GraphWalkerEngine gw(g, gw_opts(3000));
  const auto rg = gw.run();
  EXPECT_GT(rd.exec_time, rg.exec_time);
  EXPECT_GT(rd.bytes_written, rg.bytes_written);
}

TEST(DrunkardMob, WalkWriteTrafficEveryIteration) {
  const auto g = graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  DrunkardMobOptions opts;
  opts.ssd = ssd::test_ssd_config();
  opts.spec.num_walks = 2000;
  opts.spec.length = 6;
  opts.host.block_bytes = 8 * KiB;
  DrunkardMobEngine engine(g, opts);
  const auto r = engine.run();
  EXPECT_GT(r.bytes_written, 0u);
  EXPECT_GT(r.breakdown.walk_write, 0u);
}

TEST(DrunkardMob, RejectsSecondOrderSpecNamingItself) {
  const auto g = graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  DrunkardMobOptions opts;
  opts.ssd = ssd::test_ssd_config();
  opts.spec.second_order.enabled = true;
  try {
    DrunkardMobEngine engine(g, opts);
    ADD_FAILURE() << "DrunkardMob accepted a second-order spec";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("DrunkardMob"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace fw::baseline
