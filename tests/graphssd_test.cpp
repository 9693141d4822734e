// GraphSSD-style baseline: conservation, per-hop I/O accounting, cache
// behaviour, and positioning between GraphWalker and FlashWalker.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "accel/builder.hpp"
#include "accel/engine.hpp"
#include "baseline/graphssd.hpp"
#include "baseline/graphwalker.hpp"
#include "graph/datasets.hpp"
#include "rw/algorithms.hpp"

namespace fw::baseline {
namespace {

GraphSsdOptions gs_opts(std::uint64_t walks = 3000) {
  GraphSsdOptions o;
  o.ssd = ssd::test_ssd_config();
  o.spec.num_walks = walks;
  o.spec.length = 6;
  o.spec.seed = 9;
  o.host.memory_bytes = 64 * KiB;
  return o;
}

TEST(GraphSsd, ConservesWalks) {
  const auto g = graph::make_dataset(graph::DatasetId::FS, graph::Scale::kTest);
  GraphSsdEngine engine(g, gs_opts());
  const auto r = engine.run();
  EXPECT_EQ(r.walks_started, 3000u);
  EXPECT_EQ(r.walks_completed, 3000u);
  EXPECT_GT(r.exec_time, 0u);
}

TEST(GraphSsd, ReadsPagesNotBlocks) {
  // Page-granular I/O: bytes read per hop far below GraphWalker's
  // block-granular reads on a cold cache.
  const auto g = graph::make_dataset(graph::DatasetId::FS, graph::Scale::kTest);
  auto opts = gs_opts(3000);
  opts.host.memory_bytes = 4 * KiB;  // nearly no cache
  GraphSsdEngine engine(g, opts);
  const auto r = engine.run();
  EXPECT_GT(r.block_loads, 0u);
  EXPECT_EQ(r.bytes_read, r.block_loads * ssd::test_ssd_config().topo.page_bytes);
}

TEST(GraphSsd, CacheCutsIo) {
  const auto g = graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  auto small = gs_opts(3000);
  small.host.memory_bytes = 4 * KiB;
  auto large = gs_opts(3000);
  large.host.memory_bytes = 16 * MiB;  // whole graph's pages fit
  GraphSsdEngine e_small(g, small), e_large(g, large);
  const auto r_small = e_small.run();
  const auto r_large = e_large.run();
  EXPECT_LT(r_large.bytes_read, r_small.bytes_read);
  EXPECT_GT(e_large.cache_hits(), e_small.cache_hits());
  EXPECT_LE(r_large.exec_time, r_small.exec_time);
}

TEST(GraphSsd, VisitTotalsMatchReference) {
  const auto g = graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  auto opts = gs_opts(20'000);
  GraphSsdEngine engine(g, opts);
  const auto r = engine.run();
  const auto ref = rw::run_walks(g, opts.spec);
  const auto rt = static_cast<double>(ref.total_hops);
  EXPECT_NEAR(static_cast<double>(r.total_hops), rt, 0.05 * rt);
}

TEST(GraphSsd, InStorageWalkingStillWins) {
  // Graph-semantic reads beat nothing here: each hop still crosses
  // flash -> channel -> PCIe + NVMe overheads, so FlashWalker stays ahead.
  const auto g = graph::make_dataset(graph::DatasetId::FS, graph::Scale::kTest);
  partition::PartitionConfig pc;
  pc.block_capacity_bytes = 4096;
  const partition::PartitionedGraph pg(g, pc);
  accel::EngineOptions fw_opts;
  fw_opts.ssd = ssd::test_ssd_config();
  fw_opts.spec.num_walks = 5000;
  fw_opts.spec.length = 6;
  fw_opts.record_visits = false;
  auto fw_engine = accel::SimulationBuilder(pg).options(fw_opts).build();
  const auto fw = fw_engine.run();

  auto opts = gs_opts(5000);
  opts.record_visits = false;
  GraphSsdEngine gs(g, opts);
  const auto r = gs.run();
  EXPECT_LT(fw.exec_time, r.exec_time);
}

TEST(GraphSsd, RejectsSecondOrderSpecNamingItself) {
  const auto g = graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  GraphSsdOptions opts = gs_opts();
  opts.spec.second_order.enabled = true;
  try {
    GraphSsdEngine engine(g, opts);
    ADD_FAILURE() << "GraphSSD accepted a second-order spec";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("GraphSSD"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace fw::baseline
