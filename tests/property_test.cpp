// Property-style parameterized sweeps: the invariants of partitioning,
// mapping tables, layout, and engine walk conservation must hold across
// block sizes, graph families, range widths, and SSD topologies — not just
// at the defaults the other suites use.
#include <gtest/gtest.h>

#include <numeric>

#include "accel/builder.hpp"
#include "accel/engine.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "partition/dense_table.hpp"
#include "partition/mapping_table.hpp"
#include "partition/partitioned_graph.hpp"
#include "ssd/graph_layout.hpp"

namespace fw {
namespace {

enum class GraphKind { kRmat, kZipf, kErdosRenyi, kChain };

graph::CsrGraph make_graph(GraphKind kind) {
  switch (kind) {
    case GraphKind::kRmat: {
      graph::RmatParams p;
      p.num_vertices = 1 << 11;
      p.num_edges = 24 << 10;
      p.seed = 101;
      return graph::generate_rmat(p);
    }
    case GraphKind::kZipf: {
      graph::ZipfParams p;
      p.num_vertices = 1 << 11;
      p.num_edges = 24 << 10;
      p.exponent = 1.6;
      p.seed = 102;
      return graph::generate_zipf(p);
    }
    case GraphKind::kErdosRenyi: {
      graph::ErdosRenyiParams p;
      p.num_vertices = 1 << 11;
      p.num_edges = 24 << 10;
      p.seed = 103;
      return graph::generate_erdos_renyi(p);
    }
    case GraphKind::kChain: {
      // Degenerate: a directed chain (degree <= 1 everywhere).
      graph::GraphBuilder b(1 << 10);
      for (VertexId v = 0; v + 1 < (1u << 10); ++v) b.add_edge(v, v + 1);
      return std::move(b).build();
    }
  }
  throw std::logic_error("unreachable");
}

const char* kind_name(GraphKind k) {
  switch (k) {
    case GraphKind::kRmat: return "rmat";
    case GraphKind::kZipf: return "zipf";
    case GraphKind::kErdosRenyi: return "er";
    case GraphKind::kChain: return "chain";
  }
  return "?";
}

struct SweepCase {
  GraphKind kind;
  std::uint64_t block_bytes;
  std::uint32_t per_range;
};

class PartitionSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(PartitionSweep, AllInvariantsHold) {
  const auto g = make_graph(GetParam().kind);
  partition::PartitionConfig pc;
  pc.block_capacity_bytes = GetParam().block_bytes;
  pc.subgraphs_per_partition = 64;
  pc.subgraphs_per_range = GetParam().per_range;
  const partition::PartitionedGraph pg(g, pc);

  // 1. Coverage: every vertex in exactly one subgraph's range.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const SubgraphId sg = pg.subgraph_of(v);
    ASSERT_NE(sg, kInvalidSubgraph);
    EXPECT_GE(v, pg.subgraph(sg).low_vid);
    EXPECT_LE(v, pg.subgraph(sg).high_vid);
  }
  // 2. Edge partition is exact and ordered.
  EdgeId covered = 0;
  for (const auto& sg : pg.subgraphs()) {
    EXPECT_LE(sg.edge_begin, sg.edge_end);
    covered += sg.edge_end - sg.edge_begin;
    if (!sg.dense) {
      EXPECT_LE(sg.payload_bytes, pc.block_capacity_bytes);
    }
  }
  EXPECT_EQ(covered, g.num_edges());

  // 3. Mapping table agrees with ground truth everywhere, with and without
  //    the range hint.
  std::vector<std::uint64_t> pages(pg.num_subgraphs(), 0);
  const partition::SubgraphMappingTable mtab(pg, pages);
  for (VertexId v = 0; v < g.num_vertices(); v += 3) {
    ASSERT_EQ(mtab.find(v).sgid, pg.subgraph_of(v)) << v;
    const auto r = mtab.find_range(v);
    ASSERT_TRUE(r.found());
    ASSERT_EQ(mtab.find_in_range(v, r.range_id).sgid, pg.subgraph_of(v)) << v;
  }

  // 4. Dense table covers exactly the dense vertices.
  const partition::DenseVertexTable dtab(pg);
  std::size_t dense_truth = 0;
  VertexId prev_dense = kInvalidVertex;
  for (const auto& sg : pg.subgraphs()) {
    if (sg.dense && sg.low_vid != prev_dense) {
      ++dense_truth;
      prev_dense = sg.low_vid;
    }
  }
  EXPECT_EQ(dtab.num_dense_vertices(), dense_truth);

  // 5. In-degree sums conserve edges.
  const auto& sums = pg.subgraph_in_degrees();
  EXPECT_EQ(std::accumulate(sums.begin(), sums.end(), 0ull), g.num_edges());
}

std::string sweep_name(const ::testing::TestParamInfo<SweepCase>& param_info) {
  return std::string(kind_name(param_info.param.kind)) + "_b" +
         std::to_string(param_info.param.block_bytes) + "_r" +
         std::to_string(param_info.param.per_range);
}

// A static array, not ::testing::Values: gtest prints the raw bytes of the
// parameter, padding included, into the test name, and only a static
// aggregate's padding is zero rather than indeterminate.
constexpr SweepCase kSweepCases[] = {
    {GraphKind::kRmat, 1024, 4},
    {GraphKind::kRmat, 4096, 16},
    {GraphKind::kRmat, 65536, 8},
    {GraphKind::kZipf, 1024, 4},
    {GraphKind::kZipf, 4096, 64},
    {GraphKind::kZipf, 16384, 16},
    {GraphKind::kErdosRenyi, 2048, 8},
    {GraphKind::kErdosRenyi, 8192, 32},
    {GraphKind::kChain, 512, 4},
    {GraphKind::kChain, 4096, 16},
};

INSTANTIATE_TEST_SUITE_P(Sweep, PartitionSweep, ::testing::ValuesIn(kSweepCases),
                         sweep_name);

// --- layout across topologies -------------------------------------------------

struct TopoCase {
  std::uint32_t channels, chips, dies, planes;
};

class LayoutSweep : public ::testing::TestWithParam<TopoCase> {};

TEST_P(LayoutSweep, PlacementCoversAndBalances) {
  const auto g = make_graph(GraphKind::kRmat);
  partition::PartitionConfig pc;
  pc.block_capacity_bytes = 2048;
  const partition::PartitionedGraph pg(g, pc);

  ssd::SsdConfig cfg = ssd::test_ssd_config();
  cfg.topo.channels = GetParam().channels;
  cfg.topo.chips_per_channel = GetParam().chips;
  cfg.topo.dies_per_chip = GetParam().dies;
  cfg.topo.planes_per_die = GetParam().planes;
  const ssd::GraphLayout layout(pg, cfg);

  std::size_t total = 0;
  std::size_t min_n = ~0ull, max_n = 0;
  for (std::uint32_t ch = 0; ch < cfg.topo.channels; ++ch) {
    for (std::uint32_t chip = 0; chip < cfg.topo.chips_per_channel; ++chip) {
      const auto n = layout.chip_subgraphs(ch, chip).size();
      total += n;
      min_n = std::min(min_n, n);
      max_n = std::max(max_n, n);
    }
  }
  EXPECT_EQ(total, pg.num_subgraphs());
  EXPECT_LE(max_n - min_n, 1u);
  EXPECT_LT(layout.reserved_blocks_per_plane(), cfg.topo.blocks_per_plane);
}

INSTANTIATE_TEST_SUITE_P(Topologies, LayoutSweep,
                         ::testing::Values(TopoCase{1, 1, 1, 1}, TopoCase{2, 1, 2, 2},
                                           TopoCase{4, 4, 2, 4}, TopoCase{16, 2, 2, 2}),
                         [](const auto& param_info) {
                           const auto& p = param_info.param;
                           return std::string("t") + std::to_string(p.channels) + "x" +
                                  std::to_string(p.chips) + "x" + std::to_string(p.dies) +
                                  "x" + std::to_string(p.planes);
                         });

// --- engine conservation across topologies & batch sizes ------------------------

class EngineSweep : public ::testing::TestWithParam<std::tuple<TopoCase, std::uint32_t>> {
};

TEST_P(EngineSweep, WalksConservedEverywhere) {
  const auto g = make_graph(GraphKind::kZipf);
  partition::PartitionConfig pc;
  pc.block_capacity_bytes = 4096;
  pc.subgraphs_per_partition = 64;
  const partition::PartitionedGraph pg(g, pc);

  const auto& [topo, batch] = GetParam();
  accel::EngineOptions opts;
  opts.ssd = ssd::test_ssd_config();
  opts.ssd.topo.channels = topo.channels;
  opts.ssd.topo.chips_per_channel = topo.chips;
  opts.ssd.topo.dies_per_chip = topo.dies;
  opts.ssd.topo.planes_per_die = topo.planes;
  opts.accel.batch_walks = batch;
  opts.spec.num_walks = 4000;
  opts.spec.length = 6;
  auto engine = accel::SimulationBuilder(pg).options(opts).build();
  const auto r = engine.run();
  EXPECT_EQ(r.metrics.walks_completed, 4000u);
  EXPECT_GT(r.exec_time, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EngineSweep,
    ::testing::Combine(::testing::Values(TopoCase{1, 1, 1, 1}, TopoCase{4, 4, 2, 4},
                                         TopoCase{16, 2, 2, 2}),
                       ::testing::Values(1u, 16u, 256u)),
    [](const auto& param_info) {
      const auto& tc = std::get<0>(param_info.param);
      return std::string("c") + std::to_string(tc.channels) + "x" +
             std::to_string(tc.chips) + "_b" +
             std::to_string(std::get<1>(param_info.param));
    });

// --- batch size must not change walk semantics ----------------------------------

TEST(EngineBatching, VisitCountsIndependentOfBatchSize) {
  // Batching is a simulation knob: it changes event granularity (and hence
  // exact interleaving) but the aggregate visit distribution must remain
  // statistically indistinguishable. Compare total hops across batch sizes.
  const auto g = make_graph(GraphKind::kRmat);
  partition::PartitionConfig pc;
  pc.block_capacity_bytes = 4096;
  const partition::PartitionedGraph pg(g, pc);
  std::vector<std::uint64_t> hops;
  for (const std::uint32_t batch : {8u, 64u, 512u}) {
    accel::EngineOptions opts;
    opts.ssd = ssd::test_ssd_config();
    opts.accel.batch_walks = batch;
    opts.spec.num_walks = 10'000;
    auto engine = accel::SimulationBuilder(pg).options(opts).build();
    hops.push_back(engine.run().metrics.total_hops);
  }
  for (std::size_t i = 1; i < hops.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(hops[i]), static_cast<double>(hops[0]),
                0.05 * static_cast<double>(hops[0]));
  }
}

}  // namespace
}  // namespace fw
