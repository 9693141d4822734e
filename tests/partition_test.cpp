// Partitioner invariants, subgraph and dense-vertex lookups against a
// brute-force reference, subgraph mapping table (exact + range + in-range
// searches), and the dense-vertices mapping table.
#include <gtest/gtest.h>

#include <numeric>
#include <ostream>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "partition/dense_table.hpp"
#include "partition/mapping_table.hpp"
#include "partition/partitioned_graph.hpp"

namespace fw::partition {
namespace {

graph::CsrGraph skewed_graph() {
  graph::ZipfParams p;
  p.num_vertices = 1 << 11;
  p.num_edges = 48 << 10;
  p.exponent = 1.4;
  p.seed = 17;
  return graph::generate_zipf(p);
}

PartitionConfig small_config() {
  PartitionConfig pc;
  pc.block_capacity_bytes = 2048;  // small blocks force dense splitting
  pc.subgraphs_per_partition = 16;
  pc.subgraphs_per_range = 4;
  return pc;
}

class PartitionerInvariants : public ::testing::Test {
 protected:
  PartitionerInvariants() : g_(skewed_graph()), pg_(g_, small_config()) {}
  graph::CsrGraph g_;
  PartitionedGraph pg_;
};

TEST_F(PartitionerInvariants, EveryVertexIsCovered) {
  for (VertexId v = 0; v < g_.num_vertices(); ++v) {
    const SubgraphId sg = pg_.subgraph_of(v);
    ASSERT_NE(sg, kInvalidSubgraph);
    const Subgraph& s = pg_.subgraph(sg);
    EXPECT_GE(v, s.low_vid);
    EXPECT_LE(v, s.high_vid);
  }
}

TEST_F(PartitionerInvariants, SubgraphsAreOrderedAndContiguous) {
  const auto& sgs = pg_.subgraphs();
  for (std::size_t i = 1; i < sgs.size(); ++i) {
    EXPECT_EQ(sgs[i].id, sgs[i - 1].id + 1);
    if (sgs[i].dense && sgs[i - 1].dense && sgs[i].low_vid == sgs[i - 1].low_vid) {
      // consecutive blocks of the same dense vertex share the vertex
      EXPECT_EQ(sgs[i].edge_begin, sgs[i - 1].edge_end);
    } else {
      EXPECT_GE(sgs[i].low_vid, sgs[i - 1].high_vid);
    }
  }
}

TEST_F(PartitionerInvariants, EdgesPartitionExactly) {
  // Every CSR edge belongs to exactly one subgraph's [edge_begin, edge_end).
  EdgeId covered = 0;
  for (const auto& sg : pg_.subgraphs()) covered += sg.edge_end - sg.edge_begin;
  EXPECT_EQ(covered, g_.num_edges());
  EXPECT_EQ(pg_.subgraphs().front().edge_begin, 0u);
  EXPECT_EQ(pg_.subgraphs().back().edge_end, g_.num_edges());
}

TEST_F(PartitionerInvariants, NonDensePayloadFitsBlock) {
  for (const auto& sg : pg_.subgraphs()) {
    if (!sg.dense) {
      EXPECT_LE(sg.payload_bytes, pg_.config().block_capacity_bytes)
          << "subgraph " << sg.id;
    }
  }
}

TEST_F(PartitionerInvariants, DenseBlocksCoverDenseVertexExactly) {
  for (VertexId v = 0; v < g_.num_vertices(); ++v) {
    if (!pg_.is_dense_vertex(v)) continue;
    const SubgraphId first = pg_.subgraph_of(v);
    EdgeId covered = 0;
    SubgraphId sg = first;
    while (sg < pg_.num_subgraphs() && pg_.subgraph(sg).dense &&
           pg_.subgraph(sg).low_vid == v) {
      covered += pg_.subgraph(sg).sum_out_degree();
      ++sg;
    }
    EXPECT_EQ(covered, g_.out_degree(v)) << "dense vertex " << v;
  }
}

TEST_F(PartitionerInvariants, DenseVerticesExistInSkewedGraph) {
  std::size_t dense = 0;
  for (const auto& sg : pg_.subgraphs()) dense += sg.dense;
  EXPECT_GT(dense, 0u) << "test graph should exercise dense splitting";
}

TEST_F(PartitionerInvariants, PartitionRangesTile) {
  SubgraphId expect_first = 0;
  for (PartitionId p = 0; p < pg_.num_partitions(); ++p) {
    const auto [first, last] = pg_.partition_range(p);
    EXPECT_EQ(first, expect_first);
    EXPECT_GT(last, first);
    for (SubgraphId sg = first; sg < last; ++sg) EXPECT_EQ(pg_.partition_of(sg), p);
    expect_first = last;
  }
  EXPECT_EQ(expect_first, pg_.num_subgraphs());
}

TEST_F(PartitionerInvariants, InDegreeSumsMatchEdgeCount) {
  const auto& sums = pg_.subgraph_in_degrees();
  const std::uint64_t total = std::accumulate(sums.begin(), sums.end(), 0ull);
  EXPECT_EQ(total, g_.num_edges());
}

TEST_F(PartitionerInvariants, TopKPopularIsSortedByInDegree) {
  std::vector<SubgraphId> all(pg_.num_subgraphs());
  std::iota(all.begin(), all.end(), 0u);
  const auto top = pg_.top_k_popular(all, 5);
  ASSERT_EQ(top.size(), 5u);
  const auto& sums = pg_.subgraph_in_degrees();
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(sums[top[i - 1]], sums[top[i]]);
  }
  // Best really is the max.
  for (SubgraphId sg : all) EXPECT_LE(sums[sg], sums[top[0]]);
}

TEST(Partitioner, EdgesPerBlockMatchesCapacity) {
  graph::GraphBuilder b(8);
  for (VertexId v = 0; v < 8; ++v) b.add_edge(v, (v + 1) % 8);
  const auto g = std::move(b).build();
  PartitionConfig pc;
  pc.block_capacity_bytes = 64;
  const PartitionedGraph pg(g, pc);
  EXPECT_EQ(pg.edges_per_block(), 64u / 4u);
}

TEST(Partitioner, RejectsZeroConfig) {
  const auto g = skewed_graph();
  PartitionConfig pc;
  pc.block_capacity_bytes = 0;
  EXPECT_THROW(PartitionedGraph(g, pc), std::invalid_argument);
}

TEST(Partitioner, SingleVertexGraph) {
  graph::GraphBuilder b(1);
  b.add_edge(0, 0);
  const auto g = std::move(b).build();
  const PartitionedGraph pg(g, small_config());
  EXPECT_EQ(pg.num_subgraphs(), 1u);
  EXPECT_EQ(pg.subgraph_of(0), 0u);
}

// --- Lookups against a brute-force reference ------------------------------------

/// The lowest-id subgraph whose vertex range holds each vertex, or
/// kInvalidSubgraph, found by scanning every subgraph.
std::vector<SubgraphId> reference_owners(const PartitionedGraph& pg) {
  std::vector<SubgraphId> owner(pg.graph().num_vertices(), kInvalidSubgraph);
  for (const Subgraph& sg : pg.subgraphs()) {
    for (VertexId v = sg.low_vid; v <= sg.high_vid; ++v) {
      if (owner[v] == kInvalidSubgraph) owner[v] = sg.id;
    }
  }
  return owner;
}

/// subgraph_of, is_dense_vertex and subgraph_in_degrees against the scan.
void expect_lookups_match_reference(const PartitionedGraph& pg) {
  const graph::CsrGraph& g = pg.graph();
  const std::vector<SubgraphId> owner = reference_owners(pg);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(pg.subgraph_of(v), owner[v]) << "vertex " << v;
    const bool dense = owner[v] != kInvalidSubgraph && pg.subgraph(owner[v]).dense;
    ASSERT_EQ(pg.is_dense_vertex(v), dense) << "vertex " << v;
  }
  std::vector<std::uint64_t> in_degrees(pg.num_subgraphs(), 0);
  for (const VertexId dst : g.edges()) {
    if (owner[dst] != kInvalidSubgraph) ++in_degrees[owner[dst]];
  }
  EXPECT_EQ(pg.subgraph_in_degrees(), in_degrees);
}

struct DatasetCase {
  graph::DatasetId id;
  const char* abbrev;
};
// By name: gtest would print the raw bytes, `abbrev`'s address among them,
// so the ctest names would change from build to build.
void PrintTo(const DatasetCase& c, std::ostream* os) { *os << c.abbrev; }

class LookupSweep : public ::testing::TestWithParam<DatasetCase> {};

TEST_P(LookupSweep, MatchesBruteForceAtEveryBlockSize) {
  const graph::CsrGraph plain = graph::make_dataset(GetParam().id, graph::Scale::kTest);
  const graph::CsrGraph weighted(plain.offsets(), plain.edges(),
                                 std::vector<float>(plain.num_edges(), 1.0f));
  graph::CsrGraph labeled = plain;
  labeled.assign_hashed_labels(3, 11);

  // From 3 bytes, under one vertex header, so that every vertex is dense and
  // those without edges have no subgraph, up to 64 KiB.
  for (const std::uint64_t block_bytes : {3u, 8u, 64u, 1024u, 16384u, 65536u}) {
    SCOPED_TRACE("block_bytes " + std::to_string(block_bytes));
    PartitionConfig pc;
    pc.block_capacity_bytes = block_bytes;
    pc.subgraphs_per_partition = 8;
    expect_lookups_match_reference(PartitionedGraph(plain, pc));
    pc.weighted = true;
    expect_lookups_match_reference(PartitionedGraph(weighted, pc));
    pc.weighted = false;
    pc.labeled = true;
    expect_lookups_match_reference(PartitionedGraph(labeled, pc));
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, LookupSweep,
                         ::testing::Values(DatasetCase{graph::DatasetId::TT, "TT"},
                                           DatasetCase{graph::DatasetId::FS, "FS"},
                                           DatasetCase{graph::DatasetId::CW, "CW"},
                                           DatasetCase{graph::DatasetId::R2B, "R2B"},
                                           DatasetCase{graph::DatasetId::R8B, "R8B"}),
                         [](const auto& param_info) { return param_info.param.abbrev; });

/// Ten vertices at 64-byte blocks (a 4-byte header, 16 edges a block): a
/// vertex with 16 or more edges is dense. Vertex 0 (dense, 40 edges) comes
/// first and 9 (dense, 33 edges) last; 4 (20 edges) and 5 (16) are adjacent
/// dense vertices; 3, 6 and 8 have no edges.
graph::CsrGraph hand_built_graph() {
  constexpr EdgeId kDegrees[10] = {40, 5, 3, 0, 20, 16, 0, 2, 0, 33};
  graph::GraphBuilder b(10);
  for (VertexId v = 0; v < 10; ++v) {
    for (EdgeId i = 0; i < kDegrees[v]; ++i) b.add_edge(v, (v + 1 + i) % 10);
  }
  return std::move(b).build();
}

TEST(PartitionLookups, HandBuiltDenseAndEmptyVertices) {
  const auto g = hand_built_graph();
  PartitionConfig pc;
  pc.block_capacity_bytes = 64;
  const PartitionedGraph pg(g, pc);
  // Blocks 0-2 hold vertex 0, run 3 vertices 1-3, blocks 4-5 vertex 4,
  // block 6 vertex 5, run 7 vertices 6-8, blocks 8-10 vertex 9.
  ASSERT_EQ(pg.num_subgraphs(), 11u);
  constexpr SubgraphId kExpected[10] = {0, 3, 3, 3, 4, 6, 7, 7, 7, 8};
  for (VertexId v = 0; v < 10; ++v) {
    EXPECT_EQ(pg.subgraph_of(v), kExpected[v]) << "vertex " << v;
    const bool dense = v == 0 || v == 4 || v == 5 || v == 9;
    EXPECT_EQ(pg.is_dense_vertex(v), dense) << "vertex " << v;
  }
  expect_lookups_match_reference(pg);
}

TEST(PartitionLookups, VertexWithoutEdgesHasNoSubgraphWhenHeaderOverflowsBlock) {
  // Under a 4-byte header every vertex is dense: one block per edge, and
  // none for a vertex without edges, which is then neither found nor dense.
  const auto g = hand_built_graph();
  PartitionConfig pc;
  pc.block_capacity_bytes = 2;
  const PartitionedGraph pg(g, pc);
  EXPECT_EQ(pg.num_subgraphs(), g.num_edges());
  for (const VertexId v : {3u, 6u, 8u}) {
    EXPECT_EQ(pg.subgraph_of(v), kInvalidSubgraph) << "vertex " << v;
    EXPECT_FALSE(pg.is_dense_vertex(v)) << "vertex " << v;
  }
  EXPECT_EQ(pg.subgraph_of(1), 40u);  // after vertex 0's 40 one-edge blocks
  EXPECT_TRUE(pg.is_dense_vertex(1));
  expect_lookups_match_reference(pg);
}

// --- Mapping table -------------------------------------------------------------

class MappingTableTest : public ::testing::Test {
 protected:
  MappingTableTest() : g_(skewed_graph()), pg_(g_, small_config()) {
    std::vector<std::uint64_t> pages(pg_.num_subgraphs());
    for (std::size_t i = 0; i < pages.size(); ++i) pages[i] = i * 10;
    mtab_ = std::make_unique<SubgraphMappingTable>(pg_, pages);
  }
  graph::CsrGraph g_;
  PartitionedGraph pg_;
  std::unique_ptr<SubgraphMappingTable> mtab_;
};

TEST_F(MappingTableTest, BinarySearchMatchesGroundTruth) {
  for (VertexId v = 0; v < g_.num_vertices(); ++v) {
    const auto lookup = mtab_->find(v);
    ASSERT_TRUE(lookup.found()) << v;
    EXPECT_EQ(lookup.sgid, pg_.subgraph_of(v)) << v;
  }
}

TEST_F(MappingTableTest, StepCountIsLogarithmic) {
  std::uint32_t max_steps = 0;
  for (VertexId v = 0; v < g_.num_vertices(); v += 7) {
    max_steps = std::max(max_steps, mtab_->find(v).steps);
  }
  EXPECT_LE(max_steps, mtab_->max_search_steps() + 4);  // + dense back-scan slack
  EXPECT_GT(max_steps, 1u);
}

TEST_F(MappingTableTest, RangeSearchContainsAnswer) {
  for (VertexId v = 0; v < g_.num_vertices(); ++v) {
    const auto r = mtab_->find_range(v);
    ASSERT_TRUE(r.found()) << v;
    const auto lookup = mtab_->find_in_range(v, r.range_id);
    ASSERT_TRUE(lookup.found()) << v;
    EXPECT_EQ(lookup.sgid, pg_.subgraph_of(v)) << v;
  }
}

TEST_F(MappingTableTest, InRangeSearchIsCheaper) {
  std::uint64_t full = 0, ranged = 0;
  for (VertexId v = 0; v < g_.num_vertices(); v += 3) {
    full += mtab_->find(v).steps;
    const auto r = mtab_->find_range(v);
    ranged += mtab_->find_in_range(v, r.range_id).steps;
  }
  EXPECT_LT(ranged, full);
}

TEST_F(MappingTableTest, RangeTableIsSmaller) {
  EXPECT_LT(mtab_->range_table_bytes(), mtab_->table_bytes());
  EXPECT_EQ(mtab_->num_ranges(),
            (pg_.num_subgraphs() + pg_.config().subgraphs_per_range - 1) /
                pg_.config().subgraphs_per_range);
}

TEST_F(MappingTableTest, EntriesRecordFlashPlacement) {
  const auto& entries = mtab_->entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].flash_page, i * 10);
    EXPECT_EQ(entries[i].sgid, i);
  }
}

TEST_F(MappingTableTest, DenseVertexResolvesToFirstBlock) {
  for (VertexId v = 0; v < g_.num_vertices(); ++v) {
    if (!pg_.is_dense_vertex(v)) continue;
    const auto lookup = mtab_->find(v);
    const auto& sg = pg_.subgraph(lookup.sgid);
    EXPECT_TRUE(sg.dense);
    EXPECT_EQ(sg.dense_block_index, 0u);
  }
}

TEST_F(MappingTableTest, InvalidRangeReturnsNotFound) {
  EXPECT_FALSE(mtab_->find_in_range(0, 999'999).found());
}

TEST_F(MappingTableTest, WrongRangeReturnsNotFound) {
  // A vertex searched in a range that does not contain it must not match.
  const auto r0 = mtab_->find_range(0);
  const VertexId last = g_.num_vertices() - 1;
  const auto r_last = mtab_->find_range(last);
  if (r0.range_id != r_last.range_id) {
    EXPECT_FALSE(mtab_->find_in_range(last, r0.range_id).found());
  }
}

// --- Dense table ------------------------------------------------------------------

class DenseTableTest : public ::testing::Test {
 protected:
  DenseTableTest() : g_(skewed_graph()), pg_(g_, small_config()), dtab_(pg_) {}
  graph::CsrGraph g_;
  PartitionedGraph pg_;
  DenseVertexTable dtab_;
};

TEST_F(DenseTableTest, FindsEveryDenseVertex) {
  std::size_t found = 0;
  for (VertexId v = 0; v < g_.num_vertices(); ++v) {
    const auto r = dtab_.lookup(v);
    if (pg_.is_dense_vertex(v)) {
      ASSERT_TRUE(r.meta.has_value()) << v;
      ++found;
    } else {
      EXPECT_FALSE(r.meta.has_value()) << v;
    }
  }
  EXPECT_EQ(found, dtab_.num_dense_vertices());
  EXPECT_GT(found, 0u);
}

TEST_F(DenseTableTest, MetadataIsConsistent) {
  for (VertexId v = 0; v < g_.num_vertices(); ++v) {
    const auto r = dtab_.lookup(v);
    if (!r.meta) continue;
    const auto& meta = *r.meta;
    EXPECT_EQ(meta.first_sgid, pg_.subgraph_of(v));
    EXPECT_EQ(meta.out_degree, g_.out_degree(v));
    // num_blocks covers the out-degree at edges_per_block granularity.
    const EdgeId per_block = pg_.edges_per_block();
    EXPECT_EQ(meta.num_blocks, (meta.out_degree + per_block - 1) / per_block);
    // Last block holds the remainder.
    const EdgeId expected_last = meta.out_degree - (meta.num_blocks - 1) * per_block;
    EXPECT_EQ(meta.last_block_degree, expected_last);
  }
}

TEST_F(DenseTableTest, BloomNeverFalseNegative) {
  for (VertexId v = 0; v < g_.num_vertices(); ++v) {
    if (pg_.is_dense_vertex(v)) {
      EXPECT_TRUE(dtab_.may_be_dense(v));
    }
  }
}

TEST_F(DenseTableTest, FalsePositivesAreHarmless) {
  // A bloom false positive yields bloom_positive && !meta — exactly the
  // fallback path the paper describes.
  for (VertexId v = 0; v < g_.num_vertices(); ++v) {
    const auto r = dtab_.lookup(v);
    if (r.bloom_false_positive) {
      EXPECT_TRUE(r.bloom_positive);
      EXPECT_FALSE(r.meta.has_value());
    }
  }
}

TEST_F(DenseTableTest, TableBytesAccounted) {
  EXPECT_GT(dtab_.table_bytes(), 0u);
}

TEST(DenseTable, EmptyWhenNoDenseVertices) {
  graph::GraphBuilder b(16);
  for (VertexId v = 0; v < 16; ++v) b.add_edge(v, (v + 1) % 16);
  const auto g = std::move(b).build();
  PartitionConfig pc;
  pc.block_capacity_bytes = 4096;
  const PartitionedGraph pg(g, pc);
  const DenseVertexTable dtab(pg);
  EXPECT_EQ(dtab.num_dense_vertices(), 0u);
}

}  // namespace
}  // namespace fw::partition
