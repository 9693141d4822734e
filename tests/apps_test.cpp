// Application-layer and tooling tests: skip-gram embeddings over walk
// corpora, the ThunderRW-style in-memory baseline, and partitioned-graph
// bundle serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "accel/builder.hpp"
#include "accel/engine.hpp"
#include "accel/report.hpp"
#include "baseline/graphwalker.hpp"
#include "baseline/thunder.hpp"
#include "graph/builder.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "partition/io.hpp"
#include "rw/algorithms.hpp"
#include "rw/embeddings.hpp"

namespace fw {
namespace {

// --- embeddings ---------------------------------------------------------------

graph::CsrGraph two_cliques(VertexId clique_size) {
  // Two cliques joined by a single bridge edge — the classic embedding
  // sanity structure.
  graph::GraphBuilder b(2 * clique_size);
  for (VertexId i = 0; i < clique_size; ++i) {
    for (VertexId j = 0; j < clique_size; ++j) {
      if (i != j) {
        b.add_edge(i, j);
        b.add_edge(clique_size + i, clique_size + j);
      }
    }
  }
  b.add_edge(0, clique_size);
  b.add_edge(clique_size, 0);
  return std::move(b).build();
}

TEST(Embeddings, NeighborsCloserThanRandomPairs) {
  const auto g = two_cliques(8);
  rw::DeepWalkParams dw;
  dw.walks_per_vertex = 20;
  dw.walk_length = 8;
  const auto corpus = rw::deepwalk_corpus(g, dw);

  rw::SkipGramParams sp;
  sp.dimensions = 16;
  sp.epochs = 3;
  rw::EmbeddingModel model(g.num_vertices(), sp);
  model.train(corpus);

  EXPECT_GT(rw::edge_similarity_gap(model, g, 2000, 9), 0.2);
}

TEST(Embeddings, CliqueMembersClusterTogether) {
  const VertexId k = 8;
  const auto g = two_cliques(k);
  rw::DeepWalkParams dw;
  dw.walks_per_vertex = 20;
  dw.walk_length = 8;
  rw::SkipGramParams sp;
  sp.dimensions = 16;
  sp.epochs = 3;
  rw::EmbeddingModel model(g.num_vertices(), sp);
  model.train(rw::deepwalk_corpus(g, dw));

  // A mid-clique vertex's nearest neighbors should mostly be same-clique.
  const auto nn = model.nearest(3, 5);
  int same = 0;
  for (const auto& [v, sim] : nn) same += v < k;
  EXPECT_GE(same, 4);
}

TEST(Embeddings, SimilarityIsSymmetricAndBounded) {
  rw::SkipGramParams sp;
  sp.dimensions = 8;
  rw::EmbeddingModel model(10, sp);
  for (VertexId a = 0; a < 10; ++a) {
    for (VertexId b = 0; b < 10; ++b) {
      const double s = model.similarity(a, b);
      EXPECT_LE(std::abs(s), 1.0 + 1e-9);
      EXPECT_DOUBLE_EQ(s, model.similarity(b, a));
    }
  }
  EXPECT_NEAR(model.similarity(3, 3), 1.0, 1e-6);
}

TEST(Embeddings, EngineWalksTrainAsWellAsHostWalks) {
  // The in-storage engine's recorded paths are a drop-in corpus.
  const auto g = graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  partition::PartitionConfig pc;
  pc.block_capacity_bytes = 4096;
  const partition::PartitionedGraph pg(g, pc);
  accel::EngineOptions opts;
  opts.ssd = ssd::test_ssd_config();
  opts.spec.start_mode = rw::StartMode::kAllVertices;
  opts.spec.length = 6;
  opts.record_paths = true;
  auto engine = accel::SimulationBuilder(pg).options(opts).build();
  const auto r = engine.run();

  rw::SkipGramParams sp;
  sp.dimensions = 16;
  sp.epochs = 2;
  rw::EmbeddingModel model(g.num_vertices(), sp);
  model.train(r.paths);
  EXPECT_GT(rw::edge_similarity_gap(model, g, 2000, 3), 0.05);
}

// --- ThunderRW baseline ---------------------------------------------------------

TEST(Thunder, CompletesInMemory) {
  const auto g = graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  baseline::ThunderOptions opts;
  opts.ssd = ssd::test_ssd_config();
  opts.spec.num_walks = 5000;
  opts.host.memory_bytes = 64 * MiB;
  baseline::ThunderEngine engine(g, opts);
  const auto r = engine.run();
  EXPECT_EQ(r.walks_completed, 5000u);
  EXPECT_EQ(r.block_loads, 1u);  // one full-graph load
  EXPECT_EQ(r.bytes_written, 0u);
}

TEST(Thunder, RefusesOversizedGraph) {
  const auto g = graph::make_dataset(graph::DatasetId::FS, graph::Scale::kTest);
  baseline::ThunderOptions opts;
  opts.ssd = ssd::test_ssd_config();
  opts.host.memory_bytes = 1024;  // far too small
  EXPECT_THROW(baseline::ThunderEngine(g, opts), std::invalid_argument);
}

TEST(Thunder, RejectsSecondOrderSpecNamingItself) {
  const auto g = graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  baseline::ThunderOptions opts;
  opts.ssd = ssd::test_ssd_config();
  opts.host.memory_bytes = 64 * MiB;
  opts.spec.second_order.enabled = true;
  try {
    baseline::ThunderEngine engine(g, opts);
    ADD_FAILURE() << "ThunderRW accepted a second-order spec";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("ThunderRW"), std::string::npos) << e.what();
  }
}

TEST(Thunder, FasterThanGraphWalkerWhenBothFit) {
  // In-memory step-centric execution beats the out-of-core loop even when
  // GraphWalker's cache holds the whole graph (no bucket management).
  const auto g = graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  rw::WalkSpec spec;
  spec.num_walks = 20'000;
  spec.length = 6;

  baseline::ThunderOptions topts;
  topts.ssd = ssd::test_ssd_config();
  topts.spec = spec;
  topts.host.memory_bytes = 64 * MiB;
  baseline::ThunderEngine thunder(g, topts);

  baseline::GraphWalkerOptions gopts;
  gopts.ssd = ssd::test_ssd_config();
  gopts.spec = spec;
  gopts.host.memory_bytes = 64 * MiB;
  baseline::GraphWalkerEngine gw(g, gopts);

  EXPECT_LT(thunder.run().exec_time, gw.run().exec_time);
}

TEST(Thunder, VisitDistributionMatchesReference) {
  const auto g = graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  rw::WalkSpec spec;
  spec.num_walks = 20'000;
  spec.length = 6;
  spec.seed = 3;
  const auto ref = rw::run_walks(g, spec);

  baseline::ThunderOptions opts;
  opts.ssd = ssd::test_ssd_config();
  opts.spec = spec;
  opts.host.memory_bytes = 64 * MiB;
  baseline::ThunderEngine engine(g, opts);
  const auto r = engine.run();
  const auto rt = static_cast<double>(ref.total_hops);
  EXPECT_NEAR(static_cast<double>(r.total_hops), rt, 0.05 * rt);
}

// --- partition bundle io ------------------------------------------------------

TEST(PartitionIo, RoundTripReproducesLayout) {
  const auto g = graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  partition::PartitionConfig pc;
  pc.block_capacity_bytes = 4096;
  pc.subgraphs_per_partition = 32;
  const partition::PartitionedGraph pg(g, pc);

  std::stringstream ss;
  partition::save_partitioned(pg, ss);
  const auto bundle = partition::load_partitioned(ss);

  ASSERT_EQ(bundle.partitioned->num_subgraphs(), pg.num_subgraphs());
  ASSERT_EQ(bundle.partitioned->num_partitions(), pg.num_partitions());
  for (SubgraphId sg = 0; sg < pg.num_subgraphs(); ++sg) {
    EXPECT_EQ(bundle.partitioned->subgraph(sg).low_vid, pg.subgraph(sg).low_vid);
    EXPECT_EQ(bundle.partitioned->subgraph(sg).high_vid, pg.subgraph(sg).high_vid);
    EXPECT_EQ(bundle.partitioned->subgraph(sg).edge_begin, pg.subgraph(sg).edge_begin);
    EXPECT_EQ(bundle.partitioned->subgraph(sg).dense, pg.subgraph(sg).dense);
  }
  EXPECT_EQ(bundle.graph->edges(), g.edges());
}

TEST(PartitionIo, RejectsBadMagic) {
  std::stringstream ss("definitely not a bundle");
  EXPECT_THROW(partition::load_partitioned(ss), std::runtime_error);
}

TEST(PartitionIo, RejectsTruncatedStream) {
  const auto g = graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  partition::PartitionConfig pc;
  pc.block_capacity_bytes = 4096;
  const partition::PartitionedGraph pg(g, pc);
  std::stringstream ss;
  partition::save_partitioned(pg, ss);
  const std::string full = ss.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(partition::load_partitioned(cut), std::runtime_error);
}

TEST(PartitionIo, LoadedBundleDrivesTheEngine) {
  const auto g = graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  partition::PartitionConfig pc;
  pc.block_capacity_bytes = 4096;
  const partition::PartitionedGraph pg(g, pc);
  std::stringstream ss;
  partition::save_partitioned(pg, ss);
  const auto bundle = partition::load_partitioned(ss);

  accel::EngineOptions opts;
  opts.ssd = ssd::test_ssd_config();
  opts.spec.num_walks = 2000;
  auto engine = accel::SimulationBuilder(*bundle.partitioned).options(opts).build();
  EXPECT_EQ(engine.run().metrics.walks_completed, 2000u);
}

// --- JSON run reports ----------------------------------------------------------

TEST(Report, EngineJsonIsWellFormed) {
  const auto g = graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  partition::PartitionConfig pc;
  pc.block_capacity_bytes = 4096;
  const partition::PartitionedGraph pg(g, pc);
  accel::EngineOptions opts;
  opts.ssd = ssd::test_ssd_config();
  opts.spec.num_walks = 500;
  opts.timeline_interval = 100 * kUs;
  auto engine = accel::SimulationBuilder(pg).options(opts).build();
  const auto json = accel::to_json("unit \"test\"", engine.run());
  // Structural checks without a JSON library: balanced braces/brackets,
  // escaped label, key fields present.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_NE(json.find("\"walks_completed\":500"), std::string::npos);
  EXPECT_NE(json.find("unit \\\"test\\\""), std::string::npos);
  EXPECT_NE(json.find("\"timeline\":["), std::string::npos);
}

TEST(Report, BaselineJsonHasBreakdown) {
  const auto g = graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  baseline::GraphWalkerOptions opts;
  opts.ssd = ssd::test_ssd_config();
  opts.spec.num_walks = 500;
  opts.host.memory_bytes = 64 * KiB;
  opts.host.block_bytes = 8 * KiB;
  baseline::GraphWalkerEngine engine(g, opts);
  const auto json = accel::to_json("gw", engine.run());
  EXPECT_NE(json.find("\"graph_load_ns\":"), std::string::npos);
  EXPECT_NE(json.find("\"nvme_commands\":"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

}  // namespace
}  // namespace fw
