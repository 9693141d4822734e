// Random-walk semantics: samplers (uniform / ITS / slices / pre-walk block
// choice) with distributional property checks, and the reference algorithms.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>

#include "common/stats.hpp"
#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/transform.hpp"
#include "rw/algorithms.hpp"
#include "rw/sampler.hpp"
#include "rw/spec.hpp"
#include "rw/walk.hpp"

namespace fw::rw {
namespace {

graph::CsrGraph star_graph(std::size_t leaves, bool weighted) {
  // Vertex 0 points at vertices 1..leaves with weight = leaf index.
  graph::GraphBuilder b(leaves + 1);
  for (std::size_t i = 1; i <= leaves; ++i) {
    b.add_edge(0, i, static_cast<float>(i));
  }
  graph::BuildOptions opts;
  opts.keep_weights = weighted;
  return std::move(b).build(opts);
}

TEST(Walk, ByteAccounting) {
  EXPECT_EQ(walk_bytes(4), 10u);        // 2 ids + hop counter
  EXPECT_EQ(walk_bytes(8), 18u);
  EXPECT_EQ(walk_bytes(4, true), 6u);   // dense walks drop `cur`
}

/// Walk's fields at full width, unpacked: the model a packed Walk must match.
struct WideWalk {
  VertexId src, cur;
  std::uint64_t state, rng_state;
  std::uint32_t id, range_tag;
  SubgraphId prewalked_sg;
  std::uint16_t job;
  std::uint32_t hops_left;
  bool parked;
  bool operator==(const WideWalk&) const = default;
};

WideWalk widen(const Walk& w) {
  WideWalk out;
  out.src = w.src;
  out.cur = w.cur;
  out.state = w.state;
  out.rng_state = w.rng_state;
  out.id = w.id;
  out.range_tag = w.range_tag;
  out.prewalked_sg = w.prewalked_sg;
  out.job = w.job;
  out.hops_left = w.hops_left;
  out.parked = w.parked;
  return out;
}

TEST(Walk, PackedFieldsKeepTheirFullRange) {
  // Every field at its largest value, then each one changed on its own:
  // none may bleed into another, the hop counter and `parked` (which share
  // a 16-bit word) included.
  Walk top;
  top.src = graph::kMaxVertices - 1;
  top.cur = graph::kMaxVertices - 1;
  top.state = ~std::uint64_t{0};
  top.rng_state = ~std::uint64_t{0};
  top.id = ~std::uint32_t{0};
  top.range_tag = ~std::uint32_t{0};
  top.prewalked_sg = kInvalidSubgraph;
  top.job = ~std::uint16_t{0};
  top.hops_left = kMaxWalkLength;
  top.parked = true;
  const WideWalk wide = widen(top);
  EXPECT_EQ(wide.src, graph::kMaxVertices - 1);
  EXPECT_EQ(wide.cur, graph::kMaxVertices - 1);
  EXPECT_EQ(wide.hops_left, kMaxWalkLength);
  EXPECT_TRUE(wide.parked);
  // Reads widen: the top vertex's successor does not wrap to 0.
  EXPECT_EQ(VertexId{top.cur} + 1, graph::kMaxVertices);

  auto expect_only = [&](auto change) {
    Walk w = top;
    WideWalk want = wide;
    change(w);
    change(want);
    EXPECT_EQ(widen(w), want);
  };
  expect_only([](auto& w) { w.src = 0; });
  expect_only([](auto& w) { w.cur = 7; });
  expect_only([](auto& w) { w.state = 0; });
  expect_only([](auto& w) { w.rng_state = 0; });
  expect_only([](auto& w) { w.id = 0; });
  expect_only([](auto& w) { w.range_tag = 0; });
  expect_only([](auto& w) { w.prewalked_sg = 0; });
  expect_only([](auto& w) { w.job = 0; });
  expect_only([](auto& w) { --w.hops_left; });
  expect_only([](auto& w) { w.hops_left = 0; });
  expect_only([](auto& w) { w.parked = false; });
}

TEST(Walk, HopCountChecksTheLimit) {
  EXPECT_EQ(hop_count(1), 1u);
  EXPECT_EQ(hop_count(6), 6u);
  EXPECT_EQ(hop_count(kMaxWalkLength), kMaxWalkLength);
  // Past the limit the counter would wrap (65,536 reads as 0), and from 0
  // the first hop's decrement would wrap it to the limit, so the
  // conversion throws, naming the value and the limit.
  for (const std::uint32_t length : {0u, kMaxWalkLength + 1, 65'536u, 65'537u}) {
    try {
      (void)hop_count(length);
      ADD_FAILURE() << length << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::to_string(length)), std::string::npos) << what;
      EXPECT_NE(what.find("limit of 32767"), std::string::npos) << what;
    }
  }
}

TEST(SampleUnbiased, DeadEndReturnsInvalid) {
  graph::GraphBuilder b(2);
  b.add_edge(0, 1);
  const auto g = std::move(b).build();
  Xoshiro256 rng(1);
  EXPECT_EQ(sample_unbiased(g, 1, rng).next, kInvalidVertex);
}

TEST(SampleUnbiased, UniformOverNeighbors) {
  const auto g = star_graph(8, false);
  Xoshiro256 rng(1);
  std::vector<std::uint64_t> counts(9, 0);
  for (int i = 0; i < 80'000; ++i) ++counts[sample_unbiased(g, 0, rng).next];
  std::vector<double> expected(9, 0.0);
  for (int i = 1; i <= 8; ++i) expected[i] = 1.0 / 8;
  EXPECT_LT(chi_square(counts, expected), 26.1);  // 7 dof, p~0.0005
}

TEST(SampleSlice, RestrictsToSlice) {
  const auto g = star_graph(8, false);
  Xoshiro256 rng(2);
  // Slice covering edges 2..5 of vertex 0 → neighbors 3,4,5 (sorted by dst).
  for (int i = 0; i < 1000; ++i) {
    const auto s = sample_unbiased_slice(g, 2, 5, rng);
    EXPECT_GE(s.next, 3u);
    EXPECT_LE(s.next, 5u);
  }
}

TEST(SampleSlice, EmptySliceIsDeadEnd) {
  const auto g = star_graph(4, false);
  Xoshiro256 rng(2);
  EXPECT_EQ(sample_unbiased_slice(g, 3, 3, rng).next, kInvalidVertex);
}

TEST(Its, RequiresWeights) {
  const auto g = star_graph(4, false);
  EXPECT_THROW(ItsTable{g}, std::invalid_argument);
}

TEST(Its, BiasedDistributionMatchesWeights) {
  const auto g = star_graph(8, true);  // weight of leaf i is i
  const ItsTable its(g);
  Xoshiro256 rng(3);
  std::vector<std::uint64_t> counts(9, 0);
  for (int i = 0; i < 90'000; ++i) ++counts[its.sample(g, 0, rng).next];
  const double total = 8.0 * 9.0 / 2.0;  // sum 1..8
  std::vector<double> expected(9, 0.0);
  for (int i = 1; i <= 8; ++i) expected[i] = i / total;
  EXPECT_LT(chi_square(counts, expected), 26.1);
}

TEST(Its, CountsBinarySearchSteps) {
  const auto g = star_graph(64, true);
  const ItsTable its(g);
  Xoshiro256 rng(4);
  const auto s = its.sample(g, 0, rng);
  EXPECT_GE(s.search_steps, 6u);  // log2(64)
  EXPECT_LE(s.search_steps, 8u);
}

TEST(Its, SliceSamplingUsesInVertexBase) {
  const auto g = star_graph(8, true);
  const ItsTable its(g);
  Xoshiro256 rng(5);
  // Slice covering the last 4 edges (leaves 5..8, weights 5..8).
  std::vector<std::uint64_t> counts(9, 0);
  for (int i = 0; i < 60'000; ++i) {
    const auto s = its.sample_slice(g, 0, 4, 8, rng);
    ASSERT_GE(s.next, 5u);
    ++counts[s.next];
  }
  const double total = 5 + 6 + 7 + 8;
  std::vector<double> expected(9, 0.0);
  for (int i = 5; i <= 8; ++i) expected[i] = i / total;
  EXPECT_LT(chi_square(counts, expected), 21.0);
}

TEST(Its, CumulativeWeightRestartsPerVertex) {
  graph::GraphBuilder b(3);
  b.add_edge(0, 1, 2.0f);
  b.add_edge(0, 2, 3.0f);
  b.add_edge(1, 2, 7.0f);
  graph::BuildOptions opts;
  opts.keep_weights = true;
  const auto g = std::move(b).build(opts);
  const ItsTable its(g);
  EXPECT_DOUBLE_EQ(its.cumulative_weight(0), 2.0);
  EXPECT_DOUBLE_EQ(its.cumulative_weight(1), 5.0);
  EXPECT_DOUBLE_EQ(its.cumulative_weight(2), 7.0);  // restarts at vertex 1
}

TEST(Prewalk, BlockChoiceFormula) {
  // Paper: gb_next is the floor(rnd / size(gb))-th graph block.
  EXPECT_EQ(prewalk_block_choice(0, 100), 0u);
  EXPECT_EQ(prewalk_block_choice(99, 100), 0u);
  EXPECT_EQ(prewalk_block_choice(100, 100), 1u);
  EXPECT_EQ(prewalk_block_choice(250, 100), 2u);
}

TEST(Prewalk, BlockDistributionProportionalToBlockDegree) {
  // Dense vertex with 250 edges, 100-edge blocks → blocks of 100/100/50
  // edges; chosen block frequency must be proportional.
  Xoshiro256 rng(6);
  std::vector<std::uint64_t> counts(3, 0);
  for (int i = 0; i < 100'000; ++i) {
    ++counts[prewalk_block_choice(prewalk_draw(250, rng), 100)];
  }
  std::vector<double> expected{100.0 / 250, 100.0 / 250, 50.0 / 250};
  EXPECT_LT(chi_square(counts, expected), 15.2);  // 2 dof
}

TEST(Prewalk, ComposedWithInBlockUniformIsGloballyUniform) {
  // Choosing block ∝ size then uniform-within-block == uniform over edges.
  const auto g = star_graph(25, false);
  Xoshiro256 rng(7);
  const EdgeId per_block = 10;
  std::vector<std::uint64_t> counts(26, 0);
  for (int i = 0; i < 130'000; ++i) {
    const auto rnd = prewalk_draw(25, rng);
    const auto block = prewalk_block_choice(rnd, per_block);
    const EdgeId begin = block * per_block;
    const EdgeId end = std::min<EdgeId>(25, begin + per_block);
    ++counts[sample_unbiased_slice(g, begin, end, rng).next];
  }
  std::vector<double> expected(26, 0.0);
  for (int i = 1; i <= 25; ++i) expected[i] = 1.0 / 25;
  EXPECT_LT(chi_square(counts, expected), 52.6);  // 24 dof, p~0.0005
}

// --- Reference walk execution ----------------------------------------------

TEST(RunWalks, FixedLengthCompletes) {
  graph::RmatParams p;
  p.num_vertices = 512;
  p.num_edges = 8192;
  const auto g = graph::generate_rmat(p);
  WalkSpec spec;
  spec.num_walks = 5000;
  spec.length = 6;
  const auto s = run_walks(g, spec);
  EXPECT_EQ(s.walks, 5000u);
  EXPECT_LE(s.total_hops, 5000u * 6);
  EXPECT_GT(s.total_hops, 0u);
  const auto visits = std::accumulate(s.visit_counts.begin(), s.visit_counts.end(), 0ull);
  EXPECT_EQ(visits, s.total_hops);
}

TEST(RunWalks, StopProbShortensWalks) {
  graph::RmatParams p;
  p.num_vertices = 512;
  p.num_edges = 8192;
  const auto g = graph::generate_rmat(p);
  WalkSpec spec;
  spec.num_walks = 5000;
  spec.length = 20;
  WalkSpec stopping = spec;
  stopping.stop_prob = 0.5;
  EXPECT_LT(run_walks(g, stopping).total_hops, run_walks(g, spec).total_hops / 2);
}

TEST(RunWalks, DeterministicForSeed) {
  graph::RmatParams p;
  p.num_vertices = 256;
  p.num_edges = 4096;
  const auto g = graph::generate_rmat(p);
  WalkSpec spec;
  spec.num_walks = 1000;
  const auto a = run_walks(g, spec);
  const auto b = run_walks(g, spec);
  EXPECT_EQ(a.visit_counts, b.visit_counts);
}

TEST(WalkPath, LengthBounded) {
  graph::RmatParams p;
  p.num_vertices = 256;
  p.num_edges = 4096;
  const auto g = graph::generate_rmat(p);
  WalkSpec spec;
  spec.length = 6;
  Xoshiro256 rng(1);
  for (VertexId v = 0; v < 50; ++v) {
    const auto path = walk_path(g, v, spec, rng);
    EXPECT_GE(path.size(), 1u);
    EXPECT_LE(path.size(), 7u);
    EXPECT_EQ(path.front(), v);
  }
}

TEST(DeepWalk, CorpusShape) {
  graph::RmatParams p;
  p.num_vertices = 128;
  p.num_edges = 2048;
  const auto g = graph::generate_rmat(p);
  DeepWalkParams dp;
  dp.walks_per_vertex = 3;
  dp.walk_length = 4;
  const auto corpus = deepwalk_corpus(g, dp);
  EXPECT_EQ(corpus.size(), 128u * 3);
  for (const auto& seq : corpus) EXPECT_LE(seq.size(), 5u);
}

TEST(Ppr, SourceNeighborhoodRanksHigh) {
  // A directed chain with a hub: walks from the hub end near it.
  graph::GraphBuilder b(10);
  for (VertexId v = 0; v + 1 < 10; ++v) b.add_edge(v, v + 1);
  b.add_edge(9, 0);
  const auto g = std::move(b).build();
  PprParams pp;
  pp.source = 0;
  pp.num_walks = 20'000;
  pp.restart_prob = 0.5;
  const auto scores = personalized_pagerank(g, pp, 10);
  ASSERT_FALSE(scores.empty());
  // With restart 0.5, mass concentrates at/near the source.
  EXPECT_LE(scores[0].first, 2u);
  double sum = 0;
  for (const auto& [v, s] : scores) sum += s;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Node2Vec, WalksStayOnGraph) {
  graph::RmatParams p;
  p.num_vertices = 128;
  p.num_edges = 2048;
  const auto g = graph::generate_rmat(p);
  Node2VecParams np;
  np.walk_length = 5;
  const auto walks = node2vec_walks(g, np);
  EXPECT_EQ(walks.size(), 128u);
  for (const auto& path : walks) {
    for (std::size_t i = 1; i < path.size(); ++i) {
      const auto nbrs = g.neighbors(path[i - 1]);
      EXPECT_TRUE(std::binary_search(nbrs.begin(), nbrs.end(), path[i]))
          << "hop " << i << " not an edge";
    }
  }
}

TEST(Node2Vec, ReturnParameterBiasesBacktracking) {
  // Small p → strong return bias: consecutive A-B-A patterns more common.
  graph::GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 0);
  b.add_edge(1, 2);
  b.add_edge(2, 1);
  const auto g = std::move(b).build();
  auto count_backtracks = [&](double pparam) {
    Node2VecParams np;
    np.p = pparam;
    np.q = 1.0;
    np.walk_length = 20;
    np.walks_per_vertex = 200;
    np.seed = 8;
    std::uint64_t backtracks = 0, steps = 0;
    for (const auto& path : node2vec_walks(g, np)) {
      for (std::size_t i = 2; i < path.size(); ++i) {
        ++steps;
        backtracks += path[i] == path[i - 2];
      }
    }
    return static_cast<double>(backtracks) / static_cast<double>(steps);
  };
  EXPECT_GT(count_backtracks(0.1), count_backtracks(10.0) + 0.1);
}

TEST(SimRank, IdenticalVerticesScoreOne) {
  const auto g = star_graph(4, false);
  EXPECT_DOUBLE_EQ(simrank(g, 0, 0, {}), 1.0);
}

TEST(SimRank, StructurallySimilarBeatsDissimilar) {
  // a and b both point only at hub h; c points elsewhere.
  graph::GraphBuilder bld(5);
  bld.add_edge(0, 2);  // a -> h
  bld.add_edge(1, 2);  // b -> h
  bld.add_edge(3, 4);  // c -> other
  bld.add_edge(2, 2);  // hub self-loop keeps walks alive
  bld.add_edge(4, 4);
  const auto g = std::move(bld).build();
  SimRankParams sp;
  sp.num_pairs = 5000;
  EXPECT_GT(simrank(g, 0, 1, sp), simrank(g, 0, 3, sp) + 0.3);
}

TEST(Sampling, MhrwReducesDegreeBias) {
  // Plain RW sampling over-represents hubs; MHRW's acceptance rule corrects
  // it on symmetric adjacency (the textbook setting). Compare the mean
  // degree of samples from a symmetrized skewed graph.
  graph::ZipfParams zp;
  zp.num_vertices = 1 << 12;
  zp.num_edges = 1 << 16;
  zp.exponent = 1.4;
  zp.seed = 77;
  const auto g = graph::symmetrize(graph::generate_zipf(zp));

  // Plain-RW stationary visits on a symmetric graph are ∝ degree, so the
  // visit-frequency-weighted mean degree is E[deg²]/E[deg] ≫ E[deg].
  WalkSpec spec;
  spec.num_walks = 5000;
  spec.length = 20;
  const auto visits = run_walks(g, spec).visit_counts;
  double vw_deg = 0, vw_total = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    vw_deg += static_cast<double>(visits[v]) * static_cast<double>(g.out_degree(v));
    vw_total += static_cast<double>(visits[v]);
  }
  const double plain_visit_mean = vw_deg / vw_total;

  SamplingParams sp;
  sp.target_vertices = 600;
  const auto mhrw = mhrw_sample_vertices(g, sp);
  double mhrw_sum = 0;
  for (VertexId v : mhrw) mhrw_sum += static_cast<double>(g.out_degree(v));
  const double mhrw_mean = mhrw_sum / static_cast<double>(mhrw.size());

  EXPECT_LT(mhrw_mean, 0.5 * plain_visit_mean)
      << "MHRW should shed most of the degree bias of plain-RW visitation";
}

TEST(Sampling, ForestFireBurnsConnectedRegions) {
  graph::RmatParams p;
  p.num_vertices = 1 << 12;
  p.num_edges = 1 << 15;
  const auto g = graph::generate_rmat(p);
  ForestFireParams fp;
  fp.target_vertices = 500;
  const auto sample = forest_fire_sample(g, fp);
  EXPECT_GE(sample.size(), 400u);
  for (VertexId v : sample) EXPECT_LT(v, g.num_vertices());
}

TEST(Graphlets, TriangleHeavyGraphScoresHigh) {
  // Complete graph: every wedge closes.
  graph::GraphBuilder b(16);
  for (VertexId v = 0; v < 16; ++v) {
    for (VertexId u = 0; u < 16; ++u) {
      if (v != u) b.add_edge(v, u);
    }
  }
  const auto g = std::move(b).build();
  GraphletParams gp;
  gp.num_samples = 20'000;
  const auto r = graphlet_concentration(g, gp);
  EXPECT_GT(r.triangle_concentration(), 0.95);
}

TEST(Graphlets, TriangleFreeGraphScoresZero) {
  // Bipartite-ish: even -> odd edges only; no directed triangles close.
  graph::GraphBuilder b(64);
  for (VertexId v = 0; v < 64; v += 2) {
    b.add_edge(v, (v + 1) % 64);
    b.add_edge(v + 1, (v + 2) % 64);
  }
  const auto g = std::move(b).build();
  GraphletParams gp;
  gp.num_samples = 10'000;
  const auto r = graphlet_concentration(g, gp);
  EXPECT_DOUBLE_EQ(r.triangle_concentration(), 0.0);
}

TEST(Graphlets, SamplesAreCounted) {
  graph::RmatParams p;
  p.num_vertices = 1 << 10;
  p.num_edges = 1 << 14;
  const auto g = graph::generate_rmat(p);
  GraphletParams gp;
  gp.num_samples = 20'000;
  const auto r = graphlet_concentration(g, gp);
  EXPECT_GT(r.wedges + r.triangles, 10'000u);
  EXPECT_GT(r.triangle_concentration(), 0.0);  // RMAT has triangles
  EXPECT_LT(r.triangle_concentration(), 0.5);
}

TEST(Sampling, ReturnsRequestedCount) {
  graph::RmatParams p;
  p.num_vertices = 1 << 12;
  p.num_edges = 1 << 15;
  const auto g = graph::generate_rmat(p);
  SamplingParams sp;
  sp.target_vertices = 300;
  const auto sample = rw_sample_vertices(g, sp);
  EXPECT_GE(sample.size(), 250u);
  for (VertexId v : sample) EXPECT_LT(v, g.num_vertices());
}

}  // namespace
}  // namespace fw::rw
