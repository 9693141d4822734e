// Graph transforms: reverse/symmetrize/relabel, ordering permutations, and
// edge locality.
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/transform.hpp"

namespace fw::graph {
namespace {

CsrGraph chain(VertexId n) {
  GraphBuilder b(n);
  for (VertexId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return std::move(b).build();
}

// --- transforms ----------------------------------------------------------------

TEST(Transform, ReverseFlipsEdges) {
  const auto g = chain(4);
  const auto r = reverse(g);
  EXPECT_EQ(r.out_degree(0), 0u);
  EXPECT_EQ(r.out_degree(3), 1u);
  EXPECT_EQ(r.neighbors(3)[0], 2u);
  EXPECT_EQ(r.num_edges(), g.num_edges());
}

TEST(Transform, ReverseIsInvolution) {
  RmatParams p;
  p.num_vertices = 256;
  p.num_edges = 2048;
  const auto g = generate_rmat(p);
  const auto rr = reverse(reverse(g));
  EXPECT_EQ(rr.offsets(), g.offsets());
  EXPECT_EQ(rr.edges(), g.edges());
}

TEST(Transform, ReversePreservesWeights) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 3.5f);
  BuildOptions opts;
  opts.keep_weights = true;
  const auto g = std::move(b).build(opts);
  const auto r = reverse(g);
  ASSERT_TRUE(r.weighted());
  EXPECT_FLOAT_EQ(r.edge_weights(1)[0], 3.5f);
}

TEST(Transform, SymmetrizeMakesDegreesMatch) {
  const auto g = chain(5);
  const auto s = symmetrize(g);
  const auto in = s.compute_in_degrees();
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(s.out_degree(v), in[v]);
}

TEST(Transform, RelabelPreservesStructure) {
  RmatParams p;
  p.num_vertices = 128;
  p.num_edges = 1024;
  const auto g = generate_rmat(p);
  const auto perm = random_order(g, 7);
  const auto h = relabel(g, perm);
  EXPECT_EQ(h.num_edges(), g.num_edges());
  // Edge (v, u) in g iff (perm[v], perm[u]) in h.
  for (VertexId v = 0; v < g.num_vertices(); v += 5) {
    for (VertexId u : g.neighbors(v)) {
      const auto nbrs = h.neighbors(perm[v]);
      EXPECT_TRUE(std::binary_search(nbrs.begin(), nbrs.end(), perm[u]));
    }
  }
}

TEST(Transform, RelabelRejectsBadPermutation) {
  const auto g = chain(4);
  EXPECT_THROW(relabel(g, {0, 1}), std::invalid_argument);
}

TEST(Transform, OrderingsArePermutations) {
  RmatParams p;
  p.num_vertices = 256;
  p.num_edges = 2048;
  const auto g = generate_rmat(p);
  for (const auto& perm : {bfs_order(g), degree_order(g), random_order(g, 3)}) {
    std::vector<bool> seen(g.num_vertices(), false);
    for (VertexId id : perm) {
      ASSERT_LT(id, g.num_vertices());
      ASSERT_FALSE(seen[id]);
      seen[id] = true;
    }
  }
}

TEST(Transform, DegreeOrderPutsHubsFirst) {
  ZipfParams p;
  p.num_vertices = 512;
  p.num_edges = 8192;
  const auto g = generate_zipf(p);
  const auto perm = degree_order(g);
  const auto h = relabel(g, perm);
  EXPECT_GE(h.out_degree(0), h.out_degree(100));
  EXPECT_GE(h.out_degree(0), h.out_degree(511));
}

TEST(Transform, BfsOrderImprovesLocalityOverRandom) {
  RmatParams p;
  p.num_vertices = 1 << 12;
  p.num_edges = 1 << 15;
  const auto g = generate_rmat(p);
  const auto bfs = relabel(g, bfs_order(g));
  const auto rnd = relabel(g, random_order(g, 5));
  constexpr VertexId kSpan = 256;
  EXPECT_GT(edge_locality(bfs, kSpan), edge_locality(rnd, kSpan));
}

TEST(Transform, EdgeLocalityBounds) {
  const auto g = chain(100);
  EXPECT_GT(edge_locality(g, 50), 0.9);  // chains are maximally local
  EXPECT_EQ(edge_locality(g, 0), 0.0);
}

}  // namespace
}  // namespace fw::graph
