// Unit tests for the graph substrate: CSR invariants, builder options,
// generators (including statistical shape), I/O round-trips, stats, and the
// scaled Table IV dataset registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/graph_stats.hpp"
#include "graph/io.hpp"

namespace fw::graph {
namespace {

CsrGraph triangle() {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  return std::move(b).build();
}

// Past the 32 bits a CSR holds a neighbor ID in.
constexpr VertexId kWideId = kMaxVertices + 5;
const std::string kWideIdText = "4294967301";

/// Expects `call` to throw Error with a message naming `value` and the
/// 32-bit limit, 2^32.
template <typename Error, typename Call>
void expect_names_limit(const Call& call, const std::string& value,
                        const std::string& what) {
  try {
    call();
    ADD_FAILURE() << what << ": accepted " << value;
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(value), std::string::npos) << what << ": " << msg;
    EXPECT_NE(msg.find("4294967296"), std::string::npos) << what << ": " << msg;
  }
}

TEST(Csr, BasicAccessors) {
  const CsrGraph g = triangle();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.out_degree(0), 1u);
  EXPECT_EQ(g.neighbors(0)[0], 1u);
  EXPECT_TRUE(g.validate().empty());
}

TEST(Csr, InDegrees) {
  GraphBuilder b(4);
  b.add_edge(0, 3);
  b.add_edge(1, 3);
  b.add_edge(2, 3);
  const CsrGraph g = std::move(b).build();
  const auto in = g.compute_in_degrees();
  EXPECT_EQ(in[3], 3u);
  EXPECT_EQ(in[0], 0u);
}

TEST(Csr, RejectsMalformedArrays) {
  EXPECT_THROW(CsrGraph({}, {}), std::invalid_argument);
  EXPECT_THROW(CsrGraph({0, 2}, {1}), std::invalid_argument);           // count mismatch
  EXPECT_THROW(CsrGraph({0, 1}, {0}, {1.0f, 2.0f}), std::invalid_argument);
}

TEST(Csr, WideConstructorNarrowsCheckedIds) {
  // The largest ID that fits reads back whole; one past 32 bits is refused
  // rather than truncated.
  const CsrGraph g({0, 1}, std::vector<VertexId>{kMaxVertices - 1});
  EXPECT_EQ(g.neighbors(0)[0], kMaxVertices - 1);
  expect_names_limit<std::out_of_range>(
      [] { (void)CsrGraph({0, 2}, std::vector<VertexId>{1, kWideId}); }, kWideIdText,
      "CsrGraph");
}

TEST(Csr, ValidateCatchesOutOfRangeEdge) {
  const CsrGraph g({0, 1}, {5});  // target 5 in a 1-vertex graph
  EXPECT_FALSE(g.validate().empty());
}

TEST(Csr, IdBytesSwitchesAt32Bits) {
  const CsrGraph g = triangle();
  EXPECT_EQ(g.id_bytes(), 4u);
}

TEST(Csr, SizeAccounting) {
  const CsrGraph g = triangle();
  EXPECT_EQ(g.csr_size_bytes(), (3 + 1) * 4u + 3 * 4u);
  EXPECT_GT(g.text_size_bytes(), 0u);
}

TEST(Builder, SortsNeighbors) {
  GraphBuilder b(3);
  b.add_edge(0, 2);
  b.add_edge(0, 1);
  const CsrGraph g = std::move(b).build();
  EXPECT_EQ(g.neighbors(0)[0], 1u);
  EXPECT_EQ(g.neighbors(0)[1], 2u);
}

TEST(Builder, Deduplicates) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  BuildOptions opts;
  opts.deduplicate = true;
  const CsrGraph g = std::move(b).build(opts);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Builder, DropsSelfLoops) {
  GraphBuilder b(2);
  b.add_edge(0, 0);
  b.add_edge(0, 1);
  BuildOptions opts;
  opts.drop_self_loops = true;
  const CsrGraph g = std::move(b).build(opts);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Builder, Symmetrizes) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  BuildOptions opts;
  opts.symmetrize = true;
  const CsrGraph g = std::move(b).build(opts);
  EXPECT_EQ(g.out_degree(0), 1u);
  EXPECT_EQ(g.out_degree(1), 1u);
}

TEST(Builder, KeepsWeights) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 2.5f);
  BuildOptions opts;
  opts.keep_weights = true;
  const CsrGraph g = std::move(b).build(opts);
  ASSERT_TRUE(g.weighted());
  EXPECT_FLOAT_EQ(g.edge_weights(0)[0], 2.5f);
}

TEST(Builder, RejectsOutOfRangeEndpoint) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(0, 2), std::out_of_range);
}

TEST(Builder, RejectsVertexIdsPast32Bits) {
  const std::string count = std::to_string(kMaxVertices + 1);
  expect_names_limit<std::invalid_argument>(
      [] { GraphBuilder b(kMaxVertices + 1); }, count, "GraphBuilder(n)");
  expect_names_limit<std::invalid_argument>(
      [] { GraphBuilder b(kMaxVertices + 1, {Edge{0, 1}}); }, count,
      "GraphBuilder(n, edges)");
  expect_names_limit<std::invalid_argument>(
      [] { (void)build_unweighted_csr(kMaxVertices + 1, {}); }, count,
      "build_unweighted_csr");
  // The full 32-bit space is allowed, so add_edge's vertex count is the
  // limit itself (nothing is built: the offsets alone would take 32 GiB).
  GraphBuilder b(kMaxVertices);
  b.add_edge(kMaxVertices - 1, 0);
  expect_names_limit<std::out_of_range>([&b] { b.add_edge(kWideId, 0); }, kWideIdText,
                                        "add_edge source");
  expect_names_limit<std::out_of_range>([&b] { b.add_edge(0, kWideId); }, kWideIdText,
                                        "add_edge destination");
  EXPECT_EQ(b.edge_count(), 1u);
}

// --- Generators ------------------------------------------------------------

TEST(Rmat, ProducesRequestedSize) {
  RmatParams p;
  p.num_vertices = 1 << 10;
  p.num_edges = 10'000;
  p.seed = 9;
  const CsrGraph g = generate_rmat(p);
  EXPECT_EQ(g.num_vertices(), 1u << 10);
  EXPECT_EQ(g.num_edges(), 10'000u);
  EXPECT_TRUE(g.validate().empty());
}

TEST(Rmat, DeterministicForSeed) {
  RmatParams p;
  p.num_vertices = 512;
  p.num_edges = 4096;
  p.seed = 42;
  const CsrGraph a = generate_rmat(p);
  const CsrGraph b = generate_rmat(p);
  EXPECT_EQ(a.edges(), b.edges());
  EXPECT_EQ(a.offsets(), b.offsets());
}

TEST(Rmat, SkewedDegreeDistribution) {
  RmatParams p;
  p.num_vertices = 1 << 12;
  p.num_edges = 1 << 16;
  p.seed = 3;
  const auto s = compute_stats(generate_rmat(p));
  // R-MAT with Graph500 params: top 1% of vertices own far more than 1%
  // of edges.
  EXPECT_GT(s.top1pct_edge_share, 0.10);
}

TEST(Rmat, WeightedEmitsPositiveWeights) {
  RmatParams p;
  p.num_vertices = 256;
  p.num_edges = 2048;
  p.weighted = true;
  const CsrGraph g = generate_rmat(p);
  ASSERT_TRUE(g.weighted());
  EXPECT_TRUE(g.validate().empty());  // validate() checks weight positivity
}

// Parameters that would silently build a different graph are refused, with
// the offending field named, while the edges of the valid range still
// generate.
TEST(Rmat, RejectsParametersThatBuildADifferentGraph) {
  // Each edge-list entry point serves one kind of graph: rmat_edges the
  // weighted, rmat_edge_words the unweighted.
  const auto expect_rejected = [](RmatParams p, const std::string& field) {
    for (int entry = 0; entry < 3; ++entry) {
      try {
        if (entry == 0) {
          (void)generate_rmat(p);
        } else if (entry == 1) {
          p.weighted = true;
          (void)rmat_edges(p);
        } else {
          p.weighted = false;
          (void)rmat_edge_words(p);
        }
        ADD_FAILURE() << field << ": accepted by entry point " << entry;
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("RmatParams." + field + " = "), std::string::npos) << what;
      }
    }
  };
  RmatParams base;
  base.num_vertices = 64;
  base.num_edges = 256;

  RmatParams p = base;
  p.a = -0.1;
  expect_rejected(p, "a");
  p = base;
  p.b = -0.01;
  expect_rejected(p, "b");
  p = base;
  p.c = std::nan("");
  expect_rejected(p, "c");
  p = base;
  p.a = 0.6;
  p.b = 0.3;
  p.c = 0.2;  // d = -0.1: the bottom-right quadrant could never be drawn
  expect_rejected(p, "a + b + c");
  p = base;
  p.noise = 2.01;  // 1 + noise * (u - 0.5) reaches below 0
  expect_rejected(p, "noise");
  p = base;
  p.noise = -0.5;
  expect_rejected(p, "noise");
  p = base;
  p.num_vertices = EdgeWord::kMaxVertices + 1;  // endpoints past 32 bits
  expect_rejected(p, "num_vertices");
  p.weighted = true;
  expect_rejected(p, "num_vertices");

  // The boundaries are valid: noise 0 and 2, d = 0, and sums that pass 1
  // only by rounding.
  for (const double noise : {0.0, 2.0}) {
    p = base;
    p.noise = noise;
    EXPECT_EQ(generate_rmat(p).num_edges(), 256u) << "noise " << noise;
  }
  p = base;
  p.a = 0.5;
  p.b = 0.25;
  p.c = 0.25;
  const CsrGraph no_d = generate_rmat(p);
  for (VertexId v = 0; v < no_d.num_vertices(); ++v) {
    for (const VertexId u : no_d.neighbors(v)) {
      EXPECT_EQ(v & u, 0u) << "edge " << v << "->" << u << " drawn from quadrant d";
    }
  }
  p.a = 0.56;
  p.b = 0.34;
  p.c = 0.1;
  ASSERT_GT(p.a + p.b + p.c, 1.0);  // by rounding, not a real excess
  EXPECT_EQ(generate_rmat(p).num_edges(), 256u);
  p = base;
  p.num_vertices = EdgeWord::kMaxVertices;
  p.num_edges = 4;
  EXPECT_EQ(rmat_edge_words(p).size(), 4u);
  EXPECT_THROW((void)rmat_edges(p), std::invalid_argument);
  p.weighted = true;
  EXPECT_EQ(rmat_edges(p).size(), 4u);
  EXPECT_THROW((void)rmat_edge_words(p), std::invalid_argument);
}

// --- R-MAT and the builder against a serial reference ------------------------

// The R-MAT generator as a plain serial loop: one stream, edges in order,
// the quadrant picked by an if/else chain. The oracle for rmat_edges and
// rmat_edge_words.
std::vector<Edge> serial_rmat_edges(const RmatParams& params) {
  const VertexId n = params.num_vertices <= 1 ? 1 : std::bit_ceil(params.num_vertices);
  const int levels = std::countr_zero(n);
  Xoshiro256 rng(params.seed);
  std::vector<Edge> edges;
  const double d = 1.0 - params.a - params.b - params.c;
  for (EdgeId e = 0; e < params.num_edges; ++e) {
    VertexId src = 0, dst = 0;
    for (int level = 0; level < levels; ++level) {
      const double na = params.a * (1.0 + params.noise * (rng.uniform() - 0.5));
      const double nb = params.b * (1.0 + params.noise * (rng.uniform() - 0.5));
      const double nc = params.c * (1.0 + params.noise * (rng.uniform() - 0.5));
      const double nd = d * (1.0 + params.noise * (rng.uniform() - 0.5));
      const double total = na + nb + nc + nd;
      const double r = rng.uniform() * total;
      src <<= 1;
      dst <<= 1;
      if (r < na) {
        // top-left: no bits set
      } else if (r < na + nb) {
        dst |= 1;
      } else if (r < na + nb + nc) {
        src |= 1;
      } else {
        src |= 1;
        dst |= 1;
      }
    }
    const float weight =
        params.weighted ? static_cast<float>(1.0 - rng.uniform() * (1.0 - 1e-6)) : 1.0f;
    edges.push_back(Edge{src, dst, weight});
  }
  return edges;
}

std::vector<EdgeWord> edge_words(const std::vector<Edge>& edges) {
  std::vector<EdgeWord> words;
  for (const Edge& e : edges) words.emplace_back(e.src, e.dst);
  return words;
}

// The CSR build as one comparator sort over all edges, whatever the
// options: the oracle for GraphBuilder::build.
CsrGraph comparator_sort_build(VertexId num_vertices, std::vector<Edge> edges,
                               const BuildOptions& opts) {
  if (opts.drop_self_loops) {
    std::erase_if(edges, [](const Edge& e) { return e.src == e.dst; });
  }
  if (opts.symmetrize) {
    const std::size_t n = edges.size();
    edges.reserve(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
      edges.push_back(Edge{edges[i].dst, edges[i].src, edges[i].weight});
    }
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  if (opts.deduplicate) {
    edges.erase(std::unique(edges.begin(), edges.end(),
                            [](const Edge& a, const Edge& b) {
                              return a.src == b.src && a.dst == b.dst;
                            }),
                edges.end());
  }
  std::vector<EdgeId> offsets(num_vertices + 1, 0);
  for (const Edge& e : edges) ++offsets[e.src + 1];
  for (std::size_t v = 1; v < offsets.size(); ++v) offsets[v] += offsets[v - 1];
  std::vector<VertexId> targets(edges.size());
  std::vector<float> weights;
  if (opts.keep_weights) weights.resize(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    targets[i] = edges[i].dst;
    if (opts.keep_weights) weights[i] = edges[i].weight;
  }
  return CsrGraph(std::move(offsets), std::move(targets), std::move(weights));
}

void expect_same_csr(const CsrGraph& got, const CsrGraph& want, const std::string& what) {
  EXPECT_EQ(got.offsets(), want.offsets()) << what;
  EXPECT_EQ(got.edges(), want.edges()) << what;
  ASSERT_EQ(got.weights().size(), want.weights().size()) << what;
  for (std::size_t i = 0; i < got.weights().size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got.weights()[i]),
              std::bit_cast<std::uint32_t>(want.weights()[i]))
        << what << ": weight " << i;
  }
}

// Edge counts that move the per-thread range boundaries and cross the
// one-thread cut-off (16Ki edges per thread).
class RmatOracle : public ::testing::TestWithParam<EdgeId> {};

TEST_P(RmatOracle, ParallelGenerationAndBuildMatchSerialReference) {
  const EdgeId m = GetParam();
  const bool large = m > (1u << 16);
  // 0 is the default thread count; the list must not depend on it.
  const std::vector<unsigned> thread_counts =
      large ? std::vector<unsigned>{0, 3} : std::vector<unsigned>{0, 1, 2, 3, 4, 7};
  for (const bool weighted : {false, true}) {
    for (const double noise : {0.0, 0.05}) {
      RmatParams p;
      p.num_vertices = 1000;  // rounds up to 1024
      p.num_edges = m;
      p.noise = noise;
      p.weighted = weighted;
      p.seed = 1234 + m;
      const std::string what = "m=" + std::to_string(m) +
                               " weighted=" + std::to_string(weighted) +
                               " noise=" + std::to_string(noise);
      const std::vector<Edge> want = serial_rmat_edges(p);
      for (const unsigned threads : thread_counts) {
        EXPECT_TRUE(weighted ? rmat_edges(p, threads) == want
                             : rmat_edge_words(p, threads) == edge_words(want))
            << what << " threads=" << threads;
      }
      BuildOptions opts;
      opts.keep_weights = weighted;
      expect_same_csr(generate_rmat(p), comparator_sort_build(1024, want, opts), what);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EdgeCounts, RmatOracle,
                         ::testing::Values(EdgeId{0}, EdgeId{1}, EdgeId{7}, EdgeId{4097},
                                           EdgeId{65'537}, EdgeId{(1u << 20) + 3}),
                         [](const auto& param_info) {
                           return std::string("m") + std::to_string(param_info.param);
                         });

// Every option combination on R-MAT edges, which carry self-loops and
// parallel edges, below and above the one-thread cut-off; the vertex space
// runs past the largest endpoint so trailing vertices are isolated.
TEST(Builder, EveryOptionMatchesComparatorSort) {
  for (const EdgeId m : {EdgeId{4097}, EdgeId{65'537}}) {
    RmatParams p;
    p.num_vertices = 1000;
    p.num_edges = m;
    p.weighted = true;
    p.seed = 5;
    const std::vector<Edge> edges = serial_rmat_edges(p);
    for (int mask = 0; mask < 16; ++mask) {
      BuildOptions opts;
      opts.deduplicate = (mask & 1) != 0;
      opts.drop_self_loops = (mask & 2) != 0;
      opts.symmetrize = (mask & 4) != 0;
      opts.keep_weights = (mask & 8) != 0;
      const std::string what =
          "m=" + std::to_string(m) + " options=" + std::to_string(mask);
      const CsrGraph want = comparator_sort_build(1030, edges, opts);
      expect_same_csr(GraphBuilder(1030, edges).build(opts), want, what);
      GraphBuilder one_by_one(1030);
      for (const Edge& e : edges) one_by_one.add_edge(e.src, e.dst, e.weight);
      expect_same_csr(std::move(one_by_one).build(opts), want, what + " add_edge");
    }
  }
}

TEST(Builder, EdgeWordsBuildWhatTheEdgeListBuilds) {
  RmatParams p;
  p.num_vertices = 1000;
  p.num_edges = 65'537;
  p.seed = 6;
  const std::vector<Edge> edges = serial_rmat_edges(p);
  for (int mask = 0; mask < 8; ++mask) {
    BuildOptions opts;
    opts.deduplicate = (mask & 1) != 0;
    opts.drop_self_loops = (mask & 2) != 0;
    opts.symmetrize = (mask & 4) != 0;
    const std::string what = "options=" + std::to_string(mask);
    expect_same_csr(build_unweighted_csr(1030, edge_words(edges), opts),
                    comparator_sort_build(1030, edges, opts), what);
  }
  BuildOptions weighted;
  weighted.keep_weights = true;
  EXPECT_THROW(build_unweighted_csr(1030, edge_words(edges), weighted),
               std::invalid_argument);
  EXPECT_THROW(build_unweighted_csr(2, {EdgeWord(0, 1), EdgeWord(1, 2)}),
               std::out_of_range);
}

TEST(Builder, EdgeListConstructorRejectsOutOfRangeEndpoint) {
  EXPECT_THROW(GraphBuilder(2, {Edge{0, 1}, Edge{2, 0}}), std::out_of_range);
  EXPECT_EQ(GraphBuilder(2, {Edge{1, 0}}).build().num_edges(), 1u);
}

TEST(ErdosRenyi, NearUniformDegrees) {
  ErdosRenyiParams p;
  p.num_vertices = 1 << 12;
  p.num_edges = 1 << 16;
  const auto s = compute_stats(generate_erdos_renyi(p));
  // Uniform graph: top 1% of vertices own close to their fair share.
  EXPECT_LT(s.top1pct_edge_share, 0.05);
}

TEST(Zipf, PowerLawOutDegrees) {
  ZipfParams p;
  p.num_vertices = 1 << 12;
  p.num_edges = 1 << 16;
  p.exponent = 1.5;
  const auto g = generate_zipf(p);
  EXPECT_EQ(g.num_edges(), p.num_edges);
  const auto s = compute_stats(g);
  EXPECT_GT(s.top1pct_edge_share, 0.3);
  EXPECT_GT(s.max_out_degree, 100u * static_cast<EdgeId>(s.avg_out_degree));
}

TEST(Zipf, RejectsEdgesOnZeroVertices) {
  ZipfParams p;
  p.num_vertices = 0;
  p.num_edges = 4;
  EXPECT_THROW(generate_zipf(p), std::invalid_argument);
  p.num_edges = 0;
  const CsrGraph g = generate_zipf(p);
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Generators, RejectVertexCountsPast32Bits) {
  // Refused before anything is drawn or allocated per vertex.
  const std::string count = std::to_string(kMaxVertices + 1);
  ZipfParams zipf;
  zipf.num_vertices = kMaxVertices + 1;
  zipf.num_edges = 4;
  expect_names_limit<std::invalid_argument>(
      [&zipf] { (void)generate_zipf(zipf); }, count, "ZipfParams");
  ErdosRenyiParams er;
  er.num_vertices = kMaxVertices + 1;
  er.num_edges = 4;
  expect_names_limit<std::invalid_argument>(
      [&er] { (void)generate_erdos_renyi(er); }, count, "ErdosRenyiParams");
}

TEST(ZipfSampler, PrefersLowRanks) {
  ZipfSampler sampler(1000, 1.5);
  Xoshiro256 rng(1);
  std::uint64_t low = 0;
  for (int i = 0; i < 10'000; ++i) {
    if (sampler.sample(rng) < 10) ++low;
  }
  EXPECT_GT(low, 3000u);  // top 1% of ranks get a large share
}

// --- I/O -------------------------------------------------------------------

TEST(Io, BinaryRoundTrip) {
  RmatParams p;
  p.num_vertices = 256;
  p.num_edges = 2048;
  p.weighted = true;
  const CsrGraph g = generate_rmat(p);
  std::stringstream ss;
  save_binary(g, ss);
  const CsrGraph g2 = load_binary(ss);
  EXPECT_EQ(g.offsets(), g2.offsets());
  EXPECT_EQ(g.edges(), g2.edges());
  EXPECT_EQ(g.weights(), g2.weights());
}

/// An FWGRAPH1 stream written field by field, not by save_binary: the
/// magic, then offsets, neighbor IDs as 8-byte words and weights, each a
/// 64-bit count followed by the raw values.
std::string fwgraph1_stream(const std::vector<std::uint64_t>& offsets,
                            const std::vector<std::uint64_t>& ids,
                            const std::vector<float>& weights) {
  std::string bytes = "FWGRAPH1";
  const auto append = [&bytes](const auto& values) {
    const std::uint64_t n = values.size();
    bytes.append(reinterpret_cast<const char*>(&n), sizeof n);
    if (n > 0) {
      bytes.append(reinterpret_cast<const char*>(values.data()), n * sizeof values[0]);
    }
  };
  append(offsets);
  append(ids);
  append(weights);
  return bytes;
}

TEST(Io, HandWrittenStreamLoadsToEqualGraph) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 0.5f);
  b.add_edge(0, 2, 1.5f);
  b.add_edge(2, 0, 2.0f);
  BuildOptions opts;
  opts.keep_weights = true;
  const CsrGraph want = std::move(b).build(opts);
  std::stringstream ss(fwgraph1_stream({0, 2, 2, 3}, {1, 2, 0}, {0.5f, 1.5f, 2.0f}));
  const CsrGraph got = load_binary(ss);
  EXPECT_EQ(got.offsets(), want.offsets());
  EXPECT_EQ(got.edges(), want.edges());
  EXPECT_EQ(got.weights(), want.weights());

  // The largest ID a CSR holds survives the 8-byte field.
  std::stringstream widest(fwgraph1_stream({0, 1}, {kMaxVertices - 1}, {}));
  EXPECT_EQ(load_binary(widest).neighbors(0)[0], kMaxVertices - 1);
}

TEST(Io, BinaryRejectsIdsPast32Bits) {
  const std::string bytes = fwgraph1_stream({0, 2}, {1, kWideId}, {});
  expect_names_limit<std::out_of_range>(
      [&bytes] {
        std::stringstream ss(bytes);
        (void)load_binary(ss);
      },
      kWideIdText, "load_binary");
}

/// FNV-1a over a byte string.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  return h;
}

// FWGRAPH1 is the on-disk form of graph files and partition bundles: the
// bytes save_binary writes do not depend on how the CSR holds IDs in
// memory. Neighbor IDs take 8 bytes each on disk.
TEST(Io, BinaryBytesArePinned) {
  struct Pin {
    bool weighted;
    std::uint64_t hash;
  };
  const Pin pins[] = {{false, 0xa6f0d09525cdf2a0ull}, {true, 0xfec83d00f3fa939aull}};
  for (const Pin& pin : pins) {
    RmatParams p;
    p.num_vertices = 64;
    p.num_edges = 512;
    p.weighted = pin.weighted;
    p.seed = 3;
    const CsrGraph g = generate_rmat(p);
    std::stringstream ss;
    save_binary(g, ss);
    const std::string bytes = ss.str();
    const std::size_t weight_bytes = pin.weighted ? 4 * p.num_edges : 0;
    EXPECT_EQ(bytes.size(), 8 + 3 * 8 + 8 * (64 + 1) + 8 * p.num_edges + weight_bytes);
    EXPECT_EQ(fnv1a(bytes), pin.hash)
        << "weighted " << pin.weighted << ": got 0x" << std::hex << fnv1a(bytes);
  }
}

/// What load_binary throws on `bytes`, or "" when it loads.
std::string load_error(const std::string& bytes) {
  std::stringstream ss(bytes);
  try {
    (void)load_binary(ss);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Io, BinaryRejectsCountsTheStreamDoesNotHold) {
  // A count is read before its values, so it cannot be trusted: the loader
  // keeps only what arrived, and an array shorter than its count fails as
  // truncated, whatever the count claimed.
  std::string huge = fwgraph1_stream({0, 1}, {0}, {});
  const std::uint64_t offsets_count = 1ull << 61;
  std::memcpy(huge.data() + 8, &offsets_count, sizeof offsets_count);
  EXPECT_EQ(load_error(huge), "graph binary: truncated array");

  // The last neighbor ID and the weights' count cut off.
  std::string short_ids = fwgraph1_stream({0, 2, 3}, {1, 2, 0}, {});
  short_ids.resize(short_ids.size() - 16);
  EXPECT_EQ(load_error(short_ids), "graph binary: truncated array");
}

TEST(Io, BinaryRejectsBadMagic) {
  std::stringstream ss;
  ss << "NOTAGRAPH-------";
  EXPECT_THROW(load_binary(ss), std::runtime_error);
}

TEST(Io, EdgeListRoundTrip) {
  const CsrGraph g = triangle();
  std::stringstream ss;
  save_edge_list(g, ss);
  const CsrGraph g2 = load_edge_list(ss);
  EXPECT_EQ(g.offsets(), g2.offsets());
  EXPECT_EQ(g.edges(), g2.edges());
}

TEST(Io, EdgeListSkipsComments) {
  std::stringstream ss("# header\n0 1\n1 0\n");
  const CsrGraph g = load_edge_list(ss);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(Io, EdgeListParsesWeights) {
  std::stringstream ss("0 1 2.5\n");
  const CsrGraph g = load_edge_list(ss);
  ASSERT_TRUE(g.weighted());
  EXPECT_FLOAT_EQ(g.edge_weights(0)[0], 2.5f);
}

TEST(Io, EdgeListRejectsGarbage) {
  std::stringstream ss("zero one\n");
  EXPECT_THROW(load_edge_list(ss), std::runtime_error);
}

TEST(Io, EdgeListRejectsIdsPast32Bits) {
  expect_names_limit<std::out_of_range>(
      [] {
        std::stringstream ss("0 1\n1 " + kWideIdText + "\n");
        (void)load_edge_list(ss);
      },
      kWideIdText, "load_edge_list");
}

// --- Datasets ----------------------------------------------------------------

TEST(Datasets, RegistryHasAllFive) {
  EXPECT_EQ(all_datasets().size(), 5u);
  EXPECT_EQ(dataset_info(DatasetId::CW).abbrev, "CW");
  EXPECT_EQ(dataset_info(DatasetId::TT).paper.edges, "1.46B");
}

struct DatasetCase {
  DatasetId id;
  const char* abbrev;
};

class DatasetShape : public ::testing::TestWithParam<DatasetCase> {};

TEST_P(DatasetShape, TestScaleIsValidAndDeterministic) {
  const auto g = make_dataset(GetParam().id, Scale::kTest);
  EXPECT_TRUE(g.validate().empty());
  EXPECT_GT(g.num_edges(), 0u);
  const auto g2 = make_dataset(GetParam().id, Scale::kTest);
  EXPECT_EQ(g.edges(), g2.edges());
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, DatasetShape,
                         ::testing::Values(DatasetCase{DatasetId::TT, "TT"},
                                           DatasetCase{DatasetId::FS, "FS"},
                                           DatasetCase{DatasetId::CW, "CW"},
                                           DatasetCase{DatasetId::R2B, "R2B"},
                                           DatasetCase{DatasetId::R8B, "R8B"}),
                         [](const auto& param_info) { return param_info.param.abbrev; });

TEST(Datasets, SizeOrderingMatchesPaper) {
  // CSR size ordering in Table IV: TT < R2B < FS < R8B < CW.
  const auto tt = make_dataset(DatasetId::TT, Scale::kTest).csr_size_bytes();
  const auto r2b = make_dataset(DatasetId::R2B, Scale::kTest).csr_size_bytes();
  const auto fs = make_dataset(DatasetId::FS, Scale::kTest).csr_size_bytes();
  const auto r8b = make_dataset(DatasetId::R8B, Scale::kTest).csr_size_bytes();
  const auto cw = make_dataset(DatasetId::CW, Scale::kTest).csr_size_bytes();
  EXPECT_LT(tt, fs);
  EXPECT_LT(fs, r8b);
  EXPECT_LT(r2b, fs);
  EXPECT_LT(r8b, cw);
}

TEST(Datasets, ClueWebIsSparse) {
  const auto s = compute_stats(make_dataset(DatasetId::CW, Scale::kTest));
  EXPECT_LT(s.avg_out_degree, 4.0);  // web-graph sparsity (paper: 1.66)
}

TEST(Datasets, TwitterIsMostSkewed) {
  const auto tt = compute_stats(make_dataset(DatasetId::TT, Scale::kTest));
  const auto cw = compute_stats(make_dataset(DatasetId::CW, Scale::kTest));
  EXPECT_GT(tt.top1pct_edge_share, cw.top1pct_edge_share);
}

// 64-bit fold of every array a CsrGraph carries, sizes included.
std::uint64_t csr_hash(const CsrGraph& g) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    h = (h ^ v) * 0x100000001b3ull;
    h ^= h >> 29;
  };
  const auto mix_all = [&mix](const auto& values) {
    for (const auto x : values) {
      if constexpr (std::is_same_v<std::decay_t<decltype(x)>, float>) {
        mix(std::bit_cast<std::uint32_t>(x));
      } else {
        mix(static_cast<std::uint64_t>(x));
      }
    }
    mix(values.size());
  };
  mix(g.num_vertices());
  mix(g.num_edges());
  mix_all(g.offsets());
  mix_all(g.edges());
  mix_all(g.weights());
  mix_all(g.labels());
  return h;
}

struct GraphPin {
  const char* name;
  VertexId vertices;
  EdgeId edges;
  std::uint64_t hash;
};

void expect_pinned(const CsrGraph& g, const GraphPin& pin) {
  EXPECT_EQ(g.num_vertices(), pin.vertices) << pin.name;
  EXPECT_EQ(g.num_edges(), pin.edges) << pin.name;
  EXPECT_EQ(csr_hash(g), pin.hash) << pin.name << ": got 0x" << std::hex << csr_hash(g);
}

// Every generated dataset at test and small scale, byte for byte: the
// generators may change how they compute a graph, never which graph.
TEST(DatasetPins, TestAndSmallScaleAreByteStable) {
  struct Case {
    DatasetId id;
    Scale scale;
    GraphPin pin;
  };
  const Case cases[] = {
      {DatasetId::TT, Scale::kTest, {"TT test", 1024, 16384, 0x3a4c1fc02afb3f2}},
      {DatasetId::FS, Scale::kTest, {"FS test", 2048, 24576, 0x5c16d042cd6bec6}},
      {DatasetId::CW, Scale::kTest, {"CW test", 32768, 49152, 0xa52f6f53fdbc977c}},
      {DatasetId::R2B, Scale::kTest, {"R2B test", 1024, 20480, 0x77b2d16f28544d77}},
      {DatasetId::R8B, Scale::kTest, {"R8B test", 4096, 49152, 0x66d1d02f333d3174}},
      {DatasetId::TT, Scale::kSmall, {"TT small", 8192, 262144, 0x1aeed16f73f5fa3e}},
      {DatasetId::FS, Scale::kSmall, {"FS small", 32768, 524288, 0x7d577e55438202cd}},
      {DatasetId::CW, Scale::kSmall, {"CW small", 262144, 458752, 0xc2681e93a04b8ebc}},
      {DatasetId::R2B, Scale::kSmall, {"R2B small", 16384, 393216, 0x950cd03fd37ea051}},
      {DatasetId::R8B, Scale::kSmall, {"R8B small", 65536, 1048576, 0xd60b62ac66e193aa}},
  };
  for (const Case& c : cases) expect_pinned(make_dataset(c.id, c.scale), c.pin);
}

TEST(DatasetPins, WeightedGeneratorsAreByteStable) {
  RmatParams rp;
  rp.num_vertices = 3000;
  rp.num_edges = 100'003;
  rp.weighted = true;
  rp.seed = 77;
  expect_pinned(generate_rmat(rp), {"weighted rmat", 4096, 100'003, 0xdc716d564e258d24});

  ZipfParams zp;
  zp.num_vertices = 3000;
  zp.num_edges = 100'003;
  zp.hub_fraction = 0.1;
  zp.weighted = true;
  zp.seed = 78;
  expect_pinned(generate_zipf(zp), {"weighted zipf", 3000, 100'003, 0x532899a20842a10c});
}

TEST(Datasets, WalkCountsFollowPaperRatios) {
  // Paper: 10^9 walks for CW vs 4x10^8 for the rest (2.5x).
  const auto cw = default_walk_count(DatasetId::CW, Scale::kBench);
  const auto tt = default_walk_count(DatasetId::TT, Scale::kBench);
  EXPECT_EQ(cw, tt * 10 / 4);
}

TEST(Stats, ZeroDegreeCounting) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  const auto s = compute_stats(std::move(b).build());
  EXPECT_EQ(s.zero_out_degree_vertices, 3u);
  EXPECT_EQ(s.max_out_degree, 1u);
}

}  // namespace
}  // namespace fw::graph
