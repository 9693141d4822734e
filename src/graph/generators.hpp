// Synthetic graph generators.
//
// The paper's R2B/R8B graphs are PaRMAT R-MAT graphs; we implement the same
// recursive-matrix generator. Real graphs (Twitter / Friendster / ClueWeb)
// are replaced by scaled synthetics that preserve the structural properties
// the paper's evaluation leans on (see DESIGN.md §3): power-law degrees for
// hot subgraphs & dense vertices, and ClueWeb's high |V|/|E| sparsity.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "graph/builder.hpp"
#include "graph/csr.hpp"

namespace fw::graph {

struct RmatParams {
  VertexId num_vertices = 1 << 16;  ///< rounded up to a power of two
  EdgeId num_edges = 1 << 20;
  double a = 0.57, b = 0.19, c = 0.19;  ///< d = 1 - a - b - c (Graph500 defaults)
  double noise = 0.05;                  ///< per-level probability perturbation
  bool weighted = false;
  std::uint64_t seed = 1;
};

/// Recursive-matrix (R-MAT) generator à la PaRMAT/Graph500. Runs on
/// hardware threads; the graph does not depend on how many (rmat_edges).
/// An unweighted graph is built from 8-byte edge words (rmat_edge_words),
/// at 8 B per edge beside the CSR; a weighted one from the 24-byte edge
/// list (rmat_edges).
///
/// Parameters that would silently build a different graph throw
/// std::invalid_argument naming the field: a, b or c negative (or NaN),
/// a + b + c above 1 (d = 1 - a - b - c negative), noise outside [0, 2]
/// (a perturbed quadrant weight could go negative), and more than 2^32
/// vertices (endpoints must fit an EdgeWord). rmat_edges and
/// rmat_edge_words check the same.
CsrGraph generate_rmat(const RmatParams& params);

/// The edges generate_rmat builds a weighted graph from, in generation
/// order. Every edge takes the same number of draws, so `threads` workers
/// (0: one per 16Ki edges, at most hardware_concurrency()) each fill a
/// contiguous range from a copy of the seed's stream advanced to that
/// range's first draw. The list equals a one-thread pass over the stream
/// for any count. Unweighted params throw std::invalid_argument.
std::vector<Edge> rmat_edges(const RmatParams& params, unsigned threads = 0);

/// The same for an unweighted graph, one EdgeWord per edge: the same draws
/// less the weight, a third of the bytes. Weighted params throw
/// std::invalid_argument.
std::vector<EdgeWord> rmat_edge_words(const RmatParams& params, unsigned threads = 0);

struct ErdosRenyiParams {
  VertexId num_vertices = 1 << 14;
  EdgeId num_edges = 1 << 18;
  bool weighted = false;
  std::uint64_t seed = 1;
};

/// Uniform random (Erdős–Rényi G(n, m)) generator. More than kMaxVertices
/// vertices throw std::invalid_argument.
CsrGraph generate_erdos_renyi(const ErdosRenyiParams& params);

struct ZipfParams {
  VertexId num_vertices = 1 << 16;
  EdgeId num_edges = 1 << 20;
  double exponent = 1.8;      ///< out-degree Zipf exponent
  double hub_fraction = 0.0;  ///< extra mass routed to the first vertices
  bool weighted = false;
  std::uint64_t seed = 1;
};

/// Power-law out-degree graph with Zipf-distributed destination popularity;
/// produces the skew (a few very dense vertices) that exercises dense-vertex
/// splitting and pre-walking. Throws std::invalid_argument when edges are
/// requested on zero vertices or there are more than kMaxVertices.
CsrGraph generate_zipf(const ZipfParams& params);

/// Zipf destination sampler (shared with tests): returns a vertex with
/// probability proportional to 1 / (rank+1)^exponent via rejection-free
/// inverse-CDF over a precomputed table.
class ZipfSampler {
 public:
  ZipfSampler(VertexId n, double exponent);
  VertexId sample(Xoshiro256& rng) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace fw::graph
