// Edge-list → CSR construction.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "graph/csr.hpp"

namespace fw::graph {

struct Edge {
  VertexId src;
  VertexId dst;
  float weight = 1.0f;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// An unweighted edge in one 8-byte word, a third of an Edge: the source in
/// the high 32 bits, the destination in the low 32. Both endpoints must be
/// below kMaxVertices, as in any CsrGraph.
class EdgeWord {
 public:
  static constexpr VertexId kMaxVertices = graph::kMaxVertices;

  EdgeWord() = default;
  constexpr EdgeWord(VertexId src, VertexId dst) : bits_((src << 32) | dst) {
    assert(src < kMaxVertices && dst < kMaxVertices);
  }
  [[nodiscard]] constexpr VertexId src() const { return bits_ >> 32; }
  [[nodiscard]] constexpr VertexId dst() const { return bits_ & (kMaxVertices - 1); }

  friend bool operator==(EdgeWord, EdgeWord) = default;

 private:
  std::uint64_t bits_ = 0;
};

struct BuildOptions {
  bool deduplicate = false;       ///< drop parallel edges (keep first weight)
  bool drop_self_loops = false;   ///< drop (v, v)
  bool symmetrize = false;        ///< add reverse edge for every edge
  bool keep_weights = false;      ///< emit a weighted CsrGraph
};

/// Builds an unweighted CSR straight from edge words, with the bucket
/// routine GraphBuilder::build uses for unweighted graphs: the bytes equal
/// those of GraphBuilder(num_vertices, edges).build(opts) for the same
/// edges. Endpoints outside the vertex space throw std::out_of_range;
/// opts.keep_weights (words carry no weights) and more than kMaxVertices
/// vertices throw std::invalid_argument.
CsrGraph build_unweighted_csr(VertexId num_vertices, std::vector<EdgeWord> edges,
                              const BuildOptions& opts = {});

class GraphBuilder {
 public:
  /// `num_vertices` fixes the ID space; edges referencing vertices outside
  /// it throw std::out_of_range, naming the endpoint and the vertex count.
  /// More than kMaxVertices vertices throw std::invalid_argument.
  explicit GraphBuilder(VertexId num_vertices);

  /// Takes a finished edge list whole, e.g. one a generator sized exactly;
  /// endpoints are checked as add_edge checks them.
  GraphBuilder(VertexId num_vertices, std::vector<Edge> edges);

  void add_edge(VertexId src, VertexId dst, float weight = 1.0f);

  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }

  /// Consumes the accumulated edges and produces a CSR graph with neighbor
  /// lists sorted by destination ID. Unweighted graphs are bucketed by
  /// source in linear time and their lists sorted in parallel; weighted
  /// graphs keep one comparator sort over all edges, which fixes the order
  /// of parallel edges' weights.
  CsrGraph build(const BuildOptions& opts = {}) &&;

 private:
  VertexId num_vertices_;
  std::vector<Edge> edges_;
};

}  // namespace fw::graph
