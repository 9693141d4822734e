// Edge-list → CSR construction.
#pragma once

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

struct BuildOptions {
  bool deduplicate = false;       ///< drop parallel edges (keep first weight)
  bool drop_self_loops = false;   ///< drop (v, v)
  bool symmetrize = false;        ///< add reverse edge for every edge
  bool keep_weights = false;      ///< emit a weighted CsrGraph
};

class GraphBuilder {
 public:
  /// `num_vertices` fixes the ID space; edges referencing vertices outside
  /// it throw.
  explicit GraphBuilder(VertexId num_vertices) : num_vertices_(num_vertices) {}

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
