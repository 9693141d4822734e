// Compressed Sparse Row graph — the storage format FlashWalker keeps in
// flash (paper §III.B: "A subgraph is stored in CSR format, which contains
// an offsets array and an edges array"). The host copy holds each neighbor
// ID in the 4 bytes id_bytes() charges for it, half a VertexId, so a graph
// has at most kMaxVertices vertices; reads widen to VertexId.
#pragma once

#include <concepts>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace fw::graph {

/// How a CsrGraph stores a neighbor ID.
using NeighborId = std::uint32_t;

/// The vertex-count limit the 32-bit neighbor array sets: IDs lie below it.
inline constexpr VertexId kMaxVertices = VertexId{1} << 32;

/// Throws std::out_of_range naming `where`, `id` and kMaxVertices unless
/// `id` fits a NeighborId.
void check_vertex_id(VertexId id, std::string_view where);

/// Throws std::invalid_argument naming `where`, `num_vertices` and
/// kMaxVertices when the vertex count passes the limit.
void check_vertex_count(VertexId num_vertices, std::string_view where);

class CsrGraph {
 public:
  CsrGraph() = default;

  /// Takes ownership of pre-built CSR arrays. `offsets.size()` must be
  /// `num_vertices + 1`, at most kMaxVertices + 1; `weights` is empty
  /// (unweighted) or `edges.size()`.
  CsrGraph(std::vector<EdgeId> offsets, std::vector<NeighborId> edges,
           std::vector<float> weights = {});

  /// The same from 64-bit IDs, narrowed one by one: an ID at or past
  /// kMaxVertices throws std::out_of_range. A template so that braced lists
  /// pick the constructor above.
  template <std::same_as<VertexId> Id>
  CsrGraph(std::vector<EdgeId> offsets, const std::vector<Id>& edges,
           std::vector<float> weights = {})
      : CsrGraph(std::move(offsets), narrow(edges), std::move(weights)) {}

  [[nodiscard]] VertexId num_vertices() const {
    return offsets_.empty() ? 0 : static_cast<VertexId>(offsets_.size() - 1);
  }
  [[nodiscard]] EdgeId num_edges() const {
    return offsets_.empty() ? 0 : offsets_.back();
  }
  [[nodiscard]] bool weighted() const { return !weights_.empty(); }

  [[nodiscard]] EdgeId out_degree(VertexId v) const {
    return offsets_[v + 1] - offsets_[v];
  }
  [[nodiscard]] std::span<const NeighborId> neighbors(VertexId v) const {
    return {edges_.data() + offsets_[v], static_cast<std::size_t>(out_degree(v))};
  }
  [[nodiscard]] std::span<const float> edge_weights(VertexId v) const {
    return {weights_.data() + offsets_[v], static_cast<std::size_t>(out_degree(v))};
  }

  [[nodiscard]] const std::vector<EdgeId>& offsets() const { return offsets_; }
  [[nodiscard]] const std::vector<NeighborId>& edges() const { return edges_; }
  [[nodiscard]] const std::vector<float>& weights() const { return weights_; }

  /// Optional per-vertex labels (heterogeneous graphs; metapath walks).
  [[nodiscard]] bool labeled() const { return !labels_.empty(); }
  [[nodiscard]] std::uint8_t label(VertexId v) const { return labels_[v]; }
  [[nodiscard]] const std::vector<std::uint8_t>& labels() const { return labels_; }

  /// Attach per-vertex labels; size must equal num_vertices().
  void set_labels(std::vector<std::uint8_t> labels);

  /// Deterministic synthetic labeling: label(v) = hash(seed, v) % num_labels.
  /// Keeps generated datasets reproducible across runs and platforms.
  void assign_hashed_labels(std::uint8_t num_labels, std::uint64_t seed);

  /// In-degree of every vertex (one O(E) pass; used to rank hot subgraphs).
  [[nodiscard]] std::vector<EdgeId> compute_in_degrees() const;

  /// Bytes per vertex ID when stored: 4 unless IDs exceed 32 bits
  /// (ClueWeb-class graphs; paper §IV.A).
  [[nodiscard]] std::size_t id_bytes() const {
    return num_vertices() > 0xFFFFFFFFull ? 8 : 4;
  }

  /// On-flash CSR footprint: offsets + edges (+ weights if any).
  [[nodiscard]] std::uint64_t csr_size_bytes() const;

  /// Estimated size as a text edge list (for Table IV's "Text Size" column).
  [[nodiscard]] std::uint64_t text_size_bytes() const;

  /// Structural validation; returns an empty string when well formed,
  /// otherwise a description of the first violation.
  [[nodiscard]] std::string validate() const;

 private:
  static std::vector<NeighborId> narrow(std::span<const VertexId> ids);

  std::vector<EdgeId> offsets_;        // num_vertices + 1, non-decreasing
  std::vector<NeighborId> edges_;      // neighbor lists, concatenated
  std::vector<float> weights_;         // empty or parallel to edges_
  std::vector<std::uint8_t> labels_;   // empty or num_vertices
};

}  // namespace fw::graph
