#include "graph/csr.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/rng.hpp"

namespace fw::graph {

void check_vertex_id(VertexId id, std::string_view where) {
  if (id < kMaxVertices) return;
  throw std::out_of_range(std::string(where) + ": vertex ID " + std::to_string(id) +
                          " does not fit 32 bits (IDs must be below " +
                          std::to_string(kMaxVertices) + ")");
}

void check_vertex_count(VertexId num_vertices, std::string_view where) {
  if (num_vertices <= kMaxVertices) return;
  throw std::invalid_argument(std::string(where) + ": " + std::to_string(num_vertices) +
                              " vertices pass the 32-bit ID limit of " +
                              std::to_string(kMaxVertices));
}

std::vector<NeighborId> CsrGraph::narrow(std::span<const VertexId> ids) {
  std::vector<NeighborId> out(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    check_vertex_id(ids[i], "CsrGraph");
    out[i] = static_cast<NeighborId>(ids[i]);
  }
  return out;
}

CsrGraph::CsrGraph(std::vector<EdgeId> offsets, std::vector<NeighborId> edges,
                   std::vector<float> weights)
    : offsets_(std::move(offsets)), edges_(std::move(edges)), weights_(std::move(weights)) {
  if (offsets_.empty()) {
    throw std::invalid_argument("CsrGraph: offsets must have at least one entry");
  }
  check_vertex_count(offsets_.size() - 1, "CsrGraph");
  if (offsets_.back() != edges_.size()) {
    throw std::invalid_argument("CsrGraph: offsets.back() != edges.size()");
  }
  if (!weights_.empty() && weights_.size() != edges_.size()) {
    throw std::invalid_argument("CsrGraph: weights must be empty or match edges");
  }
}

void CsrGraph::set_labels(std::vector<std::uint8_t> labels) {
  if (labels.size() != num_vertices()) {
    throw std::invalid_argument("CsrGraph: labels must match num_vertices");
  }
  labels_ = std::move(labels);
}

void CsrGraph::assign_hashed_labels(std::uint8_t num_labels, std::uint64_t seed) {
  if (num_labels == 0) {
    throw std::invalid_argument("CsrGraph: need at least one label class");
  }
  std::vector<std::uint8_t> labels(num_vertices());
  for (VertexId v = 0; v < labels.size(); ++v) {
    // One SplitMix64 step per vertex: position-independent, so the labeling
    // of a vertex never depends on graph size or traversal order.
    SplitMix64 h(seed ^ (v * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull));
    labels[v] = static_cast<std::uint8_t>(h.next() % num_labels);
  }
  labels_ = std::move(labels);
}

std::vector<EdgeId> CsrGraph::compute_in_degrees() const {
  std::vector<EdgeId> in(num_vertices(), 0);
  for (VertexId dst : edges_) {
    if (dst < in.size()) ++in[dst];
  }
  return in;
}

std::uint64_t CsrGraph::csr_size_bytes() const {
  const std::uint64_t id = id_bytes();
  // Offsets need one more byte class than IDs when E > 4B, but we keep the
  // simple convention the paper's Table IV implies: offsets at 8 bytes for
  // 8-byte-ID graphs, else 4 (plus 8-byte offsets whenever E overflows).
  const std::uint64_t off = (num_edges() > 0xFFFFFFFFull) ? 8 : id;
  std::uint64_t size = (num_vertices() + 1) * off + num_edges() * id;
  if (weighted()) size += num_edges() * sizeof(float);
  return size;
}

std::uint64_t CsrGraph::text_size_bytes() const {
  // "src dst\n" per edge with average decimal width of a vertex ID.
  const double digits =
      num_vertices() <= 1 ? 1.0 : std::ceil(std::log10(static_cast<double>(num_vertices())));
  const double per_edge = 2.0 * digits + 2.0;  // separator + newline
  return static_cast<std::uint64_t>(per_edge * static_cast<double>(num_edges()));
}

std::string CsrGraph::validate() const {
  if (offsets_.empty()) return "offsets empty";
  if (offsets_.front() != 0) return "offsets[0] != 0";
  for (std::size_t i = 1; i < offsets_.size(); ++i) {
    if (offsets_[i] < offsets_[i - 1]) return "offsets not monotone at " + std::to_string(i);
  }
  if (offsets_.back() != edges_.size()) return "offsets.back() != edges.size()";
  const VertexId n = num_vertices();
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (edges_[i] >= n) return "edge target out of range at " + std::to_string(i);
  }
  if (!labels_.empty() && labels_.size() != n) return "labels size mismatch";
  if (!weights_.empty()) {
    if (weights_.size() != edges_.size()) return "weights size mismatch";
    for (std::size_t i = 0; i < weights_.size(); ++i) {
      if (!(weights_[i] > 0.0f)) return "non-positive weight at " + std::to_string(i);
    }
  }
  return {};
}

}  // namespace fw::graph
