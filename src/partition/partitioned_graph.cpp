#include "partition/partitioned_graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace fw::partition {

PartitionedGraph::PartitionedGraph(const graph::CsrGraph& graph, PartitionConfig config)
    : graph_(&graph), config_(config) {
  if (config_.block_capacity_bytes == 0 || config_.subgraphs_per_partition == 0 ||
      config_.subgraphs_per_range == 0) {
    throw std::invalid_argument("PartitionConfig: zero-sized parameter");
  }
  id_bytes_ = graph.id_bytes();
  const std::uint64_t bytes_per_edge =
      id_bytes_ + (config_.weighted && graph.weighted() ? sizeof(float) : 0);
  edges_per_block_ = std::max<EdgeId>(1, config_.block_capacity_bytes / bytes_per_edge);
  build_subgraphs();
  build_lookup();
  build_in_degrees();
  num_partitions_ = (num_subgraphs() + config_.subgraphs_per_partition - 1) /
                    config_.subgraphs_per_partition;
}

void PartitionedGraph::build_subgraphs() {
  const auto& g = *graph_;
  const VertexId n = g.num_vertices();

  const std::uint64_t bytes_per_edge =
      id_bytes_ + (config_.weighted && g.weighted() ? sizeof(float) : 0);
  // One offsets entry, plus the label byte when blocks carry labels.
  const std::uint64_t bytes_per_vertex_hdr =
      id_bytes_ + (config_.labeled && g.labeled() ? 1 : 0);

  auto emit = [&](VertexId low, VertexId high, EdgeId ebegin, EdgeId eend, bool dense,
                  std::uint32_t dense_idx, std::uint64_t payload) {
    Subgraph sg;
    sg.id = static_cast<SubgraphId>(subgraphs_.size());
    sg.low_vid = low;
    sg.high_vid = high;
    sg.edge_begin = ebegin;
    sg.edge_end = eend;
    sg.dense = dense;
    sg.dense_block_index = dense_idx;
    sg.payload_bytes = payload;
    subgraphs_.push_back(sg);
  };

  VertexId run_start = 0;
  EdgeId run_edge_begin = 0;
  std::uint64_t run_bytes = 0;
  bool run_open = false;

  auto close_run = [&](VertexId last) {
    if (run_open) {
      emit(run_start, last, run_edge_begin, g.offsets()[last + 1], false, 0, run_bytes);
      run_open = false;
      run_bytes = 0;
    }
  };

  for (VertexId v = 0; v < n; ++v) {
    const EdgeId deg = g.out_degree(v);
    const std::uint64_t v_bytes = bytes_per_vertex_hdr + deg * bytes_per_edge;

    if (v_bytes > config_.block_capacity_bytes) {
      // Dense vertex: flush the open run, then split v across blocks.
      if (v > 0) close_run(v - 1);
      const EdgeId per_block = edges_per_block_;
      const EdgeId base = g.offsets()[v];
      const auto blocks =
          static_cast<std::uint32_t>((deg + per_block - 1) / per_block);
      for (std::uint32_t b = 0; b < blocks; ++b) {
        const EdgeId ebegin = base + static_cast<EdgeId>(b) * per_block;
        const EdgeId eend = std::min(base + deg, ebegin + per_block);
        emit(v, v, ebegin, eend, true, b,
             bytes_per_vertex_hdr + (eend - ebegin) * bytes_per_edge);
      }
      run_start = v + 1;
      run_edge_begin = g.offsets()[v + 1];
      continue;
    }

    if (run_open && run_bytes + v_bytes > config_.block_capacity_bytes) {
      close_run(v - 1);
    }
    if (!run_open) {
      run_start = v;
      run_edge_begin = g.offsets()[v];
      run_open = true;
    }
    run_bytes += v_bytes;
  }
  if (run_open) close_run(n - 1);

  if (subgraphs_.empty() && n > 0) {
    emit(0, n - 1, 0, g.num_edges(), false, 0, 0);
  }
}

void PartitionedGraph::build_lookup() {
  const auto first_dense_block = [](const Subgraph& sg) {
    return sg.dense && sg.dense_block_index == 0;
  };
  const auto dense = std::ranges::count_if(subgraphs_, first_dense_block);
  first_vertex_.reserve(subgraphs_.size());
  dense_vertices_.reserve(static_cast<std::size_t>(dense));
  for (const Subgraph& sg : subgraphs_) {
    const auto v = static_cast<graph::NeighborId>(sg.low_vid);
    first_vertex_.push_back(v);
    if (first_dense_block(sg)) dense_vertices_.push_back(v);
  }
}

void PartitionedGraph::build_in_degrees() {
  in_degree_sums_.assign(subgraphs_.size(), 0);
  // Count each incoming edge against the subgraph owning the destination
  // (the first block of a dense vertex). A per-vertex owner table makes that
  // one read per edge, where a search per edge is markedly slower; it lives
  // only for this pass.
  std::vector<SubgraphId> owner(graph_->num_vertices(), kInvalidSubgraph);
  for (const Subgraph& sg : subgraphs_) {
    if (sg.dense_block_index != 0) continue;
    std::fill_n(&owner[sg.low_vid], sg.vertex_count(), sg.id);
  }
  for (VertexId dst : graph_->edges()) {
    const SubgraphId sg = owner[dst];
    if (sg != kInvalidSubgraph) ++in_degree_sums_[sg];
  }
}

SubgraphId PartitionedGraph::subgraph_of(VertexId v) const {
  // Subgraphs run in vertex order and share a vertex only where a dense
  // vertex's blocks do. So the first subgraph starting at v holds it (a run,
  // or the dense vertex's first block); otherwise v lies in the subgraph
  // before that one, unless it ends short of v. Only a dense vertex with no
  // edges, whose header alone overflows a block, has no subgraph.
  const auto it = std::lower_bound(first_vertex_.begin(), first_vertex_.end(), v);
  const auto idx = static_cast<SubgraphId>(it - first_vertex_.begin());
  if (it != first_vertex_.end() && *it == v) return idx;
  return idx > 0 && subgraphs_[idx - 1].high_vid >= v ? idx - 1 : kInvalidSubgraph;
}

std::pair<SubgraphId, SubgraphId> PartitionedGraph::partition_range(PartitionId p) const {
  const SubgraphId first = p * config_.subgraphs_per_partition;
  const SubgraphId last =
      std::min<SubgraphId>(num_subgraphs(), first + config_.subgraphs_per_partition);
  return {first, last};
}

std::vector<SubgraphId> PartitionedGraph::top_k_popular(
    std::span<const SubgraphId> candidates, std::size_t k) const {
  std::vector<SubgraphId> ids(candidates.begin(), candidates.end());
  k = std::min(k, ids.size());
  std::partial_sort(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(k), ids.end(),
                    [this](SubgraphId a, SubgraphId b) {
                      return in_degree_sums_[a] != in_degree_sums_[b]
                                 ? in_degree_sums_[a] > in_degree_sums_[b]
                                 : a < b;
                    });
  ids.resize(k);
  return ids;
}

}  // namespace fw::partition
