// The partitioned view of a graph: subgraph list, partition boundaries, and
// per-subgraph popularity (in-degree sums) used for hot-subgraph selection.
// Like the modeled board, it keeps no per-vertex table: a vertex's subgraph
// is found by searching the subgraphs' first vertices, and dense vertices
// are a sorted list.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "partition/graph_block.hpp"

namespace fw::partition {

class PartitionedGraph {
 public:
  PartitionedGraph(const graph::CsrGraph& graph, PartitionConfig config);

  [[nodiscard]] const graph::CsrGraph& graph() const { return *graph_; }
  [[nodiscard]] const PartitionConfig& config() const { return config_; }

  [[nodiscard]] const std::vector<Subgraph>& subgraphs() const { return subgraphs_; }
  [[nodiscard]] std::uint32_t num_subgraphs() const {
    return static_cast<std::uint32_t>(subgraphs_.size());
  }
  [[nodiscard]] const Subgraph& subgraph(SubgraphId id) const { return subgraphs_[id]; }

  [[nodiscard]] std::uint32_t num_partitions() const { return num_partitions_; }
  [[nodiscard]] PartitionId partition_of(SubgraphId sg) const {
    return sg / config_.subgraphs_per_partition;
  }
  /// Subgraph ID range [first, last) of a partition.
  [[nodiscard]] std::pair<SubgraphId, SubgraphId> partition_range(PartitionId p) const;

  /// Exact subgraph containing `v` (the first block for a dense vertex), or
  /// kInvalidSubgraph when none does. This is simulator-side ground truth;
  /// accelerator-visible lookups with timing go through SubgraphMappingTable.
  [[nodiscard]] SubgraphId subgraph_of(VertexId v) const;

  /// Whether `v` is split across graph blocks (pre-walked at the board).
  [[nodiscard]] bool is_dense_vertex(VertexId v) const {
    return std::binary_search(dense_vertices_.begin(), dense_vertices_.end(), v);
  }

  /// Edges per graph block — size(gb) in the paper's pre-walking formula.
  [[nodiscard]] EdgeId edges_per_block() const { return edges_per_block_; }

  /// Sum of in-degrees of vertices in each subgraph — the popularity metric
  /// behind "store a few subgraphs with top in-degrees" (paper §I, §III.C).
  [[nodiscard]] const std::vector<std::uint64_t>& subgraph_in_degrees() const {
    return in_degree_sums_;
  }

  /// The K most popular subgraph IDs among `candidates` (by in-degree sum).
  [[nodiscard]] std::vector<SubgraphId> top_k_popular(std::span<const SubgraphId> candidates,
                                                      std::size_t k) const;

  [[nodiscard]] std::size_t id_bytes() const { return id_bytes_; }

 private:
  void build_subgraphs();
  void build_lookup();
  void build_in_degrees();

  const graph::CsrGraph* graph_;
  PartitionConfig config_;
  std::size_t id_bytes_;
  EdgeId edges_per_block_;
  std::uint32_t num_partitions_ = 0;
  std::vector<Subgraph> subgraphs_;
  std::vector<graph::NeighborId> first_vertex_;    ///< low_vid of each subgraph
  std::vector<graph::NeighborId> dense_vertices_;  ///< ascending
  std::vector<std::uint64_t> in_degree_sums_;
};

}  // namespace fw::partition
