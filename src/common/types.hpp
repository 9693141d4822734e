// Core scalar types shared by every FlashWalker module.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fw {

/// Vertex identifier. 64-bit in the API because ClueWeb-class graphs exceed
/// the 4-byte ID range (paper §IV.A); storage-size accounting charges 4-byte
/// IDs to graphs that fit in 32 bits. The host CSR stores neighbor IDs in
/// 4 bytes, so graphs built here have at most 2^32 vertices.
using VertexId = std::uint64_t;

/// Index into a CSR edges array.
using EdgeId = std::uint64_t;

/// Subgraph (graph-block) identifier, dense from 0 within a graph.
using SubgraphId = std::uint32_t;

/// Graph-partition identifier (a partition is a fixed-size run of subgraphs).
using PartitionId = std::uint32_t;

/// Simulated time in nanoseconds.
using Tick = std::uint64_t;

inline constexpr VertexId kInvalidVertex = ~VertexId{0};
inline constexpr SubgraphId kInvalidSubgraph = ~SubgraphId{0};

}  // namespace fw
