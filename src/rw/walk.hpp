// Walk state (paper §III.B): "a walk w's state includes the ID of its source
// vertex, the offset of the current vertex in the subgraph, and the number
// of hops, indicated by w.src, w.cur, and w.hop."
//
// We carry the full current-vertex ID (the offset form is a storage
// optimization the byte-accounting reflects instead) plus the transient
// routing fields the accelerators attach: the approximate-search range tag
// and the pre-walked destination block for dense walks.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/types.hpp"
#include "graph/csr.hpp"

namespace fw::rw {

inline constexpr std::uint32_t kNoRangeTag = ~0u;

/// Longest walk the record's 15-bit hop counter holds.
inline constexpr std::uint32_t kMaxWalkLength = (1u << 15) - 1;

struct Walk {
  // Every buffer, queue and flash-resident list holds walks by value, so
  // this record is the host memory per live walk. It packs into 40 bytes:
  // vertex IDs at the CSR's 4-byte width, then the 8-byte fields, then the
  // 4- and 2-byte ones, with the hop counter and `parked` sharing a word.
  /// Source and current vertex, held as graph::NeighborId: every graph has
  /// at most graph::kMaxVertices vertices. Reads widen to VertexId.
  graph::NeighborId src = 0;
  graph::NeighborId cur = 0;
  /// Model-owned carried state (WalkModel::init_state/update): the previous
  /// vertex for second-order models (node2vec, autoreg), the residual-mass
  /// bits for early-termination PPR, unused otherwise. Its modeled size is
  /// WalkModel::state_bytes(), not sizeof — byte accounting charges the max
  /// over co-scheduled jobs.
  std::uint64_t state = 0;
  /// Per-walk RNG stream (simulation-side, like `id`): sampling draws come
  /// from the walk's own stream, so its path depends only on (seed, id, hop)
  /// — never on how timing interleaves walks. This is what keeps walk output
  /// invariant under fault-injected (retry/recovery) schedules.
  std::uint64_t rng_state = 0;
  /// Simulation-side identity (used for optional path recording; not part
  /// of the modeled on-flash state, so it never enters byte accounting).
  /// Globally unique across jobs: job `walk_base` + local walk index.
  std::uint32_t id = 0;
  /// Range ID attached by the channel-level approximate walk search; the
  /// board-level guider then searches only that slice of the mapping table.
  std::uint32_t range_tag = kNoRangeTag;
  /// For a dense walk: the subgraph (graph block) pre-walking selected.
  SubgraphId prewalked_sg = kInvalidSubgraph;
  /// Owning walk job (index into the engine's job table). Single-workload
  /// runs use the implicit job 0. Rides along for per-job walk-model
  /// dispatch, fair-share accounting, and per-job output attribution; like
  /// `id` it is simulation-side and never enters byte accounting.
  std::uint16_t job = 0;
  /// Hops still to take, at most kMaxWalkLength; start it with hop_count().
  std::uint16_t hops_left : 15 = 0;
  /// Set while the walk sits parked behind a retrying subgraph load; cleared
  /// on its next update. A walk parks at most once per hop, so retries delay
  /// but can never livelock it.
  bool parked : 1 = false;

  [[nodiscard]] bool finished() const { return hops_left == 0; }
};
static_assert(sizeof(Walk) == 40, "rw::Walk is a 40-byte record");

/// A walk length as the hop counter's start value. Throws
/// std::invalid_argument naming `length` and the range 1 to kMaxWalkLength
/// when the counter cannot hold it. Length 0 is rejected too: the first
/// hop's decrement would wrap the counter to kMaxWalkLength.
inline std::uint16_t hop_count(std::uint32_t length) {
  if (length >= 1 && length <= kMaxWalkLength) return static_cast<std::uint16_t>(length);
  throw std::invalid_argument(std::string("walk length ") + std::to_string(length) +
                              " is outside the range 1 to the limit of " +
                              std::to_string(kMaxWalkLength));
}

/// On-flash / in-buffer footprint of one walk: src + cur + hop counter.
/// Dense walks stored in a dense subgraph's buffer entry omit `cur` (it is
/// implied by the entry), which is the β asymmetry in the scheduler's Eq. 1.
constexpr std::uint64_t walk_bytes(std::size_t id_bytes, bool dense = false) {
  return (dense ? 1 : 2) * static_cast<std::uint64_t>(id_bytes) + 2;
}

}  // namespace fw::rw
