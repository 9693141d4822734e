// KnightKing-style distributed random-walk baseline (Yang et al., SOSP '19
// — cited §V as the distributed engine). Completes the comparator set:
// DrunkardMob (out-of-core, iteration-synchronous), GraphWalker
// (out-of-core, asynchronous), ThunderRW (in-memory, single node), and this
// (in-memory, distributed).
//
// Model: W workers each own a contiguous vertex range with their partition
// resident in memory. Execution proceeds in super-steps: every worker
// advances its resident walkers one hop (parallel compute), then walkers
// whose new vertex lives elsewhere are exchanged over the network (per-
// worker NIC bandwidth + per-batch latency, KnightKing's walker-batching).
// Makespan per super-step is the slowest worker's compute plus the slowest
// exchange.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "baseline/graphwalker.hpp"  // BaselineResult, HostConfig

namespace fw::baseline {

struct KnightKingOptions {
  std::uint32_t workers = 4;
  /// Per-worker walk-update rate (in-memory, multi-core per worker).
  Tick ns_per_hop = 25;
  /// Per-worker NIC line rate (decimal MB/s; 10 GbE ≈ 1250).
  std::uint64_t nic_mb_per_s = 1250;
  /// Per-super-step message latency (batching amortizes per-walker cost).
  Tick net_latency = 50 * kUs;
  rw::WalkSpec spec;
  bool record_visits = true;
};

struct KnightKingResult {
  BaselineResult base;
  std::uint64_t supersteps = 0;
  std::uint64_t forwarded_walkers = 0;  ///< cross-worker moves
  std::uint64_t network_bytes = 0;
  Tick compute_time = 0;
  Tick network_time = 0;

  [[nodiscard]] double forward_fraction() const {
    return base.total_hops == 0 ? 0.0
                                : static_cast<double>(forwarded_walkers) /
                                      static_cast<double>(base.total_hops);
  }
};

class KnightKingEngine {
 public:
  KnightKingEngine(const graph::CsrGraph& graph, KnightKingOptions options);

  KnightKingResult run();

  /// Worker owning vertex `v` (contiguous range partitioning).
  [[nodiscard]] std::uint32_t worker_of(VertexId v) const;

 private:
  const graph::CsrGraph* graph_;
  KnightKingOptions opt_;
  /// opt_.spec.length as the hop counter's start value (rw::hop_count).
  std::uint16_t hops_;
  VertexId vertices_per_worker_;
  std::unique_ptr<rw::ItsTable> its_;
  Xoshiro256 rng_;
};

}  // namespace fw::baseline
