// Host-machine model for the software baselines (substitution, DESIGN.md
// §3.4): GraphWalker ran on an 8-core Ryzen 3700X @3.6 GHz with 32 GB DRAM
// (capped to 4/8/16 GB for the projection study) and a PCIe3 x4 NVMe SSD.
// We model the CPU as an aggregate walk-update rate and the memory as a
// block cache capacity, and route all I/O through the same simulated SSD
// the in-storage engine uses — so the comparison isolates architecture.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/types.hpp"
#include "common/units.hpp"
#include "rw/spec.hpp"

namespace fw::baseline {

struct HostConfig {
  std::uint32_t cores = 8;
  /// Single-thread cost of one walk update: random neighbor access plus
  /// GraphWalker's per-walk bucket management. 400 ns single-thread
  /// (50 ns effective across 8 cores, i.e. 2x10^7 hops/s) matches the
  /// compute-only rates GraphWalker reports.
  Tick ns_per_hop = 400;
  /// Graph block cache capacity. Paper default 8 GB against 5.8–95 GB
  /// graphs; the scaled default keeps the same graph:memory ratios against
  /// the scaled datasets (TT fits, FS ~1.6x, CW ~7x).
  std::uint64_t memory_bytes = 6 * MiB;
  /// GraphWalker's on-disk block granularity (paper: ~1 GB for ClueWeb;
  /// scaled to preserve blocks-per-graph).
  std::uint64_t block_bytes = 1 * MiB;
  /// Walk-spill write buffer: walks whose destination block is not cached
  /// are appended to per-block walk files through this buffer.
  std::uint64_t spill_buffer_bytes = 256 * KiB;

  [[nodiscard]] Tick effective_ns_per_hop() const {
    return ns_per_hop / (cores == 0 ? 1 : cores);
  }
};

/// Execution-time breakdown (paper Fig. 1's categories).
struct TimeBreakdown {
  Tick graph_load = 0;
  Tick walk_load = 0;
  Tick walk_write = 0;
  Tick compute = 0;

  [[nodiscard]] Tick total() const {
    return graph_load + walk_load + walk_write + compute;
  }
};

/// The baselines step first-order walks only. Throws std::invalid_argument
/// naming `engine` for a second-order (node2vec) spec, which it would
/// otherwise run as DeepWalk.
inline void require_first_order(const rw::WalkSpec& spec, std::string_view engine) {
  if (spec.second_order.enabled) {
    throw std::invalid_argument(std::string(engine) +
                                ": second-order (node2vec) walks are not supported");
  }
}

}  // namespace fw::baseline
