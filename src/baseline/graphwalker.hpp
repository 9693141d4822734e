// GraphWalker baseline (Wang et al., ATC '20) — our reimplementation of its
// two published ideas (paper §II.B):
//   1. asynchronous walk updating — a loaded block's walks keep hopping
//      until they leave the block or terminate (no iteration barrier);
//   2. state-aware scheduling — always load the block holding the most
//      walks next.
// Runs on the HostConfig CPU/memory model with all I/O through the shared
// simulated SSD (SsdDevice: flash planes → ONFI channels → PCIe).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "baseline/host_model.hpp"
#include "common/rng.hpp"
#include "partition/partitioned_graph.hpp"
#include "rw/sampler.hpp"
#include "rw/spec.hpp"
#include "rw/walk.hpp"
#include "ssd/nvme.hpp"
#include "ssd/ssd_device.hpp"

namespace fw::baseline {

struct BaselineResult {
  Tick exec_time = 0;
  TimeBreakdown breakdown;

  std::uint64_t walks_started = 0;
  std::uint64_t walks_completed = 0;
  std::uint64_t total_hops = 0;
  std::uint64_t dead_ends = 0;

  std::uint64_t block_loads = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t bytes_read = 0;     ///< host reads (graph + walks)
  std::uint64_t bytes_written = 0;  ///< walk spills
  ssd::NvmeStats nvme;              ///< HIL command statistics
  std::uint64_t flash_read_bytes = 0;  ///< at the planes (Fig 6 comparison)

  [[nodiscard]] double read_mb_per_s() const {
    return bandwidth_mb_per_s(flash_read_bytes, exec_time);
  }

  std::vector<std::uint64_t> visit_counts;
};

struct GraphWalkerOptions {
  HostConfig host;
  ssd::SsdConfig ssd;
  ssd::NvmeConfig nvme;  ///< host I/O goes through the NVMe HIL model
  rw::WalkSpec spec;
  bool record_visits = true;
};

class GraphWalkerEngine {
 public:
  GraphWalkerEngine(const graph::CsrGraph& graph, GraphWalkerOptions options);
  ~GraphWalkerEngine();

  BaselineResult run();

  [[nodiscard]] std::uint32_t num_blocks() const;

 private:
  struct BlockState {
    std::vector<rw::Walk> walks;
    std::uint64_t spilled_bytes = 0;  ///< walk bytes currently on disk
    bool cached = false;
    std::uint64_t lru_stamp = 0;
  };

  std::uint32_t block_of(VertexId v) const;
  void ensure_cached(std::uint32_t block);
  void hop_walks_in_block(std::uint32_t block);

  const graph::CsrGraph* graph_;
  GraphWalkerOptions opt_;
  /// opt_.spec.length as the hop counter's start value (rw::hop_count).
  std::uint16_t hops_;
  std::unique_ptr<partition::PartitionedGraph> blocks_view_;  ///< block layout
  std::unique_ptr<ssd::FlashArray> flash_;
  std::unique_ptr<ssd::SsdDevice> ssd_;
  std::unique_ptr<ssd::NvmeInterface> nvme_;
  std::unique_ptr<rw::ItsTable> its_;

  std::vector<BlockState> blocks_;
  std::uint64_t cached_bytes_ = 0;
  std::uint64_t lru_clock_ = 0;
  std::uint64_t spill_buffered_ = 0;
  std::uint64_t remaining_walks_ = 0;

  Tick now_ = 0;
  Xoshiro256 rng_;
  BaselineResult result_;
};

}  // namespace fw::baseline
