// DrunkardMob/GraphChi-style iteration-synchronous baseline (paper §II.B's
// "drawbacks of existing systems"): every iteration streams the graph
// blocks that contain walks, advances each walk exactly ONE hop, and writes
// updated walks back before the next iteration may start. The iteration
// barrier is what GraphWalker (and FlashWalker) remove.
#pragma once

#include <cstdint>
#include <memory>

#include "baseline/graphwalker.hpp"  // BaselineResult, HostConfig

namespace fw::baseline {

struct DrunkardMobOptions {
  HostConfig host;
  ssd::SsdConfig ssd;
  ssd::NvmeConfig nvme;
  rw::WalkSpec spec;
  bool record_visits = true;
};

class DrunkardMobEngine {
 public:
  DrunkardMobEngine(const graph::CsrGraph& graph, DrunkardMobOptions options);
  ~DrunkardMobEngine();

  BaselineResult run();

 private:
  const graph::CsrGraph* graph_;
  DrunkardMobOptions opt_;
  /// opt_.spec.length as the hop counter's start value (rw::hop_count).
  std::uint16_t hops_;
  std::unique_ptr<partition::PartitionedGraph> blocks_view_;
  std::unique_ptr<ssd::FlashArray> flash_;
  std::unique_ptr<ssd::SsdDevice> ssd_;
  std::unique_ptr<ssd::NvmeInterface> nvme_;
  std::unique_ptr<rw::ItsTable> its_;
  Xoshiro256 rng_;
};

}  // namespace fw::baseline
