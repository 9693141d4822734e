// GraphSSD-style baseline (Matam et al., ISCA '19 — cited by the paper's
// related work): the SSD understands graph semantics and serves
// "get-neighbors(v)" directly, but the *walk logic stays on the host*.
// Each hop whose neighbor page is not host-cached costs one small NVMe read.
//
// This isolates the paper's actual contribution: graph-semantic storage
// removes the block-granularity waste GraphWalker suffers, yet every hop
// still crosses flash → channel → PCIe and pays NVMe latency, whereas
// FlashWalker moves the hop itself into the SSD.
#pragma once

#include <cstdint>
#include <memory>

#include "baseline/graphwalker.hpp"  // BaselineResult, HostConfig

namespace fw::baseline {

struct GraphSsdOptions {
  HostConfig host;
  ssd::SsdConfig ssd;
  ssd::NvmeConfig nvme;
  rw::WalkSpec spec;
  bool record_visits = true;
};

class GraphSsdEngine {
 public:
  GraphSsdEngine(const graph::CsrGraph& graph, GraphSsdOptions options);
  ~GraphSsdEngine();

  BaselineResult run();

  /// Host page-cache hits observed (neighbor pages re-read for free).
  [[nodiscard]] std::uint64_t cache_hits() const { return cache_hits_; }

 private:
  /// Flash page holding v's neighbor list (CSR edge offset / page size).
  [[nodiscard]] std::uint64_t page_of(VertexId v) const;

  const graph::CsrGraph* graph_;
  GraphSsdOptions opt_;
  /// opt_.spec.length as the hop counter's start value (rw::hop_count).
  std::uint16_t hops_;
  std::unique_ptr<ssd::FlashArray> flash_;
  std::unique_ptr<ssd::SsdDevice> ssd_;
  std::unique_ptr<ssd::NvmeInterface> nvme_;
  std::unique_ptr<rw::ItsTable> its_;
  Xoshiro256 rng_;
  std::uint64_t cache_hits_ = 0;
};

}  // namespace fw::baseline
