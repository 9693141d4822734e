#include "baseline/thunder.hpp"

#include <stdexcept>

namespace fw::baseline {

ThunderEngine::ThunderEngine(const graph::CsrGraph& graph, ThunderOptions options)
    : graph_(&graph), opt_(std::move(options)), rng_(opt_.spec.seed) {
  require_first_order(opt_.spec, "ThunderRW");
  // The hop loop counts in 32 bits, but lengths follow the other engines'
  // walk-record limit, 1 to rw::kMaxWalkLength.
  (void)rw::hop_count(opt_.spec.length);
  if (graph.csr_size_bytes() > opt_.host.memory_bytes) {
    throw std::invalid_argument(
        "ThunderEngine: graph exceeds host memory (in-memory engine; use "
        "GraphWalkerEngine for out-of-core workloads)");
  }
  flash_ = std::make_unique<ssd::FlashArray>(opt_.ssd);
  ssd_ = std::make_unique<ssd::SsdDevice>(*flash_);
  nvme_ = std::make_unique<ssd::NvmeInterface>(*ssd_, opt_.nvme);
  if (opt_.spec.biased) {
    if (!graph.weighted()) {
      throw std::invalid_argument("biased walk requires a weighted graph");
    }
    its_ = std::make_unique<rw::ItsTable>(graph);
  }
}

ThunderEngine::~ThunderEngine() = default;

BaselineResult ThunderEngine::run() {
  BaselineResult result;
  if (opt_.record_visits) result.visit_counts.assign(graph_->num_vertices(), 0);

  // One-time full-graph load over NVMe.
  Tick now = 0;
  const Tick load_start = now;
  now = nvme_->read(now, 0, graph_->csr_size_bytes());
  result.breakdown.graph_load = now - load_start;
  result.bytes_read = graph_->csr_size_bytes();
  ++result.block_loads;

  // All walks execute in memory; interleaved stepping amortizes DRAM misses
  // so the per-hop rate beats the out-of-core engines.
  const Tick per_hop =
      opt_.ns_per_hop_interleaved / (opt_.host.cores == 0 ? 1 : opt_.host.cores);
  const VertexId n = graph_->num_vertices();

  auto one_walk = [&](VertexId start) {
    ++result.walks_started;
    VertexId cur = start;
    for (std::uint32_t hop = 0; hop < opt_.spec.length; ++hop) {
      if (opt_.spec.stop_prob > 0.0 && rng_.chance(opt_.spec.stop_prob)) break;
      rw::SampleResult s = its_ ? its_->sample(*graph_, cur, rng_)
                                : rw::sample_unbiased(*graph_, cur, rng_);
      if (s.next == kInvalidVertex) {
        if (opt_.spec.dead_end == rw::WalkSpec::DeadEnd::kRestart) {
          cur = start;
          continue;
        }
        ++result.dead_ends;
        break;
      }
      cur = s.next;
      ++result.total_hops;
      if (!result.visit_counts.empty()) ++result.visit_counts[cur];
    }
    ++result.walks_completed;
  };

  switch (opt_.spec.start_mode) {
    case rw::StartMode::kAllVertices:
      for (VertexId v = 0; v < n; ++v) one_walk(v);
      break;
    case rw::StartMode::kUniformRandom:
      for (std::uint64_t i = 0; i < opt_.spec.num_walks; ++i) one_walk(rng_.bounded(n));
      break;
    case rw::StartMode::kSingleSource:
      for (std::uint64_t i = 0; i < opt_.spec.num_walks; ++i) one_walk(opt_.spec.source);
      break;
  }

  const Tick cpu = result.total_hops * per_hop;
  now += cpu;
  result.breakdown.compute = cpu;
  result.exec_time = now;
  result.flash_read_bytes = flash_->read_bytes();
  result.nvme = nvme_->stats();
  return result;
}

}  // namespace fw::baseline
