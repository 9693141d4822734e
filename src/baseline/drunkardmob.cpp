#include "baseline/drunkardmob.hpp"

#include <stdexcept>
#include <vector>

namespace fw::baseline {

DrunkardMobEngine::DrunkardMobEngine(const graph::CsrGraph& graph,
                                     DrunkardMobOptions options)
    : graph_(&graph),
      opt_(std::move(options)),
      hops_(rw::hop_count(opt_.spec.length)),
      rng_(opt_.spec.seed) {
  require_first_order(opt_.spec, "DrunkardMob");
  partition::PartitionConfig pc;
  pc.block_capacity_bytes = opt_.host.block_bytes;
  pc.subgraphs_per_partition = 1u << 30;
  pc.weighted = opt_.spec.biased;
  blocks_view_ = std::make_unique<partition::PartitionedGraph>(graph, pc);
  flash_ = std::make_unique<ssd::FlashArray>(opt_.ssd);
  ssd_ = std::make_unique<ssd::SsdDevice>(*flash_);
  nvme_ = std::make_unique<ssd::NvmeInterface>(*ssd_, opt_.nvme);
  if (opt_.spec.biased) its_ = std::make_unique<rw::ItsTable>(graph);
}

DrunkardMobEngine::~DrunkardMobEngine() = default;

BaselineResult DrunkardMobEngine::run() {
  BaselineResult result;
  if (opt_.record_visits) result.visit_counts.assign(graph_->num_vertices(), 0);

  const std::uint32_t nblocks = blocks_view_->num_subgraphs();
  std::vector<std::vector<rw::Walk>> walks(nblocks);
  const std::uint64_t walk_sz = rw::walk_bytes(graph_->id_bytes());

  auto route = [&](rw::Walk w) {
    std::uint32_t dest = blocks_view_->subgraph_of(w.cur);
    if (blocks_view_->subgraph(dest).dense) {
      const EdgeId deg = graph_->out_degree(w.cur);
      if (deg > 0) {
        dest += rw::prewalk_block_choice(rng_.bounded(deg), blocks_view_->edges_per_block());
      }
    }
    walks[dest].push_back(w);
  };

  const VertexId n = graph_->num_vertices();
  auto start_walk = [&](VertexId v) {
    rw::Walk w;
    w.src = v;
    w.cur = v;
    w.hops_left = hops_;
    route(w);
    ++result.walks_started;
  };
  switch (opt_.spec.start_mode) {
    case rw::StartMode::kAllVertices:
      for (VertexId v = 0; v < n; ++v) start_walk(v);
      break;
    case rw::StartMode::kUniformRandom:
      for (std::uint64_t i = 0; i < opt_.spec.num_walks; ++i) start_walk(rng_.bounded(n));
      break;
    case rw::StartMode::kSingleSource:
      for (std::uint64_t i = 0; i < opt_.spec.num_walks; ++i) start_walk(opt_.spec.source);
      break;
  }

  Tick now = 0;
  const Tick per_hop = opt_.host.effective_ns_per_hop();

  // One iteration per hop of the walk length: the iteration-wise barrier.
  for (std::uint32_t iter = 0; iter < opt_.spec.length; ++iter) {
    std::vector<std::vector<rw::Walk>> next(nblocks);
    bool any = false;
    for (std::uint32_t b = 0; b < nblocks; ++b) {
      if (walks[b].empty()) continue;
      any = true;

      // Load the block and this iteration's walks.
      const auto& sg = blocks_view_->subgraph(b);
      Tick start = now;
      now = nvme_->read(now, b, sg.payload_bytes);
      result.breakdown.graph_load += now - start;
      result.bytes_read += sg.payload_bytes;
      ++result.block_loads;

      const std::uint64_t walk_bytes_in = walks[b].size() * walk_sz;
      start = now;
      now = nvme_->read(now, b, walk_bytes_in);
      result.breakdown.walk_load += now - start;
      result.bytes_read += walk_bytes_in;

      std::uint64_t moved_bytes = 0;
      std::uint64_t hops = 0;
      for (rw::Walk w : walks[b]) {
        if (opt_.spec.stop_prob > 0.0 && rng_.chance(opt_.spec.stop_prob)) {
          ++result.walks_completed;
          continue;
        }
        rw::SampleResult s;
        if (sg.dense) {
          s = its_ ? its_->sample_slice(*graph_, graph_->offsets()[sg.low_vid],
                                        sg.edge_begin, sg.edge_end, rng_)
                   : rw::sample_unbiased_slice(*graph_, sg.edge_begin, sg.edge_end, rng_);
        } else {
          s = its_ ? its_->sample(*graph_, w.cur, rng_)
                   : rw::sample_unbiased(*graph_, w.cur, rng_);
        }
        if (s.next == kInvalidVertex) {
          ++result.dead_ends;
          ++result.walks_completed;
          continue;
        }
        w.cur = s.next;
        --w.hops_left;
        ++hops;
        ++result.total_hops;
        if (!result.visit_counts.empty()) ++result.visit_counts[s.next];
        if (w.finished()) {
          ++result.walks_completed;
          continue;
        }
        // Iteration sync: updated walks are written back before the next
        // iteration (the slow-path the paper calls out).
        std::uint32_t dest = blocks_view_->subgraph_of(w.cur);
        if (blocks_view_->subgraph(dest).dense) {
          const EdgeId deg = graph_->out_degree(w.cur);
          dest += rw::prewalk_block_choice(rng_.bounded(deg),
                                           blocks_view_->edges_per_block());
        }
        next[dest].push_back(w);
        moved_bytes += walk_sz;
      }
      const Tick cpu = hops * per_hop;
      now += cpu;
      result.breakdown.compute += cpu;

      start = now;
      now = nvme_->write(now, b, moved_bytes);
      result.breakdown.walk_write += now - start;
      result.bytes_written += moved_bytes;
    }
    walks = std::move(next);
    if (!any) break;
  }
  // Any walks still alive after `length` iterations are finished by spec.
  for (const auto& blk : walks) result.walks_completed += blk.size();

  result.exec_time = now;
  result.flash_read_bytes = flash_->read_bytes();
  result.nvme = nvme_->stats();
  return result;
}

}  // namespace fw::baseline
