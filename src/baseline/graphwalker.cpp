#include "baseline/graphwalker.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace fw::baseline {

GraphWalkerEngine::GraphWalkerEngine(const graph::CsrGraph& graph,
                                     GraphWalkerOptions options)
    : graph_(&graph),
      opt_(std::move(options)),
      hops_(rw::hop_count(opt_.spec.length)),
      rng_(opt_.spec.seed) {
  require_first_order(opt_.spec, "GraphWalker");
  partition::PartitionConfig pc;
  pc.block_capacity_bytes = opt_.host.block_bytes;
  pc.subgraphs_per_partition = 1u << 30;  // GraphWalker has no partitions
  pc.weighted = opt_.spec.biased;
  blocks_view_ = std::make_unique<partition::PartitionedGraph>(graph, pc);
  flash_ = std::make_unique<ssd::FlashArray>(opt_.ssd);
  ssd_ = std::make_unique<ssd::SsdDevice>(*flash_);
  nvme_ = std::make_unique<ssd::NvmeInterface>(*ssd_, opt_.nvme);
  if (opt_.spec.biased) {
    if (!graph.weighted()) {
      throw std::invalid_argument("biased walk requires a weighted graph");
    }
    its_ = std::make_unique<rw::ItsTable>(graph);
  }
  blocks_.resize(blocks_view_->num_subgraphs());
  if (opt_.record_visits) {
    result_.visit_counts.assign(graph.num_vertices(), 0);
  }
}

GraphWalkerEngine::~GraphWalkerEngine() = default;

std::uint32_t GraphWalkerEngine::num_blocks() const {
  return blocks_view_->num_subgraphs();
}

std::uint32_t GraphWalkerEngine::block_of(VertexId v) const {
  return blocks_view_->subgraph_of(v);
}

void GraphWalkerEngine::ensure_cached(std::uint32_t block) {
  BlockState& b = blocks_[block];
  b.lru_stamp = ++lru_clock_;
  if (b.cached) {
    ++result_.cache_hits;
    return;
  }
  const std::uint64_t need = blocks_view_->subgraph(block).payload_bytes;
  // Evict LRU blocks until the new one fits.
  while (cached_bytes_ + need > opt_.host.memory_bytes) {
    std::uint32_t victim = std::numeric_limits<std::uint32_t>::max();
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (std::uint32_t i = 0; i < blocks_.size(); ++i) {
      if (blocks_[i].cached && i != block && blocks_[i].lru_stamp < oldest) {
        oldest = blocks_[i].lru_stamp;
        victim = i;
      }
    }
    if (victim == std::numeric_limits<std::uint32_t>::max()) break;
    blocks_[victim].cached = false;
    cached_bytes_ -= blocks_view_->subgraph(victim).payload_bytes;
  }

  const Tick start = now_;
  now_ = nvme_->read(now_, block, need);
  result_.breakdown.graph_load += now_ - start;
  result_.bytes_read += need;
  ++result_.block_loads;
  b.cached = true;
  cached_bytes_ += need;

  // Re-read any walks previously spilled to this block's walk file.
  if (b.spilled_bytes > 0) {
    const Tick wstart = now_;
    now_ = nvme_->read(now_, block, b.spilled_bytes);
    result_.breakdown.walk_load += now_ - wstart;
    result_.bytes_read += b.spilled_bytes;
    b.spilled_bytes = 0;
  }
}

void GraphWalkerEngine::hop_walks_in_block(std::uint32_t block) {
  BlockState& b = blocks_[block];
  const auto& sg = blocks_view_->subgraph(block);
  std::vector<rw::Walk> walks = std::move(b.walks);
  b.walks.clear();

  const Tick per_hop = opt_.host.effective_ns_per_hop();
  const std::uint64_t walk_sz = rw::walk_bytes(graph_->id_bytes());
  std::uint64_t hops = 0;

  auto complete = [&] {
    ++result_.walks_completed;
    --remaining_walks_;
  };
  // Route a walk out of this block; returns true if it actually left.
  auto route_out = [&](rw::Walk w) {
    std::uint32_t dest = block_of(w.cur);
    if (blocks_view_->subgraph(dest).dense) {
      // Pick the concrete block of the dense vertex ∝ block edge count —
      // equivalent to uniform edge choice across the whole vertex.
      const EdgeId deg = graph_->out_degree(w.cur);
      if (deg > 0) {
        dest += rw::prewalk_block_choice(rng_.bounded(deg),
                                         blocks_view_->edges_per_block());
      }
    }
    if (dest == block) return false;
    blocks_[dest].walks.push_back(w);
    if (!blocks_[dest].cached) {
      // Destination is on disk: the walk is appended to that block's walk
      // file through the spill buffer.
      blocks_[dest].spilled_bytes += walk_sz;
      spill_buffered_ += walk_sz;
      if (spill_buffered_ >= opt_.host.spill_buffer_bytes) {
        const Tick wstart = now_;
        now_ = nvme_->write(now_, 0, spill_buffered_);
        result_.breakdown.walk_write += now_ - wstart;
        result_.bytes_written += spill_buffered_;
        spill_buffered_ = 0;
      }
    }
    return true;
  };

  for (rw::Walk w : walks) {
    // Asynchronous updating: keep hopping while the walk stays in-block.
    while (true) {
      if (opt_.spec.stop_prob > 0.0 && rng_.chance(opt_.spec.stop_prob)) {
        complete();
        break;
      }
      rw::SampleResult s;
      if (sg.dense) {
        // A dense vertex split across blocks: sample within this block's
        // edge slice (block chosen ∝ size at routing time, in route_out).
        s = its_ ? its_->sample_slice(*graph_, graph_->offsets()[sg.low_vid],
                                      sg.edge_begin, sg.edge_end, rng_)
                 : rw::sample_unbiased_slice(*graph_, sg.edge_begin, sg.edge_end, rng_);
      } else {
        s = its_ ? its_->sample(*graph_, w.cur, rng_)
                 : rw::sample_unbiased(*graph_, w.cur, rng_);
      }
      if (s.next == kInvalidVertex) {
        if (opt_.spec.dead_end == rw::WalkSpec::DeadEnd::kRestart) {
          // Restart at source: consumes the hop, revisits nothing.
          w.cur = w.src;
          --w.hops_left;
          ++hops;
          if (w.finished()) {
            complete();
            break;
          }
          if (route_out(w)) break;
          continue;
        }
        ++result_.dead_ends;
        complete();
        break;
      }
      w.cur = s.next;
      --w.hops_left;
      ++hops;
      ++result_.total_hops;
      if (!result_.visit_counts.empty()) ++result_.visit_counts[s.next];
      if (w.finished()) {
        complete();
        break;
      }
      if (route_out(w)) break;
    }
  }
  const Tick cpu = hops * per_hop;
  now_ += cpu;
  result_.breakdown.compute += cpu;
}

BaselineResult GraphWalkerEngine::run() {
  // Start walks.
  const VertexId n = graph_->num_vertices();
  auto start_walk = [&](VertexId v) {
    rw::Walk w;
    w.src = v;
    w.cur = v;
    w.hops_left = hops_;
    std::uint32_t dest = block_of(v);
    if (blocks_view_->subgraph(dest).dense) {
      const EdgeId deg = graph_->out_degree(v);
      if (deg > 0) {
        dest += rw::prewalk_block_choice(rng_.bounded(deg), blocks_view_->edges_per_block());
      }
    }
    blocks_[dest].walks.push_back(w);
    ++result_.walks_started;
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
  remaining_walks_ = result_.walks_started;

  // Main loop: state-aware scheduling — most walks first.
  while (remaining_walks_ > 0) {
    std::uint32_t best = std::numeric_limits<std::uint32_t>::max();
    std::size_t best_walks = 0;
    for (std::uint32_t i = 0; i < blocks_.size(); ++i) {
      if (blocks_[i].walks.size() > best_walks) {
        best_walks = blocks_[i].walks.size();
        best = i;
      }
    }
    if (best == std::numeric_limits<std::uint32_t>::max()) {
      throw std::logic_error("GraphWalkerEngine: walks lost");
    }
    ensure_cached(best);
    hop_walks_in_block(best);
  }

  result_.exec_time = now_;
  result_.flash_read_bytes = flash_->read_bytes();
  result_.nvme = nvme_->stats();
  return result_;
}

}  // namespace fw::baseline
