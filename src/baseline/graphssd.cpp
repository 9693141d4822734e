#include "baseline/graphssd.hpp"

#include <algorithm>
#include <list>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace fw::baseline {
namespace {

/// Host-side LRU page cache (the buffer GraphSSD's host library keeps).
class PageLru {
 public:
  explicit PageLru(std::size_t capacity_pages)
      : capacity_(std::max<std::size_t>(capacity_pages, 1)) {}

  bool touch(std::uint64_t page) {
    const auto it = index_.find(page);
    if (it != index_.end()) {
      order_.splice(order_.begin(), order_, it->second);
      return true;
    }
    order_.push_front(page);
    index_[page] = order_.begin();
    if (index_.size() > capacity_) {
      index_.erase(order_.back());
      order_.pop_back();
    }
    return false;
  }

 private:
  std::size_t capacity_;
  std::list<std::uint64_t> order_;
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> index_;
};

}  // namespace

GraphSsdEngine::GraphSsdEngine(const graph::CsrGraph& graph, GraphSsdOptions options)
    : graph_(&graph),
      opt_(std::move(options)),
      hops_(rw::hop_count(opt_.spec.length)),
      rng_(opt_.spec.seed) {
  require_first_order(opt_.spec, "GraphSSD");
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

GraphSsdEngine::~GraphSsdEngine() = default;

std::uint64_t GraphSsdEngine::page_of(VertexId v) const {
  return graph_->offsets()[v] * graph_->id_bytes() / opt_.ssd.topo.page_bytes;
}

BaselineResult GraphSsdEngine::run() {
  BaselineResult result;
  if (opt_.record_visits) result.visit_counts.assign(graph_->num_vertices(), 0);

  const VertexId n = graph_->num_vertices();
  std::vector<rw::Walk> walks;
  auto start_walk = [&](VertexId v) {
    rw::Walk w;
    w.src = v;
    w.cur = v;
    w.hops_left = hops_;
    walks.push_back(w);
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

  PageLru cache(opt_.host.memory_bytes / opt_.ssd.topo.page_bytes);
  const Tick per_hop_cpu = opt_.host.effective_ns_per_hop();
  Tick now = 0;
  std::uint32_t qp = 0;

  // Hop-synchronous rounds: every alive walk issues one get-neighbors
  // request; distinct pages in the round go out as parallel NVMe commands
  // (the shared controller / flash resources provide the contention), and
  // the round completes when the slowest returns.
  while (!walks.empty()) {
    std::unordered_set<std::uint64_t> round_pages;
    for (const auto& w : walks) {
      const std::uint64_t page = page_of(w.cur);
      if (cache.touch(page)) {
        ++cache_hits_;
      } else {
        round_pages.insert(page);
      }
    }
    Tick round_done = now;
    for (const std::uint64_t page : round_pages) {
      (void)page;
      const Tick t = nvme_->read(now, qp++, opt_.ssd.topo.page_bytes);
      round_done = std::max(round_done, t);
      result.bytes_read += opt_.ssd.topo.page_bytes;
    }
    const Tick io = round_done - now;
    result.breakdown.graph_load += io;
    result.block_loads += round_pages.size();

    std::vector<rw::Walk> next;
    next.reserve(walks.size());
    std::uint64_t hops = 0;
    for (rw::Walk w : walks) {
      if (opt_.spec.stop_prob > 0.0 && rng_.chance(opt_.spec.stop_prob)) {
        ++result.walks_completed;
        continue;
      }
      const rw::SampleResult s = its_ ? its_->sample(*graph_, w.cur, rng_)
                                      : rw::sample_unbiased(*graph_, w.cur, rng_);
      if (s.next == kInvalidVertex) {
        if (opt_.spec.dead_end == rw::WalkSpec::DeadEnd::kRestart) {
          w.cur = w.src;
          --w.hops_left;
          ++hops;
          if (w.finished()) {
            ++result.walks_completed;
          } else {
            next.push_back(w);
          }
          continue;
        }
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
      } else {
        next.push_back(w);
      }
    }
    const Tick cpu = hops * per_hop_cpu;
    now = round_done + cpu;
    result.breakdown.compute += cpu;
    walks = std::move(next);
  }

  result.cache_hits = cache_hits_;
  result.exec_time = now;
  result.flash_read_bytes = flash_->read_bytes();
  result.nvme = nvme_->stats();
  return result;
}

}  // namespace fw::baseline
