#include "baseline/knightking.hpp"

#include <algorithm>
#include <stdexcept>

namespace fw::baseline {

KnightKingEngine::KnightKingEngine(const graph::CsrGraph& graph,
                                   KnightKingOptions options)
    : graph_(&graph),
      opt_(std::move(options)),
      hops_(rw::hop_count(opt_.spec.length)),
      rng_(opt_.spec.seed) {
  require_first_order(opt_.spec, "KnightKing");
  if (opt_.workers == 0) throw std::invalid_argument("KnightKing: zero workers");
  vertices_per_worker_ =
      (graph.num_vertices() + opt_.workers - 1) / opt_.workers;
  if (vertices_per_worker_ == 0) vertices_per_worker_ = 1;
  if (opt_.spec.biased) {
    if (!graph.weighted()) {
      throw std::invalid_argument("biased walk requires a weighted graph");
    }
    its_ = std::make_unique<rw::ItsTable>(graph);
  }
}

std::uint32_t KnightKingEngine::worker_of(VertexId v) const {
  return static_cast<std::uint32_t>(v / vertices_per_worker_);
}

KnightKingResult KnightKingEngine::run() {
  KnightKingResult result;
  BaselineResult& base = result.base;
  if (opt_.record_visits) base.visit_counts.assign(graph_->num_vertices(), 0);

  const std::uint32_t w = opt_.workers;
  std::vector<std::vector<rw::Walk>> resident(w);

  auto place = [&](rw::Walk walk) { resident[worker_of(walk.cur)].push_back(walk); };

  const VertexId n = graph_->num_vertices();
  auto start_walk = [&](VertexId v) {
    rw::Walk walk;
    walk.src = v;
    walk.cur = v;
    walk.hops_left = hops_;
    place(walk);
    ++base.walks_started;
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

  const std::uint64_t walk_sz = rw::walk_bytes(graph_->id_bytes());
  Tick now = 0;

  while (true) {
    bool any = false;
    std::vector<std::vector<rw::Walk>> outgoing(w);
    std::vector<std::uint64_t> sent_bytes(w, 0), recv_bytes(w, 0);
    Tick max_compute = 0;

    for (std::uint32_t worker = 0; worker < w; ++worker) {
      auto walks = std::move(resident[worker]);
      resident[worker].clear();
      if (walks.empty()) continue;
      any = true;

      std::uint64_t hops = 0;
      for (rw::Walk walk : walks) {
        // Advance one hop per super-step (walkers that stay local could
        // keep going, but KnightKing's epochs batch communication; one hop
        // per step is the conservative, simple model).
        if (opt_.spec.stop_prob > 0.0 && rng_.chance(opt_.spec.stop_prob)) {
          ++base.walks_completed;
          continue;
        }
        const rw::SampleResult s = its_ ? its_->sample(*graph_, walk.cur, rng_)
                                        : rw::sample_unbiased(*graph_, walk.cur, rng_);
        if (s.next == kInvalidVertex) {
          ++base.dead_ends;
          ++base.walks_completed;
          continue;
        }
        walk.cur = s.next;
        --walk.hops_left;
        ++hops;
        ++base.total_hops;
        if (!base.visit_counts.empty()) ++base.visit_counts[s.next];
        if (walk.finished()) {
          ++base.walks_completed;
          continue;
        }
        const std::uint32_t dest = worker_of(walk.cur);
        if (dest == worker) {
          resident[worker].push_back(walk);
        } else {
          outgoing[dest].push_back(walk);
          sent_bytes[worker] += walk_sz;
          recv_bytes[dest] += walk_sz;
          ++result.forwarded_walkers;
          result.network_bytes += walk_sz;
        }
      }
      max_compute = std::max(max_compute, hops * opt_.ns_per_hop);
    }
    if (!any) break;
    ++result.supersteps;
    now += max_compute;
    result.compute_time += max_compute;

    // Exchange: each worker's NIC serializes its traffic (max of send and
    // receive as full-duplex), plus one batched-message latency.
    std::uint64_t max_nic_bytes = 0;
    for (std::uint32_t worker = 0; worker < w; ++worker) {
      max_nic_bytes =
          std::max({max_nic_bytes, sent_bytes[worker], recv_bytes[worker]});
    }
    if (max_nic_bytes > 0) {
      const Tick net = transfer_time_ns(max_nic_bytes, opt_.nic_mb_per_s) +
                       opt_.net_latency;
      now += net;
      result.network_time += net;
    }
    for (std::uint32_t worker = 0; worker < w; ++worker) {
      auto& in = outgoing[worker];
      resident[worker].insert(resident[worker].end(), in.begin(), in.end());
    }
  }

  base.exec_time = now;
  return result;
}

}  // namespace fw::baseline
