#include "graph/builder.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "common/fork_join.hpp"

namespace fw::graph {
namespace {

/// Below this many edges per thread, sorting neighbor lists stays serial.
constexpr std::uint64_t kMinEdgesPerThread = 1 << 14;

void check_endpoints(VertexId num_vertices, VertexId src, VertexId dst) {
  if (src < num_vertices && dst < num_vertices) return;
  const VertexId bad = src >= num_vertices ? src : dst;
  throw std::out_of_range("GraphBuilder: endpoint " + std::to_string(bad) + " of edge (" +
                          std::to_string(src) + ", " + std::to_string(dst) +
                          ") is not below the vertex count " +
                          std::to_string(num_vertices));
}

/// Comparator sort over whole records: std::sort is not stable, so this
/// exact call on this exact sequence is what fixes the order of parallel
/// edges' weights (and which weight deduplication keeps).
CsrGraph build_weighted(VertexId num_vertices, std::vector<Edge> edges,
                        const BuildOptions& opts) {
  if (opts.drop_self_loops) {
    std::erase_if(edges, [](const Edge& e) { return e.src == e.dst; });
  }
  if (opts.symmetrize) {
    const std::size_t n = edges.size();
    edges.reserve(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
      edges.push_back(Edge{edges[i].dst, edges[i].src, edges[i].weight});
    }
  }

  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  if (opts.deduplicate) {
    edges.erase(std::unique(edges.begin(), edges.end(),
                            [](const Edge& a, const Edge& b) {
                              return a.src == b.src && a.dst == b.dst;
                            }),
                edges.end());
  }

  std::vector<EdgeId> offsets(num_vertices + 1, 0);
  for (const Edge& e : edges) ++offsets[e.src + 1];
  for (std::size_t v = 1; v < offsets.size(); ++v) offsets[v] += offsets[v - 1];

  std::vector<NeighborId> targets(edges.size());
  std::vector<float> weights(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    targets[i] = static_cast<NeighborId>(edges[i].dst);
    weights[i] = edges[i].weight;
  }
  return CsrGraph(std::move(offsets), std::move(targets), std::move(weights));
}

VertexId src_of(const Edge& e) { return e.src; }
VertexId dst_of(const Edge& e) { return e.dst; }
VertexId src_of(EdgeWord e) { return e.src(); }
VertexId dst_of(EdgeWord e) { return e.dst(); }

/// Counting sort on source, then each neighbor list sorted on its own.
/// Once weights are dropped, records with equal (src, dst) cannot be told
/// apart, so this yields the bytes a comparator sort over (src, dst) does,
/// whichever form the edges come in.
template <typename E>
CsrGraph build_unweighted(VertexId num_vertices, std::vector<E> edges,
                          const BuildOptions& opts) {
  const auto dropped = [&opts](const E& e) {
    return opts.drop_self_loops && src_of(e) == dst_of(e);
  };

  std::vector<EdgeId> offsets(num_vertices + 1, 0);
  for (const E& e : edges) {
    // An Edge was checked when the builder took it; words arrive unchecked.
    if constexpr (std::is_same_v<E, EdgeWord>) {
      check_endpoints(num_vertices, src_of(e), dst_of(e));
    }
    if (dropped(e)) continue;
    ++offsets[src_of(e) + 1];
    if (opts.symmetrize) ++offsets[dst_of(e) + 1];
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());

  // offsets[v] doubles as v's fill cursor; once every edge is placed it
  // holds v's end, and shifting the array up one slot restores the starts.
  std::vector<NeighborId> targets(offsets.back());
  for (const E& e : edges) {
    if (dropped(e)) continue;
    targets[offsets[src_of(e)]++] = static_cast<NeighborId>(dst_of(e));
    if (opts.symmetrize) {
      targets[offsets[dst_of(e)]++] = static_cast<NeighborId>(src_of(e));
    }
  }
  std::vector<E>().swap(edges);
  std::copy_backward(offsets.begin(), offsets.end() - 1, offsets.end());
  offsets[0] = 0;

  // Vertex ranges of about equal edge counts, one per thread.
  const EdgeId m = targets.size();
  const unsigned threads = host_threads(m, kMinEdgesPerThread);
  const auto first_vertex = [&](unsigned t) -> VertexId {
    if (t == threads) return num_vertices;
    const EdgeId at = range_begin(m, threads, t);
    return static_cast<VertexId>(
        std::lower_bound(offsets.begin(), offsets.end() - 1, at) - offsets.begin());
  };
  fork_join(threads, [&](unsigned t) {
    const VertexId end = first_vertex(t + 1);
    for (VertexId v = first_vertex(t); v < end; ++v) {
      std::sort(targets.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
                targets.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]));
    }
  });

  if (opts.deduplicate) {
    EdgeId out = 0;
    EdgeId begin = 0;
    for (VertexId v = 0; v < num_vertices; ++v) {
      const EdgeId end = offsets[v + 1];
      const EdgeId first = out;
      for (EdgeId i = begin; i < end; ++i) {
        if (out == first || targets[out - 1] != targets[i]) targets[out++] = targets[i];
      }
      offsets[v + 1] = out;
      begin = end;
    }
    targets.resize(out);
    targets.shrink_to_fit();
  }
  return CsrGraph(std::move(offsets), std::move(targets));
}

}  // namespace

CsrGraph build_unweighted_csr(VertexId num_vertices, std::vector<EdgeWord> edges,
                              const BuildOptions& opts) {
  if (opts.keep_weights) {
    throw std::invalid_argument("build_unweighted_csr: edge words carry no weights");
  }
  check_vertex_count(num_vertices, "build_unweighted_csr");
  return build_unweighted(num_vertices, std::move(edges), opts);
}

GraphBuilder::GraphBuilder(VertexId num_vertices) : num_vertices_(num_vertices) {
  check_vertex_count(num_vertices_, "GraphBuilder");
}

GraphBuilder::GraphBuilder(VertexId num_vertices, std::vector<Edge> edges)
    : GraphBuilder(num_vertices) {
  edges_ = std::move(edges);
  for (const Edge& e : edges_) check_endpoints(num_vertices_, e.src, e.dst);
}

void GraphBuilder::add_edge(VertexId src, VertexId dst, float weight) {
  check_endpoints(num_vertices_, src, dst);
  edges_.push_back(Edge{src, dst, weight});
}

CsrGraph GraphBuilder::build(const BuildOptions& opts) && {
  return opts.keep_weights ? build_weighted(num_vertices_, std::move(edges_), opts)
                           : build_unweighted(num_vertices_, std::move(edges_), opts);
}

}  // namespace fw::graph
