#include "graph/generators.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "common/fork_join.hpp"

namespace fw::graph {
namespace {

VertexId round_up_pow2(VertexId v) {
  return v <= 1 ? 1 : std::bit_ceil(v);
}

/// Below this many edges per thread, R-MAT generation stays serial.
constexpr EdgeId kMinEdgesPerThread = 1 << 14;

/// How far a + b + c may pass 1 by rounding alone: 0.56 + 0.34 + 0.1 does.
constexpr double kProbabilitySlack = 1e-9;

float random_weight(Xoshiro256& rng) {
  // Weights in (0, 1]; strictly positive so ITS cumulative sums are monotone.
  return static_cast<float>(1.0 - rng.uniform() * (1.0 - 1e-6));
}

/// The vertex count R-MAT rounds `p` up to, once every field that could
/// silently build a different graph has been rejected.
VertexId checked_rmat_vertices(const RmatParams& p) {
  const auto reject = [](const char* field, const std::string& value, const char* rule) {
    const std::string what = std::string("RmatParams.") + field + " = " + value;
    throw std::invalid_argument(what + ": " + rule);
  };
  const std::pair<const char*, double> quadrants[] = {{"a", p.a}, {"b", p.b}, {"c", p.c}};
  for (const auto& [field, value] : quadrants) {
    if (!(value >= 0.0)) reject(field, std::to_string(value), "must be non-negative");
  }
  if (p.a + p.b + p.c > 1.0 + kProbabilitySlack) {
    reject("a + b + c", std::to_string(p.a + p.b + p.c),
           "must not exceed 1, or d = 1 - a - b - c is negative and never drawn");
  }
  // Past 2, a quadrant's weight a * (1 + noise * (u - 0.5)) can go negative.
  if (!(p.noise >= 0.0 && p.noise <= 2.0)) {
    reject("noise", std::to_string(p.noise), "must lie in [0, 2]");
  }
  if (p.num_vertices > EdgeWord::kMaxVertices) {
    reject("num_vertices", std::to_string(p.num_vertices),
           "endpoints must fit the 32-bit halves of an edge word");
  }
  return round_up_pow2(p.num_vertices);
}

/// The one R-MAT draw loop. Every edge takes the same draws, five per
/// level, then `make(src, dst, rng)` forms the output record: a weighted
/// Edge draws its weight from the same stream, an unweighted EdgeWord has
/// none. Each record type serves one kind of graph, so params of the other
/// kind throw.
template <typename Out, typename Make>
std::vector<Out> draw_rmat(const RmatParams& params, unsigned threads, const Make& make) {
  constexpr bool kWeighted = std::is_same_v<Out, Edge>;
  const VertexId n = checked_rmat_vertices(params);
  if (params.weighted != kWeighted) {
    throw std::invalid_argument(kWeighted
                                    ? "rmat_edges: unweighted params need rmat_edge_words"
                                    : "rmat_edge_words: weighted params need rmat_edges");
  }
  const int levels = std::countr_zero(n);
  const EdgeId m = params.num_edges;
  const std::uint64_t draws_per_edge =
      5 * static_cast<std::uint64_t>(levels) + (kWeighted ? 1 : 0);
  if (threads == 0) threads = host_threads(m, kMinEdgesPerThread);
  threads = static_cast<unsigned>(std::clamp<EdgeId>(threads, 1, std::max<EdgeId>(m, 1)));

  const Xoshiro256 seed_stream(params.seed);
  const double d = std::max(0.0, 1.0 - params.a - params.b - params.c);
  std::vector<Out> edges(m);
  fork_join(threads, [&](unsigned t) {
    const EdgeId begin = range_begin(m, threads, t);
    const EdgeId end = range_begin(m, threads, t + 1);
    Xoshiro256 rng = seed_stream;
    rng.advance(begin * draws_per_edge);
    for (EdgeId e = begin; e < end; ++e) {
      VertexId src = 0, dst = 0;
      for (int level = 0; level < levels; ++level) {
        // Perturb quadrant probabilities per level (PaRMAT's noise option)
        // to avoid the exact self-similarity artifacts of vanilla R-MAT.
        const double na = params.a * (1.0 + params.noise * (rng.uniform() - 0.5));
        const double nb = params.b * (1.0 + params.noise * (rng.uniform() - 0.5));
        const double nc = params.c * (1.0 + params.noise * (rng.uniform() - 0.5));
        const double nd = d * (1.0 + params.noise * (rng.uniform() - 0.5));
        const double total = na + nb + nc + nd;
        const double r = rng.uniform() * total;
        // The chain "r < na: top-left, else r < na + nb: top-right, else
        // r < na + nb + nc: bottom-left, else bottom-right", without
        // branches: quadrant q sets src's bit to q / 2 and dst's to q % 2.
        const unsigned past_a = static_cast<unsigned>(!(r < na));
        const unsigned past_b = past_a & static_cast<unsigned>(!(r < na + nb));
        const unsigned past_c = past_b & static_cast<unsigned>(!(r < na + nb + nc));
        const unsigned quadrant = past_a + past_b + past_c;
        src = (src << 1) | (quadrant >> 1);
        dst = (dst << 1) | (quadrant & 1);
      }
      edges[e] = make(src, dst, rng);
    }
  });
  return edges;
}

}  // namespace

std::vector<Edge> rmat_edges(const RmatParams& params, unsigned threads) {
  const auto edge = [](VertexId src, VertexId dst, Xoshiro256& rng) {
    return Edge{src, dst, random_weight(rng)};
  };
  return draw_rmat<Edge>(params, threads, edge);
}

std::vector<EdgeWord> rmat_edge_words(const RmatParams& params, unsigned threads) {
  const auto word = [](VertexId src, VertexId dst, Xoshiro256&) {
    return EdgeWord(src, dst);
  };
  return draw_rmat<EdgeWord>(params, threads, word);
}

CsrGraph generate_rmat(const RmatParams& params) {
  const VertexId n = checked_rmat_vertices(params);
  if (!params.weighted) return build_unweighted_csr(n, rmat_edge_words(params));
  // Weighted lists keep the comparator sort: it alone fixes the pinned order
  // of parallel edges' weights.
  BuildOptions opts;
  opts.keep_weights = true;
  return GraphBuilder(n, rmat_edges(params)).build(opts);
}

CsrGraph generate_erdos_renyi(const ErdosRenyiParams& params) {
  check_vertex_count(params.num_vertices, "ErdosRenyiParams.num_vertices");
  Xoshiro256 rng(params.seed);
  std::vector<Edge> edges;
  edges.reserve(params.num_edges);
  for (EdgeId e = 0; e < params.num_edges; ++e) {
    const VertexId src = rng.bounded(params.num_vertices);
    const VertexId dst = rng.bounded(params.num_vertices);
    edges.push_back(Edge{src, dst, params.weighted ? random_weight(rng) : 1.0f});
  }
  BuildOptions opts;
  opts.keep_weights = params.weighted;
  return GraphBuilder(params.num_vertices, std::move(edges)).build(opts);
}

ZipfSampler::ZipfSampler(VertexId n, double exponent) {
  cdf_.resize(n);
  double sum = 0.0;
  for (VertexId i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cdf_[i] = sum;
  }
  for (double& x : cdf_) x /= sum;
}

VertexId ZipfSampler::sample(Xoshiro256& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<VertexId>(std::min<std::ptrdiff_t>(
      it - cdf_.begin(), static_cast<std::ptrdiff_t>(cdf_.size() - 1)));
}

CsrGraph generate_zipf(const ZipfParams& params) {
  const VertexId n = params.num_vertices;
  if (n == 0 && params.num_edges > 0) {
    throw std::invalid_argument("generate_zipf: edges requested on zero vertices");
  }
  check_vertex_count(n, "ZipfParams.num_vertices");
  Xoshiro256 rng(params.seed);

  // Out-degrees: Zipf over a random permutation of vertices so hubs are not
  // clustered at low IDs (the partitioner must find them, not assume them).
  std::vector<double> mass(n);
  double total_mass = 0.0;
  for (VertexId i = 0; i < n; ++i) {
    mass[i] = 1.0 / std::pow(static_cast<double>(i + 1), params.exponent);
    total_mass += mass[i];
  }
  std::vector<VertexId> perm(n);
  for (VertexId i = 0; i < n; ++i) perm[i] = i;
  for (VertexId i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.bounded(i)]);
  }

  std::vector<EdgeId> out_degree(n, 0);
  EdgeId assigned = 0;
  for (VertexId rank = 0; rank < n; ++rank) {
    const auto deg = static_cast<EdgeId>(
        std::floor(mass[rank] / total_mass * static_cast<double>(params.num_edges)));
    out_degree[perm[rank]] = deg;
    assigned += deg;
  }
  // Distribute rounding remainder uniformly.
  while (assigned < params.num_edges) {
    ++out_degree[rng.bounded(n)];
    ++assigned;
  }

  // Variable draws per edge (rejection in bounded(), the hub coin): the
  // stream cannot be split, so this loop stays serial.
  ZipfSampler dst_sampler(n, params.exponent * 0.75);  // milder in-degree skew
  std::vector<Edge> edges;
  edges.reserve(params.num_edges);
  for (VertexId v = 0; v < n; ++v) {
    for (EdgeId e = 0; e < out_degree[v]; ++e) {
      VertexId dst = perm[dst_sampler.sample(rng)];
      if (params.hub_fraction > 0.0 && rng.chance(params.hub_fraction)) {
        dst = perm[rng.bounded(std::max<VertexId>(1, n / 1000))];
      }
      edges.push_back(Edge{v, dst, params.weighted ? random_weight(rng) : 1.0f});
    }
  }
  BuildOptions opts;
  opts.keep_weights = params.weighted;
  return GraphBuilder(n, std::move(edges)).build(opts);
}

}  // namespace fw::graph
