#include "graph/io.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "graph/builder.hpp"

namespace fw::graph {
namespace {

constexpr char kMagic[8] = {'F', 'W', 'G', 'R', 'A', 'P', 'H', '1'};

template <typename T>
void write_pod(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!is) throw std::runtime_error("graph binary: truncated stream");
  return value;
}

template <typename T>
void write_vec(std::ostream& os, const std::vector<T>& v) {
  write_pod<std::uint64_t>(os, v.size());
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(T)));
}

// Arrays pass through a block of this many values at a time, so the file's
// 8-byte neighbor IDs never exist as a whole 8-byte array. A loaded array
// grows only by the blocks that arrived: its count comes from the stream,
// and a corrupt count must fail as a truncated array, not allocate what it
// claims.
constexpr std::size_t kBlock = 4096;

void write_ids(std::ostream& os, const std::vector<NeighborId>& ids) {
  write_pod<std::uint64_t>(os, ids.size());
  std::array<VertexId, kBlock> block{};
  for (std::size_t i = 0; i < ids.size(); i += kBlock) {
    const std::size_t n = std::min(kBlock, ids.size() - i);
    std::copy_n(ids.begin() + static_cast<std::ptrdiff_t>(i), n, block.begin());
    os.write(reinterpret_cast<const char*>(block.data()),
             static_cast<std::streamsize>(n * sizeof(VertexId)));
  }
}

/// Read a 64-bit count, then that many `Stored` values, keeping
/// `convert(value)` of each.
template <typename T, typename Stored, typename Convert>
std::vector<T> read_array(std::istream& is, Convert convert) {
  const auto count = read_pod<std::uint64_t>(is);
  std::vector<T> v;
  std::array<Stored, kBlock> block{};
  for (std::uint64_t done = 0; done < count; done += kBlock) {
    const std::size_t n = std::min<std::uint64_t>(kBlock, count - done);
    is.read(reinterpret_cast<char*>(block.data()),
            static_cast<std::streamsize>(n * sizeof(Stored)));
    if (!is) throw std::runtime_error("graph binary: truncated array");
    if (v.capacity() - v.size() < n) {
      // Doubling, capped at the count, so a whole array ends exactly sized.
      const std::uint64_t grown = std::max(2 * v.capacity(), v.size() + n);
      v.reserve(std::min(count, grown));
    }
    for (std::size_t j = 0; j < n; ++j) v.push_back(convert(block[j]));
  }
  return v;
}

template <typename T>
std::vector<T> read_vec(std::istream& is) {
  return read_array<T, T>(is, [](T value) { return value; });
}

std::vector<NeighborId> read_ids(std::istream& is) {
  return read_array<NeighborId, VertexId>(is, [](VertexId id) {
    check_vertex_id(id, "graph binary");
    return static_cast<NeighborId>(id);
  });
}

}  // namespace

void save_binary(const CsrGraph& graph, std::ostream& os) {
  os.write(kMagic, sizeof(kMagic));
  write_vec(os, graph.offsets());
  write_ids(os, graph.edges());
  write_vec(os, graph.weights());
  if (!os) throw std::runtime_error("graph binary: write failed");
}

CsrGraph load_binary(std::istream& is) {
  char magic[8];
  is.read(magic, sizeof(magic));
  if (!is || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("graph binary: bad magic");
  }
  auto offsets = read_vec<EdgeId>(is);
  auto edges = read_ids(is);
  auto weights = read_vec<float>(is);
  return CsrGraph(std::move(offsets), std::move(edges), std::move(weights));
}

void save_binary_file(const CsrGraph& graph, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot open for write: " + path);
  save_binary(graph, os);
}

CsrGraph load_binary_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open for read: " + path);
  return load_binary(is);
}

void save_edge_list(const CsrGraph& graph, std::ostream& os) {
  os << "# vertices " << graph.num_vertices() << " edges " << graph.num_edges() << '\n';
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    const auto nbrs = graph.neighbors(v);
    if (graph.weighted()) {
      const auto w = graph.edge_weights(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        os << v << ' ' << nbrs[i] << ' ' << w[i] << '\n';
      }
    } else {
      for (VertexId dst : nbrs) os << v << ' ' << dst << '\n';
    }
  }
}

CsrGraph load_edge_list(std::istream& is) {
  std::vector<Edge> edges;
  VertexId max_vertex = 0;
  bool weighted = false;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    Edge e;
    if (!(ls >> e.src >> e.dst)) {
      throw std::runtime_error("edge list: malformed line: " + line);
    }
    if (ls >> e.weight) weighted = true;
    max_vertex = std::max({max_vertex, e.src, e.dst});
    edges.push_back(e);
  }
  if (!edges.empty()) check_vertex_id(max_vertex, "edge list");
  BuildOptions opts;
  opts.keep_weights = weighted;
  const VertexId num_vertices = edges.empty() ? 0 : max_vertex + 1;
  return GraphBuilder(num_vertices, std::move(edges)).build(opts);
}

}  // namespace fw::graph
