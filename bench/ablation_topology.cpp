// SSD-topology scalability (extension): how FlashWalker's performance
// scales with channel and chip counts — the in-storage design's headroom
// claim made quantitative. Runs FS at a fixed workload across topologies.
#include <iostream>

#include "bench_common.hpp"

using namespace fw;

int main() {
  bench::print_banner("Topology scalability — channels x chips sweep",
                      "extension (paper §II.C headroom argument)");

  const auto& pg = bench::bench_partitioned(graph::DatasetId::FS);
  TextTable table({"channels", "chips/chan", "total chips", "time", "speedup vs 8x2",
                   "flash read BW", "channel util proxy"});
  Tick base_time = 0;
  for (const std::uint32_t channels : {8u, 16u, 32u}) {
    for (const std::uint32_t chips : {2u, 4u}) {
      ssd::SsdConfig ssd = bench::bench_ssd();
      ssd.topo.channels = channels;
      ssd.topo.chips_per_channel = chips;

      accel::EngineOptions opts;
      opts.ssd = ssd;
      opts.accel = accel::bench_accel_config();
      opts.spec.num_walks =
          graph::default_walk_count(graph::DatasetId::FS, graph::Scale::kBench);
      opts.spec.length = 6;
      opts.spec.seed = bench::bench_seed();
      opts.record_visits = false;
      auto engine = accel::SimulationBuilder(pg).options(opts).build();
      const auto r = engine.run();
      if (base_time == 0) base_time = r.exec_time;

      const double chan_bw = bandwidth_mb_per_s(r.channel_bytes, r.exec_time);
      const double chan_cap = static_cast<double>(ssd.aggregate_channel_mb_per_s());
      table.add_row({std::to_string(channels), std::to_string(chips),
                     std::to_string(channels * chips), TextTable::time_ns(r.exec_time),
                     TextTable::num(static_cast<double>(base_time) /
                                        static_cast<double>(r.exec_time),
                                    2) +
                         "x",
                     TextTable::num(r.flash_read_mb_per_s(), 0) + " MB/s",
                     TextTable::num(100.0 * chan_bw / chan_cap, 1) + "%"});
    }
  }
  table.print(std::cout);
  std::cout << "\nMore chips = more in-storage update parallelism and more\n"
               "aggregate plane bandwidth; the walk population eventually\n"
               "becomes the limit (chips idle-load small subgraphs), which is\n"
               "the paper's TT parallelism-overload effect.\n";
  return 0;
}
