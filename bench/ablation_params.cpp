// Extra ablations DESIGN.md calls out (beyond the paper's figures): the
// design-parameter sweeps behind FlashWalker's defaults —
//   alpha/beta in the Eq. 1 score,
//   walk query cache size,
//   per-chip top-N list length,
//   partition-walk-buffer entry size (overflow pressure).
// Run on FS (mid-size, moderately skewed).
#include <iostream>

#include "accel/config.hpp"
#include "bench_common.hpp"

using namespace fw;

namespace {

accel::EngineResult run_cfg(const accel::AccelConfig& acfg) {
  accel::EngineOptions opts;
  opts.ssd = bench::bench_ssd();
  opts.accel = acfg;
  opts.spec.num_walks =
      graph::default_walk_count(graph::DatasetId::FS, graph::Scale::kBench) / 2;
  opts.spec.length = 6;
  opts.spec.seed = bench::bench_seed();
  opts.record_visits = false;
  auto engine = accel::SimulationBuilder(bench::bench_partitioned(graph::DatasetId::FS))
                    .options(opts)
                    .build();
  return engine.run();
}

}  // namespace

int main() {
  bench::print_banner("Parameter ablations — alpha/beta, cache size, top-N, pwb entry",
                      "design-parameter sweeps (DESIGN.md)");

  {
    std::cout << "\nEq. 1 alpha sweep (beta = 1.5):\n";
    TextTable t({"alpha", "time", "overflow walks", "flash writes"});
    for (const double alpha : {0.4, 0.8, 1.2, 2.0, 4.0}) {
      auto cfg = accel::bench_accel_config();
      cfg.alpha = alpha;
      const auto r = run_cfg(cfg);
      t.add_row({TextTable::num(alpha, 1), TextTable::time_ns(r.exec_time),
                 std::to_string(r.metrics.pwb_overflow_walks),
                 TextTable::bytes(r.flash_write_bytes)});
    }
    t.print(std::cout);
  }
  {
    std::cout << "\nEq. 1 beta sweep (alpha = 1.2):\n";
    TextTable t({"beta", "time", "overflow walks"});
    for (const double beta : {1.0, 1.5, 2.5}) {
      auto cfg = accel::bench_accel_config();
      cfg.beta = beta;
      const auto r = run_cfg(cfg);
      t.add_row({TextTable::num(beta, 1), TextTable::time_ns(r.exec_time),
                 std::to_string(r.metrics.pwb_overflow_walks)});
    }
    t.print(std::cout);
  }
  {
    std::cout << "\nWalk query cache size sweep:\n";
    TextTable t({"cache bytes", "time", "hit rate", "search steps"});
    for (const std::uint64_t bytes : {512ull, 2048ull, 4096ull, 16384ull}) {
      auto cfg = accel::bench_accel_config();
      cfg.query_cache_bytes = bytes;
      const auto r = run_cfg(cfg);
      const auto h = r.metrics.query_cache_hits;
      const auto m = r.metrics.query_cache_misses;
      t.add_row({TextTable::bytes(bytes), TextTable::time_ns(r.exec_time),
                 TextTable::num(100.0 * static_cast<double>(h) /
                                    static_cast<double>(h + m),
                                1) +
                     "%",
                 std::to_string(r.metrics.mapping_search_steps)});
    }
    t.print(std::cout);
  }
  {
    std::cout << "\nTop-N list length sweep:\n";
    TextTable t({"N", "time", "scheduler compares"});
    for (const std::uint32_t n : {2u, 8u, 32u}) {
      auto cfg = accel::bench_accel_config();
      cfg.top_n = n;
      const auto r = run_cfg(cfg);
      t.add_row({std::to_string(n), TextTable::time_ns(r.exec_time),
                 std::to_string(r.metrics.scheduler_compare_ops)});
    }
    t.print(std::cout);
  }
  {
    std::cout << "\nPartition-walk-buffer entry size sweep:\n";
    TextTable t({"entry bytes", "time", "overflow events", "overflow walks"});
    for (const std::uint64_t bytes : {512ull, 1024ull, 4096ull, 16384ull}) {
      auto cfg = accel::bench_accel_config();
      cfg.pwb_entry_bytes = bytes;
      const auto r = run_cfg(cfg);
      t.add_row({TextTable::bytes(bytes), TextTable::time_ns(r.exec_time),
                 std::to_string(r.metrics.pwb_overflow_events),
                 std::to_string(r.metrics.pwb_overflow_walks)});
    }
    t.print(std::cout);
  }
  return 0;
}
