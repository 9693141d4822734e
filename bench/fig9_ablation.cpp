// Figure 9: FlashWalker speedup under incrementally-enabled optimizations
// over the no-optimization baseline:
//   WQ  (approximate walk search + walk query caches),
//   +HS (hot subgraphs at channel/board level),
//   +SS (Eq. 1 subgraph scheduling, alpha = 0.4 per §IV.E).
// Paper: WQ helps FS/R2B/R8B 13-18%, TT only ~5% (update-bound, skew);
// HS mainly helps TT; SS adds a final increment; CW barely moves (straggler
// bound).
#include <iostream>

#include "accel/config.hpp"
#include "bench_common.hpp"

using namespace fw;

namespace {

accel::EngineResult run_with(graph::DatasetId id, accel::Features f) {
  accel::EngineOptions opts;
  opts.ssd = fw::bench::bench_ssd();
  opts.accel = accel::bench_accel_config();
  opts.accel.features = f;
  if (f.subgraph_scheduling) {
    opts.accel.alpha = 0.4;  // paper §IV.E: reduce channel-bus burden
  }
  opts.spec.num_walks = graph::default_walk_count(id, graph::Scale::kBench);
  opts.spec.length = 6;
  opts.spec.seed = fw::bench::bench_seed();
  opts.record_visits = false;
  auto engine =
      accel::SimulationBuilder(fw::bench::bench_partitioned(id)).options(opts).build();
  return engine.run();
}

}  // namespace

int main() {
  bench::print_banner("Figure 9 — speedup of the proposed optimizations", "Fig. 9");

  TextTable table({"dataset", "baseline", "+WQ", "+WQ+HS", "+WQ+HS+SS", "WQ gain",
                   "HS gain", "SS gain"});
  for (const auto id : bench::bench_datasets()) {
    const auto base = run_with(id, {false, false, false});
    const auto wq = run_with(id, {true, false, false});
    const auto hs = run_with(id, {true, true, false});
    const auto ss = run_with(id, {true, true, true});
    auto pct = [&](const accel::EngineResult& r) {
      return 100.0 * (static_cast<double>(base.exec_time) /
                          static_cast<double>(r.exec_time) -
                      1.0);
    };
    table.add_row({bench::dataset_abbrev(id), TextTable::time_ns(base.exec_time),
                   TextTable::time_ns(wq.exec_time), TextTable::time_ns(hs.exec_time),
                   TextTable::time_ns(ss.exec_time), TextTable::num(pct(wq), 1) + "%",
                   TextTable::num(pct(hs), 1) + "%", TextTable::num(pct(ss), 1) + "%"});
  }
  table.print(std::cout);
  std::cout << "\n(paper: over baseline, full stack improves TT 21.5%, FS 21.3%,\n"
               "R2B 18.8%, R8B 18.3%; CW marginal — straggler-bound. Gains are\n"
               "cumulative percentages over the no-optimization baseline.)\n";
  return 0;
}
