// Golden determinism tests: the simulator's core contract is that a fixed
// seed reproduces a run *bit-identically* — same walk paths, same simulated
// exec time, same counter registry down to the last byte of the JSON dump.
// Any event queue is a legal one only if it keeps this (equal-tick events
// must fire in insertion order), and bench/regression.py's sim_exec_ns gate
// relies on it.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "accel/builder.hpp"
#include "accel/engine.hpp"
#include "graph/datasets.hpp"
#include "obs/counters.hpp"
#include "rw/parallel_walker.hpp"

namespace fw {
namespace {

accel::EngineOptions engine_opts(std::uint64_t seed) {
  accel::EngineOptions o;
  o.ssd = ssd::test_ssd_config();
  o.spec.num_walks = 3000;
  o.spec.length = 6;
  o.spec.seed = seed;
  return o;
}

std::string counters_dump(const std::vector<obs::CounterSample>& counters) {
  std::ostringstream os;
  obs::write_counters_json(os, counters);
  return os.str();
}

TEST(Determinism, EngineRunsAreBitIdenticalForSameSeed) {
  const auto g = graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  partition::PartitionConfig pc;
  pc.block_capacity_bytes = 4096;
  pc.subgraphs_per_range = 8;
  const partition::PartitionedGraph pg(g, pc);

  auto e1 = accel::SimulationBuilder(pg).options(engine_opts(2024)).build();
  auto e2 = accel::SimulationBuilder(pg).options(engine_opts(2024)).build();
  const auto r1 = e1.run();
  const auto r2 = e2.run();

  EXPECT_EQ(r1.exec_time, r2.exec_time);
  EXPECT_EQ(r1.metrics.total_hops, r2.metrics.total_hops);
  EXPECT_EQ(r1.metrics.walks_completed, r2.metrics.walks_completed);
  EXPECT_EQ(r1.visit_counts, r2.visit_counts);
  // The full registry, compared as the exact JSON bytes --metrics-out would
  // emit: any nondeterminism in any counter fails here by name.
  EXPECT_EQ(r1.counters, r2.counters);
  EXPECT_EQ(counters_dump(r1.counters), counters_dump(r2.counters));
}

TEST(Determinism, EngineRunsDivergeForDifferentSeeds) {
  // Guards against the degenerate way to pass the test above: ignoring the
  // seed entirely.
  const auto g = graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  partition::PartitionConfig pc;
  pc.block_capacity_bytes = 4096;
  pc.subgraphs_per_range = 8;
  const partition::PartitionedGraph pg(g, pc);

  auto e1 = accel::SimulationBuilder(pg).options(engine_opts(2024)).build();
  auto e2 = accel::SimulationBuilder(pg).options(engine_opts(2025)).build();
  EXPECT_NE(e1.run().visit_counts, e2.run().visit_counts);
}

TEST(Determinism, ParallelWalkerBitIdenticalAcrossOneTwoEightThreads) {
  // The host walker derives walk i's RNG stream from (seed, i), so any
  // worker count must reproduce the exact same paths and summary.
  const auto g = graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  rw::WalkSpec spec;
  spec.num_walks = 6000;
  spec.length = 6;
  spec.seed = 31;

  rw::ParallelWalkResult runs[3];
  const std::uint32_t threads[3] = {1, 2, 8};
  for (int i = 0; i < 3; ++i) {
    rw::ParallelWalkOptions opts;
    opts.threads = threads[i];
    opts.record_paths = true;
    runs[i] = rw::run_walks_parallel(g, spec, opts);
    ASSERT_EQ(runs[i].threads_used, threads[i]);
  }
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(runs[0].summary.total_hops, runs[i].summary.total_hops);
    EXPECT_EQ(runs[0].summary.dead_ends, runs[i].summary.dead_ends);
    EXPECT_EQ(runs[0].summary.visit_counts, runs[i].summary.visit_counts);
    EXPECT_EQ(runs[0].paths, runs[i].paths);
  }
}

TEST(Determinism, ParallelWalkerRepeatRunsBitIdentical) {
  const auto g = graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  rw::WalkSpec spec;
  spec.num_walks = 4000;
  spec.length = 6;
  spec.seed = 7;
  rw::ParallelWalkOptions opts;
  opts.threads = 8;
  opts.record_paths = true;
  const auto a = rw::run_walks_parallel(g, spec, opts);
  const auto b = rw::run_walks_parallel(g, spec, opts);
  EXPECT_EQ(a.summary.visit_counts, b.summary.visit_counts);
  EXPECT_EQ(a.paths, b.paths);
}

}  // namespace
}  // namespace fw
