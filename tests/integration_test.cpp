// Cross-engine integration tests: all four execution paths (host reference,
// FlashWalker, GraphWalker, DrunkardMob) run the same workload over the
// same graph and must agree statistically; every engine that holds walks
// in rw::Walk records enforces the same walk-length limit; plus end-to-end
// runs at kSmall scale with the full bench-style configuration.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "accel/builder.hpp"
#include "accel/engine.hpp"
#include "baseline/drunkardmob.hpp"
#include "baseline/graphssd.hpp"
#include "baseline/graphwalker.hpp"
#include "baseline/knightking.hpp"
#include "baseline/thunder.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "rw/algorithms.hpp"
#include "rw/walk.hpp"

namespace fw {
namespace {

/// L1 distance between two visit distributions (each normalized).
double l1_distance(const std::vector<std::uint64_t>& a,
                   const std::vector<std::uint64_t>& b) {
  const double ta = static_cast<double>(std::accumulate(a.begin(), a.end(), 0ull));
  const double tb = static_cast<double>(std::accumulate(b.begin(), b.end(), 0ull));
  if (ta == 0 || tb == 0) return 2.0;
  double d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    d += std::abs(static_cast<double>(a[i]) / ta - static_cast<double>(b[i]) / tb);
  }
  return d;
}

struct AllEngines {
  rw::WalkSummary ref;
  accel::EngineResult fw;
  baseline::BaselineResult gw;
  baseline::BaselineResult dm;
};

AllEngines run_all(const graph::CsrGraph& g, std::uint64_t walks) {
  rw::WalkSpec spec;
  spec.num_walks = walks;
  spec.length = 6;
  spec.seed = 77;

  AllEngines out;
  out.ref = rw::run_walks(g, spec);

  partition::PartitionConfig pc;
  pc.block_capacity_bytes = 4096;
  pc.subgraphs_per_partition = 1u << 20;
  pc.subgraphs_per_range = 8;
  const partition::PartitionedGraph pg(g, pc);
  accel::EngineOptions fw_opts;
  fw_opts.ssd = ssd::test_ssd_config();
  fw_opts.spec = spec;
  auto fw_engine = accel::SimulationBuilder(pg).options(fw_opts).build();
  out.fw = fw_engine.run();

  baseline::GraphWalkerOptions gw_opts;
  gw_opts.ssd = ssd::test_ssd_config();
  gw_opts.spec = spec;
  gw_opts.host.memory_bytes = 64 * KiB;
  gw_opts.host.block_bytes = 8 * KiB;
  baseline::GraphWalkerEngine gw_engine(g, gw_opts);
  out.gw = gw_engine.run();

  baseline::DrunkardMobOptions dm_opts;
  dm_opts.ssd = ssd::test_ssd_config();
  dm_opts.spec = spec;
  dm_opts.host.block_bytes = 8 * KiB;
  baseline::DrunkardMobEngine dm_engine(g, dm_opts);
  out.dm = dm_engine.run();
  return out;
}

TEST(CrossEngine, AllEnginesConserveWalks) {
  const auto g = graph::make_dataset(graph::DatasetId::FS, graph::Scale::kTest);
  const auto all = run_all(g, 20'000);
  EXPECT_EQ(all.fw.metrics.walks_completed, 20'000u);
  EXPECT_EQ(all.gw.walks_completed, 20'000u);
  EXPECT_EQ(all.dm.walks_completed, 20'000u);
  EXPECT_EQ(all.ref.walks, 20'000u);
}

TEST(CrossEngine, VisitDistributionsAgree) {
  // Same workload, independent randomness: the stationary visit
  // distributions must be close in L1 (bounded sampling noise).
  const auto g = graph::make_dataset(graph::DatasetId::FS, graph::Scale::kTest);
  const auto all = run_all(g, 20'000);
  EXPECT_LT(l1_distance(all.ref.visit_counts, all.fw.visit_counts), 0.30);
  EXPECT_LT(l1_distance(all.ref.visit_counts, all.gw.visit_counts), 0.30);
  EXPECT_LT(l1_distance(all.ref.visit_counts, all.dm.visit_counts), 0.30);
  EXPECT_LT(l1_distance(all.fw.visit_counts, all.gw.visit_counts), 0.30);
}

TEST(CrossEngine, HopCountsAgreeWithinNoise) {
  const auto g = graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  const auto all = run_all(g, 20'000);
  const auto ref = static_cast<double>(all.ref.total_hops);
  EXPECT_NEAR(static_cast<double>(all.fw.metrics.total_hops), ref, 0.05 * ref);
  EXPECT_NEAR(static_cast<double>(all.gw.total_hops), ref, 0.05 * ref);
  EXPECT_NEAR(static_cast<double>(all.dm.total_hops), ref, 0.05 * ref);
}

TEST(CrossEngine, PerformanceOrderingHolds) {
  // The paper's ordering at any scale: FlashWalker < GraphWalker <
  // iteration-synchronous DrunkardMob.
  const auto g = graph::make_dataset(graph::DatasetId::FS, graph::Scale::kTest);
  const auto all = run_all(g, 20'000);
  EXPECT_LT(all.fw.exec_time, all.gw.exec_time);
  EXPECT_LT(all.gw.exec_time, all.dm.exec_time);
}

TEST(CrossEngine, BiasedDistributionsAgree) {
  graph::ZipfParams zp;
  zp.num_vertices = 1 << 10;
  zp.num_edges = 16 << 10;
  zp.weighted = true;
  zp.seed = 41;
  const auto g = graph::generate_zipf(zp);

  rw::WalkSpec spec;
  spec.num_walks = 15'000;
  spec.length = 6;
  spec.biased = true;
  spec.seed = 13;

  rw::ItsTable its(g);
  const auto ref = rw::run_walks(g, spec, &its);

  partition::PartitionConfig pc;
  pc.block_capacity_bytes = 4096;
  pc.weighted = true;
  const partition::PartitionedGraph pg(g, pc);
  accel::EngineOptions opts;
  opts.ssd = ssd::test_ssd_config();
  opts.spec = spec;
  auto engine = accel::SimulationBuilder(pg).options(opts).build();
  const auto r = engine.run();
  EXPECT_LT(l1_distance(ref.visit_counts, r.visit_counts), 0.30);
}

/// `run(spec)` builds one engine for `spec`, runs it and returns the hops
/// it took. Over a ring every walk takes all its hops, so a run of
/// kMaxWalkLength shows the hop counter holds it; one hop more, and length
/// 0, must be rejected with the value and the limit, not wrap.
template <typename Run>
void expect_walk_length_limit(const std::string& engine, Run run) {
  rw::WalkSpec spec;
  spec.num_walks = 2;
  spec.seed = 5;
  spec.length = rw::kMaxWalkLength;
  EXPECT_EQ(run(spec), spec.num_walks * rw::kMaxWalkLength) << engine;
  for (const std::uint32_t length : {rw::kMaxWalkLength + 1, 0u}) {
    spec.length = length;
    try {
      (void)run(spec);
      ADD_FAILURE() << engine << " accepted length " << length;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      const std::string value = std::string("walk length ") + std::to_string(length);
      EXPECT_NE(what.find(value), std::string::npos) << engine << ": " << what;
      EXPECT_NE(what.find("limit of 32767"), std::string::npos) << engine << ": " << what;
    }
  }
}

TEST(CrossEngine, MaxWalkLengthRunsAndOneMoreIsRejected) {
  // A directed ring: one out-edge per vertex, so no walk ends early.
  constexpr graph::NeighborId kRing = 64;
  std::vector<EdgeId> offsets(kRing + 1);
  std::iota(offsets.begin(), offsets.end(), EdgeId{0});
  std::vector<graph::NeighborId> next(kRing);
  for (graph::NeighborId v = 0; v < kRing; ++v) next[v] = (v + 1) % kRing;
  const graph::CsrGraph g(std::move(offsets), std::move(next));
  partition::PartitionConfig pc;
  pc.block_capacity_bytes = 4096;
  const partition::PartitionedGraph pg(g, pc);

  expect_walk_length_limit("FlashWalker", [&](const rw::WalkSpec& spec) {
    accel::EngineOptions o;
    o.ssd = ssd::test_ssd_config();
    o.spec = spec;
    return accel::SimulationBuilder(pg).options(o).build().run().metrics.total_hops;
  });
  expect_walk_length_limit("GraphWalker", [&](const rw::WalkSpec& spec) {
    baseline::GraphWalkerOptions o;
    o.ssd = ssd::test_ssd_config();
    o.spec = spec;
    return baseline::GraphWalkerEngine(g, o).run().total_hops;
  });
  expect_walk_length_limit("DrunkardMob", [&](const rw::WalkSpec& spec) {
    baseline::DrunkardMobOptions o;
    o.ssd = ssd::test_ssd_config();
    o.spec = spec;
    return baseline::DrunkardMobEngine(g, o).run().total_hops;
  });
  expect_walk_length_limit("GraphSSD", [&](const rw::WalkSpec& spec) {
    baseline::GraphSsdOptions o;
    o.ssd = ssd::test_ssd_config();
    o.spec = spec;
    return baseline::GraphSsdEngine(g, o).run().total_hops;
  });
  expect_walk_length_limit("KnightKing", [&](const rw::WalkSpec& spec) {
    baseline::KnightKingOptions o;
    o.spec = spec;
    return baseline::KnightKingEngine(g, o).run().base.total_hops;
  });
  expect_walk_length_limit("ThunderRW", [&](const rw::WalkSpec& spec) {
    baseline::ThunderOptions o;
    o.ssd = ssd::test_ssd_config();
    o.spec = spec;
    return baseline::ThunderEngine(g, o).run().total_hops;
  });
}

// --- kSmall end-to-end (bench-shaped config, every dataset) -----------------

class SmallScaleEndToEnd : public ::testing::TestWithParam<graph::DatasetId> {};

TEST_P(SmallScaleEndToEnd, FullSsdRunCompletesAndWins) {
  const auto g = graph::make_dataset(GetParam(), graph::Scale::kSmall);
  partition::PartitionConfig pc;
  pc.block_capacity_bytes = 16 * KiB;
  pc.subgraphs_per_partition = 2048;
  pc.subgraphs_per_range = 64;
  const partition::PartitionedGraph pg(g, pc);

  const std::uint64_t walks = graph::default_walk_count(GetParam(), graph::Scale::kSmall);
  accel::EngineOptions fw_opts;
  fw_opts.ssd = ssd::SsdConfig{};  // full Table I/III SSD
  fw_opts.accel = accel::bench_accel_config();
  fw_opts.spec.num_walks = walks;
  fw_opts.spec.length = 6;
  fw_opts.record_visits = false;
  auto fw_engine = accel::SimulationBuilder(pg).options(fw_opts).build();
  const auto fw = fw_engine.run();
  EXPECT_EQ(fw.metrics.walks_completed, walks);

  baseline::GraphWalkerOptions gw_opts;
  gw_opts.ssd = ssd::SsdConfig{};
  gw_opts.spec = fw_opts.spec;
  gw_opts.host.memory_bytes = 1536 * KiB;  // kSmall graphs are ~0.5-3.5 MiB
  gw_opts.record_visits = false;
  baseline::GraphWalkerEngine gw_engine(g, gw_opts);
  const auto gw = gw_engine.run();
  EXPECT_EQ(gw.walks_completed, walks);

  EXPECT_LT(fw.exec_time, gw.exec_time) << "FlashWalker must win at kSmall scale";
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasets, SmallScaleEndToEnd,
    ::testing::Values(graph::DatasetId::TT, graph::DatasetId::FS, graph::DatasetId::CW,
                      graph::DatasetId::R2B, graph::DatasetId::R8B),
    [](const auto& param_info) { return graph::dataset_info(param_info.param).abbrev; });

}  // namespace
}  // namespace fw
