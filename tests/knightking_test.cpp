// KnightKing-style distributed baseline: conservation, partition ownership,
// communication accounting, and scaling behaviour.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "baseline/knightking.hpp"
#include "graph/datasets.hpp"
#include "rw/algorithms.hpp"

namespace fw::baseline {
namespace {

KnightKingOptions kk_opts(std::uint64_t walks = 5000, std::uint32_t workers = 4) {
  KnightKingOptions o;
  o.workers = workers;
  o.spec.num_walks = walks;
  o.spec.length = 6;
  o.spec.seed = 31;
  return o;
}

TEST(KnightKing, ConservesWalks) {
  const auto g = graph::make_dataset(graph::DatasetId::FS, graph::Scale::kTest);
  KnightKingEngine engine(g, kk_opts());
  const auto r = engine.run();
  EXPECT_EQ(r.base.walks_started, 5000u);
  EXPECT_EQ(r.base.walks_completed, 5000u);
  EXPECT_GT(r.supersteps, 0u);
  EXPECT_LE(r.supersteps, 7u);  // length-6 walks need at most 6-7 steps
}

TEST(KnightKing, WorkerOwnershipPartitionsVertices) {
  const auto g = graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  KnightKingEngine engine(g, kk_opts(100, 4));
  std::vector<std::uint64_t> owned(4, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto w = engine.worker_of(v);
    ASSERT_LT(w, 4u);
    ++owned[w];
  }
  for (const auto count : owned) {
    EXPECT_NEAR(static_cast<double>(count), g.num_vertices() / 4.0,
                g.num_vertices() / 16.0);
  }
}

TEST(KnightKing, CommunicationAccounted) {
  const auto g = graph::make_dataset(graph::DatasetId::FS, graph::Scale::kTest);
  KnightKingEngine engine(g, kk_opts());
  const auto r = engine.run();
  // Random hops on a 4-worker range partition cross workers ~3/4 of the time.
  EXPECT_GT(r.forward_fraction(), 0.4);
  EXPECT_LT(r.forward_fraction(), 1.0);
  EXPECT_EQ(r.network_bytes,
            r.forwarded_walkers * rw::walk_bytes(g.id_bytes()));
  EXPECT_EQ(r.base.exec_time, r.compute_time + r.network_time);
}

TEST(KnightKing, SingleWorkerHasNoNetwork) {
  const auto g = graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  KnightKingEngine engine(g, kk_opts(3000, 1));
  const auto r = engine.run();
  EXPECT_EQ(r.forwarded_walkers, 0u);
  EXPECT_EQ(r.network_time, 0u);
  EXPECT_EQ(r.base.walks_completed, 3000u);
}

TEST(KnightKing, MoreWorkersReduceComputeTime) {
  const auto g = graph::make_dataset(graph::DatasetId::FS, graph::Scale::kTest);
  KnightKingEngine e1(g, kk_opts(20'000, 1));
  KnightKingEngine e8(g, kk_opts(20'000, 8));
  const auto r1 = e1.run();
  const auto r8 = e8.run();
  EXPECT_LT(r8.compute_time, r1.compute_time);
  // ...but the network becomes the cost (the capacity/communication
  // trade-off FlashWalker's in-storage design avoids).
  EXPECT_GT(r8.network_time, r1.network_time);
}

TEST(KnightKing, VisitTotalsMatchReference) {
  const auto g = graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  auto opts = kk_opts(20'000);
  KnightKingEngine engine(g, opts);
  const auto r = engine.run();
  const auto ref = rw::run_walks(g, opts.spec);
  const auto rt = static_cast<double>(ref.total_hops);
  EXPECT_NEAR(static_cast<double>(r.base.total_hops), rt, 0.05 * rt);
}

TEST(KnightKing, RejectsZeroWorkers) {
  const auto g = graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  KnightKingOptions o;
  o.workers = 0;
  EXPECT_THROW(KnightKingEngine(g, o), std::invalid_argument);
}

TEST(KnightKing, RejectsSecondOrderSpecNamingItself) {
  const auto g = graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  KnightKingOptions o = kk_opts();
  o.spec.second_order.enabled = true;
  try {
    KnightKingEngine engine(g, o);
    ADD_FAILURE() << "KnightKing accepted a second-order spec";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("KnightKing"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace fw::baseline
