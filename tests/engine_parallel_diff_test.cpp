// Serial-vs-parallel differential harness for the concurrent engine.
//
// The determinism contract of the parallel DES is that the worker count is
// invisible: `--sim-threads N` must produce byte-identical results for any
// N, because workers only change which OS thread executes a shard's window,
// never the merged event order. This suite proves the contract end to end —
// not on the raw simulator (tests/parallel_sim_test.cpp covers that) but on
// the full engine, over a seeded scenario matrix that crosses channel
// counts, walk-model job mixes, and NAND fault injection, comparing the
// complete serialized run report (JSON) and metrics envelope byte for byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "accel/array/board_array.hpp"
#include "accel/builder.hpp"
#include "accel/report.hpp"
#include "accel/service/job.hpp"
#include "common/rng.hpp"
#include "graph/datasets.hpp"
#include "partition/partitioned_graph.hpp"

namespace fw::accel {
namespace {

struct Scenario {
  std::string name;
  std::uint32_t channels = 4;
  bool faults = false;
  std::vector<service::WalkJob> jobs;
};

/// Seeded scenario matrix: for every channel count the acceptance gate
/// names (4, 8, 33) and both fault settings, draw a deepwalk + node2vec +
/// PPR job mix whose counts, lengths, and parameters come from a fixed-seed
/// RNG — varied scenarios, reproducible failures.
std::vector<Scenario> make_matrix(const graph::CsrGraph& g) {
  Xoshiro256 rng(0xD1FFull);
  std::vector<Scenario> matrix;
  for (const std::uint32_t channels : {4u, 8u, 33u}) {
    for (const bool faults : {false, true}) {
      Scenario sc;
      sc.name = std::to_string(channels) + "ch" + (faults ? "+faults" : "");
      sc.channels = channels;
      sc.faults = faults;

      service::WalkJob deepwalk;
      deepwalk.name = "deepwalk";
      deepwalk.spec.num_walks = 100 + rng.bounded(200);
      deepwalk.spec.length = 4 + static_cast<std::uint32_t>(rng.bounded(5));
      deepwalk.spec.seed = rng.next();
      deepwalk.qos = service::QosClass::kSilver;
      sc.jobs.push_back(deepwalk);

      service::WalkJob node2vec;
      node2vec.name = "node2vec";
      node2vec.spec.num_walks = 50 + rng.bounded(150);
      node2vec.spec.length = 4 + static_cast<std::uint32_t>(rng.bounded(4));
      node2vec.spec.second_order.enabled = true;
      node2vec.spec.second_order.p = 0.5 + 0.25 * static_cast<double>(rng.bounded(4));
      node2vec.spec.second_order.q = 0.5 + 0.25 * static_cast<double>(rng.bounded(4));
      node2vec.spec.seed = rng.next();
      node2vec.spec.dead_end = rw::WalkSpec::DeadEnd::kRestart;
      node2vec.qos = service::QosClass::kGold;
      node2vec.arrival = rng.bounded(50'000);
      sc.jobs.push_back(node2vec);

      service::WalkJob ppr;
      ppr.name = "ppr";
      ppr.spec.num_walks = 100 + rng.bounded(100);
      ppr.spec.length = 10;
      ppr.spec.stop_prob = 0.15;
      ppr.spec.start_mode = rw::StartMode::kSingleSource;
      ppr.spec.source = static_cast<VertexId>(rng.bounded(g.num_vertices()));
      ppr.spec.seed = rng.next();
      ppr.arrival = rng.bounded(100'000);
      sc.jobs.push_back(ppr);

      matrix.push_back(std::move(sc));
    }
  }
  return matrix;
}

/// Everything the engine externalizes about a run: the full JSON run report
/// (counters, byte totals, per-job stats), the hierarchical metrics
/// envelope, and the per-vertex outputs the report does not serialize (the
/// run's visit counts and each job's visit and endpoint counts). Equality
/// of all of these is the differential oracle.
struct RunFingerprint {
  Tick exec_time = 0;
  std::string report;
  std::string envelope;
  std::vector<std::uint64_t> visits;
  std::vector<std::vector<std::uint64_t>> job_visits;
  std::vector<std::vector<std::uint64_t>> job_endpoints;

  bool operator==(const RunFingerprint& o) const = default;
};

RunFingerprint run_scenario(const partition::PartitionedGraph& pg,
                            const Scenario& sc, std::uint32_t threads) {
  SimulationConfig cfg;
  cfg.ssd = ssd::test_ssd_config();
  cfg.ssd.topo.channels = sc.channels;
  if (sc.faults) {
    cfg.ssd.reliability.rber.base = 5e-3;
    cfg.ssd.reliability.fault_seed = 7 + sc.channels;
  }
  cfg.accel = bench_accel_config();
  cfg.jobs = sc.jobs;
  cfg.record_visits = true;
  cfg.record_endpoints = true;
  cfg.sim_threads = threads;

  const EngineResult r = SimulationBuilder(pg).config(cfg).run();
  RunFingerprint fp;
  fp.exec_time = r.exec_time;
  fp.report = to_json("diff", r);
  std::ostringstream env;
  write_counters_json(env, r);
  fp.envelope = env.str();
  fp.visits = r.visit_counts;
  for (const service::JobResult& j : r.jobs) {
    fp.job_visits.push_back(j.visit_counts);
    fp.job_endpoints.push_back(j.endpoint_counts);
  }
  return fp;
}

TEST(EngineParallelDiff, WorkerCountIsInvisibleAcrossScenarioMatrix) {
  const graph::CsrGraph g =
      graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  partition::PartitionConfig pc;
  pc.block_capacity_bytes = 16 * KiB;
  pc.subgraphs_per_partition = 2048;
  pc.subgraphs_per_range = 64;
  const partition::PartitionedGraph pg(g, pc);

  for (const Scenario& sc : make_matrix(g)) {
    SCOPED_TRACE(sc.name);
    const RunFingerprint serial = run_scenario(pg, sc, 1);
    ASSERT_FALSE(serial.report.empty());
    ASSERT_GT(serial.exec_time, 0u);
    ASSERT_EQ(serial.job_visits.size(), sc.jobs.size());
    for (const auto& jv : serial.job_visits) {
      ASSERT_EQ(jv.size(), g.num_vertices());  // every job ran and was counted
    }
    for (const std::uint32_t workers : {2u, 4u, 8u}) {
      SCOPED_TRACE(std::to_string(workers) + " workers");
      const RunFingerprint parallel = run_scenario(pg, sc, workers);
      // Byte-equal serialized report and metrics envelope: every counter,
      // byte total, per-job stat, visit/endpoint vector, and the simulated
      // clock agree exactly with the serial reference.
      EXPECT_EQ(serial.exec_time, parallel.exec_time);
      EXPECT_EQ(serial.report, parallel.report);
      EXPECT_EQ(serial.envelope, parallel.envelope);
      EXPECT_EQ(serial.visits, parallel.visits);
      EXPECT_EQ(serial.job_visits, parallel.job_visits);
      EXPECT_EQ(serial.job_endpoints, parallel.job_endpoints);
    }
  }
}

TEST(EngineParallelDiff, ArrayWorkerCountIsInvisible) {
  // Same contract, multi-board shape: a 4-device BoardArray run (fabric
  // shard + 4 boards, cross-device forwarding in flight) serialized at
  // --sim-threads 1 must byte-equal every other worker count. This is the
  // hardest case for the merge order because fabric events interleave with
  // every board's local windows.
  const graph::CsrGraph g =
      graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  partition::PartitionConfig pc;
  pc.block_capacity_bytes = 2 * KiB;
  pc.subgraphs_per_partition = 1;
  pc.subgraphs_per_range = 64;
  const partition::PartitionedGraph pg(g, pc);

  auto run_array = [&pg](std::uint32_t threads) {
    SimulationConfig cfg;
    cfg.ssd = ssd::test_ssd_config();
    cfg.accel = bench_accel_config();
    cfg.record_visits = true;
    cfg.spec.num_walks = 400;
    cfg.spec.length = 6;
    cfg.spec.seed = 0xABCDull;
    cfg.sim_threads = threads;
    cfg.array.devices = 4;
    array::BoardArray array(pg, cfg);
    return to_json("array_diff", array.run());
  };

  const std::string serial = run_array(1);
  ASSERT_FALSE(serial.empty());
  ASSERT_NE(serial.find("\"forwarded_out_walks\""), std::string::npos);
  for (const std::uint32_t workers : {2u, 4u, 8u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    EXPECT_EQ(serial, run_array(workers));
  }
}

TEST(EngineParallelDiff, SingleChannelAndGuiderShardVariantsStayDeterministic) {
  // Degenerate shapes for the sharded board guider pool: one channel (board
  // residue + a single channel shard + the K sub-shards) and K = 1 (the
  // pool collapses to one sub-shard, re-serializing every routing decision
  // behind a single message stream). Every variant must stay byte-identical
  // across worker counts; different K values legitimately produce different
  // schedules and are only compared within themselves.
  const graph::CsrGraph g =
      graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  partition::PartitionConfig pc;
  pc.block_capacity_bytes = 16 * KiB;
  pc.subgraphs_per_partition = 2048;
  pc.subgraphs_per_range = 64;
  const partition::PartitionedGraph pg(g, pc);

  auto run_variant = [&pg](std::uint32_t channels, std::uint32_t kshards,
                           std::uint32_t threads) {
    SimulationConfig cfg;
    cfg.ssd = ssd::test_ssd_config();
    cfg.ssd.topo.channels = channels;
    cfg.accel = bench_accel_config();
    cfg.accel.board_guider_shards = kshards;
    cfg.spec.num_walks = 300;
    cfg.spec.length = 6;
    cfg.spec.seed = 0xFEEDull;
    cfg.record_visits = true;
    cfg.sim_threads = threads;
    const EngineResult r = SimulationBuilder(pg).config(cfg).run();
    return to_json("variant_diff", r);
  };

  for (const std::uint32_t channels : {1u, 4u}) {
    for (const std::uint32_t kshards : {1u, 2u, 8u}) {
      SCOPED_TRACE(std::to_string(channels) + "ch/K=" + std::to_string(kshards));
      const std::string serial = run_variant(channels, kshards, 1);
      ASSERT_FALSE(serial.empty());
      for (const std::uint32_t workers : {2u, 4u, 8u}) {
        SCOPED_TRACE(std::to_string(workers) + " workers");
        EXPECT_EQ(serial, run_variant(channels, kshards, workers));
      }
    }
  }
}

TEST(EngineParallelDiff, RepeatedConcurrentRunsAreReproducible) {
  // Same config, same worker count, run twice: guards against hidden
  // cross-run state (static RNGs, pool reuse) masquerading as determinism.
  const graph::CsrGraph g =
      graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  partition::PartitionConfig pc;
  pc.block_capacity_bytes = 16 * KiB;
  pc.subgraphs_per_partition = 2048;
  pc.subgraphs_per_range = 64;
  const partition::PartitionedGraph pg(g, pc);

  const std::vector<Scenario> matrix = make_matrix(g);
  const Scenario& sc = matrix.front();
  const RunFingerprint a = run_scenario(pg, sc, 8);
  const RunFingerprint b = run_scenario(pg, sc, 8);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace fw::accel
