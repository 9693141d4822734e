// Tests for the conservative-lookahead parallel DES (sim/parallel_sim):
// cross-worker-count determinism, merge-order rules, window semantics,
// placement, thread use, handler exceptions, and misuse hard-checks — plus
// the engine's shard-audit mode staying bit-identical to the serial
// reference. The determinism cases are the ones the CI TSan job runs to
// prove the barrier protocol race-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "accel/builder.hpp"
#include "accel/lookahead.hpp"
#include "common/rng.hpp"
#include "graph/datasets.hpp"
#include "partition/partitioned_graph.hpp"
#include "sim/parallel_sim.hpp"

namespace fw::sim {
namespace {

constexpr Tick kLookahead = 100;

/// Deterministic chain workload across shards: every handler mixes the
/// execution context (shard, tick, hop) into a per-shard trace checksum and
/// schedules one successor, some of them cross-shard at >= lookahead.
struct ChainState {
  std::vector<std::uint64_t> checksum;
  std::vector<Xoshiro256> rng;

  explicit ChainState(std::uint32_t shards) : checksum(shards) {
    for (std::uint32_t s = 0; s < shards; ++s) rng.emplace_back(1234 + s);
  }
};

struct ChainDriver {
  ParallelSimulator& ps;
  ChainState& st;

  void fire(ShardId s, std::uint32_t hops) {
    st.checksum[s] = st.checksum[s] * 31 + (ps.shard(s).now() ^ hops);
    if (hops == 0) return;
    const std::uint64_t r = st.rng[s].bounded(100);
    if (r < 10) {
      const auto dst = static_cast<ShardId>(st.rng[s].bounded(ps.num_shards()));
      ps.shard(s).send(dst, kLookahead + st.rng[s].bounded(64),
                       [this, dst, hops] { fire(dst, hops - 1); });
    } else {
      ps.shard(s).schedule(1 + st.rng[s].bounded(40),
                           [this, s, hops] { fire(s, hops - 1); });
    }
  }
};

struct RunResult {
  std::vector<std::uint64_t> checksums;
  std::vector<Tick> clocks;
  std::uint64_t executed = 0;
  Tick now = 0;
};

RunResult run_chains(std::uint32_t shards, std::uint32_t workers,
                     std::uint32_t chains, std::uint32_t hops) {
  ParallelSimulator ps(shards, kLookahead, workers);
  ChainState st(shards);
  ChainDriver drv{ps, st};
  for (std::uint32_t s = 0; s < shards; ++s) {
    for (std::uint32_t k = 0; k < chains; ++k) {
      ps.shard(s).schedule(k * 3 + s, [&drv, s, hops] { drv.fire(s, hops); });
    }
  }
  RunResult r;
  r.executed = ps.run();
  r.checksums = st.checksum;
  for (std::uint32_t s = 0; s < shards; ++s) r.clocks.push_back(ps.shard(s).now());
  r.now = ps.now();
  return r;
}

TEST(ParallelSim, WorkerCountsProduceIdenticalResults) {
  // The acceptance determinism gate: 1, 2, and 8 workers must yield
  // bit-identical traces (checksums, per-shard clocks, event counts).
  const RunResult one = run_chains(9, 1, 4, 200);
  const RunResult two = run_chains(9, 2, 4, 200);
  const RunResult eight = run_chains(9, 8, 4, 200);
  EXPECT_EQ(one.checksums, two.checksums);
  EXPECT_EQ(one.checksums, eight.checksums);
  EXPECT_EQ(one.clocks, two.clocks);
  EXPECT_EQ(one.clocks, eight.clocks);
  EXPECT_EQ(one.executed, two.executed);
  EXPECT_EQ(one.executed, eight.executed);
  EXPECT_EQ(one.now, two.now);
  EXPECT_EQ(one.now, eight.now);
  EXPECT_EQ(one.executed, 9u * 4u * 201u);  // every chain ran to completion
}

TEST(ParallelSim, RepeatedRunsAreReproducible) {
  const RunResult a = run_chains(5, 4, 2, 100);
  const RunResult b = run_chains(5, 4, 2, 100);
  EXPECT_EQ(a.checksums, b.checksums);
  EXPECT_EQ(a.executed, b.executed);
}

TEST(ParallelSim, CrossingsMergeInTickSourceSeqOrder) {
  // Three shards bombard shard 0 with same-tick crossings; arrival order at
  // the destination must be (tick, src shard, send seq) regardless of the
  // order the window executed the senders.
  for (std::uint32_t workers : {1u, 2u, 4u}) {
    ParallelSimulator ps(4, kLookahead, workers);
    std::vector<std::pair<ShardId, int>> order;
    for (ShardId src : {3u, 1u, 2u}) {  // scheduled in scrambled shard order
      ps.shard(src).schedule(src, [&ps, &order, src] {
        // All three send()s land on shard 0 at the same absolute tick.
        const Tick at = 2 * kLookahead;
        const Tick d = at - ps.shard(src).now();
        ps.shard(src).send(0, d, [&order, src] { order.emplace_back(src, 0); });
        ps.shard(src).send(0, d, [&order, src] { order.emplace_back(src, 1); });
      });
    }
    ps.run();
    const std::vector<std::pair<ShardId, int>> expect = {
        {1, 0}, {1, 1}, {2, 0}, {2, 1}, {3, 0}, {3, 1}};
    EXPECT_EQ(order, expect) << workers << " workers";
  }
}

TEST(ParallelSim, LocalEventsFireBeforeEqualTickCrossings) {
  // A crossing arriving at tick T merges behind anything the destination
  // already scheduled for T (local pushes carry smaller destination seq).
  ParallelSimulator ps(2, kLookahead, 2);
  std::vector<int> order;
  ps.shard(0).schedule(2 * kLookahead, [&order] { order.push_back(1); });  // local @2L
  ps.shard(1).schedule(0, [&ps, &order] {
    ps.shard(1).send(0, 2 * kLookahead, [&order] { order.push_back(2); });  // cross @2L
  });
  ps.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ParallelSim, EventsCanScheduleAndChainAcrossWindows) {
  ParallelSimulator ps(3, kLookahead, 1);
  Tick seen = 0;
  ps.shard(2).schedule(5, [&ps, &seen] {
    ps.shard(2).send(0, kLookahead, [&ps, &seen] {
      ps.shard(0).schedule(7, [&ps, &seen] { seen = ps.shard(0).now(); });
    });
  });
  ps.run();
  EXPECT_EQ(seen, 5u + kLookahead + 7u);
  EXPECT_EQ(ps.events_executed(), 3u);
}

TEST(ParallelSim, ScheduleAtClampsAPastTickToTheShardClock) {
  // An event scheduled for a tick the shard clock has already passed fires
  // at the clock, never in the past, at every worker count.
  for (std::uint32_t workers : {1u, 2u}) {
    ParallelSimulator ps(2, kLookahead, workers);
    Tick fired_at = 0;
    ps.shard(1).schedule(100, [&ps, &fired_at] {
      ps.shard(1).schedule_at(50, [&ps, &fired_at] { fired_at = ps.shard(1).now(); });
    });
    ps.run();
    EXPECT_EQ(fired_at, 100u) << workers << " workers";
    EXPECT_EQ(ps.shard(1).now(), 100u) << workers << " workers";
    EXPECT_EQ(ps.events_executed(), 2u) << workers << " workers";
  }
}

TEST(ParallelSim, RunUntilBoundsExecutionAndResumes) {
  // The crossing sent at tick 10 lands at 160, beyond `until`: run(100)
  // leaves it queued at its destination, and the next run delivers it at
  // its own tick — at every worker count. The three events run in three
  // different windows, so the shared log needs no synchronization.
  for (std::uint32_t workers : {1u, 2u, 4u}) {
    ParallelSimulator ps(4, kLookahead, workers);
    std::vector<std::pair<ShardId, Tick>> log;
    ps.shard(0).schedule(10, [&ps, &log] {
      log.emplace_back(0, ps.shard(0).now());
      ps.shard(0).send(1, kLookahead + 50,
                       [&ps, &log] { log.emplace_back(1, ps.shard(1).now()); });
    });
    ps.shard(1).schedule(500, [&ps, &log] { log.emplace_back(1, ps.shard(1).now()); });
    EXPECT_EQ(ps.run(100), 1u) << workers << " workers";
    EXPECT_EQ(log.size(), 1u);
    EXPECT_FALSE(ps.idle());
    EXPECT_EQ(ps.shard(1).pending(), 2u);  // the crossing waits at shard 1
    // The clock rests on the last executed event while work remains
    // pending beyond the bound.
    EXPECT_EQ(ps.now(), 10u);
    EXPECT_EQ(ps.run(), 2u);
    EXPECT_TRUE(ps.idle());
    EXPECT_EQ(ps.now(), 500u);
    const std::vector<std::pair<ShardId, Tick>> expect = {
        {0, 10}, {1, 10 + kLookahead + 50}, {1, 500}};
    EXPECT_EQ(log, expect) << workers << " workers";
  }
}

/// Chains that stay on one shard for a long stretch of hops, then move to
/// another: the busy shards change as the run goes on.
struct MigratingChains {
  ParallelSimulator& ps;
  ChainState& st;

  void fire(ShardId s, std::uint32_t hops) {
    st.checksum[s] = st.checksum[s] * 31 + (ps.shard(s).now() ^ hops);
    if (hops == 0) return;
    if (hops % 3000 == 0) {
      const ShardId dst = (s + 3) % ps.num_shards();
      ps.shard(s).send(dst, kLookahead + st.rng[s].bounded(64),
                       [this, dst, hops] { fire(dst, hops - 1); });
    } else {
      ps.shard(s).schedule(1 + st.rng[s].bounded(40),
                           [this, s, hops] { fire(s, hops - 1); });
    }
  }
};

TEST(ParallelSim, PlacementFollowsLoadWithoutChangingResults) {
  // Load starts on shards 0 and 1 and walks around the ring. The run spans
  // several rebalance periods, so placement moves shards between workers,
  // yet every worker count yields the same checksums, clocks and counts.
  constexpr std::uint32_t kShards = 9;
  constexpr std::uint32_t kHops = 12000;
  auto run = [](std::uint32_t workers) {
    ParallelSimulator ps(kShards, kLookahead, workers);
    ChainState st(kShards);
    MigratingChains drv{ps, st};
    for (ShardId s : {0u, 1u}) {
      for (std::uint32_t k = 0; k < 3; ++k) {
        ps.shard(s).schedule(k, [&drv, s] { drv.fire(s, kHops); });
      }
    }
    RunResult r;
    r.executed = ps.run();
    r.checksums = st.checksum;
    for (ShardId s = 0; s < kShards; ++s) r.clocks.push_back(ps.shard(s).now());
    r.now = ps.now();
    return std::make_pair(r, ps.placement_changes());
  };
  const auto [one, one_changes] = run(1);
  EXPECT_EQ(one.executed, 6u * (kHops + 1));
  EXPECT_EQ(one_changes, 0u);  // a single worker owns every shard
  EXPECT_GT(one.now / kLookahead, 2 * ParallelSimulator::kRebalanceWindows);
  for (std::uint32_t workers = 2; workers <= 8; ++workers) {
    const auto [r, changes] = run(workers);
    EXPECT_GE(changes, 1u) << workers << " workers";
    EXPECT_EQ(r.checksums, one.checksums) << workers << " workers";
    EXPECT_EQ(r.clocks, one.clocks) << workers << " workers";
    EXPECT_EQ(r.executed, one.executed) << workers << " workers";
    EXPECT_EQ(r.now, one.now) << workers << " workers";
  }
}

TEST(ParallelSim, RunUsesAtMostWorkersThreadsIncludingTheCaller) {
  constexpr std::uint32_t kShards = 9;
  for (std::uint32_t workers : {1u, 2u, 4u, 8u}) {
    ParallelSimulator ps(kShards, kLookahead, workers);
    // Per-shard logs: each is written only by the thread draining its shard.
    std::vector<std::vector<std::thread::id>> seen(kShards);
    auto record = [&seen](ShardId s) { seen[s].push_back(std::this_thread::get_id()); };
    for (ShardId s = 0; s < kShards; ++s) {
      for (Tick t = 0; t < 20; ++t) {
        ps.shard(s).schedule(t * kLookahead / 2, [&record, s] { record(s); });
      }
    }
    ps.run();
    std::vector<std::thread::id> threads;
    for (const auto& ids : seen) threads.insert(threads.end(), ids.begin(), ids.end());
    std::sort(threads.begin(), threads.end());
    threads.erase(std::unique(threads.begin(), threads.end()), threads.end());
    EXPECT_LE(threads.size(), workers);
    const std::thread::id caller = std::this_thread::get_id();
    EXPECT_EQ(std::count(threads.begin(), threads.end(), caller), 1)
        << "the caller drains shards as worker 0 (" << workers << " workers)";
  }
}

TEST(ParallelSim, HandlerExceptionReachesTheCallerAtAnyWorkerCount) {
  // Shards 3 and 1 throw in the same window. Every worker count rethrows
  // shard 1's exception on the caller, as a single worker does, and no
  // later window runs.
  for (std::uint32_t workers : {1u, 2u, 4u}) {
    ParallelSimulator ps(4, kLookahead, workers);
    std::atomic<int> later{0};
    ps.shard(3).schedule(20, [] { throw std::runtime_error("shard 3"); });
    ps.shard(1).schedule(30, [] { throw std::runtime_error("shard 1"); });
    ps.shard(2).schedule(5 * kLookahead, [&later] { ++later; });
    try {
      ps.run();
      ADD_FAILURE() << "no exception at " << workers << " workers";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "shard 1") << workers << " workers";
    }
    EXPECT_EQ(later.load(), 0) << workers << " workers";
  }
}

TEST(ParallelSim, SendsMadeBetweenRunsArriveInTheNextRun) {
  for (std::uint32_t workers : {1u, 2u}) {
    ParallelSimulator ps(2, kLookahead, workers);
    std::vector<Tick> seen;  // only shard 1 writes
    for (int round = 0; round < 2; ++round) {
      const Tick sent = ps.shard(0).now();
      ps.shard(0).send(1, kLookahead,
                       [&ps, &seen] { seen.push_back(ps.shard(1).now()); });
      EXPECT_FALSE(ps.idle());
      EXPECT_EQ(ps.run(), 1u) << workers << " workers, round " << round;
      EXPECT_TRUE(ps.idle());
      ASSERT_EQ(seen.size(), static_cast<std::size_t>(round + 1));
      EXPECT_EQ(seen.back(), sent + kLookahead);
    }
  }
}

TEST(ParallelSim, SelfSendIsLocalAndUnconstrained) {
  ParallelSimulator ps(2, kLookahead, 1);
  int fired = 0;
  ps.shard(1).schedule(0, [&ps, &fired] {
    ps.shard(1).send(1, 1, [&fired] { ++fired; });  // below lookahead: fine
  });
  ps.run();
  EXPECT_EQ(fired, 1);
}

TEST(ParallelSim, RejectsSubLookaheadCrossSends) {
  ParallelSimulator ps(2, kLookahead, 1);
  bool threw = false;
  ps.shard(0).schedule(0, [&ps, &threw] {
    try {
      ps.shard(0).send(1, kLookahead - 1, [] {});
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  ps.run();
  EXPECT_TRUE(threw);
}

TEST(ParallelSim, RejectsUnknownDestinationAndBadConfig) {
  ParallelSimulator ps(2, kLookahead, 1);
  EXPECT_THROW(ps.shard(0).send(2, kLookahead, [] {}), std::out_of_range);
  EXPECT_THROW(ParallelSimulator(0, kLookahead), std::invalid_argument);
  EXPECT_THROW(ParallelSimulator(4, 0), std::invalid_argument);
}

TEST(ParallelSim, WorkerCountClampsToShards) {
  ParallelSimulator ps(3, kLookahead, 64);
  EXPECT_EQ(ps.workers(), 3u);
  // Atomic: the three events land in one window, so with 3 workers they
  // execute concurrently — shared test state needs its own synchronization.
  std::atomic<int> fired{0};
  for (ShardId s = 0; s < 3; ++s) ps.shard(s).schedule(s, [&fired] { ++fired; });
  ps.run();
  EXPECT_EQ(fired.load(), 3);
}

TEST(ParallelSim, WindowFlushFiresOncePerWindowOnEveryShard) {
  // The flush hook runs at the end of every drain_window pass — including
  // on shards that executed nothing in the window — so its cadence is a
  // pure function of the window schedule, never of the worker count.
  auto run = [](std::uint32_t workers) {
    ParallelSimulator ps(3, kLookahead, workers);
    // Per-shard slots: each hook writes only its own element, so the
    // threaded modes need no extra synchronization.
    std::vector<std::uint64_t> flushes(3, 0);
    for (ShardId s = 0; s < 3; ++s) {
      ps.shard(s).set_window_flush([&flushes, s](Shard&) { ++flushes[s]; });
    }
    // Four events on shard 0, spaced beyond the lookahead: four windows.
    // Shards 1 and 2 stay empty the whole run.
    for (Tick t = 0; t < 4; ++t) {
      ps.shard(0).schedule(t * 3 * kLookahead, [] {});
    }
    ps.run();
    return flushes;
  };
  const auto one = run(1);
  EXPECT_EQ(one, (std::vector<std::uint64_t>{4, 4, 4}));
  EXPECT_EQ(run(2), one);
  EXPECT_EQ(run(3), one);
}

TEST(ParallelSim, WindowFlushBatchesStraddlingAWindowLeaveOnce) {
  // Two events execute on shard 1 inside one window and stage work for
  // shard 0. The flush hook coalesces the staging into ONE send_at, so the
  // batch crosses the window boundary as a single message, delivered at the
  // latest staged arrival, with the staged order preserved — identically
  // for every worker count.
  struct Delivery {
    Tick at = 0;
    std::vector<int> items;
    bool operator==(const Delivery& o) const {
      return at == o.at && items == o.items;
    }
  };
  auto run = [](std::uint32_t workers) {
    ParallelSimulator ps(2, kLookahead, workers);
    std::vector<int> staged;
    Tick staged_at = 0;
    std::vector<Delivery> deliveries;  // only shard 0 writes
    ps.shard(1).set_window_flush([&](Shard& sh) {
      if (staged.empty()) return;
      const Tick at = std::max(staged_at, sh.now() + kLookahead);
      sh.send_at(0, at, [&ps, &deliveries, items = std::move(staged)] {
        deliveries.push_back(Delivery{ps.shard(0).now(), items});
      });
      staged.clear();
    });
    auto stage = [&](int item) {
      staged.push_back(item);
      staged_at = ps.shard(1).now() + kLookahead;
    };
    ps.shard(1).schedule(0, [&stage] { stage(1); });
    ps.shard(1).schedule(10, [&stage] { stage(2); });
    ps.run();
    return deliveries;
  };
  const auto one = run(1);
  ASSERT_EQ(one.size(), 1u);  // one batch, not one message per event
  EXPECT_EQ(one[0].at, 10u + kLookahead);
  EXPECT_EQ(one[0].items, (std::vector<int>{1, 2}));
  EXPECT_EQ(run(2), one);
}

TEST(ParallelSim, SendAtRejectsSubLookaheadDeliveries) {
  ParallelSimulator ps(2, kLookahead, 1);
  bool threw = false;
  int fired = 0;
  ps.shard(0).schedule(5, [&] {
    try {
      ps.shard(0).send_at(1, 5 + kLookahead - 1, [] {});
    } catch (const std::logic_error&) {
      threw = true;
    }
    ps.shard(0).send_at(1, 5 + kLookahead, [&fired] { ++fired; });
    ps.shard(0).send_at(0, 6, [&fired] { ++fired; });  // self: unconstrained
  });
  ps.run();
  EXPECT_TRUE(threw);
  EXPECT_EQ(fired, 2);
}

}  // namespace
}  // namespace fw::sim

namespace fw::accel {
namespace {

/// Engine on the parallel DES: worker count must not perturb the run, the
/// audit is a pure observer behind its own flag, and — now that every
/// cross-shard handoff pays its honest ONFI-command + DRAM-hop floor —
/// the audit must report zero lookahead violations on the default config.
TEST(EngineShardAudit, ConcurrentRunIsBitIdenticalAndViolationFree) {
  const graph::CsrGraph g = graph::make_dataset(graph::DatasetId::TT, graph::Scale::kTest);
  partition::PartitionConfig pc;
  pc.block_capacity_bytes = 16 * KiB;
  pc.subgraphs_per_partition = 2048;
  pc.subgraphs_per_range = 64;
  const partition::PartitionedGraph pg(g, pc);

  auto run_with = [&](std::uint32_t threads, bool audit) {
    SimulationConfig cfg;
    cfg.ssd = ssd::test_ssd_config();
    cfg.accel = bench_accel_config();
    cfg.spec.num_walks = 500;
    cfg.spec.length = 6;
    cfg.spec.seed = 42;
    cfg.record_visits = true;
    cfg.sim_threads = threads;
    cfg.shard_audit = audit;
    return SimulationBuilder(pg).config(cfg).run();
  };

  const EngineResult serial = run_with(1, /*audit=*/false);
  const EngineResult audited = run_with(8, /*audit=*/true);

  EXPECT_FALSE(serial.shard_audit.enabled);
  ASSERT_TRUE(audited.shard_audit.enabled);
  // Bit-identical simulation: same exec time, hop counts, visit vector —
  // the audit observes, it never perturbs.
  EXPECT_EQ(serial.exec_time, audited.exec_time);
  EXPECT_EQ(serial.metrics.total_hops, audited.metrics.total_hops);
  EXPECT_EQ(serial.metrics.walks_completed, audited.metrics.walks_completed);
  EXPECT_EQ(serial.flash_read_bytes, audited.flash_read_bytes);
  EXPECT_EQ(serial.visit_counts, audited.visit_counts);

  const ShardAuditReport& a = audited.shard_audit;
  EXPECT_EQ(a.shards, FlashWalkerEngine::local_shard_count(bench_accel_config(),
                                                           ssd::test_ssd_config()));
  EXPECT_EQ(a.lookahead_ns,
            conservative_lookahead_ns(bench_accel_config(), ssd::test_ssd_config()));
  EXPECT_GT(a.events, 0u);
  EXPECT_GT(a.cross_sends, 0u);  // channel<->board traffic exists
  EXPECT_LE(a.max_shard_events, a.events);
  EXPECT_LE(a.min_shard_events, a.max_shard_events);
  // The board residue shard no longer hosts per-hop work, but it still
  // executes events; its share of the stream is a proper fraction.
  EXPECT_GT(a.board_events, 0u);
  EXPECT_LE(a.board_events, a.events);
  EXPECT_LE(a.board_share_ppm(), 1000000u);
  // Windowed batching ran: ops crossed in aggregated messages, and each
  // batch carried at least one op.
  EXPECT_GT(a.board_batches, 0u);
  EXPECT_GE(a.board_batched_ops, a.board_batches);
  // The regression pin for the handoff-cost fix: every cross-shard send
  // pays at least the conservative window, so zero-latency sends can never
  // silently return.
  EXPECT_EQ(a.lookahead_violations, 0u);
  EXPECT_GE(a.min_cross_delay_ns, a.lookahead_ns);
}

}  // namespace
}  // namespace fw::accel
