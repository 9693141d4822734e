// DES hot-path benchmark: end-to-end walk rate, plus (with --parallel) the
// sharded parallel DES and the concurrent engine at 1/2/4/8 workers.
//
// Every measurement is emitted as JSON (BENCH_sim.json) so
// bench/regression.py can track the trajectory across PRs. The end-to-end
// section runs the FlashWalker engine (hops/sec wall-clock) on a
// dataset/scale of choice and records the simulated exec_time, which is
// deterministic for a fixed seed and doubles as a cross-machine regression
// guard.
//
// Usage: sim_hotpath [--out FILE] [--dataset TT] [--scale test|small|bench]
// [--walks N] [--seed N] [--parallel] [--par-events N] [--quick]
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "accel/config.hpp"
#include "accel/builder.hpp"
#include "accel/engine.hpp"
#include "accel/lookahead.hpp"
#include "bench_common.hpp"
#include "common/options.hpp"
#include "common/rng.hpp"
#include "graph/datasets.hpp"
#include "partition/partitioned_graph.hpp"
#include "sim/event_queue.hpp"
#include "sim/parallel_sim.hpp"

namespace fw::bench {
namespace {

// --- parallel section -------------------------------------------------------
//
// Engine-shaped sharded workload for the conservative-lookahead parallel
// DES: one shard per channel plus a hub shard (the board), each shard
// driving self-perpetuating event chains with a mostly-local delay mixture
// (cycles/DRAM, all inside one lookahead window) and a ~6% tail of
// cross-shard sends routed at >= lookahead — the traffic shape
// src/accel/engine.cpp produces per the shard audit. The same workload runs
// on a single serial EventQueue (the baseline) and on
// sim::ParallelSimulator at several worker counts; per-shard checksums and
// event counts must agree across worker counts (the determinism gate).

struct ShardCtx {
  Xoshiro256 rng{0};
  std::uint64_t checksum = 0;
};

/// Shard-local delays: small enough that each shard executes several
/// events per ~260 ns window.
Tick local_delay(Xoshiro256& rng) {
  const std::uint64_t r = rng.bounded(100);
  if (r < 70) return 4 + 4 * rng.bounded(4);  // accelerator cycles
  if (r < 90) return 55;                      // DRAM access
  return 100 + rng.bounded(100);              // short channel hop
}

/// Chain driver over the parallel simulator. Each fire consumes one hop of
/// its chain's budget and schedules exactly one successor, ~6% of them
/// cross-shard (half to the hub, half to a random shard).
struct ParallelDriver {
  sim::ParallelSimulator& ps;
  std::vector<ShardCtx>& ctx;
  std::uint32_t shards;
  Tick lookahead;

  void fire(sim::ShardId s, std::uint32_t hops) {
    ShardCtx& c = ctx[s];
    c.checksum += (ps.shard(s).now() << 1) ^ hops;
    if (hops == 0) return;
    const std::uint64_t r = c.rng.bounded(1000);
    if (r < 60) {
      const auto dst = r < 30 ? sim::ShardId{0}
                              : static_cast<sim::ShardId>(1 + c.rng.bounded(shards - 1));
      ps.shard(s).send(dst, lookahead + c.rng.bounded(256),
                       [this, dst, hops] { fire(dst, hops - 1); });
    } else {
      ps.shard(s).schedule(local_delay(c.rng),
                           [this, s, hops] { fire(s, hops - 1); });
    }
  }
};

/// Identical workload on one serial queue: the speedup
/// denominator. (Event totals match the parallel runs exactly; checksums
/// are not compared against them — single-queue interleaving legitimately
/// orders equal-tick cross traffic differently.)
struct SerialDriver {
  sim::EventQueue& q;
  std::vector<ShardCtx>& ctx;
  std::uint32_t shards;
  Tick lookahead;
  Tick now = 0;

  void fire(std::uint32_t s, std::uint32_t hops) {
    ShardCtx& c = ctx[s];
    c.checksum += (now << 1) ^ hops;
    if (hops == 0) return;
    const std::uint64_t r = c.rng.bounded(1000);
    if (r < 60) {
      const auto dst =
          r < 30 ? 0u : static_cast<std::uint32_t>(1 + c.rng.bounded(shards - 1));
      q.push(now + lookahead + c.rng.bounded(256),
             [this, dst, hops] { fire(dst, hops - 1); });
    } else {
      q.push(now + local_delay(c.rng), [this, s, hops] { fire(s, hops - 1); });
    }
  }
};

struct ParallelRun {
  double events_per_sec = 0.0;
  std::uint64_t events = 0;
  std::uint64_t checksum = 0;
};

constexpr std::uint32_t kParChains = 8;  ///< chains seeded per shard

void seed_shard_rngs(std::vector<ShardCtx>& ctx, std::uint64_t seed) {
  for (std::size_t s = 0; s < ctx.size(); ++s) {
    ctx[s].rng = Xoshiro256(seed ^ (0x9e3779b97f4a7c15ull * (s + 1)));
    ctx[s].checksum = 0;
  }
}

ParallelRun run_parallel(std::uint32_t shards, Tick lookahead, std::uint32_t workers,
                         std::uint32_t hops, std::uint64_t seed) {
  sim::ParallelSimulator ps(shards, lookahead, workers);
  std::vector<ShardCtx> ctx(shards);
  seed_shard_rngs(ctx, seed);
  ParallelDriver drv{ps, ctx, shards, lookahead};
  for (std::uint32_t s = 0; s < shards; ++s) {
    for (std::uint32_t k = 0; k < kParChains; ++k) {
      ps.shard(s).schedule(8 * k + s % 8, [&drv, s, hops] { drv.fire(s, hops); });
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t executed = ps.run();
  const auto t1 = std::chrono::steady_clock::now();

  ParallelRun r;
  r.events = executed;
  r.events_per_sec =
      static_cast<double>(executed) / std::chrono::duration<double>(t1 - t0).count();
  // Fold shard clocks in too: a determinism breach in timing (not just
  // payload order) must flip the checksum.
  for (std::uint32_t s = 0; s < shards; ++s) {
    r.checksum ^= ctx[s].checksum + 0x9e3779b97f4a7c15ull * ps.shard(s).now();
  }
  return r;
}

ParallelRun run_serial_sharded(std::uint32_t shards, Tick lookahead,
                               std::uint32_t hops, std::uint64_t seed) {
  sim::EventQueue q;
  std::vector<ShardCtx> ctx(shards);
  seed_shard_rngs(ctx, seed);
  SerialDriver drv{q, ctx, shards, lookahead};
  for (std::uint32_t s = 0; s < shards; ++s) {
    for (std::uint32_t k = 0; k < kParChains; ++k) {
      q.push(8 * k + s % 8, [&drv, s, hops] { drv.fire(s, hops); });
    }
  }
  ParallelRun r;
  const auto t0 = std::chrono::steady_clock::now();
  while (auto ev = q.try_pop()) {
    drv.now = ev->first;
    ev->second();
    ++r.events;
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.events_per_sec =
      static_cast<double>(r.events) / std::chrono::duration<double>(t1 - t0).count();
  return r;
}

struct E2eResult {
  double wall_s = 0.0;
  double hops_per_sec = 0.0;
  double walks_per_sec = 0.0;
  std::uint64_t total_hops = 0;
  std::uint64_t walks = 0;
  Tick sim_exec_ns = 0;
  accel::ShardAuditReport audit;  ///< filled when measured with audit=true
};

E2eResult measure_engine(graph::DatasetId id, graph::Scale scale, std::uint64_t walks,
                         std::uint64_t seed, std::uint32_t sim_threads = 1,
                         bool audit = false) {
  const graph::CsrGraph g = graph::make_dataset(id, scale);
  const partition::PartitionedGraph pg(g, bench_partition());

  accel::EngineOptions opts;
  opts.ssd = bench_ssd();
  opts.accel = accel::bench_accel_config();
  opts.spec.num_walks = walks ? walks : graph::default_walk_count(id, scale);
  opts.spec.length = 6;
  opts.spec.seed = seed;
  opts.record_visits = false;
  opts.sim_threads = sim_threads;
  opts.shard_audit = audit;

  auto engine = accel::SimulationBuilder(pg).options(opts).build();
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = engine.run();
  const auto t1 = std::chrono::steady_clock::now();

  E2eResult e2e;
  e2e.wall_s = std::chrono::duration<double>(t1 - t0).count();
  e2e.total_hops = result.metrics.total_hops;
  e2e.walks = result.metrics.walks_completed;
  e2e.hops_per_sec = static_cast<double>(e2e.total_hops) / e2e.wall_s;
  e2e.walks_per_sec = static_cast<double>(e2e.walks) / e2e.wall_s;
  e2e.sim_exec_ns = result.exec_time;
  e2e.audit = result.shard_audit;
  return e2e;
}

graph::Scale parse_scale(const std::string& s) {
  if (s == "test") return graph::Scale::kTest;
  if (s == "small") return graph::Scale::kSmall;
  if (s == "bench") return graph::Scale::kBench;
  std::cerr << "unknown scale '" << s << "' (test|small|bench)\n";
  std::exit(2);
}

graph::DatasetId parse_dataset(const std::string& s) {
  for (const auto& info : graph::all_datasets()) {
    if (info.abbrev == s) return info.id;
  }
  std::cerr << "unknown dataset '" << s << "'\n";
  std::exit(2);
}

}  // namespace
}  // namespace fw::bench

int main(int argc, char** argv) {
  using namespace fw;
  using namespace fw::bench;

  std::string out_path = "BENCH_sim.json";
  std::string dataset = "TT";
  std::string scale = "small";
  std::uint64_t walks = 20'000;
  std::uint64_t seed = bench_seed();
  bool parallel = false;
  std::uint64_t par_events = 2'000'000;
  OptionSet opts;
  opts.opt("--out", &out_path, "FILE", "report path (default BENCH_sim.json)");
  opts.opt("--dataset", &dataset, "TT|FS|CW|R2B|R8B", "e2e dataset (default TT)");
  opts.opt("--scale", &scale, "test|small|bench", "e2e dataset scale");
  opts.opt("--walks", &walks, "N", "e2e walk count");
  opts.opt("--seed", &seed, "N", "RNG seed");
  opts.flag("--parallel", &parallel,
            "also measure the sharded parallel DES and\n"
            "the concurrent engine (1/2/4/8 workers)");
  opts.opt("--par-events", &par_events, "N", "parallel-section event target");
  opts.flag("--quick", "CI preset: test scale, 5k walks", [&] {
    scale = "test";
    walks = 5'000;
    par_events = 300'000;
  });
  opts.parse_or_exit(argc, argv,
                     "DES hot-path benchmark: parallel DES + engine throughput");

  print_banner("DES hot path — parallel DES + engine throughput",
               "kernel microbench (not a paper figure)");

  // Parallel DES section: serial sharded baseline + 1/2/4/8-worker runs of
  // the identical workload, with a cross-worker-count determinism check.
  const std::uint32_t par_shards = 1 + bench_ssd().topo.channels;
  const Tick par_lookahead =
      accel::conservative_lookahead_ns(accel::bench_accel_config(), bench_ssd());
  ParallelRun par_serial;
  std::vector<std::pair<std::uint32_t, ParallelRun>> par_runs;
  bool determinism_ok = true;
  if (parallel) {
    const auto hops = static_cast<std::uint32_t>(std::max<std::uint64_t>(
        1, par_events / (par_shards * kParChains) - 1));
    // Warm-up (primes the allocator and branch predictors).
    run_serial_sharded(par_shards, par_lookahead, hops / 4, seed);
    par_serial = run_serial_sharded(par_shards, par_lookahead, hops, seed);
    for (const std::uint32_t w : {1u, 2u, 4u, 8u}) {
      par_runs.emplace_back(w, run_parallel(par_shards, par_lookahead, w, hops, seed));
    }
    for (const auto& [w, r] : par_runs) {
      determinism_ok &= r.checksum == par_runs.front().second.checksum &&
                        r.events == par_runs.front().second.events;
    }
    std::cout << "\nParallel DES (" << par_shards << " shards, lookahead "
              << par_lookahead << " ns, " << par_serial.events << " events):\n"
              << "  serial queue   : "
              << static_cast<std::uint64_t>(par_serial.events_per_sec)
              << " events/s\n";
    for (const auto& [w, r] : par_runs) {
      std::cout << "  " << w << " worker(s)    : "
                << static_cast<std::uint64_t>(r.events_per_sec) << " events/s\n";
    }
    std::cout << "  determinism    : " << (determinism_ok ? "ok" : "FAILED")
              << " (1/2/4/8 workers)\n";
    if (!determinism_ok) {
      std::cerr << "FATAL: parallel runs diverged across worker counts\n";
      return 1;
    }
  }

  // Concurrent-engine section: the full FlashWalker engine at 1/2/4/8 DES
  // workers on the same workload. Every run must report the identical
  // simulated execution (exec_time / hops / walks are bit-deterministic
  // regardless of worker count); walks/sec wall-clock is the speedup story.
  std::vector<std::pair<std::uint32_t, E2eResult>> eng_runs;
  bool engine_determinism_ok = true;
  bool hub_determinism_ok = true;
  if (parallel) {
    for (const std::uint32_t w : {1u, 2u, 4u, 8u}) {
      eng_runs.emplace_back(w, measure_engine(parse_dataset(dataset), parse_scale(scale),
                                              walks, seed, w, /*audit=*/true));
    }
    for (const auto& [w, r] : eng_runs) {
      engine_determinism_ok &= r.sim_exec_ns == eng_runs.front().second.sim_exec_ns &&
                               r.total_hops == eng_runs.front().second.total_hops &&
                               r.walks == eng_runs.front().second.walks;
      // The audit stream itself is part of the determinism contract: the
      // board-hub shape (event balance, batched handoffs, cross traffic)
      // must not depend on the worker count either.
      const accel::ShardAuditReport& base = eng_runs.front().second.audit;
      hub_determinism_ok &= r.audit.events == base.events &&
                            r.audit.board_events == base.board_events &&
                            r.audit.cross_sends == base.cross_sends &&
                            r.audit.board_batches == base.board_batches &&
                            r.audit.board_batched_ops == base.board_batched_ops;
    }
    std::cout << "\nConcurrent engine (" << dataset << "/" << scale << ", "
              << eng_runs.front().second.walks << " walks):\n";
    for (const auto& [w, r] : eng_runs) {
      std::cout << "  " << w << " worker(s)    : "
                << static_cast<std::uint64_t>(r.walks_per_sec) << " walks/s\n";
    }
    std::cout << "  determinism    : " << (engine_determinism_ok ? "ok" : "FAILED")
              << " (1/2/4/8 workers)\n";
    if (!engine_determinism_ok) {
      std::cerr << "FATAL: engine runs diverged across worker counts\n";
      return 1;
    }
    const accel::ShardAuditReport& hub = eng_runs.front().second.audit;
    std::cout << "\nBoard hub (" << hub.shards << " shards):\n"
              << "  events         : " << hub.events << " (board "
              << hub.board_events << ", share "
              << static_cast<double>(hub.board_share_ppm()) / 10000.0 << "%)\n"
              << "  cross sends    : " << hub.cross_sends << "\n"
              << "  board batches  : " << hub.board_batches << " carrying "
              << hub.board_batched_ops << " ops\n"
              << "  determinism    : " << (hub_determinism_ok ? "ok" : "FAILED")
              << " (audit stream, 1/2/4/8 workers)\n";
    if (!hub_determinism_ok) {
      std::cerr << "FATAL: shard-audit streams diverged across worker counts\n";
      return 1;
    }
  }

  const auto e2e =
      measure_engine(parse_dataset(dataset), parse_scale(scale), walks, seed);
  std::cout << "\nEnd-to-end engine (" << dataset << "/" << scale << ", " << e2e.walks
            << " walks):\n"
            << "  wall time      : " << e2e.wall_s << " s\n"
            << "  hops/s (wall)  : " << static_cast<std::uint64_t>(e2e.hops_per_sec)
            << "\n"
            << "  sim exec_time  : " << e2e.sim_exec_ns << " ns (deterministic)\n";

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"schema\": \"fw-bench-sim/2\",\n"
      << "  \"seed\": " << seed << ",\n";
  if (parallel) {
    const double speedup_8w =
        par_runs.back().second.events_per_sec / par_serial.events_per_sec;
    out << "  \"parallel\": {\n"
        << "    \"shards\": " << par_shards << ",\n"
        << "    \"lookahead_ns\": " << par_lookahead << ",\n"
        << "    \"events\": " << par_serial.events << ",\n"
        << "    \"hw_threads\": " << std::thread::hardware_concurrency() << ",\n"
        << "    \"serial_events_per_sec\": "
        << static_cast<std::uint64_t>(par_serial.events_per_sec) << ",\n"
        << "    \"workers\": {";
    for (std::size_t i = 0; i < par_runs.size(); ++i) {
      out << (i ? ", " : "") << "\"" << par_runs[i].first
          << "\": " << static_cast<std::uint64_t>(par_runs[i].second.events_per_sec);
    }
    out << "},\n"
        << "    \"speedup_8w\": " << speedup_8w << ",\n"
        << "    \"determinism_ok\": " << (determinism_ok ? "true" : "false") << "\n"
        << "  },\n";

    const double eng_speedup_8w =
        eng_runs.back().second.walks_per_sec / eng_runs.front().second.walks_per_sec;
    out << "  \"engine_parallel\": {\n"
        << "    \"hw_threads\": " << std::thread::hardware_concurrency() << ",\n"
        << "    \"sim_exec_ns\": " << eng_runs.front().second.sim_exec_ns << ",\n"
        << "    \"workers_walks_per_sec\": {";
    for (std::size_t i = 0; i < eng_runs.size(); ++i) {
      out << (i ? ", " : "") << "\"" << eng_runs[i].first
          << "\": " << static_cast<std::uint64_t>(eng_runs[i].second.walks_per_sec);
    }
    out << "},\n"
        << "    \"speedup_8w\": " << eng_speedup_8w << ",\n"
        << "    \"determinism_ok\": " << (engine_determinism_ok ? "true" : "false")
        << "\n"
        << "  },\n";

    const accel::ShardAuditReport& hub = eng_runs.front().second.audit;
    const std::uint64_t hub_hops = eng_runs.front().second.total_hops;
    out << "  \"board_hub\": {\n"
        << "    \"shards\": " << hub.shards << ",\n"
        << "    \"events\": " << hub.events << ",\n"
        << "    \"board_events\": " << hub.board_events << ",\n"
        << "    \"board_share_ppm\": " << hub.board_share_ppm() << ",\n"
        << "    \"cross_sends\": " << hub.cross_sends << ",\n"
        << "    \"board_batches\": " << hub.board_batches << ",\n"
        << "    \"board_batched_ops\": " << hub.board_batched_ops << ",\n"
        << "    \"total_hops\": " << hub_hops << ",\n"
        << "    \"cross_per_hop\": "
        << (hub_hops ? static_cast<double>(hub.cross_sends) /
                           static_cast<double>(hub_hops)
                     : 0.0)
        << ",\n"
        << "    \"determinism_ok\": " << (hub_determinism_ok ? "true" : "false")
        << "\n"
        << "  },\n";
  }
  out << "  \"e2e\": {\n"
      << "    \"dataset\": \"" << dataset << "\",\n"
      << "    \"scale\": \"" << scale << "\",\n"
      << "    \"walks\": " << e2e.walks << ",\n"
      << "    \"total_hops\": " << e2e.total_hops << ",\n"
      << "    \"wall_s\": " << e2e.wall_s << ",\n"
      << "    \"hops_per_sec\": " << static_cast<std::uint64_t>(e2e.hops_per_sec)
      << ",\n"
      << "    \"sim_exec_ns\": " << e2e.sim_exec_ns << "\n"
      << "  }\n"
      << "}\n";
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}
