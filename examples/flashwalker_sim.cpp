// flashwalker_sim — command-line driver for the full simulator.
//
// Runs a random-walk workload through FlashWalker, GraphWalker, and/or the
// DrunkardMob iteration baseline on a chosen dataset (or an edge-list file)
// and prints a comparison report with energy estimates. With --jobs, runs a
// multi-job mix through the WalkService (FlashWalker only): N concurrent
// walk jobs multiplexed over one shared accelerator hierarchy with
// weighted-fair scheduling and per-job outputs.
//
// Run with --help for the full option table (generated from the shared
// fw::OptionSet registration below).
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "accel/array/board_array.hpp"
#include "accel/builder.hpp"
#include "accel/energy_model.hpp"
#include "accel/engine.hpp"
#include "accel/report.hpp"
#include "accel/service/jobs_spec.hpp"
#include "accel/service/walk_service.hpp"
#include "baseline/drunkardmob.hpp"
#include "baseline/graphssd.hpp"
#include "baseline/graphwalker.hpp"
#include "baseline/thunder.hpp"
#include "common/options.hpp"
#include "common/table.hpp"
#include "graph/datasets.hpp"
#include "graph/graph_stats.hpp"
#include "graph/io.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "ssd/reliability/options.hpp"

using namespace fw;

namespace {

struct CliOptions {
  graph::DatasetId dataset = graph::DatasetId::FS;
  std::string graph_path;
  std::uint64_t walks = 0;
  std::uint32_t length = 6;
  bool biased = false;
  std::optional<std::pair<double, double>> node2vec;
  bool run_fw = true, run_gw = true, run_dm = false, run_tr = false, run_gs = false;
  accel::Features features;
  std::uint64_t memory = 6 * MiB;
  graph::Scale scale = graph::Scale::kBench;
  std::uint64_t seed = 42;
  std::string json_path;
  std::string trace_path;
  std::string metrics_path;
  std::string jobs_spec;
  std::uint32_t labels = 0;
  std::uint32_t sim_threads = 1;
  bool shard_audit = false;
  std::uint32_t devices = 1;
  Tick link_ns = accel::array::ArrayConfig{}.link_ns;
  std::uint32_t forward_batch = accel::array::ArrayConfig{}.forward_batch;
  ssd::SsdConfig ssd{};
};

/// Shard-audit summary for `--sim-threads N` runs (FlashWalker only).
void print_shard_audit(const accel::ShardAuditReport& a,
                       const std::string& label = "parallel-DES") {
  if (!a.enabled) return;
  const double cross_pct =
      a.local_sends + a.cross_sends == 0
          ? 0.0
          : 100.0 * static_cast<double>(a.cross_sends) /
                static_cast<double>(a.local_sends + a.cross_sends);
  std::cout << "\n" << label << " shard audit (" << a.shards << " shards, lookahead "
            << a.lookahead_ns << " ns):\n"
            << "  events        : " << a.events << " (busiest shard "
            << a.max_shard_events << ")\n"
            << "  occupancy     : min " << a.min_shard_events << ", max "
            << a.max_shard_events << " events/shard; board share "
            << TextTable::num(static_cast<double>(a.board_share_ppm()) / 10000.0, 2)
            << "%\n"
            << "  board batches : " << a.board_batches << " windows carrying "
            << a.board_batched_ops << " staged ops\n"
            << "  cross-shard   : " << a.cross_sends << " sends ("
            << TextTable::num(cross_pct, 1) << "% of traffic), min delay "
            << a.min_cross_delay_ns << " ns\n"
            << "  violations    : " << a.lookahead_violations
            << " sends inside the lookahead window\n";
}

CliOptions parse(int argc, char** argv) {
  CliOptions o;
  OptionSet opts;
  opts.opt("--dataset", "TT|FS|CW|R2B|R8B", "scaled Table-IV dataset (default FS)",
           [&o](const std::string& name) {
             for (const auto& info : graph::all_datasets()) {
               if (info.abbrev == name) {
                 o.dataset = info.id;
                 return;
               }
             }
             throw std::invalid_argument("--dataset: unknown dataset '" + name + "'");
           });
  opts.opt("--graph", &o.graph_path, "PATH", "load an edge-list file instead");
  opts.opt("--walks", &o.walks, "N", "number of walks (default: dataset default)");
  opts.opt("--length", &o.length, "N", "walk length (default 6)");
  opts.flag("--biased", &o.biased, "edge-weight-biased walks (ITS)");
  opts.opt("--node2vec", "P,Q", "second-order walks with p/q",
           [&o](const std::string& v) {
             const auto comma = v.find(',');
             if (comma == std::string::npos) {
               throw std::invalid_argument("--node2vec: expected P,Q, got '" + v + "'");
             }
             o.node2vec = {OptionSet::to_f64("--node2vec", v.substr(0, comma)),
                           OptionSet::to_f64("--node2vec", v.substr(comma + 1))};
           });
  opts.opt("--engines", "fw,gw,dm,tr,gs", "which engines to run (default fw,gw)",
           [&o](const std::string& list) {
             o.run_fw = o.run_gw = o.run_dm = o.run_tr = o.run_gs = false;
             for (std::size_t begin = 0, end = 0; end != std::string::npos;
                  begin = end + 1) {
               end = list.find(',', begin);
               const std::string name = list.substr(begin, end - begin);
               if (name == "fw") {
                 o.run_fw = true;
               } else if (name == "gw") {
                 o.run_gw = true;
               } else if (name == "dm") {
                 o.run_dm = true;
               } else if (name == "tr") {
                 o.run_tr = true;
               } else if (name == "gs") {
                 o.run_gs = true;
               } else {
                 throw std::invalid_argument("--engines: unknown engine '" + name +
                                             "' (expected fw, gw, dm, tr or gs)");
               }
             }
           });
  opts.flag("--no-wq", "disable walk-query merging",
            [&o] { o.features.walk_query = false; });
  opts.flag("--no-hs", "disable hot-subgraph pinning",
            [&o] { o.features.hot_subgraphs = false; });
  opts.flag("--no-ss", "disable subgraph scheduling",
            [&o] { o.features.subgraph_scheduling = false; });
  opts.opt("--memory", &o.memory, "BYTES", "GraphWalker cache (default 6 MiB)");
  opts.opt("--scale", "test|small|bench", "dataset scale (default bench)",
           [&o](const std::string& s) {
             if (s == "test") {
               o.scale = graph::Scale::kTest;
             } else if (s == "small") {
               o.scale = graph::Scale::kSmall;
             } else if (s == "bench") {
               o.scale = graph::Scale::kBench;
             } else {
               throw std::invalid_argument("--scale: unknown scale '" + s + "'");
             }
           });
  opts.opt("--seed", &o.seed, "N", "RNG seed (default 42)");
  opts.opt("--labels", &o.labels, "N",
           "attach N deterministic per-vertex labels\n"
           "(heterogeneous graph; label = hash(seed, v)\n"
           "% N; required by the metapath model)");
  opts.opt("--sim-threads", &o.sim_threads, "N",
           "parallel-DES threads, the caller included:\n"
           "shards execute concurrently, bit-identical\n"
           "to N=1 for any N (FlashWalker only;\n"
           "incompatible with --trace-out)");
  opts.flag("--shard-audit", &o.shard_audit,
            "record the cross-shard traffic audit\n"
            "(pure observation; printed after the run)");
  opts.opt("--devices", &o.devices, "N",
           "multi-SSD array: shard the graph across N\n"
           "FlashWalker boards behind a host fabric\n"
           "(default 1; FlashWalker only, incompatible\n"
           "with --trace-out)");
  opts.opt("--link-ns", &o.link_ns, "NS",
           "array fabric per-hop latency (default 600;\nfloored to the DES lookahead)");
  opts.opt("--forward-batch", &o.forward_batch, "N",
           "walks buffered per destination board before\n"
           "a cross-device forward ships (default 32)");
  opts.opt("--json", &o.json_path, "PATH", "full FlashWalker run report as JSON");
  opts.opt("--trace-out", &o.trace_path, "PATH",
           "Chrome trace_event JSON of the FW run\n"
           "(open in Perfetto / chrome://tracing)");
  opts.opt("--metrics-out", &o.metrics_path, "PATH",
           "hierarchical counter JSON for every\n"
           "engine that ran (artifact comparison)");
  ssd::add_reliability_options(opts, &o.ssd.reliability);
  opts.opt("--jobs", &o.jobs_spec, "SPEC",
           "multi-job mix through the WalkService\n(FlashWalker only)\n" +
               accel::service::jobs_help());
  opts.parse_or_exit(argc, argv, "FlashWalker vs. baseline random-walk simulation");
  if (o.sim_threads > 1 && !o.trace_path.empty()) {
    std::cerr << "--trace-out requires --sim-threads 1 (the trace recorder is a "
                 "single shared sink)\n";
    std::exit(2);
  }
  if (!o.trace_path.empty() && !o.run_fw && o.jobs_spec.empty()) {
    std::cerr << "--trace-out traces the FlashWalker engine; include fw in "
                 "--engines\n";
    std::exit(2);
  }
  if (o.devices == 0) {
    std::cerr << "--devices must be >= 1\n";
    std::exit(2);
  }
  if (o.devices > 1 && !o.trace_path.empty()) {
    std::cerr << "--trace-out requires --devices 1 (a forwarded walk's spans would "
                 "split across boards)\n";
    std::exit(2);
  }
  if (o.devices > 1 && !o.run_fw) {
    std::cerr << "--devices applies to the FlashWalker engine; include fw in "
                 "--engines\n";
    std::exit(2);
  }
  if (o.labels > 255) {
    std::cerr << "--labels: at most 255 label classes (labels are one byte)\n";
    std::exit(2);
  }
  return o;
}

/// Multi-job service run: parse the mix, submit, print the per-job table
/// and service-level summary, honor --json/--trace-out/--metrics-out.
int run_service(const CliOptions& cli, const partition::PartitionedGraph& pg,
                accel::SimulationConfig cfg) {
  accel::service::JobSpecDefaults defaults;
  defaults.base_seed = cli.seed;
  defaults.length = cli.length;
  if (cli.walks > 0) defaults.walks = cli.walks;

  obs::TraceRecorder trace;
  if (!cli.trace_path.empty()) cfg.trace = &trace;
  accel::service::WalkService service(pg, std::move(cfg));
  for (auto& job : accel::service::parse_jobs(cli.jobs_spec, defaults)) {
    service.submit(std::move(job));
  }
  const auto res = service.run();

  TextTable table(
      {"job", "qos", "weight", "walks", "steps", "exec", "latency", "steps/s"});
  for (const auto& jr : res.jobs()) {
    table.add_row({jr.stats.name, std::string(accel::service::qos_name(jr.stats.qos)),
                   std::to_string(jr.stats.weight), std::to_string(jr.stats.walks),
                   std::to_string(jr.stats.steps),
                   TextTable::time_ns(jr.stats.exec_ns()),
                   TextTable::time_ns(jr.stats.latency_ns()),
                   TextTable::num(jr.stats.steps_per_sec(), 0)});
  }
  table.print(std::cout);
  std::cout << "\nservice: makespan " << TextTable::time_ns(res.makespan)
            << ", aggregate " << TextTable::num(res.aggregate_steps_per_sec, 0)
            << " steps/s, fairness " << TextTable::num(res.fairness_ratio, 2) << "x\n"
            << "latency: p50 "
            << TextTable::time_ns(static_cast<Tick>(res.latency_p50_ns))
            << ", p95 " << TextTable::time_ns(static_cast<Tick>(res.latency_p95_ns))
            << ", p99 " << TextTable::time_ns(static_cast<Tick>(res.latency_p99_ns))
            << "\n";
  print_shard_audit(res.engine.shard_audit);

  if (!cli.trace_path.empty()) {
    std::ofstream out(cli.trace_path);
    if (!out) {
      std::cerr << "cannot write " << cli.trace_path << "\n";
    } else {
      trace.write_json(out);
      out << "\n";
      std::cout << "wrote Chrome trace (" << trace.num_events() << " events) to "
                << cli.trace_path << "\n";
    }
  }
  if (!cli.json_path.empty()) {
    std::ofstream json(cli.json_path);
    accel::write_json(json, "flashwalker-service", res.engine);
    json << "\n";
    std::cout << "wrote JSON report to " << cli.json_path << "\n";
  }
  if (!cli.metrics_path.empty()) {
    std::ofstream out(cli.metrics_path);
    if (!out) {
      std::cerr << "cannot write " << cli.metrics_path << "\n";
      return 1;
    }
    out << "{\"schema_version\":" << accel::kReportSchemaVersion
        << ",\"engines\":{\"flashwalker\":";
    accel::write_counters_json(out, res.engine);
    out << "}}\n";
    std::cout << "wrote metrics JSON to " << cli.metrics_path << "\n";
  }
  return 0;
}

/// Multi-SSD array run (--devices > 1, FlashWalker only): shard the graph
/// across N boards, print the fabric/per-board summary, honor
/// --json/--metrics-out. With --jobs the mix runs directly as the array's
/// job list (every board admits the same jobs; walks split by ownership).
int run_array(const CliOptions& cli, const partition::PartitionedGraph& pg,
              accel::SimulationConfig cfg) {
  cfg.array.devices = cli.devices;
  cfg.array.link_ns = cli.link_ns;
  cfg.array.forward_batch = cli.forward_batch;
  if (!cli.jobs_spec.empty()) {
    accel::service::JobSpecDefaults defaults;
    defaults.base_seed = cli.seed;
    defaults.length = cli.length;
    if (cli.walks > 0) defaults.walks = cli.walks;
    cfg.jobs = accel::service::parse_jobs(cli.jobs_spec, defaults);
  }
  accel::array::BoardArray arr(pg, std::move(cfg));
  const auto res = arr.run();

  std::cout << "array: " << res.devices << " devices, exec "
            << TextTable::time_ns(res.exec_time) << ", aggregate "
            << TextTable::num(res.walks_per_sec(), 0) << " walks/s\n"
            << "fabric: " << res.fabric.batches << " batches / " << res.fabric.walks
            << " walks / " << TextTable::bytes(res.fabric.bytes) << " forwarded, "
            << res.fabric.job_notifications << " completion notices, hop "
            << res.fabric.link_ns << " ns\n\n";
  TextTable table({"board", "hops", "fwd out", "fwd in", "batches", "timeouts"});
  for (std::size_t d = 0; d < res.boards.size(); ++d) {
    const auto& m = res.boards[d].metrics;
    table.add_row({"board" + std::to_string(d), std::to_string(m.total_hops),
                   std::to_string(m.forwarded_out_walks),
                   std::to_string(m.forwarded_in_walks),
                   std::to_string(m.forward_batches),
                   std::to_string(m.forward_timeout_flushes)});
  }
  table.print(std::cout);
  for (std::size_t d = 0; d < res.boards.size(); ++d)
    print_shard_audit(res.boards[d].shard_audit,
                      std::string("board") + std::to_string(d));
  if (!cli.jobs_spec.empty()) {
    TextTable jt({"job", "qos", "weight", "walks", "steps", "latency"});
    for (const auto& s : res.jobs) {
      jt.add_row({s.name, std::string(accel::service::qos_name(s.qos)),
                  std::to_string(s.weight), std::to_string(s.walks),
                  std::to_string(s.steps), TextTable::time_ns(s.latency_ns())});
    }
    std::cout << "\n";
    jt.print(std::cout);
  }

  if (!cli.json_path.empty()) {
    std::ofstream json(cli.json_path);
    accel::write_json(json, "flashwalker-array", res);
    json << "\n";
    std::cout << "wrote JSON report to " << cli.json_path << "\n";
  }
  if (!cli.metrics_path.empty()) {
    std::ofstream out(cli.metrics_path);
    if (!out) {
      std::cerr << "cannot write " << cli.metrics_path << "\n";
      return 1;
    }
    out << "{\"schema_version\":" << accel::kReportSchemaVersion << ",\"engines\":{";
    for (std::size_t d = 0; d < res.boards.size(); ++d) {
      if (d > 0) out << ',';
      out << "\"board" << d << "\":";
      accel::write_counters_json(out, res.boards[d]);
    }
    out << "}}\n";
    std::cout << "wrote metrics JSON to " << cli.metrics_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = parse(argc, argv);

  // --- graph -------------------------------------------------------------
  graph::CsrGraph g = cli.graph_path.empty()
                          ? graph::make_dataset(cli.dataset, cli.scale)
                          : [&] {
                              std::ifstream in(cli.graph_path);
                              if (!in) {
                                std::cerr << "cannot open " << cli.graph_path << "\n";
                                std::exit(1);
                              }
                              return graph::load_edge_list(in);
                            }();
  if (cli.labels > 0) {
    g.assign_hashed_labels(static_cast<std::uint8_t>(cli.labels), cli.seed);
  }
  const auto stats = graph::compute_stats(g);
  std::cout << "graph: " << stats.num_vertices << " vertices, " << stats.num_edges
            << " edges, CSR " << TextTable::bytes(stats.csr_size_bytes)
            << (g.labeled() ? ", " + std::to_string(cli.labels) + " label classes" : "")
            << "\n";

  rw::WalkSpec spec;
  spec.num_walks = cli.walks ? cli.walks
                             : (cli.graph_path.empty()
                                    ? graph::default_walk_count(cli.dataset, cli.scale)
                                    : stats.num_vertices);
  spec.length = cli.length;
  spec.biased = cli.biased;
  spec.seed = cli.seed;
  if (cli.node2vec) {
    spec.second_order.enabled = true;
    spec.second_order.p = cli.node2vec->first;
    spec.second_order.q = cli.node2vec->second;
  }

  const ssd::SsdConfig& ssd_cfg = cli.ssd;
  if (ssd_cfg.reliability.enabled()) {
    std::cout << "reliability: rber " << ssd_cfg.reliability.rber.base
              << ", retention " << ssd_cfg.reliability.rber.retention_age
              << ", fault seed " << ssd_cfg.reliability.fault_seed << "\n";
  }
  partition::PartitionConfig pc;
  pc.block_capacity_bytes = 16 * KiB;
  pc.subgraphs_per_partition = 2048;
  pc.subgraphs_per_range = 64;
  pc.weighted = spec.biased;
  // Model label bytes in the blocks whenever the graph carries labels (the
  // jobs that read them are resolved later, inside the service/array path).
  pc.labeled = g.labeled();

  if (cli.devices > 1) {
    // Stripe grain: aim for ~4 partitions per board so the round-robin
    // device assignment gives every board work and walks actually cross the
    // fabric; a single monolithic partition would pin the whole graph to
    // board 0. Derived from the CSR size, so it stays deterministic.
    const std::uint64_t est_subgraphs =
        std::max<std::uint64_t>(1, stats.csr_size_bytes / pc.block_capacity_bytes);
    pc.subgraphs_per_partition = static_cast<std::uint32_t>(std::clamp<std::uint64_t>(
        est_subgraphs / (4ull * cli.devices), 1, pc.subgraphs_per_partition));
    const partition::PartitionedGraph pg(g, pc);
    accel::SimulationConfig cfg;
    cfg.ssd = ssd_cfg;
    cfg.accel = accel::bench_accel_config();
    cfg.accel.features = cli.features;
    cfg.spec = spec;
    cfg.record_visits = false;
    cfg.sim_threads = cli.sim_threads;
    cfg.shard_audit = cli.shard_audit;
    try {
      return run_array(cli, pg, std::move(cfg));
    } catch (const std::invalid_argument& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
  }

  if (!cli.jobs_spec.empty()) {
    const partition::PartitionedGraph pg(g, pc);
    accel::SimulationConfig cfg;
    cfg.ssd = ssd_cfg;
    cfg.accel = accel::bench_accel_config();
    cfg.accel.features = cli.features;
    cfg.record_visits = false;
    cfg.sim_threads = cli.sim_threads;
    cfg.shard_audit = cli.shard_audit;
    try {
      return run_service(cli, pg, std::move(cfg));
    } catch (const std::invalid_argument& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
  }

  std::cout << "workload: " << spec.num_walks << " walks x " << spec.length << " hops"
            << (spec.biased ? ", biased (ITS)" : "")
            << (spec.second_order.enabled ? ", node2vec" : "") << "\n\n";

  TextTable table({"engine", "time", "hops", "flash read", "flash write",
                   "read BW MB/s", "energy mJ"});
  Tick fw_time = 0;
  // Per-engine counter payloads for --metrics-out:
  // {"schema_version":2,"engines":{"flashwalker":{...},...}}.
  std::vector<std::pair<std::string, std::string>> metric_parts;

  if (cli.run_fw) {
    const partition::PartitionedGraph pg(g, pc);
    accel::SimulationConfig cfg;
    cfg.ssd = ssd_cfg;
    cfg.accel = accel::bench_accel_config();
    cfg.accel.features = cli.features;
    cfg.spec = spec;
    cfg.record_visits = false;
    cfg.sim_threads = cli.sim_threads;
    cfg.shard_audit = cli.shard_audit;
    obs::TraceRecorder trace;
    if (!cli.trace_path.empty()) cfg.trace = &trace;
    const auto r = accel::SimulationBuilder(pg).config(cfg).run();
    fw_time = r.exec_time;
    print_shard_audit(r.shard_audit);
    if (!cli.trace_path.empty()) {
      std::ofstream out(cli.trace_path);
      if (!out) {
        std::cerr << "cannot write " << cli.trace_path << "\n";
      } else {
        trace.write_json(out);
        out << "\n";
        std::cout << "wrote Chrome trace (" << trace.num_events() << " events) to "
                  << cli.trace_path << "\n";
      }
    }
    if (!cli.metrics_path.empty()) {
      std::ostringstream ss;
      accel::write_counters_json(ss, r);
      metric_parts.emplace_back("flashwalker", ss.str());
    }
    if (!cli.json_path.empty()) {
      std::ofstream json(cli.json_path);
      accel::write_json(json, "flashwalker", r);
      json << "\n";
      std::cout << "wrote JSON report to " << cli.json_path << "\n";
    }
    const auto e = accel::estimate_flashwalker(r, cfg.accel, ssd_cfg);
    table.add_row({"FlashWalker", TextTable::time_ns(r.exec_time),
                   std::to_string(r.metrics.total_hops),
                   TextTable::bytes(r.flash_read_bytes),
                   TextTable::bytes(r.flash_write_bytes),
                   TextTable::num(r.flash_read_mb_per_s(), 0),
                   TextTable::num(e.total_j() * 1e3, 1)});
  }
  auto add_baseline = [&](const std::string& name, const std::string& key,
                          const baseline::BaselineResult& r) {
    if (!cli.metrics_path.empty()) {
      std::ostringstream ss;
      accel::write_counters_json(ss, r);
      metric_parts.emplace_back(key, ss.str());
    }
    const auto e = accel::estimate_baseline(r, ssd_cfg);
    table.add_row({name, TextTable::time_ns(r.exec_time), std::to_string(r.total_hops),
                   TextTable::bytes(r.flash_read_bytes), TextTable::bytes(r.bytes_written),
                   TextTable::num(r.read_mb_per_s(), 0),
                   TextTable::num(e.total_j() * 1e3, 1)});
    if (fw_time > 0) {
      std::cout << name << " / FlashWalker speedup: "
                << TextTable::num(static_cast<double>(r.exec_time) /
                                      static_cast<double>(fw_time),
                                  2)
                << "x\n";
    }
  };
  if (cli.run_gw) {
    baseline::GraphWalkerOptions opts;
    opts.ssd = ssd_cfg;
    opts.spec = spec;
    opts.host.memory_bytes = cli.memory;
    opts.record_visits = false;
    baseline::GraphWalkerEngine engine(g, opts);
    add_baseline("GraphWalker", "graphwalker", engine.run());
  }
  if (cli.run_dm) {
    baseline::DrunkardMobOptions opts;
    opts.ssd = ssd_cfg;
    opts.spec = spec;
    opts.host.memory_bytes = cli.memory;
    opts.record_visits = false;
    baseline::DrunkardMobEngine engine(g, opts);
    add_baseline("DrunkardMob", "drunkardmob", engine.run());
  }
  if (cli.run_gs) {
    baseline::GraphSsdOptions opts;
    opts.ssd = ssd_cfg;
    opts.spec = spec;
    opts.host.memory_bytes = cli.memory;
    opts.record_visits = false;
    baseline::GraphSsdEngine engine(g, opts);
    add_baseline("GraphSSD (semantic reads)", "graphssd", engine.run());
  }
  if (cli.run_tr) {
    baseline::ThunderOptions opts;
    opts.ssd = ssd_cfg;
    opts.spec = spec;
    opts.host.memory_bytes = std::max<std::uint64_t>(cli.memory, g.csr_size_bytes() + MiB);
    opts.record_visits = false;
    baseline::ThunderEngine engine(g, opts);
    add_baseline("ThunderRW (in-memory)", "thunderrw", engine.run());
  }
  if (!cli.metrics_path.empty()) {
    std::ofstream out(cli.metrics_path);
    if (!out) {
      std::cerr << "cannot write " << cli.metrics_path << "\n";
      return 1;
    }
    out << "{\"schema_version\":" << accel::kReportSchemaVersion << ",\"engines\":{";
    for (std::size_t i = 0; i < metric_parts.size(); ++i) {
      if (i > 0) out << ',';
      out << '"' << metric_parts[i].first << "\":" << metric_parts[i].second;
    }
    out << "}}\n";
    std::cout << "wrote metrics JSON to " << cli.metrics_path << "\n";
  }
  table.print(std::cout);
  return 0;
}
