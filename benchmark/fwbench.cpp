// fwbench: runs one workload of the repository benchmark in this process and
// writes its metrics, correctness checks and spans as one JSON object.
//
// benchmark/run.py is the command users run; it builds this driver, starts
// one fwbench process per workload and renders the results. The driver uses
// only the simulator's public API, so every per-layer number is taken from
// outside the program: wall/CPU time around the calls it makes into each
// layer, EngineResult counters, one shard-audit run, one traced run, and a
// replay of the walk-model layer.
//
//   fwbench --workload tt_deepwalk --seed 42 --seconds 10 --layers --out r.json
#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "accel/builder.hpp"
#include "accel/energy_model.hpp"
#include "accel/service/jobs_spec.hpp"
#include "accel/service/walk_service.hpp"
#include "common/options.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "graph/datasets.hpp"
#include "obs/trace.hpp"
#include "partition/partitioned_graph.hpp"
#include "rw/algorithms.hpp"
#include "rw/model/registry.hpp"

namespace fwb {

using namespace fw;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  graph::DatasetId dataset;
  std::uint32_t sim_threads;
  std::uint64_t walks;        ///< DeepWalk walks per instance; 0 = the job mix
  std::uint64_t quick_walks;  ///< the same at test scale (--quick)
  /// Seeded instances the simulated metrics average over. A makespan is
  /// decided by the last busy unit, so one instance's sim_exec_ms moves by
  /// ~10% (TT, FS) between workload seeds; the mean of K instances moves
  /// by ~1/sqrt(K) of that. Timed reps cycle through the instances.
  std::uint32_t instances;
};

constexpr Workload kWorkloads[] = {
    {"tt_deepwalk", graph::DatasetId::TT, 1, 400'000, 4'000, 8},
    {"tt_deepwalk_4w", graph::DatasetId::TT, 4, 400'000, 4'000, 8},
    {"cw_deepwalk", graph::DatasetId::CW, 1, 1'000'000, 10'000, 4},
    {"fs_service_mix", graph::DatasetId::FS, 1, 0, 0, 8},
};
constexpr std::uint32_t kQuickInstances = 2;

// The job mix of fs_service_mix: every registered model in turn over a graph
// with hashed vertex labels, Poisson arrivals, mixed QoS classes.
constexpr std::uint8_t kMixLabels = 3;
constexpr std::uint64_t kMixLabelSeed = 5;
constexpr std::uint64_t kMixJobs = 64;
constexpr std::uint64_t kMixQuickJobs = 20;
constexpr double kMixMeanGapNs = 50'000.0;

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// The partitioning every workload uses (16 KiB blocks; 2048 subgraphs per
/// partition keeps TT and FS in one partition and splits CW into two). It is
/// pinned here rather than taken from bench/, so that no change outside this
/// directory moves the benchmark's inputs.
partition::PartitionConfig bench_partition(bool labeled) {
  partition::PartitionConfig pc;
  pc.block_capacity_bytes = 16 * KiB;
  pc.subgraphs_per_partition = 2048;
  pc.subgraphs_per_range = 64;
  pc.labeled = labeled;
  return pc;
}

/// Job mix in the --jobs grammar, generated from an instance seed: model
/// i % 5, per-job walk seed, QoS class, Poisson arrival, and for PPR a
/// source drawn among vertices with out-degree > 0.
std::string job_mix(const graph::CsrGraph& g, std::uint64_t seed, bool quick) {
  static const char* const kModels[] = {"deepwalk", "node2vec", "ppr", "metapath",
                                        "autoreg"};
  static const char* const kQos[] = {"bronze", "silver", "gold"};
  const std::uint64_t jobs = quick ? kMixQuickJobs : kMixJobs;
  const std::uint64_t scale = quick ? 10 : 1;
  Xoshiro256 rng(seed);
  std::ostringstream os;
  double arrival = 0.0;
  for (std::uint64_t i = 0; i < jobs; ++i) {
    const std::string model = kModels[i % 5];
    if (i > 0) {
      os << ';';
      arrival += -std::log1p(-rng.uniform()) * kMixMeanGapNs;
    }
    os << model << ":walks=" << (model == "deepwalk" ? 4000 : 2000) / scale
       << ",seed=" << rng.next() << ",qos=" << kQos[rng.bounded(3)]
       << ",arrive=" << static_cast<std::uint64_t>(arrival);
    if (model == "node2vec") os << ",p=0.5,q=2";
    if (model == "metapath") os << ",pattern=0-1-2";
    if (model == "autoreg") os << ",alpha=0.6";
    if (model == "ppr") {
      VertexId src = 0;
      do {
        src = static_cast<VertexId>(rng.bounded(g.num_vertices()));
      } while (g.out_degree(src) == 0);
      os << ",length=20,stop_mode=residual,eps=0.1,source=" << src;
    }
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Spans: the benchmark's own, kept in memory and written out at exit
// ---------------------------------------------------------------------------

class Spans {
 public:
  Spans() : origin_(Clock::now()) {}

  int open(std::string name, int parent) {
    spans_.push_back(Span{std::move(name), parent, now(), -1.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Closes span `id` and returns its duration in seconds.
  double close(int id) {
    spans_[id].end = now();
    return spans_[id].end - spans_[id].start;
  }
  /// Runs `fn` inside a span; returns the span's duration in seconds.
  template <typename F>
  double time(std::string name, int parent, F&& fn) {
    const int id = open(std::move(name), parent);
    fn(id);
    return close(id);
  }

  void write_json(std::ostream& os) const {
    os << '[';
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? "," : "") << "\n    {\"id\": " << i << ", \"parent\": " << s.parent
         << ", \"name\": \"" << s.name << "\", \"start_s\": " << s.start
         << ", \"end_s\": " << s.end << '}';
    }
    os << "\n  ]";
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start;
    double end;
  };
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---------------------------------------------------------------------------
// Hashing: input fingerprints and simulated-output digests
// ---------------------------------------------------------------------------

class Hasher {
 public:
  void add(std::uint64_t v) { h_ = (h_ ^ v) * 0x100000001b3ull ^ (h_ >> 29); }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const std::string& s) {
    for (const char c : s) add(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    add(std::uint64_t{s.size()});
  }
  template <typename T>
  void add_all(const std::vector<T>& v) {
    for (const T& x : v) add(static_cast<std::uint64_t>(x));
    add(std::uint64_t{v.size()});
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

/// V:E:hash of CSR offsets, targets and labels.
std::string fingerprint(const graph::CsrGraph& g) {
  Hasher h;
  h.add_all(g.offsets());
  h.add_all(g.edges());
  h.add_all(g.labels());
  return std::to_string(g.num_vertices()) + ":" + std::to_string(g.num_edges()) + ":" +
         hex64(h.value());
}

/// Digest of every simulated output a host-only change must leave equal:
/// exec time, metrics, FTL, byte counters, chip utilization, per-job stats,
/// and the counter registry minus the shard-audit-only parallel.* family.
std::uint64_t sim_digest(const accel::EngineResult& r) {
  Hasher h;
  h.add(std::uint64_t{r.exec_time});
  const accel::EngineMetrics& m = r.metrics;
  for (const std::uint64_t v :
       {m.walks_started, m.walks_completed, m.dead_ends, m.total_hops, m.chip_updates,
        m.channel_updates, m.board_updates, m.roving_walks, m.to_board_walks,
        m.foreigner_walks, m.pwb_inserts, m.subgraph_loads, m.subgraph_load_pages,
        m.hot_subgraph_loads, m.query_cache_hits, m.query_cache_misses,
        m.mapping_search_steps, m.range_searches, m.dense_prewalks, m.bloom_lookups,
        m.bloom_false_positives, m.pwb_overflow_walks, m.overflow_flush_pages,
        m.walk_reload_pages, m.partition_switches, m.scheduler_compare_ops}) {
    h.add(v);
  }
  for (const std::uint64_t v : {r.ftl.host_page_writes, r.ftl.host_page_reads,
                                r.ftl.gc_page_moves, r.ftl.gc_erases, r.flash_read_bytes,
                                r.flash_write_bytes, r.channel_bytes, r.dram_bytes}) {
    h.add(v);
  }
  for (const double u : r.chip_utilization) h.add(u);
  for (const auto& [name, value] : r.counters) {
    if (name.rfind("parallel.", 0) == 0) continue;
    h.add(name);
    h.add(value);
  }
  for (const auto& j : r.jobs) {
    for (const std::uint64_t v : {j.stats.walks, j.stats.steps, j.stats.arrival,
                                  j.stats.admitted, j.stats.completed}) {
      h.add(v);
    }
  }
  return h.value();
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

class Metrics {
 public:
  void add(const std::string& name, const std::string& unit, double value) {
    add(name, unit, std::vector<double>{value});
  }
  void add(const std::string& name, const std::string& unit, std::vector<double> samples) {
    metrics_[name] = Metric{unit, std::move(samples)};
  }
  void write_json(std::ostream& os) const {
    os << '{';
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      const std::span<const double> s(m.samples);
      const auto [lo, hi] = std::minmax_element(s.begin(), s.end());
      os << (first ? "" : ",") << "\n    \"" << name << "\": {\"value\": "
         << percentile(s, 50) << ", \"unit\": \"" << m.unit
         << "\", \"q1\": " << percentile(s, 25) << ", \"q3\": " << percentile(s, 75)
         << ", \"min\": " << *lo << ", \"max\": " << *hi << ", \"n\": " << s.size()
         << '}';
      first = false;
    }
    os << "\n  }";
  }

 private:
  struct Metric {
    std::string unit;
    std::vector<double> samples;
  };
  std::map<std::string, Metric> metrics_;
};

double median(std::vector<double> v) { return percentile(std::span<const double>(v), 50); }

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

class Checks {
 public:
  bool expect(const std::string& name, bool ok, const std::string& detail) {
    checks_.push_back({name, ok, detail});
    if (!ok) std::cerr << "fwbench: check failed: " << name << ": " << detail << "\n";
    return ok;
  }
  [[nodiscard]] bool all_ok() const {
    return std::all_of(checks_.begin(), checks_.end(), [](const auto& c) { return c.ok; });
  }
  void write_json(std::ostream& os) const {
    os << '[';
    for (std::size_t i = 0; i < checks_.size(); ++i) {
      os << (i ? "," : "") << "\n    {\"name\": \"" << checks_[i].name
         << "\", \"ok\": " << (checks_[i].ok ? "true" : "false") << ", \"detail\": \""
         << checks_[i].detail << "\"}";
    }
    os << "\n  ]";
  }

 private:
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Check> checks_;
};

/// Total-variation distance between two visit histograms.
double tvd(const std::vector<std::uint64_t>& a, const std::vector<std::uint64_t>& b) {
  double sa = 0.0;
  double sb = 0.0;
  for (const auto x : a) sa += static_cast<double>(x);
  for (const auto x : b) sb += static_cast<double>(x);
  if (sa == 0.0 || sb == 0.0 || a.size() != b.size()) return 1.0;
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    d += std::abs(static_cast<double>(a[i]) / sa - static_cast<double>(b[i]) / sb);
  }
  return d / 2.0;
}

// ---------------------------------------------------------------------------
// One simulation run
// ---------------------------------------------------------------------------

/// One seeded instance of a workload: a DeepWalk spec or a job mix.
struct Instance {
  rw::WalkSpec spec;                          ///< single-job workloads
  std::vector<accel::service::WalkJob> jobs;  ///< the job mix
  std::uint64_t requested = 0;                ///< walks one run must complete
};

struct Context {
  const Workload* wl = nullptr;
  graph::CsrGraph graph;
  std::unique_ptr<partition::PartitionedGraph> pg;
  accel::SimulationConfig cfg;  ///< engine options shared by every instance
  std::vector<Instance> instances;
};

struct RunOptions {
  std::uint32_t sim_threads = 1;
  bool record_visits = false;
  bool shard_audit = false;
  obs::TraceRecorder* trace = nullptr;
};

struct Run {
  accel::EngineResult result;
  double fairness = 1.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t digest = 0;
  bool conserved = false;
};

/// Assemble a fresh engine (modeled caches empty) and run it, inside
/// "build" and "run" spans under `parent`. The service builds its engine
/// inside run(), so for the job mix "run" covers the assembly too.
Run run_once(const Context& ctx, const Instance& inst, const RunOptions& ro, Spans& spans,
             int parent) {
  Run r;
  accel::SimulationConfig cfg = ctx.cfg;
  cfg.spec = inst.spec;
  cfg.sim_threads = ro.sim_threads;
  cfg.record_visits = ro.record_visits;
  cfg.shard_audit = ro.shard_audit;
  cfg.trace = ro.trace;
  if (inst.jobs.empty()) {
    std::optional<accel::Simulation> sim;
    spans.time("build", parent, [&](int) {
      sim.emplace(accel::SimulationBuilder(*ctx.pg).config(cfg).build());
    });
    const double cpu0 = process_cpu_s();
    r.wall_s = spans.time("run", parent, [&](int) { r.result = sim->run(); });
    r.cpu_s = process_cpu_s() - cpu0;
  } else {
    accel::service::WalkService svc(*ctx.pg, cfg);
    for (const auto& job : inst.jobs) svc.submit(job);
    accel::service::ServiceResult sr;
    const double cpu0 = process_cpu_s();
    r.wall_s = spans.time("run", parent, [&](int) { sr = svc.run(); });
    r.cpu_s = process_cpu_s() - cpu0;
    r.fairness = sr.fairness_ratio;
    r.result = std::move(sr.engine);
  }
  const accel::EngineMetrics& m = r.result.metrics;
  r.conserved = m.walks_started == inst.requested && m.walks_completed == inst.requested;
  const auto& jobs = r.result.jobs;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::uint64_t expected =
        inst.jobs.empty() ? inst.requested : inst.jobs[j].spec.num_walks;
    r.conserved = r.conserved && jobs[j].stats.walks == expected;
  }
  r.digest = sim_digest(r.result);
  return r;
}

double job_latency_ms(const accel::EngineResult& r, double p) {
  std::vector<double> lat;
  for (const auto& j : r.jobs) lat.push_back(static_cast<double>(j.stats.latency_ns()));
  return percentile_nearest_rank(lat, p) / 1e6;
}

// ---------------------------------------------------------------------------
// Setup
// ---------------------------------------------------------------------------

struct SetupTimes {
  double generate_s = 0.0;
  double partition_s = 0.0;
  double build_s = 0.0;
  [[nodiscard]] double total() const { return generate_s + partition_s + build_s; }
};

/// Dataset generation (+ labels) -> PartitionedGraph -> engine assembly of
/// the first instance; the instances' inputs come from the workload seed.
SetupTimes setup(Context& ctx, std::uint64_t seed, bool quick, Spans& spans, int parent) {
  const Workload& wl = *ctx.wl;
  const bool mix = wl.walks == 0;
  SetupTimes t;
  ctx.pg.reset();
  t.generate_s = spans.time("generate", parent, [&](int) {
    ctx.graph = graph::make_dataset(wl.dataset,
                                    quick ? graph::Scale::kTest : graph::Scale::kBench);
    if (mix) ctx.graph.assign_hashed_labels(kMixLabels, kMixLabelSeed);
  });
  t.partition_s = spans.time("partition", parent, [&](int) {
    ctx.pg = std::make_unique<partition::PartitionedGraph>(ctx.graph, bench_partition(mix));
  });

  ctx.cfg = accel::SimulationConfig{};
  ctx.cfg.accel = accel::bench_accel_config();
  ctx.instances.clear();
  SplitMix64 seeds(seed);
  for (std::uint32_t i = 0; i < (quick ? kQuickInstances : wl.instances); ++i) {
    Instance inst;
    if (mix) {
      inst.jobs = accel::service::parse_jobs(job_mix(ctx.graph, seeds.next(), quick), {});
      for (const auto& job : inst.jobs) inst.requested += job.spec.num_walks;
    } else {
      rw::find_model("deepwalk")->apply_defaults(inst.spec);
      inst.spec.length = 6;
      inst.spec.num_walks = quick ? wl.quick_walks : wl.walks;
      inst.spec.seed = seeds.next();
      inst.requested = inst.spec.num_walks;
    }
    ctx.instances.push_back(std::move(inst));
  }
  t.build_s = spans.time("build", parent, [&](int) {
    accel::SimulationConfig cfg = ctx.cfg;
    cfg.spec = ctx.instances[0].spec;
    cfg.jobs = ctx.instances[0].jobs;
    auto sim = accel::SimulationBuilder(*ctx.pg).config(cfg).build();
  });
  return t;
}

// ---------------------------------------------------------------------------
// Layer replays
// ---------------------------------------------------------------------------

/// Steps `spec`'s walks through create_model(spec)->sample/update over
/// full-adjacency Gathers with the engine's per-walk RNG keying. Returns the
/// number of hops taken.
std::uint64_t replay_walks(const graph::CsrGraph& g, const rw::WalkSpec& spec) {
  const auto model = rw::create_model(spec);
  Xoshiro256 job_rng(spec.seed);
  std::uint64_t steps = 0;
  for (std::uint64_t i = 0; i < spec.num_walks; ++i) {
    rw::Walk w;
    w.src = spec.start_mode == rw::StartMode::kSingleSource
                ? spec.source
                : static_cast<VertexId>(job_rng.bounded(g.num_vertices()));
    w.cur = w.src;
    w.state = model->init_state();
    w.hops_left = static_cast<std::uint16_t>(spec.length);
    w.rng_state = spec.seed ^ (0x9E3779B97F4A7C15ull * (i + 1));
    bool done = false;
    while (!done && !w.finished()) {
      Xoshiro256 rng(w.rng_state);
      if (model->stop_before_hop(w, rng)) break;
      rw::Gather gv;
      gv.begin = g.offsets()[w.cur];
      gv.end = g.offsets()[w.cur + 1];
      gv.vertex_first_edge = gv.begin;
      const rw::SampleResult s = model->sample(g, nullptr, gv, w, rng);
      if (s.next == kInvalidVertex) {
        if (spec.dead_end != rw::WalkSpec::DeadEnd::kRestart) break;
        w.cur = w.src;
        --w.hops_left;
      } else {
        done = model->update(w, s.next) == rw::WalkModel::Verdict::kTerminate;
        w.cur = s.next;
        --w.hops_left;
        ++steps;
      }
      w.rng_state = rng.next();
    }
  }
  return steps;
}

/// Streams TraceRecorder::write_json output and sums complete-span
/// durations per (process, span name) without holding the JSON in memory.
class SpanSums : public std::streambuf {
 public:
  /// Summed simulated ms per "process.span" (e.g. "chip.sg_load").
  [[nodiscard]] std::map<std::string, double> sums_ms() const {
    std::map<std::string, double> out;
    for (const auto& [key, us] : sums_us_) {
      const auto it = process_.find(key.first);
      out[(it == process_.end() ? "unknown" : it->second) + "." + key.second] +=
          us / 1e3;
    }
    return out;
  }
  [[nodiscard]] std::uint64_t spans() const { return spans_; }

 protected:
  int_type overflow(int_type ch) override {
    if (ch == traits_type::eof()) return ch;
    const char c = traits_type::to_char_type(ch);
    if (c == '{' && ++depth_ == 2) obj_.clear();
    if (depth_ >= 2) obj_ += c;
    if (c == '}' && depth_-- == 2) event();
    return ch;
  }

 private:
  /// Value text after `"key":` in the current event object.
  [[nodiscard]] std::string field(const std::string& key) const {
    const std::string tag = "\"" + key + "\":";
    const std::size_t at = obj_.find(tag);
    if (at == std::string::npos) return {};
    std::size_t b = at + tag.size();
    std::size_t e = b;
    if (obj_[b] == '"') {
      e = obj_.find('"', ++b);
    } else {
      while (e < obj_.size() && obj_[e] != ',' && obj_[e] != '}') ++e;
    }
    return obj_.substr(b, e - b);
  }
  void event() {
    const std::string ph = field("ph");
    if (ph == "M" && field("name") == "process_name") {
      const std::string tag = "\"args\":{\"name\":\"";
      const std::size_t at = obj_.find(tag);
      if (at != std::string::npos) {
        const std::size_t b = at + tag.size();
        process_[field("pid")] = obj_.substr(b, obj_.find('"', b) - b);
      }
    } else if (ph == "X") {
      sums_us_[{field("pid"), field("name")}] += std::stod(field("dur"));
      ++spans_;
    }
  }

  int depth_ = 0;
  std::string obj_;
  std::map<std::string, std::string> process_;
  std::map<std::pair<std::string, std::string>, double> sums_us_;
  std::uint64_t spans_ = 0;
};

// ---------------------------------------------------------------------------
// Metric extraction
// ---------------------------------------------------------------------------

/// Sum of registry counters `<prefix>.<N>.<suffix>` (per chip / channel).
double counter_sum(const accel::EngineResult& r, const std::string& prefix,
                   const std::string& suffix) {
  double sum = 0.0;
  for (const auto& [n, value] : r.counters) {
    if (n.size() > prefix.size() + suffix.size() + 1 && n.rfind(prefix + ".", 0) == 0 &&
        n.compare(n.size() - suffix.size() - 1, std::string::npos, "." + suffix) == 0) {
      sum += static_cast<double>(value);
    }
  }
  return sum;
}

double counter(const accel::EngineResult& r, const std::string& name) {
  for (const auto& [n, value] : r.counters) {
    if (n == name) return static_cast<double>(value);
  }
  return 0.0;
}

struct Value {
  std::string name;
  std::string unit;
  double value;
};

/// The simulated end-to-end metrics of one run.
std::vector<Value> simulated_end_to_end(const Context& ctx, const Run& run) {
  const accel::EngineResult& r = run.result;
  return {
      {"sim_exec_ms", "ms", static_cast<double>(r.exec_time) / 1e6},
      {"sim_energy_mj", "mJ",
       accel::estimate_flashwalker(r, ctx.cfg.accel, ctx.cfg.ssd).total_j() * 1e3},
      {"job_latency_p50_ms", "ms", job_latency_ms(r, 50)},
      {"job_latency_p80_ms", "ms", job_latency_ms(r, 80)},
      {"fairness_ratio", "ratio", run.fairness},
  };
}

/// Simulated per-layer counters of the accelerator hierarchy, the scheduler
/// and the SSD.
std::vector<Value> simulated_layers(const Context&, const Run& run) {
  const accel::EngineResult& r = run.result;
  const accel::EngineMetrics& m = r.metrics;
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"chip.updates", "count", d(m.chip_updates)},
      {"chip.busy_ms", "ms", counter_sum(r, "chip", "busy_ns") / 1e6},
      {"chip.util_mean", "ratio", r.mean_chip_utilization()},
      {"chip.util_max", "ratio", r.max_chip_utilization()},
      {"channel.updates", "count", d(m.channel_updates)},
      {"channel.busy_ms", "ms", counter_sum(r, "channel", "busy_ns") / 1e6},
      {"board.updates", "count", d(m.board_updates)},
      {"board.guider_busy_ms", "ms", counter(r, "board.guider.busy_ns") / 1e6},
      {"board.updater_busy_ms", "ms", counter(r, "board.updater.busy_ns") / 1e6},
      {"engine.roving_walks", "count", d(m.roving_walks)},
      {"engine.to_board_walks", "count", d(m.to_board_walks)},
      {"engine.foreigner_walks", "count", d(m.foreigner_walks)},
      {"engine.pwb_overflow_walks", "count", d(m.pwb_overflow_walks)},
      {"wq.query_cache_hit_ratio", "ratio",
       ratio(d(m.query_cache_hits), d(m.query_cache_hits + m.query_cache_misses))},
      {"wq.mapping_search_steps", "count", d(m.mapping_search_steps)},
      {"dense.prewalks", "count", d(m.dense_prewalks)},
      {"dense.bloom_useful_ratio", "ratio",
       ratio(d(m.bloom_lookups - m.bloom_false_positives), d(m.bloom_lookups))},
      {"sched.subgraph_loads", "count", d(m.subgraph_loads)},
      {"sched.subgraph_load_pages", "count", d(m.subgraph_load_pages)},
      {"sched.hot_subgraph_loads", "count", d(m.hot_subgraph_loads)},
      {"sched.hops_per_load", "hops", ratio(d(m.total_hops), d(m.subgraph_loads))},
      {"sched.compare_ops", "count", d(m.scheduler_compare_ops)},
      {"sched.partition_switches", "count", d(m.partition_switches)},
      {"ssd.flash_read_mib", "MiB", d(r.flash_read_bytes) / MiB},
      {"ssd.flash_write_mib", "MiB", d(r.flash_write_bytes) / MiB},
      {"ssd.channel_mib", "MiB", d(r.channel_bytes) / MiB},
      {"ssd.dram_mib", "MiB", d(r.dram_bytes) / MiB},
      {"ssd.read_bw_mb_s", "MB/s", r.flash_read_mb_per_s()},
      {"ssd.write_amplification", "ratio", r.ftl.write_amplification()},
      {"ssd.gc_erases", "count", d(r.ftl.gc_erases)},
      {"ssd.overflow_flush_pages", "count", d(m.overflow_flush_pages)},
      {"ssd.walk_reload_pages", "count", d(m.walk_reload_pages)},
  };
}

/// Adds each value of `of(run)` averaged over one run per instance. The
/// mean is deterministic for a seed, so it is reported as one sample.
template <typename F>
void add_instance_means(Metrics& out, const Context& ctx, const std::vector<const Run*>& runs,
                        F of) {
  std::vector<Value> sum = of(ctx, *runs.front());
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const std::vector<Value> v = of(ctx, *runs[i]);
    for (std::size_t k = 0; k < sum.size(); ++k) sum[k].value += v[k].value;
  }
  for (const Value& v : sum) {
    out.add(v.name, v.unit, v.value / static_cast<double>(runs.size()));
  }
}

// ---------------------------------------------------------------------------
// The benchmark of one workload
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 0.0;
  std::uint64_t reps = 3;
  bool quick = false;
  bool layers = false;
  bool peak_rss = false;
  std::string fingerprint;
  std::string out;
};

/// --peak-rss: one set-up and one run of instance 0 at the workload's DES
/// worker count, in a process of its own with one malloc arena and a fixed
/// mmap threshold. The timed process keeps glibc's defaults, under which
/// every fresh engine's worker threads allocate from arenas of their own.
/// Even with one arena per worker, what the arenas retained put the peak of
/// one 4-worker TT run anywhere from 203 to 247 MiB from process to
/// process; with one arena it follows the memory the program asks for.
int peak_rss(const Options& opt, const Workload& wl, std::uint32_t threads) {
  mallopt(M_ARENA_MAX, 1);
  mallopt(M_MMAP_THRESHOLD, static_cast<int>(128 * KiB));
  Spans spans;
  Checks checks;
  Context ctx;
  ctx.wl = &wl;
  spans.time("setup", -1, [&](int id) { setup(ctx, opt.seed, opt.quick, spans, id); });
  const std::string fp = fingerprint(ctx.graph);
  checks.expect("fingerprint", opt.fingerprint == fp,
                "got " + fp + ", pinned " + opt.fingerprint);
  const Run r = run_once(ctx, ctx.instances[0], {threads}, spans, -1);
  checks.expect("conservation", r.conserved,
                std::to_string(r.result.metrics.walks_completed) + " walks completed");
  const double rss = peak_rss_mib();

  std::ofstream os(opt.out);
  os.precision(17);
  os << "{\n  \"workload\": \"" << wl.name << "\",\n  \"sim_threads\": " << threads
     << ",\n  \"peak_rss_mib\": " << rss << ",\n  \"checks\": ";
  checks.write_json(os);
  os << "\n}\n";
  if (!os) {
    std::cerr << "fwbench: cannot write " << opt.out << "\n";
    return 1;
  }
  return checks.all_ok() ? 0 : 1;
}

int bench(const Options& opt) {
  const Workload* wl = find_workload(opt.workload);
  if (wl == nullptr) {
    std::cerr << "fwbench: unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  const std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::uint32_t threads = std::min(wl->sim_threads, hw);
  if (opt.peak_rss) return peak_rss(opt, *wl, threads);

  Spans spans;
  Checks checks;
  Metrics metrics;
  Context ctx;
  ctx.wl = wl;
  const int root = spans.open(std::string("workload:") + wl->name, -1);

  // Set-up, three times; the last one's graph and inputs are kept.
  std::vector<SetupTimes> setups;
  for (int i = 0; i < 3; ++i) {
    spans.time("setup", root,
               [&](int id) { setups.push_back(setup(ctx, opt.seed, opt.quick, spans, id)); });
  }
  const std::string fp = fingerprint(ctx.graph);
  // A failed check outside the timed reps voids every timed rep's walks.
  bool global_ok = checks.expect("fingerprint", opt.fingerprint == fp,
                                 "got " + fp + ", pinned " + opt.fingerprint);
  const std::size_t k = ctx.instances.size();

  // Warm-up: instance 0 at one DES worker. Every later run of an instance
  // (timed reps at the workload's worker count, the visit, audit and traced
  // runs) must reproduce that instance's first digest byte for byte.
  std::vector<std::optional<std::uint64_t>> digest(k);
  Run warm;
  spans.time("warmup", root,
             [&](int id) { warm = run_once(ctx, ctx.instances[0], {1}, spans, id); });
  digest[0] = warm.digest;
  global_ok &= checks.expect("warmup_conservation", warm.conserved,
                             std::to_string(warm.result.metrics.walks_completed) +
                                 " walks completed");

  std::vector<Run> runs;
  std::uint64_t failed_walks = 0;
  const auto t_reps = Clock::now();
  while (runs.size() < std::max<std::uint64_t>(opt.reps, k) ||
         std::chrono::duration<double>(Clock::now() - t_reps).count() < opt.seconds) {
    const std::size_t i = runs.size() % k;
    const Instance& inst = ctx.instances[i];
    Run r;
    spans.time("rep", root, [&](int id) { r = run_once(ctx, inst, {threads}, spans, id); });
    if (!digest[i]) digest[i] = r.digest;
    const std::string tag = "rep" + std::to_string(runs.size());
    const bool ok =
        checks.expect(tag + "_conservation", r.conserved,
                      std::to_string(r.result.metrics.walks_completed) + " of " +
                          std::to_string(inst.requested) + " walks completed") &
        checks.expect(tag + "_matches_instance_digest", r.digest == *digest[i],
                      "instance " + std::to_string(i) + " digest " + hex64(r.digest) +
                          " vs " + hex64(*digest[i]));
    if (!ok) failed_walks += inst.requested;
    runs.push_back(std::move(r));
  }

  // DeepWalk visit distribution of instance 0 against the host reference
  // walker: its TVD to one reference run must stay within 3x the TVD
  // between two reference runs with different seeds. The mix's DeepWalk
  // jobs run solo here (a job's walks are the same solo and co-scheduled);
  // per-job visit vectors of the whole 64-job mix would take gigabytes.
  spans.time("check.visits", root, [&](int id) {
    const std::size_t n = ctx.graph.num_vertices();
    std::vector<std::uint64_t> engine(n, 0), ref_a(n, 0), ref_b(n, 0);
    const auto accumulate = [](std::vector<std::uint64_t>& into,
                               const std::vector<std::uint64_t>& from) {
      for (std::size_t v = 0; v < from.size(); ++v) into[v] += from[v];
    };
    const Instance& first = ctx.instances[0];
    std::vector<Instance> solos;
    if (first.jobs.empty()) solos.push_back(first);
    for (const auto& job : first.jobs) {
      if (rw::resolve_model_name(job.spec) != "deepwalk") continue;
      solos.push_back(Instance{job.spec, {}, job.spec.num_walks});
    }
    for (Instance& solo : solos) {
      const Run v = run_once(ctx, solo, {1, /*record_visits=*/true}, spans, id);
      global_ok &= checks.expect("visit_run_conservation", v.conserved,
                                 std::to_string(v.result.metrics.walks_completed) +
                                     " walks completed");
      if (first.jobs.empty()) {
        global_ok &= checks.expect("visit_run_matches_instance_digest",
                                   v.digest == *digest[0], "digest " + hex64(v.digest));
      }
      accumulate(engine, v.result.visit_counts);
      accumulate(ref_a, rw::run_walks(ctx.graph, solo.spec).visit_counts);
      solo.spec.seed = SplitMix64(solo.spec.seed).next();
      accumulate(ref_b, rw::run_walks(ctx.graph, solo.spec).visit_counts);
    }
    const double d_engine = tvd(engine, ref_a);
    const double d_ref = tvd(ref_a, ref_b);
    global_ok &= checks.expect("deepwalk_visit_tvd", d_engine <= 3.0 * d_ref,
                               "engine-vs-reference TVD " + std::to_string(d_engine) +
                                   ", reference-vs-reference TVD " +
                                   std::to_string(d_ref));
  });

  // End-to-end metrics: simulated ones averaged over the instances, host
  // ones as medians over the timed reps.
  std::vector<const Run*> per_instance;
  for (std::size_t i = 0; i < k; ++i) per_instance.push_back(&runs[i]);
  std::vector<double> walks_per_s, run_s, cpu_s, hops;
  for (const Run& r : runs) {
    walks_per_s.push_back(static_cast<double>(r.result.metrics.walks_completed) / r.wall_s);
    run_s.push_back(r.wall_s);
    cpu_s.push_back(r.cpu_s);
    hops.push_back(static_cast<double>(r.result.metrics.total_hops) / r.wall_s);
  }
  std::vector<double> setup_s, generate_s, partition_s, build_s;
  for (const SetupTimes& s : setups) {
    setup_s.push_back(s.total());
    generate_s.push_back(s.generate_s);
    partition_s.push_back(s.partition_s);
    build_s.push_back(s.build_s);
  }
  add_instance_means(metrics, ctx, per_instance, simulated_end_to_end);
  metrics.add("host_walks_per_s", "walks/s", walks_per_s);
  metrics.add("setup_s", "s", setup_s);

  // Per-layer metrics from the set-ups and the timed reps.
  metrics.add("graph.generate_s", "s", generate_s);
  metrics.add("partition.build_s", "s", partition_s);
  metrics.add("partition.subgraphs", "count", ctx.pg->num_subgraphs());
  metrics.add("partition.partitions", "count", ctx.pg->num_partitions());
  metrics.add("accel.build_s", "s", build_s);
  metrics.add("accel.run_s", "s", run_s);
  metrics.add("accel.run_cpu_s", "s", cpu_s);
  metrics.add("accel.host_ns_per_hop", "ns", 1e9 / median(hops));
  metrics.add("sim.cpu_util", "ratio", median(cpu_s) / median(run_s));
  add_instance_means(metrics, ctx, per_instance, simulated_layers);

  if (opt.layers) {
    const Instance& first = ctx.instances[0];
    const double first_hops = static_cast<double>(runs[0].result.metrics.total_hops);
    // Shard-audit run: event counts and cross-shard traffic (instance 0).
    spans.time("audit", root, [&](int id) {
      const Run a = run_once(ctx, first, {threads, false, /*shard_audit=*/true}, spans, id);
      const accel::ShardAuditReport& s = a.result.shard_audit;
      global_ok &= checks.expect("audit_matches_instance_digest", a.digest == *digest[0],
                                 "digest " + hex64(a.digest));
      global_ok &= checks.expect("audit_lookahead_violations", s.lookahead_violations == 0,
                                 std::to_string(s.lookahead_violations) + " violations");
      const double events = static_cast<double>(s.events);
      metrics.add("sim.events", "count", events);
      metrics.add("sim.host_ns_per_event", "ns", runs[0].wall_s * 1e9 / events);
      metrics.add("sim.cross_sends_per_hop", "ratio",
                  static_cast<double>(s.cross_sends) / first_hops);
      metrics.add("sim.board_share_ppm", "ppm", static_cast<double>(s.board_share_ppm()));
      metrics.add("sim.shard_events_max", "count", static_cast<double>(s.max_shard_events));
      metrics.add("sim.board_ops_per_batch", "ratio",
                  ratio(static_cast<double>(s.board_batched_ops),
                        static_cast<double>(s.board_batches)));
    });

    // Traced run (instance 0, one worker): where the simulated time went.
    // Its overhead is taken against an untraced twin run right before it.
    spans.time("traced", root, [&](int id) {
      const Run plain = run_once(ctx, first, {1}, spans, id);
      obs::TraceRecorder trace;
      const Run t = run_once(ctx, first, {1, false, false, &trace}, spans, id);
      global_ok &= checks.expect("traced_matches_instance_digest", t.digest == *digest[0],
                                 "digest " + hex64(t.digest));
      SpanSums sums;
      std::ostream sink(&sums);
      trace.write_json(sink);
      const auto ms = sums.sums_ms();
      for (const char* key : {"chip.sg_load", "chip.walk_fetch", "chip.update",
                              "channel.rove", "channel.update", "board.guide",
                              "board.update", "board.dispatch"}) {
        const auto it = ms.find(key);
        metrics.add(std::string("trace.") + key + "_ms", "ms",
                    it == ms.end() ? 0.0 : it->second);
      }
      metrics.add("obs.trace_spans", "count", static_cast<double>(sums.spans()));
      metrics.add("obs.trace_overhead_pct", "%", (t.wall_s / plain.wall_s - 1.0) * 100.0);
    });

    // Walk-model replay: instance 0's own specs and seeds, per model.
    spans.time("replay.rw", root, [&](int parent) {
      std::vector<rw::WalkSpec> specs;
      if (first.jobs.empty()) specs.push_back(first.spec);
      for (const auto& job : first.jobs) specs.push_back(job.spec);
      std::map<std::string, std::pair<double, double>> per_model;  // seconds, steps
      double total_s = 0.0;
      double total_steps = 0.0;
      for (const rw::WalkSpec& spec : specs) {
        const std::string model(rw::resolve_model_name(spec));
        std::uint64_t steps = 0;
        const double s = spans.time("replay." + model, parent,
                                    [&](int) { steps = replay_walks(ctx.graph, spec); });
        per_model[model].first += s;
        per_model[model].second += static_cast<double>(steps);
        total_s += s;
        total_steps += static_cast<double>(steps);
      }
      for (const auto& [model, pm] : per_model) {
        metrics.add("rw." + model + ".ns_per_step", "ns", ratio(pm.first * 1e9, pm.second));
        metrics.add("rw." + model + ".steps", "count", pm.second);
      }
      metrics.add("rw.ns_per_step", "ns", ratio(total_s * 1e9, total_steps));
      metrics.add("rw.steps", "count", total_steps);
    });
  }
  spans.close(root);

  std::uint64_t attempted = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) attempted += ctx.instances[i % k].requested;
  if (!global_ok) failed_walks = attempted;
  metrics.add("walk_fail_ratio", "ratio",
              static_cast<double>(failed_walks) / static_cast<double>(attempted));

  std::ofstream os(opt.out);
  os.precision(17);
  os << "{\n  \"workload\": \"" << wl->name << "\",\n  \"seed\": " << opt.seed
     << ",\n  \"scale\": \"" << (opt.quick ? "test" : "bench")
     << "\",\n  \"sim_threads\": " << threads << ",\n  \"hw_threads\": " << hw
     << ",\n  \"instances\": " << k << ",\n  \"fingerprint\": \"" << fp
     << "\",\n  \"timed_reps\": " << runs.size() << ",\n  \"attempted_walks\": " << attempted
     << ",\n  \"failed_walks\": " << failed_walks << ",\n  \"instance_digests\": [";
  for (std::size_t i = 0; i < k; ++i) os << (i ? ", " : "") << '"' << hex64(*digest[i]) << '"';
  os << "],\n  \"checks\": ";
  checks.write_json(os);
  os << ",\n  \"metrics\": ";
  metrics.write_json(os);
  os << ",\n  \"spans\": ";
  spans.write_json(os);
  os << "\n}\n";
  if (!os) {
    std::cerr << "fwbench: cannot write " << opt.out << "\n";
    return 1;
  }
  return checks.all_ok() ? 0 : 1;
}

}  // namespace fwb

int main(int argc, char** argv) {
  fwb::Options opt;
  fw::OptionSet opts;
  opts.opt("--workload", &opt.workload, "NAME",
           "tt_deepwalk|tt_deepwalk_4w|cw_deepwalk|fs_service_mix");
  opts.opt("--seed", &opt.seed, "N", "workload seed (walk seeds, starts, job mix)");
  opts.opt("--seconds", &opt.seconds, "S", "keep timing reps for at least S seconds");
  opts.opt("--reps", &opt.reps, "N", "at least N timed reps (default 3)");
  opts.opt("--fingerprint", &opt.fingerprint, "V:E:HASH", "pinned input fingerprint");
  opts.opt("--out", &opt.out, "FILE", "result JSON path");
  opts.flag("--quick", &opt.quick, "test-scale inputs");
  opts.flag("--layers", &opt.layers, "add the audit, traced and replay runs");
  opts.flag("--peak-rss", &opt.peak_rss,
            "only measure peak RSS: one set-up and one run, one malloc arena");
  opts.parse_or_exit(argc, argv, "FlashWalker benchmark: one workload per process");
  if (opt.out.empty() || opt.reps == 0) {
    std::cerr << "fwbench: --out is required and --reps must be >= 1\n";
    return 2;
  }
  try {
    return fwb::bench(opt);
  } catch (const std::exception& e) {
    std::cerr << "fwbench: " << e.what() << "\n";
    return 1;
  }
}
