// Walk service layer: solo-vs-co-scheduled bit-identity (the per-job RNG
// stream contract), weighted-fair scheduling bounds, admission control,
// arrival times, completion callbacks, per-job counters, and the --jobs
// grammar.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "accel/builder.hpp"
#include "accel/engine.hpp"
#include "accel/report.hpp"
#include "accel/service/jobs_spec.hpp"
#include "accel/service/walk_service.hpp"
#include "graph/datasets.hpp"
#include "rw/walk.hpp"

namespace fw::accel {
namespace {

partition::PartitionConfig small_pc() {
  partition::PartitionConfig pc;
  pc.block_capacity_bytes = 4096;
  pc.subgraphs_per_partition = 1u << 20;
  pc.subgraphs_per_range = 8;
  return pc;
}

service::WalkJob make_job(std::string name, std::uint64_t walks, std::uint64_t seed) {
  service::WalkJob j;
  j.name = std::move(name);
  j.spec.num_walks = walks;
  j.spec.length = 6;
  j.spec.seed = seed;
  return j;
}

/// Fault-injecting SSD: moderate mid-life RBER so retries/parks actually
/// happen (mirrors reliability_test's retrying_config).
ssd::SsdConfig faulty_ssd() {
  ssd::SsdConfig cfg = ssd::test_ssd_config();
  cfg.reliability.rber.base = 5e-3;
  cfg.reliability.fault_seed = 7;
  return cfg;
}

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest()
      : g_(graph::make_dataset(graph::DatasetId::FS, graph::Scale::kTest)),
        pg_(g_, small_pc()) {}

  EngineResult run_jobs(std::vector<service::WalkJob> jobs,
                        ssd::SsdConfig ssd = ssd::test_ssd_config(),
                        service::ServicePolicy policy = {}) {
    SimulationConfig cfg;
    cfg.ssd = ssd;
    cfg.record_paths = true;
    cfg.record_endpoints = true;
    cfg.policy = policy;
    return SimulationBuilder(pg_).config(cfg).jobs(std::move(jobs)).run();
  }

  /// Assert each co-scheduled job's walk output is bit-identical to the
  /// same job run alone on an otherwise idle service.
  void expect_solo_identity(const std::vector<service::WalkJob>& jobs,
                            ssd::SsdConfig ssd = ssd::test_ssd_config()) {
    const EngineResult co = run_jobs(jobs, ssd);
    ASSERT_EQ(co.jobs.size(), jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const EngineResult solo = run_jobs({jobs[j]}, ssd);
      ASSERT_EQ(solo.jobs.size(), 1u);
      EXPECT_EQ(co.jobs[j].paths, solo.jobs[0].paths)
          << "job " << jobs[j].name << " diverged from its solo run";
      EXPECT_EQ(co.jobs[j].endpoint_counts, solo.jobs[0].endpoint_counts);
      EXPECT_EQ(co.jobs[j].stats.steps, solo.jobs[0].stats.steps);
      EXPECT_EQ(co.jobs[j].stats.walks, solo.jobs[0].stats.walks);
    }
  }

  graph::CsrGraph g_;
  partition::PartitionedGraph pg_;
};

// --- determinism: solo == co-scheduled -----------------------------------------

TEST_F(ServiceTest, SingleExplicitJobMatchesImplicitSpecRun) {
  // The explicit one-job service run must replay the exact event sequence
  // of the classic single-workload run: same exec time, same totals.
  SimulationConfig implicit_cfg;
  implicit_cfg.ssd = ssd::test_ssd_config();
  implicit_cfg.spec = make_job("x", 2000, 99).spec;
  const EngineResult implicit = SimulationBuilder(pg_).config(implicit_cfg).run();

  const EngineResult explicit_run = run_jobs({make_job("x", 2000, 99)});
  EXPECT_EQ(implicit.exec_time, explicit_run.exec_time);
  EXPECT_EQ(implicit.metrics.total_hops, explicit_run.metrics.total_hops);
  EXPECT_EQ(implicit.metrics.walks_completed, explicit_run.metrics.walks_completed);
}

TEST_F(ServiceTest, SoloVsCoScheduledFourJobs) {
  expect_solo_identity({make_job("a", 500, 1), make_job("b", 500, 2),
                        make_job("c", 500, 3), make_job("d", 500, 4)});
}

TEST_F(ServiceTest, SoloVsCoScheduledSixteenJobs) {
  std::vector<service::WalkJob> jobs;
  for (std::uint64_t j = 0; j < 16; ++j) {
    jobs.push_back(make_job(std::string("j") + std::to_string(j), 125, 1000 + 13 * j));
  }
  expect_solo_identity(jobs);
}

TEST_F(ServiceTest, SoloVsCoScheduledMixedModels) {
  // The acceptance-criteria mix: 2x DeepWalk + node2vec + PPR.
  auto n2v = make_job("n2v", 250, 5);
  n2v.spec.second_order.enabled = true;
  n2v.spec.second_order.p = 0.5;
  n2v.spec.second_order.q = 2.0;
  auto ppr = make_job("ppr", 250, 6);
  ppr.spec.start_mode = rw::StartMode::kSingleSource;
  ppr.spec.source = 3;
  ppr.spec.stop_prob = 0.15;
  ppr.spec.dead_end = rw::WalkSpec::DeadEnd::kRestart;
  expect_solo_identity(
      {make_job("dw0", 500, 3), make_job("dw1", 500, 4), n2v, ppr});
}

TEST_F(ServiceTest, SoloVsCoScheduledUnderFaultInjection) {
  expect_solo_identity({make_job("a", 400, 11), make_job("b", 400, 12),
                        make_job("c", 400, 13), make_job("d", 400, 14)},
                       faulty_ssd());
}

TEST_F(ServiceTest, CoScheduledRunsAreReproducible) {
  const std::vector<service::WalkJob> jobs = {make_job("a", 300, 21),
                                              make_job("b", 300, 22)};
  const EngineResult r1 = run_jobs(jobs);
  const EngineResult r2 = run_jobs(jobs);
  EXPECT_EQ(r1.exec_time, r2.exec_time);
  ASSERT_EQ(r1.jobs.size(), r2.jobs.size());
  for (std::size_t j = 0; j < r1.jobs.size(); ++j) {
    EXPECT_EQ(r1.jobs[j].paths, r2.jobs[j].paths);
    EXPECT_EQ(r1.jobs[j].stats.completed, r2.jobs[j].stats.completed);
  }
}

// --- fairness and starvation ---------------------------------------------------

TEST_F(ServiceTest, EqualPriorityJobsWithinTwoXThroughput) {
  service::WalkService svc(pg_);
  for (std::uint64_t j = 0; j < 4; ++j) {
    svc.submit(make_job(std::string("j") + std::to_string(j), 500, 31 + j));
  }
  const auto res = svc.run();
  EXPECT_LE(res.fairness_ratio, 2.0);
  double min_rate = 0.0, max_rate = 0.0;
  for (const auto& jr : res.jobs()) {
    const double rate = jr.stats.steps_per_sec();
    ASSERT_GT(rate, 0.0);
    min_rate = min_rate == 0.0 ? rate : std::min(min_rate, rate);
    max_rate = std::max(max_rate, rate);
  }
  EXPECT_LE(max_rate, 2.0 * min_rate);
}

TEST_F(ServiceTest, TinyJobFinishesWhileHugeJobRuns) {
  // Starvation regression: a 50-walk job sharing the array with a
  // 10000-walk job must not be held to the big job's completion. The tiny
  // job's last walk still waits on the partition rotation reaching its
  // subgraph, so strictly-before is the architectural bound, not a ratio.
  const EngineResult r =
      run_jobs({make_job("huge", 10'000, 41), make_job("tiny", 50, 42)});
  ASSERT_EQ(r.jobs.size(), 2u);
  EXPECT_LT(r.jobs[1].stats.completed, r.jobs[0].stats.completed);
  EXPECT_LT(r.jobs[1].stats.exec_ns(), r.jobs[0].stats.exec_ns());
}

TEST_F(ServiceTest, GoldQosDerivesHigherWeight) {
  auto gold = make_job("gold", 200, 51);
  gold.qos = service::QosClass::kGold;
  const EngineResult r = run_jobs({make_job("bronze", 200, 52), gold});
  ASSERT_EQ(r.jobs.size(), 2u);
  EXPECT_EQ(r.jobs[0].stats.weight, 1u);
  EXPECT_EQ(r.jobs[1].stats.weight, 4u);
  EXPECT_EQ(r.jobs[1].stats.qos, service::QosClass::kGold);
}

// --- admission control and arrivals --------------------------------------------

TEST_F(ServiceTest, MaxConcurrentSerializesAdmission) {
  service::ServicePolicy policy;
  policy.max_concurrent_jobs = 1;
  const EngineResult r = run_jobs(
      {make_job("first", 500, 61), make_job("second", 100, 62)},
      ssd::test_ssd_config(), policy);
  ASSERT_EQ(r.jobs.size(), 2u);
  // The second job waits in the admit queue until the first completes.
  EXPECT_GE(r.jobs[1].stats.admitted, r.jobs[0].stats.completed);
  EXPECT_GT(r.jobs[1].stats.latency_ns(), r.jobs[1].stats.exec_ns());
}

TEST_F(ServiceTest, LateArrivalIsHonored) {
  auto late = make_job("late", 100, 71);
  late.arrival = 300 * kUs;
  const EngineResult r = run_jobs({make_job("early", 100, 72), late});
  ASSERT_EQ(r.jobs.size(), 2u);
  EXPECT_GE(r.jobs[1].stats.admitted, late.arrival);
  EXPECT_EQ(r.jobs[1].stats.walks, 100u);
  // An arrival gap with an idle array must not kill the run.
  EXPECT_GT(r.exec_time, late.arrival);
}

TEST_F(ServiceTest, CompletionCallbackFiresWithStats) {
  std::vector<std::string> done;
  auto a = make_job("a", 300, 81);
  auto b = make_job("b", 50, 82);
  a.on_complete = [&done](const service::JobStats& s) { done.push_back(s.name); };
  b.on_complete = [&done](const service::JobStats& s) { done.push_back(s.name); };
  run_jobs({a, b});
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], "b");  // the small job finishes first
  EXPECT_EQ(done[1], "a");
}

TEST_F(ServiceTest, SubmitEnforcesPolicyCaps) {
  SimulationConfig cfg;
  cfg.policy.max_jobs = 2;
  cfg.policy.max_total_walks = 900;
  service::WalkService svc(pg_, cfg);
  svc.submit(make_job("a", 400, 1));
  EXPECT_THROW(svc.submit(make_job("big", 600, 2)), service::AdmissionError);
  svc.submit(make_job("b", 400, 3));
  EXPECT_THROW(svc.submit(make_job("c", 10, 4)), service::AdmissionError);
  EXPECT_EQ(svc.num_jobs(), 2u);
}

TEST_F(ServiceTest, RunWithoutJobsThrows) {
  service::WalkService svc(pg_);
  EXPECT_THROW(svc.run(), std::logic_error);
}

TEST_F(ServiceTest, ZeroWalkJobCompletesInstantly) {
  const EngineResult r = run_jobs({make_job("empty", 0, 91), make_job("real", 200, 92)});
  ASSERT_EQ(r.jobs.size(), 2u);
  EXPECT_EQ(r.jobs[0].stats.walks, 0u);
  EXPECT_EQ(r.jobs[0].stats.completed, r.jobs[0].stats.admitted);
}

// --- observability -------------------------------------------------------------

TEST_F(ServiceTest, PerJobCountersAndLatencyPercentilesPublished) {
  const EngineResult r = run_jobs({make_job("a", 300, 93), make_job("b", 100, 94)});
  auto has = [&r](const std::string& name) {
    return std::any_of(r.counters.begin(), r.counters.end(),
                       [&name](const auto& s) { return s.first == name; });
  };
  EXPECT_TRUE(has("job.0.exec_ns"));
  EXPECT_TRUE(has("job.0.steps"));
  EXPECT_TRUE(has("job.0.parked_walks"));
  EXPECT_TRUE(has("job.1.exec_ns"));
  EXPECT_TRUE(has("service.jobs"));
  EXPECT_TRUE(has("service.latency_p50_ns"));
  EXPECT_TRUE(has("service.latency_p95_ns"));
  EXPECT_TRUE(has("service.latency_p99_ns"));
}

std::uint64_t counter_value(const EngineResult& r, const std::string& name) {
  for (const auto& [n, v] : r.counters) {
    if (n == name) return v;
  }
  ADD_FAILURE() << "counter " << name << " not published";
  return 0;
}

TEST_F(ServiceTest, LatencyPercentilesAreNearestRankObservedValues) {
  // Pins the SLO percentile semantics: service.latency_p{50,95,99}_ns are
  // nearest-rank order statistics of the per-job latencies — always a
  // latency some job actually experienced, never an interpolated midpoint.
  const EngineResult r = run_jobs({make_job("big", 400, 97), make_job("small", 50, 98)});
  ASSERT_EQ(r.jobs.size(), 2u);
  const std::uint64_t lat0 = counter_value(r, "job.0.latency_ns");
  const std::uint64_t lat1 = counter_value(r, "job.1.latency_ns");
  ASSERT_NE(lat0, lat1);  // a 400-walk and a 50-walk job cannot tie
  const std::uint64_t lo = std::min(lat0, lat1);
  const std::uint64_t hi = std::max(lat0, lat1);
  // n = 2: p50 -> ceil(1) = 1st order statistic (min); p95/p99 -> 2nd (max).
  EXPECT_EQ(counter_value(r, "service.latency_p50_ns"), lo);
  EXPECT_EQ(counter_value(r, "service.latency_p95_ns"), hi);
  EXPECT_EQ(counter_value(r, "service.latency_p99_ns"), hi);
}

TEST_F(ServiceTest, SingleJobPercentilesAllEqualItsLatency) {
  // n = 1: every percentile is that one observed latency (nearest-rank is
  // total on tiny samples — no special-casing, no zeros, no interpolation).
  const EngineResult r = run_jobs({make_job("only", 200, 99)});
  ASSERT_EQ(r.jobs.size(), 1u);
  const std::uint64_t lat = counter_value(r, "job.0.latency_ns");
  EXPECT_GT(lat, 0u);
  EXPECT_EQ(counter_value(r, "service.latency_p50_ns"), lat);
  EXPECT_EQ(counter_value(r, "service.latency_p95_ns"), lat);
  EXPECT_EQ(counter_value(r, "service.latency_p99_ns"), lat);
}

TEST_F(ServiceTest, ReportJsonCarriesSchemaV2AndJobSections) {
  const EngineResult r = run_jobs({make_job("a", 200, 95), make_job("b", 100, 96)});
  const std::string json = to_json("svc", r);
  EXPECT_NE(json.find("\"schema_version\":2"), std::string::npos);
  EXPECT_NE(json.find("\"jobs\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"a\""), std::string::npos);
  EXPECT_NE(json.find("\"latency_ns\":"), std::string::npos);
}

// --- the --jobs grammar --------------------------------------------------------

TEST(JobsSpec, ParsesMixWithRepeatsAndDefaults) {
  service::JobSpecDefaults d;
  d.base_seed = 100;
  const auto jobs = service::parse_jobs(
      "2*deepwalk:walks=500;node2vec:walks=250,p=0.5,q=2;ppr:walks=250,source=3", d);
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_EQ(jobs[0].name, "deepwalk#0");
  EXPECT_EQ(jobs[1].name, "deepwalk#1");
  EXPECT_EQ(jobs[2].name, "node2vec#2");
  EXPECT_EQ(jobs[3].name, "ppr#3");
  // Unseeded jobs get distinct stride-spaced seeds off the base.
  EXPECT_EQ(jobs[0].spec.seed, 100u);
  EXPECT_EQ(jobs[1].spec.seed, 100u + service::kSeedStride);
  EXPECT_TRUE(jobs[2].spec.second_order.enabled);
  EXPECT_DOUBLE_EQ(jobs[2].spec.second_order.p, 0.5);
  EXPECT_EQ(jobs[3].spec.start_mode, rw::StartMode::kSingleSource);
  EXPECT_EQ(jobs[3].spec.source, 3u);
  EXPECT_DOUBLE_EQ(jobs[3].spec.stop_prob, 0.15);
}

TEST(JobsSpec, ParsesQosAndExplicitSeedAndArrival) {
  const auto jobs = service::parse_jobs(
      "deepwalk:walks=10,seed=7,qos=gold,arrive=5000", {});
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].spec.seed, 7u);
  EXPECT_EQ(jobs[0].qos, service::QosClass::kGold);
  EXPECT_EQ(jobs[0].arrival, 5000u);
}

TEST(JobsSpec, ParsesNewModelsWithModelKeys) {
  const auto jobs = service::parse_jobs(
      "metapath:pattern=0-1-2,walks=50;autoreg:alpha=0.6;"
      "ppr:stop_mode=residual,eps=0.05", {});
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].name, "metapath#0");
  EXPECT_EQ(jobs[0].spec.metapath_pattern,
            (std::vector<std::uint8_t>{0, 1, 2}));
  EXPECT_EQ(jobs[1].name, "autoreg#1");
  EXPECT_DOUBLE_EQ(jobs[1].spec.autoreg_alpha, 0.6);
  EXPECT_EQ(jobs[2].name, "ppr#2");
  EXPECT_DOUBLE_EQ(jobs[2].spec.residual_eps, 0.05);
  EXPECT_DOUBLE_EQ(jobs[2].spec.stop_prob, 0.15);  // ppr default stop kept
}

TEST(JobsSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(service::parse_jobs("", {}), std::invalid_argument);
  EXPECT_THROW(service::parse_jobs("randomwalk", {}), std::invalid_argument);
  EXPECT_THROW(service::parse_jobs("deepwalk:p=0.5", {}), std::invalid_argument);
  EXPECT_THROW(service::parse_jobs("ppr:stop=x", {}), std::invalid_argument);
  EXPECT_THROW(service::parse_jobs("0*deepwalk", {}), std::invalid_argument);
  EXPECT_THROW(service::parse_jobs("deepwalk:length=0", {}), std::invalid_argument);
  EXPECT_THROW(service::parse_jobs("deepwalk:qos=plutonium", {}), std::invalid_argument);
  EXPECT_THROW(service::parse_jobs("autoreg:alpha=1.5", {}), std::invalid_argument);
  EXPECT_THROW(service::parse_jobs("metapath:pattern=", {}), std::invalid_argument);
  EXPECT_THROW(service::parse_jobs("ppr:stop_mode=sideways", {}), std::invalid_argument);
  EXPECT_THROW(service::parse_jobs("ppr:eps=1.0", {}), std::invalid_argument);
}

std::string parse_error(const std::string& spec) {
  try {
    (void)service::parse_jobs(spec, {});
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "'" << spec << "' parsed but should have thrown";
  return {};
}

TEST(JobsSpec, UnknownModelErrorListsRegisteredModels) {
  const std::string what = parse_error("randomwalk:walks=10");
  EXPECT_NE(what.find("--jobs entry 'randomwalk:walks=10'"), std::string::npos) << what;
  EXPECT_NE(what.find("unknown model 'randomwalk'"), std::string::npos) << what;
  EXPECT_NE(what.find("registered: autoreg|deepwalk|metapath|node2vec|ppr"),
            std::string::npos)
      << what;
}

TEST(JobsSpec, UnknownKeyErrorListsModelAndCommonKeys) {
  // A model with its own keys enumerates both key sets...
  const std::string n2v = parse_error("node2vec:alpha=0.5");
  EXPECT_NE(n2v.find("unknown key 'alpha' for model 'node2vec'"), std::string::npos)
      << n2v;
  EXPECT_NE(n2v.find("model keys: p, q"), std::string::npos) << n2v;
  EXPECT_NE(n2v.find("common keys: walks, length, seed, weight, arrive, "
                     "source, qos, start"),
            std::string::npos)
      << n2v;
  // ... and a key-less model says so instead of printing an empty list.
  const std::string dw = parse_error("deepwalk:p=0.5");
  EXPECT_NE(dw.find("unknown key 'p' for model 'deepwalk'"), std::string::npos) << dw;
  EXPECT_NE(dw.find("model keys: none"), std::string::npos) << dw;
}

TEST(JobsSpec, ModelValueErrorsNameTheEntryAndKey) {
  const std::string alpha = parse_error("autoreg:alpha=1.5");
  EXPECT_NE(alpha.find("--jobs entry 'autoreg:alpha=1.5'"), std::string::npos) << alpha;
  EXPECT_NE(alpha.find("key 'alpha'"), std::string::npos) << alpha;
}

TEST(JobsSpec, RejectsSignedNumbers) {
  // std::stoull reads "-1" as 2^64 - 1; no integer key may wrap like that.
  // (The repeat count shares the parser; "-1*deepwalk" is left out because
  // a parser that wraps would build 2^64 - 1 jobs instead of failing.)
  for (const char* key : {"weight", "length", "walks", "seed", "arrive", "source"}) {
    const std::string spec = std::string("deepwalk:") + key + "=-1";
    const std::string what = parse_error(spec);
    EXPECT_NE(what.find("--jobs entry '" + spec + "'"), std::string::npos) << what;
    EXPECT_NE(what.find("expected an integer"), std::string::npos) << what;
  }
}

TEST(JobsSpec, RejectsValuesPastTheirFieldsWidth) {
  // Neither truncated into range (length=4294967302 used to run as 6) nor
  // wrapped by the walk's 15-bit hop counter.
  const std::string length = parse_error("deepwalk:walks=100,length=4294967302");
  EXPECT_NE(length.find("--jobs entry 'deepwalk:walks=100,length=4294967302'"),
            std::string::npos)
      << length;
  EXPECT_NE(length.find("length=4294967302 exceeds the limit of 32767"),
            std::string::npos)
      << length;
  const std::string hops = parse_error("deepwalk:length=32768");
  EXPECT_NE(hops.find("length=32768 exceeds the limit of 32767"), std::string::npos)
      << hops;
  const std::string weight = parse_error("deepwalk:weight=4294967296");
  EXPECT_NE(weight.find("weight=4294967296 exceeds the limit of 4294967295"),
            std::string::npos)
      << weight;
  // Each limit itself is accepted.
  const auto jobs = service::parse_jobs("deepwalk:length=32767,weight=4294967295", {});
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].spec.length, rw::kMaxWalkLength);
  EXPECT_EQ(jobs[0].weight, 4294967295u);
}

TEST(JobsSpec, HelpTextIsGeneratedFromTheRegistry) {
  const std::string help = service::jobs_help();
  for (const char* model : {"autoreg", "deepwalk", "metapath", "node2vec", "ppr"}) {
    EXPECT_NE(help.find(model), std::string::npos) << "missing " << model;
  }
  EXPECT_NE(help.find("pattern"), std::string::npos);
  EXPECT_NE(help.find("stop_mode=geometric|residual"), std::string::npos);
}

}  // namespace
}  // namespace fw::accel
