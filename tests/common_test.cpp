// Unit tests for src/common: RNG and jump-ahead, fork/join, Bloom filter,
// cache model, top-N list, statistics, table printer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/assoc_cache.hpp"
#include "common/bloom.hpp"
#include "common/fifo.hpp"
#include "common/fork_join.hpp"
#include "common/options.hpp"
#include "common/pool.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/topn.hpp"
#include "common/units.hpp"

namespace fw {
namespace {

// --- RNG -------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInRange) {
  Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, (1ull << 40)}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.bounded(bound), bound);
  }
}

TEST(Rng, BoundedIsRoughlyUniform) {
  Xoshiro256 rng(11);
  constexpr std::uint64_t kBound = 10;
  constexpr int kTrials = 100'000;
  std::vector<std::uint64_t> counts(kBound, 0);
  for (int i = 0; i < kTrials; ++i) ++counts[rng.bounded(kBound)];
  std::vector<double> expected(kBound, 1.0 / kBound);
  // chi-square with 9 dof: 27.9 is p ~ 0.001
  EXPECT_LT(chi_square(counts, expected), 27.9);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(5);
  double sum = 0;
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(Rng, AdvanceEqualsRepeatedNext) {
  for (const std::uint64_t seed : {0ull, 2024ull}) {
    for (const std::uint64_t k :
         {0ull, 1ull, 2ull, 63ull, 64ull, 65ull, 1000ull, (1ull << 20) + 7}) {
      Xoshiro256 stepped(seed), jumped(seed);
      stepped.next();  // start mid-stream, not from a fresh seed
      jumped.next();
      for (std::uint64_t i = 0; i < k; ++i) stepped.next();
      jumped.advance(k);
      EXPECT_EQ(jumped, stepped) << "seed " << seed << ", k " << k;
      EXPECT_EQ(jumped.next(), stepped.next()) << "seed " << seed << ", k " << k;
    }
  }
}

TEST(Rng, AdvanceComposes) {
  const std::uint64_t big = (1ull << 62) + 12345;
  const std::pair<std::uint64_t, std::uint64_t> cases[] = {
      {0, 0}, {0, 7}, {1, 1}, {64, 191}, {1000, (1ull << 20) + 7}, {big, big - 1}};
  for (const auto& [a, b] : cases) {
    Xoshiro256 twice(99), once(99);
    twice.advance(a);
    twice.advance(b);
    once.advance(a + b);
    EXPECT_EQ(twice, once) << a << " + " << b;
  }
}

// --- Fork/join -------------------------------------------------------------

TEST(ForkJoin, RangesTileTheInputEvenly) {
  for (const std::uint64_t n : {0ull, 1ull, 7ull, 100ull, (1ull << 20) + 3}) {
    for (const unsigned parts : {1u, 2u, 3u, 4u, 7u, 8u}) {
      EXPECT_EQ(range_begin(n, parts, 0), 0u);
      EXPECT_EQ(range_begin(n, parts, parts), n);
      for (unsigned t = 0; t < parts; ++t) {
        const std::uint64_t size =
            range_begin(n, parts, t + 1) - range_begin(n, parts, t);
        EXPECT_TRUE(size == n / parts || size == n / parts + 1) << n << " / " << parts;
      }
    }
  }
}

TEST(ForkJoin, RunsEveryIndexOnceAndForwardsTheLowestException) {
  std::vector<int> hits(5, 0);
  fork_join(5, [&hits](unsigned t) { ++hits[t]; });
  EXPECT_EQ(hits, std::vector<int>(5, 1));

  try {
    fork_join(4, [](unsigned t) {
      if (t >= 2) throw std::runtime_error(std::to_string(t));
    });
    FAIL() << "no exception reached the caller";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "2");
  }
}

TEST(ForkJoin, SmallInputsStayOnOneThread) {
  EXPECT_EQ(host_threads(0, 16), 1u);
  EXPECT_EQ(host_threads(31, 16), 1u);
  EXPECT_GE(host_threads(1ull << 40, 16), 1u);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_LE(host_threads(1ull << 40, 16), hw);
}

TEST(SplitMix, KnownSequenceIsStable) {
  SplitMix64 sm(0);
  const auto first = sm.next();
  SplitMix64 sm2(0);
  EXPECT_EQ(first, sm2.next());
  EXPECT_NE(sm.next(), first);
}

// --- Fifo / VectorPool --------------------------------------------------------

TEST(Fifo, MatchesDequeUnderInterleavedPushPopAndBatches) {
  // A std::deque is the model. Random pushes, pops (now and then a run long
  // enough to drain the queue), batch appends (small and large, into a busy
  // queue or an empty one) and splices of a second Fifo, itself part-popped
  // and at times several chunks long, drive both through adoption, chunk
  // rollover and chunks freed mid-queue.
  constexpr std::uint64_t kChunk = Fifo<std::uint64_t>::kChunkElems;
  Fifo<std::uint64_t> q;
  std::deque<std::uint64_t> model;
  Xoshiro256 rng(17);
  std::uint64_t next = 0;
  for (int op = 0; op < 200000; ++op) {
    const std::uint64_t r = rng.bounded(100);
    if (r < 45) {
      q.push_back(next);
      model.push_back(next++);
    } else if (r < 96) {
      const bool drain = r == 95 && rng.bounded(4) == 0;
      const std::uint64_t run = 1 + rng.bounded(drain ? 4 * kChunk : 4);
      for (std::uint64_t n = 0; n < run && !model.empty(); ++n) {
        ASSERT_EQ(q.front(), model.front());
        q.pop_front();
        model.pop_front();
      }
    } else if (r < 98) {
      std::vector<std::uint64_t> batch(rng.bounded(r == 97 ? 5000 : 100));
      for (auto& v : batch) {
        v = next++;
        model.push_back(v);
      }
      const std::vector<std::uint64_t> spare = q.append(std::move(batch));
      ASSERT_TRUE(spare.empty());
    } else {
      // A second queue built from pushes and an adopted batch, with a few
      // of its own elements popped first, then spliced on whole.
      Fifo<std::uint64_t> other;
      std::deque<std::uint64_t> other_model;
      const bool long_one = r == 99 && rng.bounded(8) == 0;
      const std::uint64_t pushes = rng.bounded(long_one ? 3 * kChunk : 50);
      for (std::uint64_t i = 0; i < pushes; ++i) {
        other.push_back(next);
        other_model.push_back(next++);
      }
      std::vector<std::uint64_t> batch(rng.bounded(100));
      for (auto& v : batch) {
        v = next++;
        other_model.push_back(v);
      }
      ASSERT_TRUE(other.append(std::move(batch)).empty());
      const std::uint64_t pops = rng.bounded(3);
      for (std::uint64_t i = 0; i < pops && !other_model.empty(); ++i) {
        ASSERT_EQ(other.front(), other_model.front());
        other.pop_front();
        other_model.pop_front();
      }
      q.splice(std::move(other));
      model.insert(model.end(), other_model.begin(), other_model.end());
      ASSERT_TRUE(other.empty());
    }
    ASSERT_EQ(q.size(), model.size());
    ASSERT_EQ(q.empty(), model.empty());
    if (!model.empty()) {
      ASSERT_EQ(q.front(), model.front());
    }
  }
  while (!model.empty()) {
    ASSERT_EQ(q.front(), model.front());
    q.pop_front();
    model.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

TEST(Fifo, EmptyQueueAdoptsBatchWithoutCopying) {
  Fifo<int> q;
  q.push_back(1);
  q.pop_front();  // empty again; its drained chunk is freed
  std::vector<int> batch{10, 11, 12};
  const int* data = batch.data();
  const std::vector<int> spare = q.append(std::move(batch));
  EXPECT_EQ(&q.front(), data);  // the batch's buffer, not a copy
  EXPECT_TRUE(spare.empty());
  EXPECT_EQ(spare.capacity(), 0u);  // the adopted batch leaves no buffer behind
  // A busy queue adopts the batch too, behind what it holds.
  std::vector<int> more{13, 14};
  const std::vector<int> drained = q.append(std::move(more));
  EXPECT_TRUE(drained.empty());
  for (int want = 10; want <= 14; ++want) {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.front(), want);
    q.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

TEST(Fifo, CompactionKeepsOrder) {
  // Pop past half of a 1000-element buffer (compaction), push more, and
  // pop through the seam: order must be exactly FIFO throughout.
  Fifo<int> q;
  for (int i = 0; i < 1000; ++i) q.push_back(i);
  for (int i = 0; i < 600; ++i) {
    ASSERT_EQ(q.front(), i);
    q.pop_front();
  }
  EXPECT_EQ(q.size(), 400u);
  for (int i = 1000; i < 1300; ++i) q.push_back(i);
  for (int i = 600; i < 1300; ++i) {
    ASSERT_EQ(q.front(), i);
    q.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

TEST(VectorPool, KeepsOnlyBatchScaleBuffers) {
  VectorPool<int> pool;
  std::vector<int> big(VectorPool<int>::kMaxCapacity + 1);
  pool.release(std::move(big));
  EXPECT_EQ(pool.free_count(), 0u);  // above batch scale: freed
  std::vector<int> small;
  small.reserve(8);
  small.push_back(1);
  pool.release(std::move(small));
  EXPECT_EQ(pool.free_count(), 1u);
  const std::vector<int> reused = pool.acquire();
  EXPECT_TRUE(reused.empty());
  EXPECT_GE(reused.capacity(), 8u);
  EXPECT_EQ(pool.free_count(), 0u);
}

// --- Bloom filter ------------------------------------------------------------

TEST(Bloom, NoFalseNegatives) {
  BloomFilter bf(1000, 0.01);
  for (std::uint64_t k = 0; k < 1000; ++k) bf.insert(k * 7919);
  for (std::uint64_t k = 0; k < 1000; ++k) EXPECT_TRUE(bf.may_contain(k * 7919));
}

TEST(Bloom, FalsePositiveRateNearTarget) {
  BloomFilter bf(10'000, 0.01);
  for (std::uint64_t k = 0; k < 10'000; ++k) bf.insert(k);
  int fp = 0;
  const int kProbes = 20'000;
  for (int i = 0; i < kProbes; ++i) {
    if (bf.may_contain(1'000'000 + i)) ++fp;
  }
  const double rate = static_cast<double>(fp) / kProbes;
  EXPECT_LT(rate, 0.03);  // target 1%, generous bound
  EXPECT_NEAR(bf.predicted_fpr(), 0.01, 0.01);
}

TEST(Bloom, EmptyFilterRejectsEverything) {
  BloomFilter bf(100);
  for (std::uint64_t k = 0; k < 1000; ++k) EXPECT_FALSE(bf.may_contain(k));
}

TEST(Bloom, SizeGrowsWithItems) {
  BloomFilter small(100), large(100'000);
  EXPECT_LT(small.byte_size(), large.byte_size());
}

// --- AssocCacheModel -----------------------------------------------------------

TEST(AssocCache, HitAfterInsert) {
  AssocCacheModel cache(1024, 16, 4);
  EXPECT_FALSE(cache.access(42));
  EXPECT_TRUE(cache.access(42));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(AssocCache, LruEvictionWithinSet) {
  // 1 set, 2 ways: third distinct key evicts the LRU.
  AssocCacheModel cache(32, 16, 2);
  ASSERT_EQ(cache.num_sets(), 1u);
  cache.access(1);
  cache.access(2);
  cache.access(1);       // 1 is now MRU
  cache.access(3);       // evicts 2
  EXPECT_TRUE(cache.access(1));
  EXPECT_FALSE(cache.access(2));
}

TEST(AssocCache, ClearInvalidatesAll) {
  AssocCacheModel cache(1024, 16);
  cache.access(7);
  cache.clear();
  EXPECT_FALSE(cache.access(7));
}

TEST(AssocCache, HotWorkingSetHitsOften) {
  AssocCacheModel cache(4096, 16, 4);  // 256 entries
  Xoshiro256 rng(3);
  for (int i = 0; i < 20'000; ++i) cache.access(rng.bounded(64));  // fits
  EXPECT_GT(cache.hit_rate(), 0.95);
}

TEST(AssocCache, ColdStreamMissesOften) {
  AssocCacheModel cache(1024, 16, 4);  // 64 entries
  for (std::uint64_t i = 0; i < 10'000; ++i) cache.access(i);
  EXPECT_LT(cache.hit_rate(), 0.01);
}

// --- TopNList ---------------------------------------------------------------------

TEST(TopN, KeepsOnlyBestN) {
  TopNList list(3);
  for (std::uint64_t i = 0; i < 10; ++i) list.update(i, static_cast<double>(i));
  EXPECT_EQ(list.size(), 3u);
  EXPECT_TRUE(list.contains(9));
  EXPECT_TRUE(list.contains(8));
  EXPECT_TRUE(list.contains(7));
  EXPECT_FALSE(list.contains(0));
}

TEST(TopN, PopBestReturnsDescending) {
  TopNList list(4);
  list.update(1, 5.0);
  list.update(2, 9.0);
  list.update(3, 7.0);
  EXPECT_EQ(list.pop_best()->first, 2u);
  EXPECT_EQ(list.pop_best()->first, 3u);
  EXPECT_EQ(list.pop_best()->first, 1u);
  EXPECT_FALSE(list.pop_best().has_value());
}

TEST(TopN, UpdateExistingChangesScore) {
  TopNList list(2);
  list.update(1, 1.0);
  list.update(2, 2.0);
  list.update(1, 10.0);
  EXPECT_EQ(list.peek_best()->first, 1u);
  EXPECT_EQ(list.size(), 2u);
}

TEST(TopN, RemoveDeletes) {
  TopNList list(3);
  list.update(5, 1.0);
  list.remove(5);
  EXPECT_TRUE(list.empty());
  list.remove(5);  // idempotent
}

TEST(TopN, LowScoreDoesNotEnterFullList) {
  TopNList list(2);
  list.update(1, 10.0);
  list.update(2, 20.0);
  EXPECT_FALSE(list.update(3, 5.0));
  EXPECT_FALSE(list.contains(3));
}

// --- Stats -------------------------------------------------------------------------

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.01);  // sample stddev
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(Percentile, Median) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
}

TEST(PercentileNearestRank, ReturnsObservedOrderStatistics) {
  // ceil(p/100 * n)-th order statistic: every result is a sample member.
  std::vector<double> v{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(v, 20), 10.0);   // ceil(1) = 1st
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(v, 50), 30.0);   // ceil(2.5) = 3rd
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(v, 90), 50.0);   // ceil(4.5) = 5th
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(v, 100), 50.0);
  // Unlike linear interpolation, p95 of {10..50} is never an invented 48.
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(v, 95), 50.0);
}

TEST(PercentileNearestRank, TinySamplesAreWellBehaved) {
  EXPECT_DOUBLE_EQ(percentile_nearest_rank({}, 50), 0.0);  // empty -> 0
  std::vector<double> one{7.0};
  for (double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(percentile_nearest_rank(one, p), 7.0);
  }
  std::vector<double> two{3.0, 9.0};  // unsorted input is fine
  std::reverse(two.begin(), two.end());
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(two, 50), 3.0);  // ceil(1) = min
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(two, 51), 9.0);  // ceil(1.02) = max
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(two, 99), 9.0);
}

TEST(PercentileNearestRank, ClampsOutOfRangeP) {
  std::vector<double> v{1, 2, 3};
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(v, -10), 1.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(v, 250), 3.0);
}

TEST(Geomean, Basic) {
  std::vector<double> v{1.0, 4.0, 16.0};
  EXPECT_NEAR(geomean(v), 4.0, 1e-9);
}

TEST(Geomean, IgnoresNonPositive) {
  std::vector<double> v{0.0, -3.0, 4.0, 4.0};
  EXPECT_NEAR(geomean(v), 4.0, 1e-9);
}

TEST(ChiSquare, UniformFitIsSmall) {
  std::vector<std::uint64_t> obs{100, 101, 99, 100};
  std::vector<double> exp(4, 0.25);
  EXPECT_LT(chi_square(obs, exp), 1.0);
}

TEST(Log2Histogram, BucketsByMagnitude) {
  Log2Histogram h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(1024);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.buckets()[0], 1u);   // 0
  EXPECT_EQ(h.buckets()[1], 1u);   // 1
  EXPECT_EQ(h.buckets()[2], 2u);   // 2..3
  EXPECT_EQ(h.buckets()[11], 1u);  // 1024
}

// --- Units / table -----------------------------------------------------------

TEST(Units, TransferTime) {
  EXPECT_EQ(transfer_time_ns(1'000'000, 1000), 1'000'000u);  // 1 MB @ 1 GB/s = 1 ms
  EXPECT_EQ(transfer_time_ns(0, 333), 0u);
  EXPECT_EQ(transfer_time_ns(333, 333), 1000u);  // 333 B @ 333 MB/s = 1 us
  EXPECT_EQ(transfer_time_ns(1, 1000), 1u);      // rounds up
}

TEST(Units, Bandwidth) {
  EXPECT_DOUBLE_EQ(bandwidth_mb_per_s(1'000'000, 1'000'000), 1000.0);
  EXPECT_DOUBLE_EQ(bandwidth_mb_per_s(100, 0), 0.0);
}

TEST(TextTable, PrintsAlignedRows) {
  TextTable t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| a   | bb |"), std::string::npos);
  EXPECT_NE(out.find("| 333 | 4  |"), std::string::npos);
}

TEST(TextTable, Formatters) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::bytes(2048), "2.00 KiB");
  EXPECT_EQ(TextTable::time_ns(1'500'000), "1.500 ms");
}

// --- OptionSet -------------------------------------------------------------

/// Parse the given argv tail against a fresh `--walks` u64 / `--rate` u32
/// option set; returns the parsed values.
struct ParsedOpts {
  std::uint64_t walks = 11;
  std::uint32_t rate = 22;
};

ParsedOpts parse_opts(std::initializer_list<const char*> args) {
  ParsedOpts p;
  OptionSet os;
  os.opt("--walks", &p.walks, "N", "walk count")
      .opt("--rate", &p.rate, "R", "rate");
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  os.parse(static_cast<int>(argv.size()), argv.data());
  return p;
}

TEST(OptionSet, ParsesUnsignedValuesInBothSpellings) {
  const ParsedOpts a = parse_opts({"--walks", "500", "--rate", "7"});
  EXPECT_EQ(a.walks, 500u);
  EXPECT_EQ(a.rate, 7u);
  const ParsedOpts b = parse_opts({"--walks=18446744073709551615"});
  EXPECT_EQ(b.walks, 0xFFFFFFFFFFFFFFFFull);
  EXPECT_EQ(b.rate, 22u);  // untouched default
}

TEST(OptionSet, RejectsNegativeUnsignedValues) {
  // Regression: std::stoull accepts "-5" and wraps it to 2^64-5, so a typo
  // like `--walks -5` used to silently request ~1.8e19 walks. Any '-' in an
  // unsigned value must be a hard parse error in both option spellings.
  EXPECT_THROW(parse_opts({"--walks", "-5"}), std::invalid_argument);
  EXPECT_THROW(parse_opts({"--walks=-5"}), std::invalid_argument);
  EXPECT_THROW(parse_opts({"--rate", "-1"}), std::invalid_argument);
  EXPECT_THROW(parse_opts({"--walks", "5-5"}), std::invalid_argument);
  EXPECT_THROW(parse_opts({"--walks", " -5"}), std::invalid_argument);
}

TEST(OptionSet, ToU64RejectsMalformedInput) {
  EXPECT_EQ(OptionSet::to_u64("--x", "42"), 42u);
  EXPECT_THROW(OptionSet::to_u64("--x", "-1"), std::invalid_argument);
  EXPECT_THROW(OptionSet::to_u64("--x", ""), std::invalid_argument);
  EXPECT_THROW(OptionSet::to_u64("--x", "12abc"), std::invalid_argument);
  EXPECT_THROW(OptionSet::to_u64("--x", "abc"), std::invalid_argument);
}

TEST(OptionSet, StillRejectsUnknownAndValuelessOptions) {
  EXPECT_THROW(parse_opts({"--bogus", "1"}), std::invalid_argument);
  EXPECT_THROW(parse_opts({"--walks"}), std::invalid_argument);
}

}  // namespace
}  // namespace fw
