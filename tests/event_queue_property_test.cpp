// Property-based tests for the event queue and its small-buffer callable,
// checked against a naive std::multimap model.
//
// The model is the specification: pops deliver the globally earliest
// (tick, insertion-order) event. Random interleavings drive the queue
// through delay patterns the engine produces and a few it does not:
// equal-tick bursts, delay 0, far-future events, sparse far-apart events,
// and pushes earlier than the last pop.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/event_fn.hpp"
#include "sim/event_queue.hpp"

namespace fw::sim {
namespace {

/// Naive reference queue. std::multimap inserts equal keys at the upper
/// bound of their range (C++11), so iteration order within a tick is
/// insertion order — the determinism contract the real queue must match.
class ModelQueue {
 public:
  void push(Tick at, std::uint64_t id) { events_.emplace(at, id); }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] Tick next_tick() const { return events_.begin()->first; }

  std::pair<Tick, std::uint64_t> pop() {
    const auto it = events_.begin();
    const auto result = *it;
    events_.erase(it);
    return result;
  }

 private:
  std::multimap<Tick, std::uint64_t> events_;
};

/// Drive a real queue and the model through the same randomized push/pop
/// interleaving (pushes at now + delay_gen(rng), simulator-style), then
/// drain both, asserting tick-and-identity agreement at every step.
template <typename DelayGen>
void run_against_model(std::uint64_t seed, int ops, DelayGen delay_gen) {
  EventQueue q;
  ModelQueue model;
  std::vector<std::uint64_t> fired;
  Xoshiro256 rng(seed);
  Tick now = 0;
  std::uint64_t next_id = 0;

  auto check_pop = [&] {
    ASSERT_FALSE(q.empty());
    ASSERT_EQ(q.next_tick(), model.next_tick());
    const auto [model_tick, model_id] = model.pop();
    auto [tick, fn] = q.pop();
    ASSERT_EQ(tick, model_tick);
    fn();
    ASSERT_EQ(fired.back(), model_id);
    now = tick;
  };

  for (int op = 0; op < ops; ++op) {
    if (model.empty() || rng.bounded(100) < 55) {
      const Tick at = now + delay_gen(rng);
      const std::uint64_t id = next_id++;
      q.push(at, [&fired, id] { fired.push_back(id); });
      model.push(at, id);
      ASSERT_EQ(q.size(), model.size());
    } else {
      check_pop();
    }
  }
  while (!model.empty()) check_pop();
  ASSERT_TRUE(q.empty());
  ASSERT_EQ(q.size(), 0u);
  ASSERT_EQ(fired.size(), next_id);
}

TEST(EventQueueProperty, RandomInterleavingsMatchModel) {
  // Engine-like delay mixture (dense near field plus occasional far
  // events), several seeds.
  auto mixture = [](Xoshiro256& rng) -> Tick {
    const std::uint64_t r = rng.bounded(100);
    if (r < 50) return rng.bounded(16);        // cycle-scale, incl. delay 0
    if (r < 75) return 55;                     // equal ticks collide often
    if (r < 90) return 200 + rng.bounded(1200);
    if (r < 97) return 2000;
    return 35'000 + rng.bounded(400'000);      // flash-array scale
  };
  for (std::uint64_t seed : {1ull, 7ull, 1234ull}) {
    run_against_model(seed, 6000, mixture);
  }
}

TEST(EventQueueProperty, EqualTickBurstsFireInInsertionOrder) {
  // Heavy tick collisions: only 8 distinct delays, so most ticks hold
  // multi-event FIFO runs.
  auto bursty = [](Xoshiro256& rng) -> Tick { return 8 * rng.bounded(8); };
  for (std::uint64_t seed : {3ull, 99ull}) {
    run_against_model(seed, 4000, bursty);
  }
}

TEST(EventQueueProperty, DelayZeroAndFixedShortDelays) {
  // Nine fixed delays, delay 0 among them, so pushes at the tick being
  // drained and equal-tick runs are hit constantly.
  auto fixed = [](Xoshiro256& rng) -> Tick {
    static constexpr Tick kDelays[] = {0, 1, 3, 4, 5, 63, 64, 65, 192};
    return kDelays[rng.bounded(std::size(kDelays))];
  };
  for (std::uint64_t seed : {5ull, 42ull, 777ull}) {
    run_against_model(seed, 5000, fixed);
  }
}

TEST(EventQueueProperty, UniformShortDelays) {
  auto uniform = [](Xoshiro256& rng) -> Tick { return rng.bounded(500); };
  for (std::uint64_t seed : {11ull, 1337ull}) {
    run_against_model(seed, 4000, uniform);
  }
}

TEST(EventQueueProperty, PushesAtRandomAbsoluteTicks) {
  // Direct queue users may push earlier than the last popped tick (a Shard
  // clamps to its clock, the queue does not). Absolute times, not
  // now-relative, so pushes land arbitrarily far in the past.
  EventQueue q;
  ModelQueue model;
  std::vector<std::uint64_t> fired;
  Xoshiro256 rng(21);
  std::uint64_t next_id = 0;
  for (int op = 0; op < 5000; ++op) {
    if (model.empty() || rng.bounded(100) < 55) {
      const Tick at = rng.bounded(4000);
      const std::uint64_t id = next_id++;
      q.push(at, [&fired, id] { fired.push_back(id); });
      model.push(at, id);
    } else {
      ASSERT_EQ(q.next_tick(), model.next_tick());
      const auto [model_tick, model_id] = model.pop();
      auto [tick, fn] = q.pop();
      ASSERT_EQ(tick, model_tick);
      fn();
      ASSERT_EQ(fired.back(), model_id);
    }
  }
  while (!model.empty()) {
    const auto [model_tick, model_id] = model.pop();
    auto [tick, fn] = q.pop();
    ASSERT_EQ(tick, model_tick);
    fn();
    ASSERT_EQ(fired.back(), model_id);
  }
  ASSERT_TRUE(q.empty());
}

TEST(EventQueueProperty, SparseFarApartEvents) {
  // Few events in flight, hundreds of ns to tens of us apart.
  auto sparse = [](Xoshiro256& rng) -> Tick {
    const std::uint64_t r = rng.bounded(100);
    if (r < 40) return 4 * (64 * (1 + rng.bounded(15)) + rng.bounded(3)) - 4;
    if (r < 70) return 2000;  // the channel roving-poll re-arm
    if (r < 90) return 600 + rng.bounded(3400);
    return 4096 * (1 + rng.bounded(4)) + rng.bounded(8);
  };
  for (std::uint64_t seed : {2ull, 31ull, 4242ull}) {
    run_against_model(seed, 6000, sparse);
  }
}

TEST(EventQueueProperty, NearEqualLongDelaysAndALoneRearmedEvent) {
  // Mostly long delays within 16 ns of each other; the occasional short
  // delay keeps a near event ahead of them.
  auto near_equal = [](Xoshiro256& rng) -> Tick {
    const std::uint64_t r = rng.bounded(100);
    if (r < 70) return 4095 - rng.bounded(16);
    if (r < 85) return rng.bounded(8);
    return 3000 + rng.bounded(1000);
  };
  for (std::uint64_t seed : {8ull, 77ull}) {
    run_against_model(seed, 6000, near_equal);
  }
  // A single event re-armed after each pop: the queue holds one or two.
  auto rearm = [](Xoshiro256& rng) -> Tick { return 60 + rng.bounded(4); };
  run_against_model(5, 3000, rearm);
}

TEST(EventQueueProperty, PushesFarBehindTheLastPop) {
  // Every round pushes one event up to 12 us behind the last delivery;
  // later pops must still find every event in order.
  EventQueue q;
  ModelQueue model;
  std::vector<std::uint64_t> fired;
  Xoshiro256 rng(13);
  std::uint64_t next_id = 0;
  Tick now = 0;
  auto push = [&](Tick at) {
    const std::uint64_t id = next_id++;
    q.push(at, [&fired, id] { fired.push_back(id); });
    model.push(at, id);
  };
  auto pop = [&] {
    ASSERT_EQ(q.next_tick(), model.next_tick());
    const auto [model_tick, model_id] = model.pop();
    auto [tick, fn] = q.pop();
    ASSERT_EQ(tick, model_tick);
    fn();
    ASSERT_EQ(fired.back(), model_id);
    now = tick;
  };
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 8; ++i) push(now + rng.bounded(4096));
    for (int i = 0; i < 3; ++i) pop();
    push(now > 12000 ? now - 1 - rng.bounded(12000) : rng.bounded(now + 1));
    pop();
  }
  while (!model.empty()) pop();
  ASSERT_TRUE(q.empty());
}

// --- empty-queue hard checks ----------------------------------------------

TEST(EventQueueProperty, EmptyQueueAccessThrowsInEveryBuildType) {
  // next_tick/pop on an empty queue used to be assert-only (UB in Release);
  // they are hard std::logic_error throws now, so this test is meaningful
  // in both Debug and Release CI legs.
  EventQueue q;
  EXPECT_THROW(q.next_tick(), std::logic_error);
  EXPECT_THROW(q.pop(), std::logic_error);
  // Still empty and usable after the misuse.
  q.push(5, [] {});
  EXPECT_EQ(q.next_tick(), 5u);
  q.pop().second();
  EXPECT_THROW(q.pop(), std::logic_error);
}

TEST(EventQueueProperty, TryPopDrainsWithoutThrowing) {
  EventQueue q;
  EXPECT_FALSE(q.try_pop().has_value());
  std::vector<Tick> ticks;
  q.push(20, [] {});
  q.push(10, [] {});
  while (auto ev = q.try_pop()) {
    ticks.push_back(ev->first);
    ev->second();
  }
  EXPECT_EQ(ticks, (std::vector<Tick>{10, 20}));
  EXPECT_FALSE(q.try_pop().has_value());
  EXPECT_TRUE(q.empty());
}

// --- EventFn ---------------------------------------------------------------

TEST(EventFn, SmallTrivialCapturesStayInline) {
  int sink = 0;
  auto small = [&sink] { sink = 7; };
  static_assert(EventFn::stores_inline<decltype(small)>());
  EventFn fn(small);
  fn();
  EXPECT_EQ(sink, 7);
}

TEST(EventFn, OversizedCapturesFallBackToHeap) {
  std::array<std::uint64_t, 12> payload{};  // 96 B > 64 B inline budget
  payload[11] = 5;
  int sink = 0;
  auto big = [payload, &sink] { sink = static_cast<int>(payload[11]); };
  static_assert(!EventFn::stores_inline<decltype(big)>());
  EventFn fn(std::move(big));
  fn();
  EXPECT_EQ(sink, 5);
}

TEST(EventFn, AcceptsMoveOnlyCallables) {
  // std::function rejects this capture; EventFn must not.
  auto owned = std::make_unique<int>(99);
  int sink = 0;
  EventFn fn([owned = std::move(owned), &sink] { sink = *owned; });
  fn();
  EXPECT_EQ(sink, 99);
}

TEST(EventFn, MoveTransfersOwnershipExactlyOnce) {
  auto counter = std::make_shared<int>(0);
  EventFn a([counter] { ++*counter; });
  EXPECT_EQ(counter.use_count(), 2);

  EventFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  EXPECT_EQ(counter.use_count(), 2);  // moved, not copied

  EventFn c;
  c = std::move(b);
  c();
  EXPECT_EQ(*counter, 1);

  c = EventFn([counter] { *counter += 10; });  // assignment destroys old state
  EXPECT_EQ(counter.use_count(), 2);
  c();
  EXPECT_EQ(*counter, 11);
}

TEST(EventFn, DestructionReleasesCapturedState) {
  auto tracked = std::make_shared<int>(1);
  {
    EventFn fn([tracked] {});
    EXPECT_EQ(tracked.use_count(), 2);
  }
  EXPECT_EQ(tracked.use_count(), 1);
}

TEST(EventQueueProperty, QueueCarriesHeapAndMoveOnlyPayloads) {
  // The queue's slot moves must preserve every payload species:
  // trivially-copyable inline, non-trivial inline (move-only), and heap.
  EventQueue q;
  std::vector<int> fired;
  std::array<std::uint64_t, 12> big{};
  big[0] = 2;
  q.push(30, [&fired] { fired.push_back(1); });
  q.push(10, [&fired, big] { fired.push_back(static_cast<int>(big[0])); });
  q.push(500, [&fired, owned = std::make_unique<int>(3)] { fired.push_back(*owned); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{2, 1, 3}));
  // A second round reuses the freed slots, and a popped event's captures
  // leave the queue with it.
  auto tracked = std::make_shared<int>(5);
  q.push(7, [&fired, tracked] { fired.push_back(*tracked); });
  q.push(5, [&fired, owned = std::make_unique<int>(4)] { fired.push_back(*owned); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(tracked.use_count(), 1);
  EXPECT_EQ(fired, (std::vector<int>{2, 1, 3, 4, 5}));
}

}  // namespace
}  // namespace fw::sim
