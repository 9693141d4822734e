// Conservative-lookahead parallel DES over per-channel event-queue shards.
//
// Each shard owns a private bucketed calendar EventQueue (sim/event_queue)
// plus a clock and a set of single-writer outboxes. Execution proceeds in
// windows [start, start + lookahead): every shard drains its own queue
// strictly inside the window with no locks — safe because the model
// guarantees any cross-shard interaction takes at least `lookahead` ns
// (ONFI channel transfer + DRAM hop; see accel/lookahead.hpp and
// docs/MODELING.md "Parallel DES"). Cross-shard sends therefore always land
// at or after the window end; they are parked in the sender's outbox until
// the destination collects them.
//
// The window loop: a run uses `workers` threads, the caller included — the
// calling thread is worker 0. Every worker owns a set of shards. It first
// delivers the crossings sent to its shards in the previous window, then
// drains the window on each of them in increasing id. Outboxes are
// double-buffered by window parity, so a destination collecting window k's
// crossings never races a sender filling window k+1's. A worker then
// publishes the earliest tick it knows of — its shards' queue heads and the
// earliest crossing they sent — and after one barrier every worker takes
// the same minimum as the next window's start. A window costs one barrier;
// there is no serial phase.
//
// Determinism: the window schedule is a pure function of queue state,
// each shard executes serially in (tick, seq) order, and a destination
// receives crossings in (source shard, send order). Events with different
// ticks pop in tick order whatever their push order, so this is exactly a
// (tick, source shard, send seq) merge: equal-tick arrivals tie-break by
// source shard then send order, and locally scheduled events (pushed
// earlier, hence smaller destination seq) fire before same-tick crossings.
//
// Placement: shards go to workers by longest-processing-time over their
// cumulative executed-event counts, recomputed every kRebalanceWindows
// windows from counts published at the barrier, so a hub shard gets a
// worker of its own. Every worker derives the same placement from the same
// counts. Placement picks only which thread drains a shard, never the
// merged order, so any worker count produces bit-identical traces, which
// tests/parallel_sim_test.cpp pins (and the CI TSan job re-checks for data
// races).
//
// Errors: a handler exception is caught by its worker, which stops
// draining; every worker stops at the next barrier, and run() rethrows on
// the caller the exception of the lowest-id shard that threw in that
// window — the one a 1-worker run throws.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <vector>

#include "common/types.hpp"
#include "sim/event_queue.hpp"

namespace fw::sim {

/// Identifies one event-queue shard. In an engine's slice, shard 0 is the
/// board residue, 1 + c is channel c (with its chips), and 1 + C + k is
/// guider sub-shard k, where C is the channel count.
using ShardId = std::uint32_t;

class ParallelSimulator;

/// One event-queue shard. Handlers receive a reference to their home shard,
/// schedule on it with `schedule`/`schedule_at`, and reach other shards with
/// `send`. Constructed and owned by ParallelSimulator.
class Shard {
 public:
  Shard() = default;
  Shard(Shard&&) = default;
  Shard& operator=(Shard&&) = default;

  [[nodiscard]] ShardId id() const { return id_; }
  [[nodiscard]] Tick now() const { return now_; }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  /// Schedule on this shard, `delay` ns from the shard clock.
  void schedule(Tick delay, EventFn fn) { queue_.push(now_ + delay, std::move(fn)); }

  /// Schedule on this shard at absolute tick `at`; a tick in the past is
  /// clamped to the shard clock.
  void schedule_at(Tick at, EventFn fn) {
    queue_.push(at < now_ ? now_ : at, std::move(fn));
  }

  /// Schedule on shard `dst`, `delay` ns from this shard's clock. A
  /// self-send degenerates to a local schedule (no lookahead constraint).
  /// Cross-shard sends must respect the conservative window: throws
  /// std::logic_error when `delay` is below the simulator's lookahead, and
  /// std::out_of_range for an unknown destination. The event is parked in
  /// this shard's outbox and delivered before the destination drains the
  /// next window (a send made outside run(): before the next run's first
  /// window).
  void send(ShardId dst, Tick delay, EventFn fn);

  /// Send on shard `dst` at absolute tick `at` on the destination clock.
  /// Same rules as `send`; `at` must be >= now + lookahead for a
  /// cross-shard destination (self-sends clamp like schedule_at). Used by
  /// window-flush hooks, whose batched deliveries are phrased in absolute
  /// ticks (the max over the staged operations' intended arrival times).
  void send_at(ShardId dst, Tick at, EventFn fn);

  /// Install a per-window flush hook. When set, the hook runs exactly once
  /// at the end of every window's drain of this shard — after the shard
  /// executed its final event of the window, with the shard clock still at
  /// that event's tick — at any worker count, so the hook cadence (and
  /// therefore anything it sends) is a pure function of the window
  /// schedule. Hooks may call send/send_at but must not schedule local
  /// events.
  void set_window_flush(std::function<void(Shard&)> hook) {
    window_flush_ = std::move(hook);
  }

 private:
  friend class ParallelSimulator;

  struct Envelope {
    Tick at;
    EventFn fn;
  };

  void post(ShardId dst, Tick at, EventFn fn);

  ParallelSimulator* owner_ = nullptr;
  ShardId id_ = 0;
  Tick now_ = 0;
  std::uint64_t executed_ = 0;
  EventQueue queue_;
  std::function<void(Shard&)> window_flush_;
  /// Window parity this shard's sends go to; set by the draining worker.
  std::uint32_t parity_ = 0;
  /// outbox_[p][dst]: crossings sent to `dst` in the latest window of
  /// parity p, in send order. Filled only by the worker draining this
  /// shard; emptied only by the worker that owns `dst` in the next window.
  std::array<std::vector<std::vector<Envelope>>, 2> outbox_;
  /// sent_to_[p]: the destinations whose outbox_[p] is non-empty, so a
  /// worker collecting crossings reads only the outboxes in use.
  std::array<std::vector<ShardId>, 2> sent_to_;
};

class ParallelSimulator {
 public:
  /// Windows between placement recomputations. At least 2: counts published
  /// at one barrier must stay untouched until every worker has read them.
  static constexpr std::uint64_t kRebalanceWindows = 1024;
  static_assert(kRebalanceWindows >= 2);

  /// `lookahead` must be >= 1 ns (the window would otherwise be empty);
  /// `workers` is clamped to [1, num_shards]. Throws std::invalid_argument
  /// on a zero shard count or zero lookahead.
  ParallelSimulator(std::uint32_t num_shards, Tick lookahead,
                    std::uint32_t workers = 1);

  ParallelSimulator(const ParallelSimulator&) = delete;
  ParallelSimulator& operator=(const ParallelSimulator&) = delete;

  [[nodiscard]] Shard& shard(ShardId s) { return shards_[s]; }
  [[nodiscard]] const Shard& shard(ShardId s) const { return shards_[s]; }
  [[nodiscard]] std::uint32_t num_shards() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] Tick lookahead() const { return lookahead_; }
  /// Threads a run uses, the caller included.
  [[nodiscard]] std::uint32_t workers() const {
    return static_cast<std::uint32_t>(pool_.size());
  }
  /// Rebalances that moved at least one shard to another worker. Read-only
  /// observability: placement never changes a result.
  [[nodiscard]] std::uint64_t placement_changes() const { return placement_changes_; }

  /// Global completed-through time: the latest shard clock after run(),
  /// raised to a finite `until` when nothing is left pending.
  [[nodiscard]] Tick now() const { return now_; }
  /// No event queued and no crossing waiting for delivery.
  [[nodiscard]] bool idle() const;
  [[nodiscard]] std::uint64_t events_executed() const;

  /// Run windows until every shard queue drains or the earliest pending
  /// event lies beyond `until`. Returns the number of events executed by
  /// this call across all shards. Crossings still in flight when it
  /// returns are queued at their destinations.
  std::uint64_t run(Tick until = std::numeric_limits<Tick>::max());

 private:
  friend class Shard;

  static constexpr Tick kNever = std::numeric_limits<Tick>::max();
  static constexpr ShardId kNoShard = std::numeric_limits<ShardId>::max();

  /// Sense-reversing central barrier; spins briefly then yields, so it
  /// stays live even when threads outnumber cores.
  class Barrier {
   public:
    explicit Barrier(std::uint32_t parties) : parties_(parties) {}
    void arrive_and_wait();

   private:
    static constexpr int kSpinLimit = 1024;
    const std::uint32_t parties_;
    std::atomic<std::uint32_t> arrived_{0};
    std::atomic<std::uint64_t> generation_{0};
  };

  /// What a worker publishes at the end of a window.
  struct Report {
    Tick next = kNever;   ///< earliest queue head or crossing of its shards
    bool failed = false;  ///< a handler or delivery of its shards threw
  };

  /// One worker's state, written only by its own thread during a run. The
  /// others read `report` after the barrier; it is double-buffered by
  /// window parity, so a fast worker filling the next window's report never
  /// races a slow one still reading this window's.
  struct Worker {
    std::vector<ShardId> mine;         ///< shards it drains, increasing id
    std::vector<std::uint32_t> owner;  ///< its copy of the placement
    std::vector<ShardId> order;        ///< rebalance work buffer
    std::vector<std::uint64_t> load;   ///< rebalance work buffer
    ShardId error_shard = kNoShard;    ///< lowest-id shard that threw
    std::exception_ptr error;
    alignas(64) std::array<Report, 2> report;  ///< own cache line
  };

  /// Earliest pending tick over queue heads and undelivered crossings, or
  /// kNever. Callers must be the only thread touching the shards.
  [[nodiscard]] Tick earliest_pending();

  /// Worker `w`'s window loop, starting with the window at `start`.
  /// Returns the number of windows run; never throws (exceptions land in
  /// the worker's `error`).
  std::uint64_t window_loop(std::uint32_t w, Tick start, Tick until) noexcept;

  /// Move the crossings of window parity `parity` addressed to worker `w`'s
  /// shards into their queues: senders in increasing id, each sender's
  /// crossings in send order.
  void deliver(Worker& me, std::uint32_t w, std::uint32_t parity);

  /// Record the exception in flight against shard `s` if `s` is the
  /// lowest-id shard of this worker to fail so far.
  static void fail(Worker& me, ShardId s);

  /// Drain one shard's events with tick < window_end, then run the shard's
  /// window-flush hook so staged cross-shard batches leave via the outbox.
  static void drain_window(Shard& s, Tick window_end);

  /// Recompute worker `w`'s shards by longest-processing-time over
  /// `published_`.
  void rebalance(Worker& me, std::uint32_t w);

  Tick lookahead_;
  std::vector<Shard> shards_;
  std::vector<Worker> pool_;
  Barrier barrier_;
  Tick now_ = 0;
  /// Parity of the last window run; crossings sent outside run() go here.
  std::uint32_t parity_ = 0;
  std::uint64_t windows_ = 0;  ///< windows run so far (rebalance cadence)
  std::uint64_t placement_changes_ = 0;
  /// sent_min_[p][s]: earliest tick shard s sent to in the latest window of
  /// parity p (kNever: nothing sent). Written by s's worker, read by all
  /// after the barrier.
  std::array<std::vector<Tick>, 2> sent_min_;
  /// Cumulative executed-event counts, published by each shard's worker
  /// every kRebalanceWindows windows.
  std::vector<std::uint64_t> published_;
};

}  // namespace fw::sim
