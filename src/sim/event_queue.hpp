// Deterministic event queue for the discrete-event simulator.
//
// Events at equal ticks fire in insertion order (a monotone sequence number
// breaks ties), so a fixed seed reproduces a simulation trace exactly —
// the DES analogue of MQSim's deterministic engine.
//
// Structure: a two-level bucketed (calendar) queue replacing the former
// binary heap. The near future is a ring of `2^buckets_log2` tick buckets,
// each `2^width_log2` ns wide; events beyond the window land in a sorted
// overflow heap and are promoted as the window slides forward.
//
// The default geometry (4 ns x 1024 buckets ≈ 4.1 us window) is keyed to
// the Table II/III latency clusters. The 4 ns width matches the densest
// cluster — the 4-16 ns accelerator cycles that dominate event traffic —
// so buckets near the drain cursor hold only a handful of events and the
// lazy per-bucket sort stays cheap. The 4.1 us span covers every
// controller-side class (cycles, ~55 ns DRAM accesses, 0.1-1.4 us ONFI
// channel transfers, 2 us roving polls) as an O(1) bucket append, while
// flash-array timings (35 us reads, 350 us programs, 2 ms erases) ride the
// overflow heap. That split is deliberate: in-flight flash commands number
// at most channels x chips x planes, so the heap stays small and
// cache-resident, whereas widening the window to cover them would grow the
// ring's working set past L2 and cost more in bucket-header misses than
// the heap's O(log k) costs (measured: a 0.52 ms window runs ~2.5x slower
// than this geometry on the bench/sim_hotpath mixture). Buckets are sorted
// lazily when the drain cursor reaches them, so the common push is
// allocation-free and comparison-free. A one-bit-per-bucket occupancy mask
// lets the cursor jump straight to the next non-empty bucket: a lone
// re-armed 2 us poll would otherwise make it step over ~500 empty buckets.
// See docs/MODELING.md ("The DES kernel").
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "sim/event_fn.hpp"

namespace fw::sim {

class EventQueue {
 public:
  /// Default geometry: 4 ns buckets, 1024 of them (~4.1 us window).
  static constexpr std::uint32_t kDefaultWidthLog2 = 2;
  static constexpr std::uint32_t kDefaultBucketsLog2 = 10;

  EventQueue() : EventQueue(kDefaultWidthLog2, kDefaultBucketsLog2) {}
  /// Custom geometry (tests use tiny windows to exercise overflow paths).
  EventQueue(std::uint32_t width_log2, std::uint32_t buckets_log2);

  void push(Tick at, EventFn fn);

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Tick of the earliest pending event. Throws std::logic_error when the
  /// queue is empty — a hard check, not an assert, because callers like the
  /// multi-shard drain loop hit this path in Release builds too.
  /// (Non-const: positions the drain cursor, which may sort a bucket or
  /// promote overflow events — observable state is unchanged.)
  Tick next_tick();

  /// Pop and return the earliest event. Throws std::logic_error when empty.
  std::pair<Tick, EventFn> pop();

  /// Pop the earliest event, or nullopt when the queue is empty. The
  /// non-throwing form for drain loops that race the queue dry.
  [[nodiscard]] std::optional<std::pair<Tick, EventFn>> try_pop();

  /// Events currently parked in the overflow heap (observability/tests).
  [[nodiscard]] std::size_t overflow_size() const { return overflow_.size(); }

 private:
  struct Event {
    Tick at;
    std::uint64_t seq;
    EventFn fn;
  };

  [[nodiscard]] std::uint64_t bucket_of(Tick at) const { return at >> shift_; }
  [[nodiscard]] std::uint64_t window_end() const { return floor_bid_ + nbuckets_; }
  [[nodiscard]] std::vector<Event>& bucket(std::uint64_t bid) {
    return buckets_[bid & mask_];
  }

  /// Position the drain cursor on the earliest event: jump to the next
  /// occupied bucket, jump/promote from overflow when the window is
  /// drained, and sort the target bucket. Precondition: !empty().
  void settle();

  /// Occupancy mask upkeep: bucket `bid` became non-empty / empty.
  void mark(std::uint64_t bid) {
    const std::uint64_t i = bid & mask_;
    occupied_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  void unmark(std::uint64_t bid) {
    const std::uint64_t i = bid & mask_;
    occupied_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  /// First occupied bucket at or after `bid` in ring order. Precondition:
  /// some bucket is occupied.
  [[nodiscard]] std::uint64_t next_occupied(std::uint64_t bid) const;

  /// Place an in-window event (counters managed by the caller).
  void insert_into_window(Event ev);

  /// Pull every overflow event the current window now covers.
  void promote_overflow();

  /// Re-anchor the window at `bid` after a push earlier than any pop so far
  /// delivered (never taken by a Shard, which clamps to its clock; direct
  /// queue users may rewind time). Evicts events past the new window end.
  void rewind_to(std::uint64_t bid);

  std::uint32_t shift_;
  std::uint64_t nbuckets_;
  std::uint64_t mask_;

  std::vector<std::vector<Event>> buckets_;
  /// Bit (bid & mask_) is set iff that bucket holds events (consumed or
  /// not); one 64-bit word per 64 buckets.
  std::vector<std::uint64_t> occupied_;
  std::vector<Event> overflow_;  ///< min-heap by (at, seq)

  std::uint64_t floor_bid_ = 0;  ///< window anchor: bucket of the last pop
  std::uint64_t scan_bid_ = 0;   ///< drain cursor; [floor_, scan_) is empty
  std::size_t pos_ = 0;          ///< consumed prefix of the active bucket
  bool active_ = false;          ///< scan bucket is sorted and being drained

  std::uint64_t win_count_ = 0;  ///< events resident in the bucket window
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace fw::sim
