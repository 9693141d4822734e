// Shard identity + the serial Simulator's shard audit.
//
// `ShardId` names an event-queue shard of the parallel DES
// (sim/parallel_sim.hpp). `ShardAudit` belongs to the serial Simulator
// only: attached via Simulator::attach_audit, it tags every event with a
// home shard and measures what a conservative-lookahead parallel run of
// the same event stream would see — per-shard event balance, cross-shard
// traffic, the minimum cross-shard delay, and sends that land inside the
// lookahead window. The engine does not use it: it runs on
// ParallelSimulator and fills accel::ShardAuditReport from its own
// per-shard sinks (accel/engine.hpp, `--shard-audit`). The serial
// Simulator remains for the tests and the bench baseline.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/types.hpp"

namespace fw::sim {

/// Identifies one event-queue shard. By engine convention shard 0 is the
/// board/shared-resource shard and shard 1 + c is channel c.
using ShardId = std::uint32_t;

class ShardAudit {
 public:
  ShardAudit(std::uint32_t num_shards, Tick lookahead)
      : lookahead_(lookahead), events_(num_shards, 0) {}

  void record_execute(ShardId home) { ++events_[home]; }

  void record_send(ShardId src, ShardId dst, Tick delay) {
    if (src == dst) {
      ++local_sends_;
      return;
    }
    ++cross_sends_;
    min_cross_delay_ = std::min(min_cross_delay_, delay);
    if (delay < lookahead_) ++violations_;
  }

  [[nodiscard]] std::uint32_t num_shards() const {
    return static_cast<std::uint32_t>(events_.size());
  }
  [[nodiscard]] Tick lookahead() const { return lookahead_; }
  /// Events executed on one shard (the parallel-mode load-balance signal).
  [[nodiscard]] std::uint64_t events(ShardId s) const { return events_[s]; }
  [[nodiscard]] std::uint64_t total_events() const {
    std::uint64_t sum = 0;
    for (std::uint64_t e : events_) sum += e;
    return sum;
  }
  [[nodiscard]] std::uint64_t max_shard_events() const {
    return events_.empty() ? 0 : *std::max_element(events_.begin(), events_.end());
  }
  [[nodiscard]] std::uint64_t min_shard_events() const {
    return events_.empty() ? 0 : *std::min_element(events_.begin(), events_.end());
  }
  /// Events executed on the board shard (shard 0 by engine convention) —
  /// the serial-hub share of the event stream, in parts per million of the
  /// total. Zero when no events ran.
  [[nodiscard]] std::uint64_t board_share_ppm() const {
    const std::uint64_t total = total_events();
    if (total == 0 || events_.empty()) return 0;
    return events_[0] * 1000000ull / total;
  }
  [[nodiscard]] std::uint64_t local_sends() const { return local_sends_; }
  [[nodiscard]] std::uint64_t cross_sends() const { return cross_sends_; }
  /// Smallest observed cross-shard delay (max Tick when no send occurred).
  [[nodiscard]] Tick min_cross_delay() const { return min_cross_delay_; }
  /// Cross-shard sends scheduled closer than the lookahead window.
  [[nodiscard]] std::uint64_t lookahead_violations() const { return violations_; }

 private:
  Tick lookahead_;
  std::vector<std::uint64_t> events_;
  std::uint64_t local_sends_ = 0;
  std::uint64_t cross_sends_ = 0;
  Tick min_cross_delay_ = std::numeric_limits<Tick>::max();
  std::uint64_t violations_ = 0;
};

}  // namespace fw::sim
