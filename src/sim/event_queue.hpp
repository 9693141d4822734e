// Deterministic event queue for the discrete-event simulator.
//
// Events at equal ticks fire in insertion order (a monotone sequence number
// breaks ties), so a fixed seed reproduces a simulation trace exactly —
// the DES analogue of MQSim's deterministic engine.
//
// Structure: a binary min-heap of (tick, seq, slot) keys. The callables sit
// in a slab of slots that a free list recycles, so sifting moves 24-byte
// keys, never an EventFn, and a push allocates only past the queue's
// high-water mark. See docs/MODELING.md ("The DES kernel").
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "sim/event_fn.hpp"

namespace fw::sim {

class EventQueue {
 public:
  void push(Tick at, EventFn fn);

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Tick of the earliest pending event. Throws std::logic_error when the
  /// queue is empty — a hard check, not an assert, because callers like the
  /// multi-shard drain loop hit this path in Release builds too.
  Tick next_tick() const;

  /// Pop and return the earliest event. Throws std::logic_error when empty.
  std::pair<Tick, EventFn> pop();

  /// Pop the earliest event, or nullopt when the queue is empty. The
  /// non-throwing form for drain loops that race the queue dry.
  [[nodiscard]] std::optional<std::pair<Tick, EventFn>> try_pop();

 private:
  struct Key {
    Tick at;
    std::uint64_t seq;
    std::uint32_t slot;  ///< index into slots_
  };

  std::vector<Key> heap_;            ///< min-heap by (at, seq)
  std::vector<EventFn> slots_;       ///< each pending event's callable
  std::vector<std::uint32_t> free_;  ///< slots holding no pending event
  std::uint64_t next_seq_ = 0;
};

}  // namespace fw::sim
