#include "sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>

namespace fw::sim {
namespace {

/// Cold path for the empty-queue precondition: a thrown logic_error, not
/// an assert, which compiles out in Release and leaves UB.
[[noreturn]] void throw_empty(const char* what) { throw std::logic_error(what); }

/// Heap order: earliest (at, seq) on top. Keys are unique (seq is
/// monotone), so equal ticks pop in insertion order.
constexpr auto later = [](const auto& a, const auto& b) {
  return a.at != b.at ? a.at > b.at : a.seq > b.seq;
};

}  // namespace

void EventQueue::push(Tick at, EventFn fn) {
  if (free_.empty()) {
    slots_.emplace_back();
    free_.push_back(static_cast<std::uint32_t>(slots_.size() - 1));
  }
  const std::uint32_t slot = free_.back();
  free_.pop_back();
  slots_[slot] = std::move(fn);
  heap_.push_back(Key{at, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), later);
}

Tick EventQueue::next_tick() const {
  if (empty()) throw_empty("EventQueue::next_tick on empty queue");
  return heap_.front().at;
}

std::optional<std::pair<Tick, EventFn>> EventQueue::try_pop() {
  if (empty()) return std::nullopt;
  return pop();
}

std::pair<Tick, EventFn> EventQueue::pop() {
  if (empty()) throw_empty("EventQueue::pop on empty queue");
  // Recycle the slot first: the one step that can throw runs before the
  // queue changes.
  const Key top = heap_.front();
  free_.push_back(top.slot);
  std::pop_heap(heap_.begin(), heap_.end(), later);
  heap_.pop_back();
  return {top.at, std::move(slots_[top.slot])};
}

}  // namespace fw::sim
