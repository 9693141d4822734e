#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace fw::sim {
namespace {

/// Cold path for the empty-queue precondition: a thrown logic_error instead
/// of the former assert, which compiled out in Release and left UB.
[[noreturn]] void throw_empty(const char* what) { throw std::logic_error(what); }

/// Heap/sort order: earliest (at, seq) first. Keys are unique (seq is
/// monotone), so plain sort preserves insertion order at equal ticks.
struct Later {
  template <typename E>
  bool operator()(const E& a, const E& b) const {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }
};

}  // namespace

EventQueue::EventQueue(std::uint32_t width_log2, std::uint32_t buckets_log2)
    : shift_(width_log2),
      nbuckets_(std::uint64_t{1} << buckets_log2),
      mask_(nbuckets_ - 1),
      buckets_(nbuckets_),
      occupied_((nbuckets_ + 63) / 64, 0) {}

std::uint64_t EventQueue::next_occupied(std::uint64_t bid) const {
  const std::uint64_t start = bid & mask_;
  std::size_t w = start >> 6;
  std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (start & 63));
  // Wrapping back to the start word takes it whole, so slots behind the
  // start (bids one lap ahead) are found last, as ring order requires.
  while (bits == 0) {
    w = (w + 1) % occupied_.size();
    bits = occupied_[w];
  }
  const std::uint64_t pos = (static_cast<std::uint64_t>(w) << 6) |
                            static_cast<std::uint64_t>(std::countr_zero(bits));
  return bid + ((pos - start) & mask_);
}

void EventQueue::push(Tick at, EventFn fn) {
  Event ev{at, next_seq_++, std::move(fn)};
  const std::uint64_t bid = bucket_of(at);
  if (bid >= window_end()) {
    overflow_.push_back(std::move(ev));
    std::push_heap(overflow_.begin(), overflow_.end(), Later{});
  } else {
    if (bid < floor_bid_) rewind_to(bid);
    insert_into_window(std::move(ev));
    ++win_count_;
  }
  ++size_;
}

void EventQueue::insert_into_window(Event ev) {
  const std::uint64_t bid = bucket_of(ev.at);
  assert(bid >= floor_bid_ && bid < window_end());
  std::vector<Event>& b = bucket(bid);
  if (active_ && bid == scan_bid_) {
    // The bucket is mid-drain: keep the remaining suffix sorted. The new
    // event carries the largest seq, so upper_bound on the tick alone is
    // the correct (insertion-order-preserving) position.
    const auto it =
        std::upper_bound(b.begin() + static_cast<std::ptrdiff_t>(pos_), b.end(),
                         ev.at, [](Tick t, const Event& e) { return t < e.at; });
    b.insert(it, std::move(ev));
    return;
  }
  b.push_back(std::move(ev));
  mark(bid);
  if (bid < scan_bid_) {
    // A pop from the scan bucket would have anchored floor_ == scan_, and
    // anything earlier than floor_ takes the rewind path — so the scan
    // bucket is untouched (pos_ == 0) and the cursor can simply back up.
    assert(pos_ == 0);
    scan_bid_ = bid;
    active_ = false;
  }
}

void EventQueue::promote_overflow() {
  while (!overflow_.empty() && bucket_of(overflow_.front().at) < window_end()) {
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    Event ev = std::move(overflow_.back());
    overflow_.pop_back();
    insert_into_window(std::move(ev));
    ++win_count_;
  }
}

void EventQueue::rewind_to(std::uint64_t bid) {
  // Drop the consumed prefix of the active bucket so a later re-sort cannot
  // resurrect already-delivered events.
  if (active_) {
    std::vector<Event>& b = bucket(scan_bid_);
    b.erase(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(pos_));
    active_ = false;
    pos_ = 0;
  }
  // The new, earlier window ends sooner: evict events past its end back to
  // the overflow heap. O(buckets + events), but only direct queue users can
  // schedule behind the last delivery, so the simulator never pays this.
  const std::uint64_t new_end = bid + nbuckets_;
  for (std::vector<Event>& b : buckets_) {
    auto keep = b.begin();
    for (auto& ev : b) {
      if (bucket_of(ev.at) >= new_end) {
        overflow_.push_back(std::move(ev));
        std::push_heap(overflow_.begin(), overflow_.end(), Later{});
        --win_count_;
      } else {
        *keep++ = std::move(ev);
      }
    }
    b.erase(keep, b.end());
  }
  std::fill(occupied_.begin(), occupied_.end(), 0);
  for (std::uint64_t i = 0; i < nbuckets_; ++i) {
    if (!buckets_[i].empty()) mark(i);
  }
  floor_bid_ = bid;
  scan_bid_ = bid;
}

void EventQueue::settle() {
  assert(size_ > 0 && "EventQueue::settle on empty queue");
  if (active_ && pos_ < bucket(scan_bid_).size()) return;
  if (active_) {
    bucket(scan_bid_).clear();
    unmark(scan_bid_);
    active_ = false;
    pos_ = 0;
    ++scan_bid_;
  }
  if (win_count_ == 0) {
    // Window fully drained: jump straight to the earliest overflow event.
    assert(!overflow_.empty());
    floor_bid_ = bucket_of(overflow_.front().at);
    scan_bid_ = floor_bid_;
    promote_overflow();
  }
  scan_bid_ = next_occupied(scan_bid_);
  assert(scan_bid_ < window_end() && "window count out of sync");
  std::vector<Event>& b = bucket(scan_bid_);
  if (b.size() > 1) {
    std::sort(b.begin(), b.end(), [](const Event& a, const Event& e) {
      return a.at != e.at ? a.at < e.at : a.seq < e.seq;
    });
  }
  active_ = true;
  pos_ = 0;
}

Tick EventQueue::next_tick() {
  if (empty()) throw_empty("EventQueue::next_tick on empty queue");
  settle();
  return bucket(scan_bid_)[pos_].at;
}

std::optional<std::pair<Tick, EventFn>> EventQueue::try_pop() {
  if (empty()) return std::nullopt;
  return pop();
}

std::pair<Tick, EventFn> EventQueue::pop() {
  if (empty()) throw_empty("EventQueue::pop on empty queue");
  settle();
  std::vector<Event>& b = bucket(scan_bid_);
  Event ev = std::move(b[pos_]);
  ++pos_;
  if (pos_ == b.size()) {
    b.clear();
    unmark(scan_bid_);
    active_ = false;
    pos_ = 0;
    // Keep scan_ on the drained bucket until floor_ advances below.
  }
  floor_bid_ = scan_bid_;
  if (!active_) ++scan_bid_;
  --win_count_;
  --size_;
  // The window end moved with floor_: pull in any overflow it now covers.
  promote_overflow();
  return {ev.at, std::move(ev.fn)};
}

}  // namespace fw::sim
