// Vector-backed FIFO queue.
//
// A std::deque copies every element it is given and allocates a 512-byte
// node even when empty. Fifo keeps its elements in one std::vector with a
// consumed-prefix cursor instead, so a queue that is handed a whole batch
// while empty adopts the batch's buffer without copying a single element,
// and an empty, never-used queue holds no heap memory at all. Pops compact
// the buffer once the consumed prefix reaches half of it, so each element
// is moved O(1) times amortised and dead slots never outnumber live ones
// (past a small floor).
//
// Not thread-safe: owned by one shard, like the pools in common/pool.hpp.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace fw {

template <typename T>
class Fifo {
 public:
  [[nodiscard]] bool empty() const { return head_ == buf_.size(); }
  [[nodiscard]] std::size_t size() const { return buf_.size() - head_; }

  [[nodiscard]] const T& front() const {
    assert(!empty());
    return buf_[head_];
  }

  void push_back(const T& v) { buf_.push_back(v); }

  void pop_front() {
    assert(!empty());
    ++head_;
    if (head_ == buf_.size()) {
      buf_.clear();
      head_ = 0;
    } else if (head_ >= kMinCompact && 2 * head_ >= buf_.size()) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  /// Append a whole batch in order. An empty queue adopts the batch's buffer
  /// instead of copying it. Returns the buffer left over — the queue's old
  /// one, or the emptied batch — so the caller can recycle it.
  [[nodiscard]] std::vector<T> append(std::vector<T>&& batch) {
    if (empty()) {
      std::swap(buf_, batch);
      head_ = 0;
    } else {
      buf_.insert(buf_.end(), batch.begin(), batch.end());
    }
    batch.clear();
    return std::move(batch);
  }

 private:
  /// Below this many consumed elements a pop never compacts, so short
  /// queues do not shuffle their few elements on every other pop.
  static constexpr std::size_t kMinCompact = 32;

  std::vector<T> buf_;
  std::size_t head_ = 0;  ///< consumed prefix of buf_
};

}  // namespace fw
