// Chunked FIFO queue.
//
// A std::deque copies every element it is given and allocates a 512-byte
// node even when empty. Fifo keeps its elements in a list of std::vector
// chunks instead:
//   - append() adopts a whole batch as one chunk, without copying a single
//     element, whether or not the queue is busy;
//   - splice() moves another Fifo's chunks to the tail the same way;
//   - push_back() fills chunks of at most kChunkBytes;
//   - a chunk is freed the moment its last element is popped, so a queue
//     that drains holds memory for what is still in it, not for its past;
//   - a never-used queue holds no heap memory, and the queue itself is one
//     vector and two 32-bit cursors (the FTL keeps one per plane).
// Spare room: the chunks push_back fills leave less than one chunk's worth
// in all, but an adopted batch keeps its own capacity until it drains.
//
// Not thread-safe: owned by one shard, like the pools in common/pool.hpp.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

namespace fw {

template <typename T>
class Fifo {
 public:
  /// Largest buffer push_back gives one chunk. Adopted batches keep their
  /// own size.
  static constexpr std::size_t kChunkBytes = std::size_t{64} << 10;
  static constexpr std::size_t kChunkElems =
      std::max<std::size_t>(1, kChunkBytes / sizeof(T));

  Fifo() = default;
  // A moved-from queue is left empty, not with stale cursors: a pending list
  // takes new walks after it has been spliced away.
  Fifo(Fifo&& other) noexcept { *this = std::move(other); }
  Fifo& operator=(Fifo&& other) noexcept {
    chunks_ = std::exchange(other.chunks_, {});
    first_ = std::exchange(other.first_, 0);
    head_ = std::exchange(other.head_, 0);
    return *this;
  }

  /// No live chunk is ever empty, and a queue that drains drops its chunk
  /// list, so the list alone says whether elements remain.
  [[nodiscard]] bool empty() const { return chunks_.empty(); }

  /// Sums the live chunks: callers ask once per splice, not per element.
  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (std::size_t i = first_; i < chunks_.size(); ++i) n += chunks_[i].size();
    return n - head_;
  }

  [[nodiscard]] const T& front() const {
    assert(!empty());
    return chunks_[first_][head_];
  }

  void push_back(const T& v) {
    if (empty() || chunks_.back().size() >= kChunkElems) {
      // A busy queue whose tail chunk is full takes a whole chunk at once;
      // an empty one starts small, so short queues (an FTL plane's erased
      // blocks) stay small.
      const bool busy = !empty();
      std::vector<T>& chunk = chunks_.emplace_back();
      if (busy) chunk.reserve(kChunkElems);
    } else if (std::vector<T>& tail = chunks_.back(); tail.size() == tail.capacity()) {
      tail.reserve(std::min(kChunkElems, 2 * tail.size()));
    }
    chunks_.back().push_back(v);
  }

  void pop_front() {
    assert(!empty());
    if (++head_ < chunks_[first_].size()) return;
    std::vector<T>().swap(chunks_[first_]);  // drained: free it now
    head_ = 0;
    if (++first_ == chunks_.size()) {
      chunks_.clear();
      first_ = 0;
    } else if (2 * std::size_t{first_} >= chunks_.size()) {
      const auto live = chunks_.begin() + static_cast<std::ptrdiff_t>(first_);
      chunks_.erase(chunks_.begin(), live);
      first_ = 0;
    }
  }

  /// Append a whole batch in order, adopting its buffer as one chunk.
  /// Returns what is left for the caller to recycle: an empty batch comes
  /// back with its buffer, an adopted one leaves none.
  [[nodiscard]] std::vector<T> append(std::vector<T>&& batch) {
    if (batch.empty()) return std::move(batch);
    if (batch.size() > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("Fifo::append: batch too long for a 32-bit cursor");
    }
    chunks_.push_back(std::move(batch));
    return {};
  }

  /// Move every element of `other` to the tail, in order, chunk by chunk;
  /// `other` is left empty and holding no memory.
  void splice(Fifo&& other) {
    if (other.empty()) return;
    if (empty()) {
      *this = std::move(other);
      return;
    }
    const auto live = other.chunks_.begin() + static_cast<std::ptrdiff_t>(other.first_);
    live->erase(live->begin(), live->begin() + static_cast<std::ptrdiff_t>(other.head_));
    chunks_.insert(chunks_.end(), std::make_move_iterator(live),
                   std::make_move_iterator(other.chunks_.end()));
    other = Fifo();
  }

 private:
  // Only append() takes a chunk longer than kChunkElems, so it alone checks
  // head_'s reach. first_ would pass 32 bits only with 2^32 non-empty chunks
  // held at once, 96 GiB of chunk headers alone.
  std::vector<std::vector<T>> chunks_;  ///< [first_, end) hold the elements
  std::uint32_t first_ = 0;             ///< chunks before it are drained
  std::uint32_t head_ = 0;              ///< consumed prefix of chunks_[first_]
};

}  // namespace fw
