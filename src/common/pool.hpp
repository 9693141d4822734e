// Free-list pools for hot-path transients.
//
// The DES hot path moves batches of walks through short-lived std::vectors:
// every roving pull, board batch, and subgraph load used to allocate a
// fresh vector and drop it one event later. VectorPool recycles those
// buffers — acquire() hands back an empty vector that keeps its previous
// capacity, release() returns it — so most batch vectors cost no allocator
// traffic. The exception is a batch the board's guide buffer adopts
// (common/fifo.hpp): it is freed once drained.
//
// Pools keep buffers at batch scale only. A buffer released with room for
// more than kMaxCapacity elements (a long flash-resident list) is freed, not
// kept: pooling it would pin that memory for the rest of the run to save one
// allocation.
//
// Not thread-safe by design: pools are owned per shard — each DES shard
// keeps its own VectorPool and only that shard's worker touches it (see
// docs/MODELING.md "Parallel DES").
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace fw {

template <typename T>
class VectorPool {
 public:
  /// Largest capacity a kept buffer may have: above the biggest batches the
  /// engine moves (a board dispatch, a roving buffer, a PWB entry).
  static constexpr std::size_t kMaxCapacity = 4096;

  /// Bound the free list so a one-off burst does not pin memory forever.
  explicit VectorPool(std::size_t max_free = 256) : max_free_(max_free) {}

  /// An empty vector, reusing capacity from a released one when available.
  [[nodiscard]] std::vector<T> acquire() {
    if (free_.empty()) return {};
    std::vector<T> v = std::move(free_.back());
    free_.pop_back();
    return v;
  }

  /// Return a spent vector to the pool (cleared, capacity retained), or
  /// free it when the pool is full or the buffer is above batch scale.
  void release(std::vector<T>&& v) {
    if (free_.size() >= max_free_ || v.capacity() == 0 || v.capacity() > kMaxCapacity) {
      std::vector<T>().swap(v);
      return;
    }
    v.clear();
    free_.push_back(std::move(v));
  }

  [[nodiscard]] std::size_t free_count() const { return free_.size(); }

 private:
  std::size_t max_free_;
  std::vector<std::vector<T>> free_;
};

}  // namespace fw
