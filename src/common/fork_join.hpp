// Fork/join over contiguous ranges for host-side data-parallel loops
// (graph generation and CSR construction). Results must not depend on the
// thread count: callers give each thread a fixed slice of the output.
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

namespace fw {

/// Threads for `items` units of independent work: one per
/// `min_items_per_thread` items, capped at hardware_concurrency(), at
/// least one. Small inputs stay on the calling thread.
inline unsigned host_threads(std::uint64_t items, std::uint64_t min_items_per_thread) {
  const std::uint64_t wanted = items / min_items_per_thread;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(std::clamp<std::uint64_t>(wanted, 1, hw));
}

/// Start of part `t` when [0, n) is cut into `parts` contiguous ranges
/// whose sizes differ by at most one; part t is [begin(t), begin(t + 1)).
inline std::uint64_t range_begin(std::uint64_t n, unsigned parts, unsigned t) {
  return t * (n / parts) + std::min<std::uint64_t>(t, n % parts);
}

/// Runs fn(t) for every t in [0, threads), the calling thread as t = 0,
/// and returns once all have finished. If any call throws, the exception
/// of the lowest such t is rethrown after every thread has joined.
template <typename Fn>
void fork_join(unsigned threads, const Fn& fn) {
  std::vector<std::exception_ptr> errors(std::max(threads, 1u));
  const auto run = [&](unsigned t) {
    try {
      fn(t);
    } catch (...) {
      errors[t] = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> pool;
    pool.reserve(errors.size() - 1);
    for (unsigned t = 1; t < threads; ++t) pool.emplace_back(run, t);
    run(0);
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace fw
