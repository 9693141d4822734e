// Bounds on what graph set-up, graph loading and walk queues hold on the host
// heap.
//
// This binary replaces the global operator new/delete with a pair that
// tracks live bytes and their high-water mark, so a test can bound what a
// call holds at its worst moment and what is still held after it returns.
// (ftl_gc_test's replacement counts requests only.) Over-aligned
// allocations keep the library's own operators and are not counted; none of
// the code under test makes any.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fifo.hpp"
#include "common/units.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace {

std::atomic<std::uint64_t> g_live_bytes{0};
std::atomic<std::uint64_t> g_peak_bytes{0};

/// Every block carries its size in a header ahead of the pointer handed
/// out, so unsized deletes are counted too; the header keeps new's alignment.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_alloc(std::size_t n) {
  void* base = std::malloc(n + kHeader);
  if (base == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(base) = n;
  const std::uint64_t live = g_live_bytes.fetch_add(n, std::memory_order_relaxed) + n;
  std::uint64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(peak, live)) {
    // A failed exchange reloaded peak; try again while live is higher.
  }
  return static_cast<char*>(base) + kHeader;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  void* base = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(*static_cast<std::size_t*>(base), std::memory_order_relaxed);
  std::free(base);
}

}  // namespace

// Array and nothrow forms forward to these by default.
void* operator new(std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }

namespace fw {
namespace {

std::uint64_t live_bytes() { return g_live_bytes.load(); }

/// Starts a new high-water mark at the bytes live now, and returns them.
std::uint64_t restart_peak() {
  const std::uint64_t live = g_live_bytes.load();
  g_peak_bytes.store(live);
  return live;
}

TEST(SetupMemory, UnweightedRmatHoldsCsrPlusEightBytesPerEdge) {
  // The edge list sits beside the CSR being built from it, so it sets the
  // set-up peak: 24-byte Edge records would hold 24 MiB here, 8-byte edge
  // words hold 8.
  graph::RmatParams p;
  p.num_vertices = 1 << 16;
  p.num_edges = 1 << 20;
  p.seed = 5;
  const std::uint64_t before = restart_peak();
  const graph::CsrGraph g = graph::generate_rmat(p);
  const std::uint64_t peak = g_peak_bytes.load() - before;
  const std::uint64_t csr =
      g.offsets().size() * sizeof(EdgeId) + g.edges().size() * sizeof(g.edges()[0]);
  EXPECT_EQ(g.num_edges(), p.num_edges);
  EXPECT_LE(peak, csr + 8 * p.num_edges + 1 * MiB) << "CSR bytes " << csr;
}

TEST(SetupMemory, CsrHoldsFourBytesPerNeighbor) {
  // What the graph keeps once built: 8-byte offsets per vertex and a 4-byte
  // ID per neighbor, the width the model charges (id_bytes()), and nothing
  // left over from set-up.
  graph::RmatParams p;
  p.num_vertices = 1 << 16;
  p.num_edges = 1 << 20;
  p.seed = 5;
  const std::uint64_t before = live_bytes();
  const graph::CsrGraph g = graph::generate_rmat(p);
  const std::uint64_t held = live_bytes() - before;
  ASSERT_EQ(g.num_vertices(), p.num_vertices);
  EXPECT_EQ(held, 8 * (g.num_vertices() + 1) + 4 * g.num_edges());
}

TEST(LoadMemory, CorruptCountAllocatesOnlyWhatArrived) {
  // An FWGRAPH1 stream whose offsets count claims 2^27 values (1 GiB) over
  // 64 bytes of data: the loader must fail on the short array having held
  // about one read block, not the claimed size.
  std::string bytes = "FWGRAPH1";
  const std::uint64_t claimed = 1ull << 27;
  bytes.append(reinterpret_cast<const char*>(&claimed), sizeof claimed);
  bytes.append(64, '\0');
  std::stringstream ss(bytes);
  const std::uint64_t before = restart_peak();
  EXPECT_THROW((void)graph::load_binary(ss), std::runtime_error);
  EXPECT_LT(g_peak_bytes.load() - before, 1 * MiB);
}

TEST(FifoMemory, DefaultConstructedQueuesAllocateNothing) {
  // The FTL keeps one per plane: 1,024 on the paper's SSD.
  const std::uint64_t before = live_bytes();
  const std::vector<Fifo<std::uint32_t>> planes(1024);
  const std::uint64_t with_planes = live_bytes() - before;
  const Fifo<std::uint64_t> one;
  const std::uint64_t with_one = live_bytes() - before;
  // The vector's own array and nothing per queue.
  EXPECT_EQ(with_planes, planes.capacity() * sizeof(Fifo<std::uint32_t>));
  EXPECT_EQ(with_one, with_planes);
  EXPECT_TRUE(one.empty());
  // A queue is one vector and two 32-bit cursors, so the FTL's plane table,
  // which holds one per plane, is no bigger than with a vector and a
  // 64-bit read cursor.
  EXPECT_LE(sizeof(Fifo<std::uint32_t>),
            sizeof(std::vector<std::uint32_t>) + sizeof(std::size_t));
}

TEST(FifoMemory, DrainedChunksAreFreedAsTheQueuePops) {
  using Queue = Fifo<std::uint64_t>;
  const std::uint64_t before = live_bytes();
  std::uint64_t held = 0;
  bool in_order = true;
  {
    Queue q;
    for (std::uint64_t i = 0; i < 100'000; ++i) q.push_back(i);
    for (std::uint64_t i = 0; i < 100'000 - 10; ++i) {
      in_order = in_order && q.front() == i;
      q.pop_front();
    }
    held = live_bytes() - before;
  }
  const std::uint64_t left_after_destruction = live_bytes() - before;
  EXPECT_TRUE(in_order);
  // The 10 left share one chunk. Beyond its buffer the queue keeps only its
  // chunk index, 24 bytes for each of the 13 chunks it once held.
  EXPECT_LE(held, Queue::kChunkBytes + 1024);
  EXPECT_EQ(left_after_destruction, 0u);
}

}  // namespace
}  // namespace fw
