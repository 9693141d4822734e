// Page-level flash translation layer.
//
// The graph itself is written once at preprocessing time and never updated,
// so the engine places it directly (see GraphLayout) and reserves the first
// blocks of every plane for it. The FTL manages the remaining blocks for
// runtime writes — completed/foreigner/overflow walk flushes — with
// log-structured allocation, out-of-place update, and greedy garbage
// collection, mirroring the MQSim FTL features the paper lists (§II.C).
//
// GC is strictly in-plane: each plane keeps one over-provisioned spare block
// that receives copy-back relocations, so valid pages never cross a plane
// boundary and the copy-back timing model (no channel transfer) matches what
// actually happens. See docs/MODELING.md "GC model" for the spare-rotation
// policy and the idle-GC pass.
//
// Block state is sparse. A plane's free list hands out never-used blocks in
// increasing order, ahead of every recycled one, so the blocks a run has
// touched are always a prefix [0, fresh) plus the initial spare. Only those
// carry a BlockState; the rest read as all-zero (never written, never
// erased), which is exactly what they are. A run that writes a few thousand
// pages therefore keeps a few thousand blocks' state, not the 2M blocks of
// the modeled drive.
#pragma once

#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/fifo.hpp"
#include "ssd/flash_array.hpp"
#include "ssd/reliability/bad_block.hpp"

namespace fw::obs {
class Counter;
class CounterRegistry;
class TraceRecorder;
}  // namespace fw::obs

namespace fw::ssd {

struct FtlStats {
  std::uint64_t host_page_writes = 0;
  std::uint64_t host_page_reads = 0;
  std::uint64_t gc_page_moves = 0;
  std::uint64_t gc_erases = 0;
  std::uint64_t gc_idle_episodes = 0;
  std::uint32_t min_block_erases = 0;
  std::uint32_t max_block_erases = 0;
  std::uint64_t bad_blocks = 0;        ///< grown bad blocks retired so far
  std::uint64_t gc_uncorrectable = 0;  ///< pages lost during GC relocation

  [[nodiscard]] double write_amplification() const {
    return host_page_writes == 0
               ? 1.0
               : 1.0 + static_cast<double>(gc_page_moves) /
                           static_cast<double>(host_page_writes);
  }

  /// Wear spread across blocks (0 = perfectly even).
  [[nodiscard]] std::uint32_t wear_spread() const {
    return max_block_erases - min_block_erases;
  }
};

class Ftl {
 public:
  /// `reserved_blocks_per_plane` blocks at the start of every plane hold the
  /// immutable graph and are never allocated. Of the remaining blocks, one
  /// per plane is held back as the GC copy-back spare (when at least two
  /// remain), so host-visible capacity is `usable - 1` blocks per plane.
  Ftl(FlashArray& flash, std::uint32_t reserved_blocks_per_plane);

  /// Write one logical page; allocates a fresh physical page (round-robin
  /// across channels/chips/planes for parallelism), invalidating any prior
  /// mapping. Returns the program completion tick.
  Tick write_page(Tick now, std::uint64_t lpn, bool over_channel = true);

  /// Read a previously written logical page. Throws on unmapped LPN.
  Tick read_page(Tick now, std::uint64_t lpn, bool over_channel = true);

  /// Background compaction pass, run while the device is idle: every plane
  /// independently collects blocks whose invalid-page count has reached half
  /// the block, up to `max_episodes` block collections in total. Returns the
  /// tick at which the last plane finishes (planes run concurrently).
  Tick idle_gc(Tick now, std::uint32_t max_episodes);

  [[nodiscard]] bool is_mapped(std::uint64_t lpn) const { return l2p_.contains(lpn); }
  /// Current physical page of a mapped LPN (throws on unmapped). Exposed so
  /// tests can assert GC relocations stay inside the victim's plane.
  [[nodiscard]] std::uint64_t physical_of(std::uint64_t lpn) const;
  /// Stats with the wear counters folded in.
  [[nodiscard]] FtlStats stats() const;
  [[nodiscard]] std::uint32_t reserved_blocks_per_plane() const { return reserved_; }
  [[nodiscard]] std::uint32_t usable_blocks_per_plane() const { return usable_blocks_; }
  /// Grown bad-block bookkeeping (block indices are FTL-relative).
  [[nodiscard]] const reliability::BadBlockManager& bad_block_manager() const {
    return bbm_;
  }
  /// Pages the host can keep live at once (spare blocks excluded).
  [[nodiscard]] std::uint64_t host_capacity_pages() const;

  /// Mirror FTL activity into live counters (`ftl.*`) and record one trace
  /// span per GC episode. Both pointers may be null; pass the pair that is
  /// wanted. Handles must outlive the FTL.
  void attach_observability(obs::CounterRegistry* registry, obs::TraceRecorder* trace);

 private:
  struct BlockState {
    std::uint32_t written = 0;  ///< next page to program
    std::uint32_t valid = 0;    ///< live pages
    std::uint32_t erases = 0;   ///< wear counter
  };

  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Block indices below are relative to the first usable block. The free
  /// list is the fresh blocks [blocks.size(), fresh_end_) in order, then
  /// `recycled` in FIFO order.
  struct PlaneState {
    std::vector<BlockState> blocks;  ///< the touched prefix [0, fresh)
    BlockState initial_spare;        ///< block fresh_end_ (when usable >= 2)
    std::uint32_t active_block = 0;
    std::uint32_t spare_block = kNone;  ///< GC copy-back destination
    Fifo<std::uint32_t> recycled;       ///< erased blocks back in circulation
    std::uint32_t trace_track = kNone;  ///< lazily registered GC lane
  };

  /// State of a touched block (the open prefix or the initial spare).
  [[nodiscard]] BlockState& block(PlaneState& ps, std::uint32_t b) const {
    assert(b < ps.blocks.size() || (b == fresh_end_ && usable_blocks_ >= 2));
    return b < ps.blocks.size() ? ps.blocks[b] : ps.initial_spare;
  }
  [[nodiscard]] const BlockState& block(const PlaneState& ps, std::uint32_t b) const {
    assert(b < ps.blocks.size() || (b == fresh_end_ && usable_blocks_ >= 2));
    return b < ps.blocks.size() ? ps.blocks[b] : ps.initial_spare;
  }
  [[nodiscard]] bool has_free(const PlaneState& ps) const {
    return ps.blocks.size() < fresh_end_ || !ps.recycled.empty();
  }
  [[nodiscard]] std::uint32_t front_free(const PlaneState& ps) const {
    return ps.blocks.size() < fresh_end_ ? static_cast<std::uint32_t>(ps.blocks.size())
                                         : ps.recycled.front();
  }
  /// Take the free list's front block; a fresh one gains its (zero) state.
  std::uint32_t pop_free(PlaneState& ps);
  /// Drop free-list blocks retired while they waited there.
  void skip_bad_free(std::uint32_t plane_index, PlaneState& ps);

  /// Pick the next physical page on the allocation cursor, running GC on
  /// the target plane if it has no free block. Returns the PPN and the tick
  /// at which the plane is ready (GC may delay it).
  std::pair<std::uint64_t, Tick> allocate(Tick now);

  /// Retire (plane, rel_block) as a grown bad block: record it, seal it so
  /// the allocator and GC never touch it again. Pages it still holds stay
  /// readable but are never relocated.
  void retire_block(std::uint32_t plane_index, std::uint32_t rel_block,
                    reliability::RetireReason reason);

  /// Greedy victim in the plane: a non-active, non-spare, non-retired block
  /// whose valid pages fit in the spare; fewest valid first, fewest erases
  /// as the wear tie-break. Space-pressure mode (`idle == false`) considers
  /// only full blocks with at least one invalid page; idle mode also
  /// compacts partially written blocks once half their pages are invalid.
  /// kNone if no block qualifies.
  [[nodiscard]] std::uint32_t find_victim(std::uint32_t plane_index, bool idle) const;

  /// Collect one block: copy-back its valid pages into the plane's spare,
  /// erase it, rotate the spare. Returns the completion tick.
  Tick gc_block(Tick now, std::uint32_t plane_index, std::uint32_t victim);

  /// Space-pressure GC for `allocate`: collect the greediest victim, if any.
  Tick collect_garbage(Tick now, std::uint32_t plane_index);

  [[nodiscard]] FlashAddress plane_address(std::uint32_t plane_index) const;

  FlashArray& flash_;
  std::uint32_t reserved_;
  std::uint32_t usable_blocks_;  ///< per plane
  /// End of the fresh range: the initial spare's index when the plane has
  /// one (usable >= 2), else usable_blocks_.
  std::uint32_t fresh_end_;
  std::vector<PlaneState> planes_;
  std::unordered_map<std::uint64_t, std::uint64_t> l2p_;
  std::unordered_map<std::uint64_t, std::uint64_t> p2l_;
  std::uint32_t cursor_plane_ = 0;  ///< global plane round-robin cursor
  bool gc_active_ = false;          ///< recursion guard: GC must never re-enter
  reliability::BadBlockManager bbm_;
  mutable FtlStats stats_;

  obs::TraceRecorder* trace_ = nullptr;
  obs::Counter* c_host_writes_ = nullptr;
  obs::Counter* c_host_reads_ = nullptr;
  obs::Counter* c_gc_moves_ = nullptr;
  obs::Counter* c_gc_erases_ = nullptr;
  obs::Counter* c_gc_idle_ = nullptr;
  obs::Counter* c_bad_blocks_ = nullptr;
};

}  // namespace fw::ssd
