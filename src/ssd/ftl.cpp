#include "ssd/ftl.hpp"

#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace fw::ssd {

Ftl::Ftl(FlashArray& flash, std::uint32_t reserved_blocks_per_plane)
    : flash_(flash),
      reserved_(reserved_blocks_per_plane),
      bbm_(flash.config().topo.total_planes()) {
  const auto& topo = flash.config().topo;
  if (reserved_ >= topo.blocks_per_plane) {
    throw std::invalid_argument("Ftl: graph reservation leaves no writable blocks");
  }
  usable_blocks_ = topo.blocks_per_plane - reserved_;
  // The last usable block is the GC copy-back spare: relocated pages land
  // there, which keeps GC strictly in-plane. A one-block plane has no spare
  // (and thus no way to relocate valid data).
  fresh_end_ = usable_blocks_ >= 2 ? usable_blocks_ - 1 : usable_blocks_;
  planes_.resize(topo.total_planes());
  for (auto& p : planes_) {
    p.blocks.resize(1);  // block 0 opens as the active block
    p.active_block = 0;
    if (usable_blocks_ >= 2) p.spare_block = fresh_end_;
  }
}

std::uint32_t Ftl::pop_free(PlaneState& ps) {
  if (ps.blocks.size() < fresh_end_) {
    ps.blocks.emplace_back();
    return static_cast<std::uint32_t>(ps.blocks.size() - 1);
  }
  const std::uint32_t b = ps.recycled.front();
  ps.recycled.pop_front();
  return b;
}

void Ftl::skip_bad_free(std::uint32_t plane_index, PlaneState& ps) {
  while (has_free(ps) && bbm_.is_bad(plane_index, front_free(ps))) pop_free(ps);
}

void Ftl::attach_observability(obs::CounterRegistry* registry,
                               obs::TraceRecorder* trace) {
  trace_ = trace;
  if (registry != nullptr) {
    c_host_writes_ = &registry->counter("ftl.host_page_writes");
    c_host_reads_ = &registry->counter("ftl.host_page_reads");
    c_gc_moves_ = &registry->counter("ftl.gc.page_moves");
    c_gc_erases_ = &registry->counter("ftl.gc.erases");
    c_gc_idle_ = &registry->counter("ftl.gc.idle_episodes");
    // Registered only alongside the fault model so ideal-NAND runs keep
    // their exact pre-reliability metrics JSON.
    c_bad_blocks_ = flash_.reliability_enabled()
                        ? &registry->counter("ftl.bad_blocks")
                        : nullptr;
  } else {
    c_host_writes_ = c_host_reads_ = c_gc_moves_ = c_gc_erases_ = c_gc_idle_ = nullptr;
    c_bad_blocks_ = nullptr;
  }
}

FlashAddress Ftl::plane_address(std::uint32_t plane_index) const {
  const auto& topo = flash_.config().topo;
  FlashAddress addr;
  const std::uint32_t planes_per_chip = topo.planes_per_chip();
  addr.plane = plane_index % planes_per_chip;
  const std::uint32_t chip_global = plane_index / planes_per_chip;
  addr.chip = chip_global % topo.chips_per_channel;
  addr.channel = chip_global / topo.chips_per_channel;
  return addr;
}

std::pair<std::uint64_t, Tick> Ftl::allocate(Tick now) {
  const auto& topo = flash_.config().topo;
  const std::uint32_t plane_index = cursor_plane_;
  cursor_plane_ = (cursor_plane_ + 1) % planes_.size();

  PlaneState& ps = planes_[plane_index];
  Tick ready = now;
  BlockState* active = &block(ps, ps.active_block);
  if (active->written >= topo.pages_per_block) {
    // Each successful GC pass erases one block; it may rotate into the
    // spare instead of landing on the free list, so keep collecting while
    // progress is being made (bounded by the plane's block count). A pass
    // that only retires a bad block is progress too — the next iteration
    // picks a different victim.
    for (std::uint32_t attempt = 0; !has_free(ps) && attempt < usable_blocks_;
         ++attempt) {
      const std::uint64_t erases_before = stats_.gc_erases;
      ready = collect_garbage(ready, plane_index);
      if (stats_.gc_erases == erases_before) break;
    }
    // Retired blocks never enter the free list at retirement time, but a
    // block queued here before going bad must not be re-opened.
    skip_bad_free(plane_index, ps);
    if (!has_free(ps)) {
      throw std::runtime_error("Ftl: plane out of space even after GC");
    }
    ps.active_block = pop_free(ps);
    active = &block(ps, ps.active_block);
  }

  FlashAddress addr = plane_address(plane_index);
  addr.block = reserved_ + ps.active_block;
  addr.page = active->written;

  ++active->written;
  ++active->valid;
  return {flash_.address_map().to_ppn(addr), ready};
}

std::uint32_t Ftl::find_victim(std::uint32_t plane_index, bool idle) const {
  const PlaneState& ps = planes_[plane_index];
  const auto& topo = flash_.config().topo;
  const std::uint32_t spare_room =
      ps.spare_block == kNone
          ? 0
          : topo.pages_per_block - block(ps, ps.spare_block).written;
  std::uint32_t victim = kNone;
  std::uint32_t victim_valid = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t victim_erases = std::numeric_limits<std::uint32_t>::max();
  // Untouched blocks hold nothing to collect, so only the touched ones are
  // scanned, in block order: the open prefix, then the initial spare.
  const std::size_t touched = ps.blocks.size() + (usable_blocks_ >= 2 ? 1 : 0);
  for (std::size_t i = 0; i < touched; ++i) {
    const auto b = static_cast<std::uint32_t>(i < ps.blocks.size() ? i : fresh_end_);
    if (b == ps.spare_block) continue;
    if (bbm_.is_bad(plane_index, b)) continue;  // retired: never erase again
    const BlockState& bs = block(ps, b);
    // The open (active) block is off-limits while pages can still land in
    // it; once full it is sealed de facto and collectible under space
    // pressure (`allocate` re-opens on a fresh block right after). Idle GC
    // seals the open block itself, with the reassignment done first.
    if (b == ps.active_block && (idle || bs.written != topo.pages_per_block)) continue;
    if (bs.written == 0) continue;
    const std::uint32_t invalid = bs.written - bs.valid;
    if (idle) {
      // Background compaction is worth an erase once half the block's
      // written pages are garbage.
      if (invalid < std::max(1u, bs.written / 2)) continue;
    } else {
      if (bs.written != topo.pages_per_block || invalid == 0) continue;
    }
    if (bs.valid > spare_room) continue;  // relocations must fit in the spare
    if (bs.valid < victim_valid ||
        (bs.valid == victim_valid && bs.erases < victim_erases)) {
      victim = b;
      victim_valid = bs.valid;
      victim_erases = bs.erases;
    }
  }
  return victim;
}

Tick Ftl::gc_block(Tick now, std::uint32_t plane_index, std::uint32_t victim) {
  // GC never re-enters: relocation targets come from the plane's own spare
  // block, not the allocator, so a collection cannot trigger another one.
  assert(!gc_active_ && "Ftl: recursive garbage collection");
  gc_active_ = true;

  const auto& topo = flash_.config().topo;
  PlaneState& ps = planes_[plane_index];
  BlockState& vb = block(ps, victim);

  FlashAddress victim_addr = plane_address(plane_index);
  victim_addr.block = reserved_ + victim;

  Tick done = now;
  std::uint64_t moves = 0;
  std::uint32_t lost_pages = 0;
  // Copy-back relocation: read + program inside the plane, no channel
  // transfer. Valid pages land in the plane's spare block, so they never
  // leave the plane the timing model says they stay in.
  for (std::uint32_t pg = 0; pg < topo.pages_per_block && vb.valid > 0; ++pg) {
    victim_addr.page = pg;
    const std::uint64_t ppn = flash_.address_map().to_ppn(victim_addr);
    const auto it = p2l_.find(ppn);
    if (it == p2l_.end()) continue;
    const std::uint64_t lpn = it->second;
    assert(ps.spare_block != kNone && "Ftl: relocation with no spare block");
    BlockState& sb = block(ps, ps.spare_block);
    FlashAddress new_addr = victim_addr;
    new_addr.block = reserved_ + ps.spare_block;
    new_addr.page = sb.written;
    const PageReadResult rr = flash_.read_page_checked(done, victim_addr,
                                                       /*over_channel=*/false);
    if (rr.uncorrectable) {
      // The relocated copy is rebuilt through the board-level recovery path
      // before programming; the victim block itself is retired after its
      // erase (an uncorrectable during GC is a grown-bad-block trigger).
      ++lost_pages;
      ++stats_.gc_uncorrectable;
      done = rr.ready + flash_.config().reliability.recovery_latency;
    } else {
      done = rr.ready;
    }
    const OpResult pr = flash_.program_page_checked(done, new_addr,
                                                    /*over_channel=*/false);
    done = pr.done;
    if (pr.failed) {
      // The spare went bad mid-relocation: retire it and abort this
      // collection. Pages not yet moved keep their victim mappings, so no
      // data is orphaned; the plane continues with degraded spare capacity.
      retire_block(plane_index, ps.spare_block, reliability::RetireReason::kProgramFail);
      ps.spare_block = kNone;
      gc_active_ = false;
      return done;
    }
    const std::uint64_t new_ppn = flash_.address_map().to_ppn(new_addr);
    p2l_.erase(it);
    p2l_[new_ppn] = lpn;
    l2p_[lpn] = new_ppn;
    ++sb.written;
    ++sb.valid;
    --vb.valid;
    ++stats_.gc_page_moves;
    ++moves;
  }

  victim_addr.page = 0;
  const OpResult er = flash_.erase_block_checked(done, victim_addr);
  done = er.done;
  vb.written = 0;
  vb.valid = 0;
  ++vb.erases;
  ++stats_.gc_erases;

  if (er.failed || lost_pages > 0) {
    // Erase failure, or uncorrectable pages discovered while relocating:
    // the block is retired instead of re-entering circulation. The FTL's
    // replacement capacity comes out of the free/spare pool — remapping is
    // implicit in never allocating the block again.
    retire_block(plane_index, victim,
                 er.failed ? reliability::RetireReason::kEraseFail
                           : reliability::RetireReason::kUncorrectable);
    // The retired victim cannot take over the spare role, but a full spare
    // must still rotate out or the plane deadlocks: no relocation room means
    // no victim with valid pages ever qualifies again. Promote the old spare
    // to a regular block and pull a replacement from the free list (degraded
    // `kNone` spare if the plane has none to give).
    if (ps.spare_block != kNone &&
        block(ps, ps.spare_block).written == topo.pages_per_block) {
      skip_bad_free(plane_index, ps);
      ps.spare_block = has_free(ps) ? pop_free(ps) : kNone;
    }
  } else if (ps.spare_block == kNone) {
    ps.recycled.push_back(victim);
  } else {
    // Spare rotation. The freshly erased victim is the most attractive
    // spare (it is empty and just gained an erase, so handing it the cold
    // relocation role levels wear); what happens to the old spare depends
    // on how full it is:
    //   - full: it becomes a regular block (a future GC victim), victim is
    //     the new spare — note no block reaches the free list this round;
    //   - empty: swap roles and push the old spare to the free list;
    //   - partially filled: keep it as the spare so it can absorb more
    //     relocations, and free the victim.
    const BlockState& sb = block(ps, ps.spare_block);
    if (sb.written == topo.pages_per_block) {
      ps.spare_block = victim;
    } else if (sb.written == 0) {
      ps.recycled.push_back(ps.spare_block);
      ps.spare_block = victim;
    } else {
      ps.recycled.push_back(victim);
    }
  }

  if (c_gc_moves_ != nullptr && moves > 0) c_gc_moves_->add(moves);
  if (c_gc_erases_ != nullptr) c_gc_erases_->add();
  if (trace_ != nullptr) {
    if (ps.trace_track == kNone) {
      ps.trace_track =
          trace_->register_track("ftl", "gc.plane." + std::to_string(plane_index));
    }
    trace_->complete(ps.trace_track, "gc", now, done, moves, "page_moves");
  }

  gc_active_ = false;
  return done;
}

void Ftl::retire_block(std::uint32_t plane_index, std::uint32_t rel_block,
                       reliability::RetireReason reason) {
  if (!bbm_.retire(plane_index, rel_block, reason)) return;
  // Seal the block so the allocator treats it as full; `find_victim` and
  // the free-list filters consult the manager directly. Pages it still
  // holds stay mapped and readable — they are just never relocated.
  block(planes_[plane_index], rel_block).written = flash_.config().topo.pages_per_block;
  if (c_bad_blocks_ != nullptr) c_bad_blocks_->add();
}

Tick Ftl::collect_garbage(Tick now, std::uint32_t plane_index) {
  const std::uint32_t victim = find_victim(plane_index, /*idle=*/false);
  if (victim == kNone) return now;
  return gc_block(now, plane_index, victim);
}

Tick Ftl::idle_gc(Tick now, std::uint32_t max_episodes) {
  const auto& topo = flash_.config().topo;
  Tick done = now;
  std::uint32_t episodes = 0;
  // Planes compact independently and concurrently; the pass finishes when
  // the slowest plane does.
  for (std::uint32_t plane = 0; plane < planes_.size() && episodes < max_episodes;
       ++plane) {
    PlaneState& ps = planes_[plane];
    Tick plane_done = now;
    while (episodes < max_episodes) {
      std::uint32_t victim = find_victim(plane, /*idle=*/true);
      if (victim == kNone) {
        // Closed blocks are clean; seal-and-compact the open (active) block
        // if it is fragmented enough, the way background GC closes open
        // blocks on a real drive. Needs a free block to re-open and spare
        // room for the survivors.
        const BlockState& ab = block(ps, ps.active_block);
        const std::uint32_t spare_room =
            ps.spare_block == kNone
                ? 0
                : topo.pages_per_block - block(ps, ps.spare_block).written;
        if (ab.written == 0 || ab.written - ab.valid < std::max(1u, ab.written / 2) ||
            ab.valid > spare_room || !has_free(ps)) {
          break;
        }
        victim = ps.active_block;
        ps.active_block = pop_free(ps);
      }
      plane_done = gc_block(plane_done, plane, victim);
      ++episodes;
      ++stats_.gc_idle_episodes;
      if (c_gc_idle_ != nullptr) c_gc_idle_->add();
    }
    done = std::max(done, plane_done);
  }
  return done;
}

FtlStats Ftl::stats() const {
  std::uint32_t min_erases = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t max_erases = 0;
  auto fold = [&](const BlockState& bs) {
    min_erases = std::min(min_erases, bs.erases);
    max_erases = std::max(max_erases, bs.erases);
  };
  for (const PlaneState& ps : planes_) {
    // A never-used block has zero erases.
    if (ps.blocks.size() < fresh_end_) min_erases = 0;
    for (const BlockState& bs : ps.blocks) fold(bs);
    if (usable_blocks_ >= 2) fold(ps.initial_spare);
  }
  stats_.min_block_erases = planes_.empty() ? 0 : min_erases;
  stats_.max_block_erases = max_erases;
  stats_.bad_blocks = bbm_.retired_count();
  return stats_;
}

std::uint64_t Ftl::host_capacity_pages() const {
  const auto& topo = flash_.config().topo;
  const std::uint32_t data_blocks = usable_blocks_ >= 2 ? usable_blocks_ - 1 : usable_blocks_;
  return static_cast<std::uint64_t>(planes_.size()) * data_blocks * topo.pages_per_block;
}

std::uint64_t Ftl::physical_of(std::uint64_t lpn) const {
  const auto it = l2p_.find(lpn);
  if (it == l2p_.end()) throw std::out_of_range("Ftl: physical_of unmapped LPN");
  return it->second;
}

Tick Ftl::write_page(Tick now, std::uint64_t lpn, bool over_channel) {
  // Invalidate the previous version.
  const auto old = l2p_.find(lpn);
  if (old != l2p_.end()) {
    const FlashAddress addr = flash_.address_map().from_ppn(old->second);
    const std::uint32_t plane_index = flash_.address_map().plane_index(addr);
    PlaneState& ps = planes_[plane_index];
    const std::uint32_t rel_block = addr.block - reserved_;
    if (rel_block < usable_blocks_ && block(ps, rel_block).valid > 0) {
      --block(ps, rel_block).valid;
    }
    p2l_.erase(old->second);
  }

  ++stats_.host_page_writes;
  if (c_host_writes_ != nullptr) c_host_writes_->add();

  // A program failure retires the target block and re-allocates elsewhere.
  // Failure draws are address-keyed and the cursor moves every attempt, so
  // consecutive attempts are independent; the bound only guards against
  // pathological injection rates.
  constexpr std::uint32_t kMaxProgramAttempts = 8;
  Tick t = now;
  for (std::uint32_t attempt = 0; attempt < kMaxProgramAttempts; ++attempt) {
    auto [ppn, ready] = allocate(t);
    const FlashAddress addr = flash_.address_map().from_ppn(ppn);
    const OpResult pr = flash_.program_page_checked(ready, addr, over_channel);
    t = pr.done;
    if (!pr.failed) {
      l2p_[lpn] = ppn;
      p2l_[ppn] = lpn;
      return t;
    }
    // Unwind the allocation (the page is wasted, not mapped) and retire the
    // block; the next attempt allocates from a different plane.
    const std::uint32_t plane_index = flash_.address_map().plane_index(addr);
    const std::uint32_t rel_block = addr.block - reserved_;
    --block(planes_[plane_index], rel_block).valid;
    retire_block(plane_index, rel_block, reliability::RetireReason::kProgramFail);
  }
  throw std::runtime_error("Ftl: page program failed on every replacement block");
}

Tick Ftl::read_page(Tick now, std::uint64_t lpn, bool over_channel) {
  const auto it = l2p_.find(lpn);
  if (it == l2p_.end()) throw std::out_of_range("Ftl: read of unmapped LPN");
  ++stats_.host_page_reads;
  if (c_host_reads_ != nullptr) c_host_reads_->add();
  const FlashAddress addr = flash_.address_map().from_ppn(it->second);
  const PageReadResult rr = flash_.read_page_checked(now, addr, over_channel);
  // Uncorrectable host reads are rebuilt at the board (RAID-style) — the
  // caller always gets its data, later.
  return rr.uncorrectable ? rr.ready + flash_.config().reliability.recovery_latency
                          : rr.ready;
}

}  // namespace fw::ssd
