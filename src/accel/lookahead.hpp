// Conservative-lookahead window derivation for the parallel DES.
//
// The per-channel shards of sim/parallel_sim.hpp may only exchange events
// with a delay of at least the lookahead, so the window must lower-bound
// every modeled cross-channel interaction. All such paths — foreigner
// forwards through the board accelerator, DRAM walk-buffer traffic, host
// link completions — leave the channel over the ONFI bus (command/address
// overhead, Table III: 200 ns) and touch on-board DRAM (first-access
// tRCD + tCL at the DDR4 command clock: 55 ns) before any other channel
// can observe them. Board-level accelerator work adds at least one guider
// cycle (Table II: 4 ns) on top. ≈ 259 ns with paper defaults — about 65
// of the 4 ns accelerator cycles, comfortably above the cycle-scale
// traffic that dominates each shard's local work.
//
// See docs/MODELING.md "Parallel DES" for the full argument. The engine
// floors every cross-shard handoff to this window (the honest ONFI-command
// + DRAM-hop cost the old zero-latency completions skipped), so the shard
// audit reports zero lookahead violations by construction.
#pragma once

#include "accel/config.hpp"
#include "common/types.hpp"
#include "ssd/config.hpp"

namespace fw::accel {

/// Safe window width for conservative-lookahead execution: minimum
/// cross-channel latency (ONFI transfer + DRAM hop) plus one board guider
/// cycle. Never returns 0 (a degenerate config still yields a 1 ns window).
[[nodiscard]] inline Tick conservative_lookahead_ns(const AccelConfig& accel,
                                                    const ssd::SsdConfig& ssd) {
  const Tick la = ssd.min_cross_channel_ns() + accel.board.guider_cycle;
  return la == 0 ? Tick{1} : la;
}

}  // namespace fw::accel
