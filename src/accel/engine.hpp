// FlashWalkerEngine: the in-storage accelerator hierarchy (paper §III) as a
// deterministic discrete-event simulation over the flash substrate.
//
// Hierarchy and walk flow, as in Fig. 2:
//
//   chip-level accelerators (one per flash chip)
//     load subgraphs from their own planes (no channel-bus transfer — the
//     whole point of the design), update walks, and emit roving walks;
//   channel-level accelerators (one per channel)
//     poll chip roving buffers over the ONFI bus, update walks that land in
//     their hot subgraphs, approximate-search the rest (WQ) and forward
//     them to the board;
//   board-level accelerator
//     directs roving walks (dense-vertex pre-walking, query caches, mapping
//     table), updates walks in its own hot subgraphs, manages the partition
//     walk buffer in on-board DRAM, schedules subgraph loads (Eq. 1), and
//     writes completed/foreigner/overflow walks to flash through the FTL.
//
// Walks execute *real* hops over the real CSR, so visit statistics are
// checkable against the host reference (rw::run_walks); the DES charges
// every hop the cycle/bus/flash costs of Table II/III.
//
// Execution model: the engine always runs on the conservative-lookahead
// parallel DES (sim/parallel_sim). The board residue (scheduler, FTL,
// DRAM, job control, PWB/pending mutation) lives on shard 0; channel c and
// its chips live on shard 1 + c; the board guider pool is split across K
// sub-shards (1 + channels + k) that run per-hop model dispatch, mapping
// lookups, and hot-walk updates off the board shard, returning decisions
// as messages the board applies in (tick, src, seq) merge order. Channel→
// board traffic is coalesced per lookahead window: shards stage drain
// reports, completion batches, and guide batches and ship one aggregated
// message per window (the window-flush hook). Every cross-shard message
// pays at least the lookahead window (accel/lookahead.hpp) as its honest
// ONFI-command + DRAM-hop floor, shard-crossing state is split into
// per-shard sinks merged after the run, and the window/merge schedule is a
// pure function of queue state — so any worker count (sim_threads) yields
// bit-identical results. See docs/MODELING.md "Parallel DES".
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "accel/config.hpp"
#include "accel/metrics.hpp"
#include "accel/scheduler.hpp"
#include "accel/service/job.hpp"
#include "common/assoc_cache.hpp"
#include "common/fifo.hpp"
#include "common/pool.hpp"
#include "common/rng.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "partition/dense_table.hpp"
#include "partition/mapping_table.hpp"
#include "partition/partitioned_graph.hpp"
#include "rw/model/walk_model.hpp"
#include "rw/sampler.hpp"
#include "rw/spec.hpp"
#include "rw/walk.hpp"
#include "sim/parallel_sim.hpp"
#include "sim/resource.hpp"
#include "sim/timeline.hpp"
#include "ssd/dram_banked.hpp"
#include "ssd/flash_array.hpp"
#include "ssd/ftl.hpp"
#include "ssd/graph_layout.hpp"

namespace fw::accel {

struct EngineOptions {
  AccelConfig accel = bench_accel_config();
  ssd::SsdConfig ssd;
  rw::WalkSpec spec;
  /// Multi-job mode: when non-empty, the engine multiplexes these jobs over
  /// the shared hierarchy (each with its own walk model and RNG streams)
  /// and `spec` is ignored. Jobs arrive at their `arrival` ticks, pass
  /// through `policy` admission control, and complete independently. When
  /// empty, `spec` runs as the single implicit job 0.
  std::vector<service::WalkJob> jobs;
  /// Admission control for multi-job runs (all-zero = admit everything).
  service::ServicePolicy policy;
  bool record_visits = true;
  /// Record every walk's vertex sequence (memory ∝ walks x length; meant
  /// for corpus generation and tests, not large sweeps).
  bool record_paths = false;
  /// Count where walks terminate (per-vertex) — the output a Monte-Carlo
  /// PPR consumer reads back from the completed-walk flash region.
  bool record_endpoints = false;
  Tick timeline_interval = 0;  ///< 0 disables Fig-8 sampling
  /// When set, the engine records Chrome trace_event spans (chip/channel/
  /// board unit activity, subgraph loads, FTL GC episodes) and periodic
  /// counter samples into this recorder. Null disables tracing entirely:
  /// every hook is a single pointer test on the hot path. The recorder must
  /// outlive the engine. Tracing requires sim_threads == 1 (the recorder is
  /// a single shared sink); combining it with a concurrent run throws.
  obs::TraceRecorder* trace = nullptr;
  /// Post-run idle-time GC budget (block collections). The FTL compacts
  /// fragmented planes while the device would otherwise sit idle after the
  /// walk workload drains; 0 disables the pass.
  std::uint32_t idle_gc_episodes = 256;
  /// Threads for the parallel DES (the `--sim-threads` CLI knob): N
  /// threads, the caller included. The engine always executes on the
  /// sharded conservative-lookahead simulator (board = shard 0, channel c =
  /// shard 1 + c); this selects how many OS threads drain the shards. The
  /// calling thread is worker 0, and N > 1 adds N - 1 threads that drain
  /// shards concurrently between barriers. Results are bit-identical for
  /// any value (clamped to the shard count) — see docs/MODELING.md
  /// "Parallel DES".
  std::uint32_t sim_threads = 1;
  /// Record the shard audit (per-shard balance, cross-shard traffic,
  /// lookahead-window margins) on the same run and publish it via the
  /// result's `shard_audit` plus the `parallel.*` counters. Pure
  /// observation: execution and all other outputs stay byte-identical.
  bool shard_audit = false;
};

/// Attaches one engine instance to a multi-board array as board `device` of
/// `devices`. The array (accel/array/board_array) owns the shared
/// ParallelSimulator and hands each board a contiguous slice of its global
/// shard space starting at `shard_base`; the engine keeps its internal
/// board-is-local-shard-0 layout and translates through the slice. Walks
/// whose next subgraph lives on a foreign device are staged in a per-
/// destination forwarding buffer and flushed — on reaching `forward_batch`
/// walks or after `forward_timeout_ns` — through the `forward` callback,
/// which the array turns into fabric-shard link traffic. Per-job completion
/// deltas flow through `notify_completed`; the array coordinator (not the
/// board) decides job and run completion and calls array_finish_job /
/// array_finish_run back on each board. The attachment must outlive the
/// engine.
struct ArrayAttachment {
  std::uint32_t device = 0;
  std::uint32_t devices = 1;
  sim::ShardId shard_base = 0;
  sim::ParallelSimulator* psim = nullptr;
  std::uint32_t forward_batch = 32;
  Tick forward_timeout_ns = 20000;
  /// Board shard → fabric: ship a flushed batch to `dst_device`.
  std::function<void(std::uint32_t dst_device, std::vector<rw::Walk> walks)> forward;
  /// Board shard → fabric: per-job walk-completion deltas since last call.
  std::function<void(std::vector<std::pair<std::uint16_t, std::uint64_t>> deltas)>
      notify_completed;
};

/// How the engine's event stream maps onto the conservative-lookahead
/// shards; populated when EngineOptions::shard_audit is set.
struct ShardAuditReport {
  bool enabled = false;
  std::uint32_t shards = 0;
  Tick lookahead_ns = 0;
  std::uint64_t events = 0;
  std::uint64_t max_shard_events = 0;  ///< busiest shard (balance signal)
  std::uint64_t min_shard_events = 0;  ///< idlest shard (imbalance floor)
  std::uint64_t board_events = 0;      ///< shard-0 residue (serial-hub share)
  std::uint64_t local_sends = 0;
  std::uint64_t cross_sends = 0;
  /// Windowed channel→board batching: aggregated flushes sent, and the
  /// individual operations (drain reports, completion batches, guide
  /// batches) they carried. ops / batches is the coalescing factor.
  std::uint64_t board_batches = 0;
  std::uint64_t board_batched_ops = 0;
  Tick min_cross_delay_ns = 0;  ///< 0 when no cross-shard send occurred
  std::uint64_t lookahead_violations = 0;
  /// Board-shard share of all executed events, in parts per million.
  [[nodiscard]] std::uint64_t board_share_ppm() const {
    return events == 0 ? 0 : board_events * 1000000ull / events;
  }
};

struct EngineResult {
  Tick exec_time = 0;
  EngineMetrics metrics;
  ssd::FtlStats ftl;
  /// NAND fault-model totals (all zero when `ssd.reliability` is disabled).
  ssd::ReliabilityStats reliability;

  /// Snapshot of the engine's counter registry (sorted by name): the
  /// hierarchical `chip.*` / `channel.*` / `board.*` / `ftl.*` / `engine.*`
  /// namespace that `--metrics-out` serializes.
  std::vector<obs::CounterSample> counters;

  std::uint64_t flash_read_bytes = 0;
  std::uint64_t flash_write_bytes = 0;
  std::uint64_t channel_bytes = 0;
  std::uint64_t dram_bytes = 0;

  /// Achieved flash read bandwidth over the run (Fig 6 numerator).
  [[nodiscard]] double flash_read_mb_per_s() const {
    return bandwidth_mb_per_s(flash_read_bytes, exec_time);
  }

  std::vector<sim::TimelinePoint> timeline;

  /// Per-chip-accelerator utilization over the run (busy time / exec time),
  /// indexed by global chip. Imbalance here is the straggler signature.
  std::vector<double> chip_utilization;
  [[nodiscard]] double mean_chip_utilization() const {
    if (chip_utilization.empty()) return 0.0;
    double sum = 0;
    for (double u : chip_utilization) sum += u;
    return sum / static_cast<double>(chip_utilization.size());
  }
  [[nodiscard]] double max_chip_utilization() const {
    double m = 0;
    for (double u : chip_utilization) m = std::max(m, u);
    return m;
  }

  std::vector<std::uint64_t> visit_counts;  ///< per-vertex, when recorded
  /// Per-vertex terminal counts, when record_endpoints is set.
  std::vector<std::uint64_t> endpoint_counts;
  /// Per-walk vertex sequences (starting vertex first), when recorded. For
  /// explicit multi-job runs the sequences live in `jobs[j].paths` instead.
  std::vector<std::vector<VertexId>> paths;

  /// Per-job results in submission order: timing/throughput stats always;
  /// per-job output vectors only for explicit multi-job runs.
  std::vector<service::JobResult> jobs;

  /// Shard-audit report (enabled only when EngineOptions::shard_audit).
  ShardAuditReport shard_audit;
};

class FlashWalkerEngine {
 public:
  /// Construction access token: the supported entry points are
  /// accel::SimulationBuilder and service::WalkService, which assemble a
  /// validated EngineOptions and construct through this tag.
  struct BuildAccess {
    explicit BuildAccess() = default;
  };

  FlashWalkerEngine(const partition::PartitionedGraph& pg, EngineOptions options,
                    BuildAccess access);
  /// Array-attached construction: the engine becomes board
  /// `array->device` of an N-board array, running on the array's shared
  /// simulator instead of owning one. `array` may be null (plain
  /// single-device engine) and must otherwise outlive the engine.
  FlashWalkerEngine(const partition::PartitionedGraph& pg, EngineOptions options,
                    const ArrayAttachment* array, BuildAccess access);
  ~FlashWalkerEngine();

  FlashWalkerEngine(const FlashWalkerEngine&) = delete;
  FlashWalkerEngine& operator=(const FlashWalkerEngine&) = delete;

  /// Execute the configured walk workload to completion.
  EngineResult run();

  // --- array integration (accel::array::BoardArray only) ------------------
  // A standalone engine's run() is prime() + simulator run + finalize(); an
  // array-attached board exposes the two halves so the array can prime every
  // board, drive the shared simulator once, then finalize each board. The
  // remaining three are event handlers the array schedules on this board's
  // board shard.
  /// Schedule job arrivals and heartbeat timers (call exactly once, before
  /// the simulator runs).
  void prime();
  /// Merge shard sinks and build the result (call exactly once, after the
  /// simulator has drained).
  EngineResult finalize();
  /// Fabric → board: re-admit a batch of walks forwarded from other boards.
  void receive_forwarded(std::vector<rw::Walk> walks);
  /// Coordinator → board: job `j` completed array-wide at tick `at`.
  void array_finish_job(std::uint16_t j, Tick at);
  /// Coordinator → board: every walk in the array completed at tick `at`.
  void array_finish_run(Tick at);

  [[nodiscard]] const partition::SubgraphMappingTable& mapping_table() const {
    return *mtab_;
  }
  [[nodiscard]] const partition::DenseVertexTable& dense_table() const { return *dtab_; }
  [[nodiscard]] const ssd::GraphLayout& layout() const { return *layout_; }
  /// Live counter registry (fully populated after `run`).
  [[nodiscard]] const obs::CounterRegistry& counters() const { return registry_; }

  /// Local shards one board occupies: board residue (0), one per channel
  /// (1 + c), and the guider-pool sub-shards (1 + channels + k). The array
  /// sizes its global shard space with this.
  [[nodiscard]] static std::uint32_t local_shard_count(const AccelConfig& accel,
                                                       const ssd::SsdConfig& ssd) {
    return 1 + ssd.topo.channels +
           std::max<std::uint32_t>(1, accel.board_guider_shards);
  }

 private:
  struct LoadedSg {
    SubgraphId sg = kInvalidSubgraph;
    std::deque<rw::Walk> queue;
    /// Chip-side: a drain report for this slot is in flight (the board may
    /// already be loading into it). The chip guider skips reported slots —
    /// the concurrent mirror of the serial engine skipping `loading` slots
    /// — so an install can never evict guider-fed walks. Cleared when the
    /// install lands.
    bool reported = false;
  };

  struct ChipState {
    std::uint32_t channel = 0;
    std::uint32_t chip = 0;
    std::uint32_t global = 0;
    std::vector<LoadedSg> slots;
    std::vector<rw::Walk> roving;
    sim::SerialResource unit;
    bool processing = false;
    std::uint32_t rr = 0;
    std::uint64_t updates = 0;     ///< walk updates executed on this chip
    std::uint32_t trace_track = 0; ///< trace lane, valid when tracing
  };

  struct ChannelState {
    std::uint32_t index = 0;
    std::vector<LoadedSg> hot;
    sim::SerialResource unit;
    /// Channel-owned ONFI lane charging the roving pulls this channel's
    /// accelerator issues itself. Board-issued traffic (loads, walk
    /// fetches) stays on the FlashArray's per-channel links; the two are
    /// separate FIFOs, a deliberate concession so no bus model is written
    /// from two shards (docs/MODELING.md "Parallel DES").
    sim::BandwidthLink bus{0, 0};
    bool processing = false;
    std::uint32_t rr = 0;
    std::uint64_t updates = 0;
    std::uint32_t trace_track = 0;
  };

  struct BoardState {
    std::vector<LoadedSg> hot;
    /// Guide buffer. Arriving batches and partitions' pending lists join
    /// it as chunks, without a copy, and each chunk is freed as it drains.
    Fifo<rw::Walk> guide;
    /// Dispatch pass and load scheduling; the guider sub-shards own the
    /// routing and updater units.
    sim::SerialResource guider_unit;
    bool guiding = false;
    bool updating = false;
    std::uint64_t foreigner_buffered_bytes = 0;
    std::uint64_t completed_buffered_bytes = 0;
    std::uint32_t rr = 0;
    std::uint32_t guider_track = 0;
    std::uint32_t updater_track = 0;
  };

  /// Board-side replica of one chip slot: the scheduler grants loads
  /// against this view because it cannot read chip-owned queue state
  /// across the shard boundary. `loading` covers dispatch → install;
  /// `empty` is the board's belief that the slot holds no queued walks
  /// (refreshed by chip idle reports).
  struct SlotView {
    SubgraphId sg = kInvalidSubgraph;
    bool loading = false;
    bool empty = true;
  };
  struct ChipView {
    std::vector<SlotView> slots;
    std::uint64_t completed_buffered_bytes = 0;
  };

  /// One staged channel→board operation. Channel shards stage these in
  /// their sink instead of sending one cross-shard event each; the shard's
  /// window-flush hook ships the whole window's worth as a single
  /// aggregated message delivered at the latest staged arrival tick, and
  /// the board applies them in staged order.
  struct BoardOp {
    enum class Kind : std::uint8_t {
      kDrained,    ///< chip slot drained (origin = global chip, slot)
      kCompleted,  ///< completed-walk batch (origin = chip or kBoardOrigin)
      kGuide,      ///< walks for the board guide buffer
    };
    Kind kind = Kind::kGuide;
    std::uint32_t origin = 0;
    std::uint32_t slot = 0;
    Tick at = 0;  ///< intended arrival tick (the un-batched send time)
    std::vector<rw::Walk> walks;
  };

  /// One board guider/updater sub-shard (local shard 1 + channels + k): a
  /// slice of the board's guider pool and updater array with its own serial
  /// units and query caches. Sub-shard handlers read only immutable
  /// structures (graph, mapping/dense tables, hot-slot identities fixed at
  /// load time) plus this private state; every mutation of board residue
  /// state (PWB, pending lists, job control) travels back to shard 0 as a
  /// decision message and applies in (tick, src, seq) merge order.
  struct GuiderShard {
    sim::SerialResource guider_unit;
    sim::SerialResource updater_unit;
    std::vector<std::unique_ptr<AssocCacheModel>> caches;
    std::uint64_t cache_rr = 0;
    std::uint64_t epoch = 0;    ///< partition epoch the caches are valid for
    std::uint64_t updates = 0;  ///< board-updater hops executed here
  };

  /// Sub-shard → board routing verdict for one walk. Capacity-dependent
  /// choices (hot queue space) are re-validated against live state on the
  /// board when the decision applies.
  struct RouteDecision {
    enum class Action : std::uint8_t {
      kHot,      ///< walk_in_sg matched board hot slot `hot_slot`
      kLocal,    ///< mapped to subgraph `target`
      kForeign,  ///< whole tagged range lives in foreign partition `pid`
      kDevice,   ///< partition `pid` lives on another board of the array
    };
    rw::Walk w;
    Action action = Action::kLocal;
    std::uint32_t hot_slot = 0;
    SubgraphId target = kInvalidSubgraph;
    PartitionId pid = 0;
  };

  /// Per-shard accumulation state: every counter or pool an event handler
  /// mutates that is not owned by exactly one shard's model objects. One
  /// instance per shard (board = 0, channel c = 1 + c), written only by
  /// that shard's handlers, folded into the run totals by merge_sinks().
  /// Cache-line aligned so neighbouring shards don't false-share.
  struct alignas(64) ShardSink {
    EngineMetrics metrics;
    std::vector<std::uint64_t> job_hops;  ///< per job, sized up front
    VectorPool<rw::Walk> walk_pool;
    bool done = false;  ///< quiesce flag, set by the board's broadcast
    /// Channel→board ops staged this window (channel shards only); always
    /// empty at window barriers — the flush hook drains it every window.
    std::vector<BoardOp> board_stage;
    std::uint64_t board_batches = 0;      ///< aggregated flushes sent
    std::uint64_t board_batched_ops = 0;  ///< ops carried inside them
    // Shard-audit tallies (written only when EngineOptions::shard_audit).
    std::uint64_t local_sends = 0;
    std::uint64_t cross_sends = 0;
    std::uint64_t lookahead_violations = 0;
    Tick min_cross_delay = std::numeric_limits<Tick>::max();
  };

  /// Result of updating one walk (shared by all three levels).
  struct HopOutcome {
    bool completed = false;
    std::uint32_t extra_cycles = 0;  ///< ITS search steps etc.
  };

  /// Per-job runtime state: workload + walk model + progress counters +
  /// timing marks.
  struct JobRt {
    service::WalkJob job;
    /// The job's walk model (resolved from the registry at construction);
    /// every per-hop decision for this job's walks dispatches through it.
    std::unique_ptr<const rw::WalkModel> model;
    std::uint64_t expected = 0;   ///< walks this job will start
    std::uint64_t started = 0;
    std::uint64_t completed = 0;
    std::uint64_t hops = 0;
    std::uint64_t parked = 0;
    std::uint32_t walk_base = 0;  ///< global walk-id offset of local walk 0
    /// spec.length as the hop counter's start value (rw::hop_count).
    std::uint16_t start_hops = 0;
    bool admitted = false;
    Tick admit_tick = 0;
    Tick done_tick = 0;
    /// Explicit-jobs runs with record_visits only: sized at admission and
    /// counted into by every hop-executing shard (see count_visit).
    std::vector<std::uint64_t> visits;
    std::vector<std::uint64_t> endpoints;  ///< explicit-jobs runs only
  };

  // --- setup / job lifecycle ---------------------------------------------
  void arrive_job(std::uint16_t j);
  void admit_job(std::uint16_t j);
  void finish_job(JobRt& jc);
  void drain_admit_queue();
  void inject_admitted_walks();
  [[nodiscard]] service::JobStats job_stats(const JobRt& jc) const;
  [[nodiscard]] const rw::WalkSpec& spec_of(const rw::Walk& w) const {
    return jobs_[w.job].job.spec;
  }
  [[nodiscard]] const rw::WalkModel& model_of(const rw::Walk& w) const {
    return *jobs_[w.job].model;
  }
  void begin_partition(PartitionId p, bool charge_io);
  void load_hot_subgraphs();
  void schedule_heartbeats();

  // --- walk updating -----------------------------------------------------
  /// Advance `w` one hop. Sampling draws come from the walk's own RNG
  /// stream (`w.rng_state`), so the resulting path is independent of the
  /// order in which the DES interleaves walks. Progress counters go into
  /// the executing shard's sink.
  HopOutcome update_walk(rw::Walk& w, const partition::Subgraph& sg, ShardSink& sink);
  HopOutcome update_walk_step(rw::Walk& w, const partition::Subgraph& sg,
                              ShardSink& sink, Xoshiro256& rng);

  // --- chip level (channel shard) ----------------------------------------
  void kick_chip(ChipState& c);
  void process_chip(ChipState& c);
  /// Chip → board: send a drain report for every empty, not-yet-reported
  /// slot so the board can grant loads into it. Per-slot reporting keeps
  /// the load cadence close to the serial engine's (a slot becomes
  /// grantable the moment it drains, one handoff later), instead of
  /// batching everything behind whole-chip idle.
  void report_drained_slots(ChipState& c);

  // --- board-side load path ----------------------------------------------
  void board_slot_drained(std::uint32_t g, std::size_t slot_idx);
  void board_request_loads(std::uint32_t g);
  void start_load(std::uint32_t g, std::size_t slot_idx, SubgraphId sg,
                  std::uint32_t compare_ops);

  // --- channel level (channel shard) -------------------------------------
  void poll_channel(ChannelState& ch);
  void receive_roving(ChannelState& ch, std::vector<rw::Walk> walks);
  void kick_channel(ChannelState& ch);
  void process_channel(ChannelState& ch);

  // --- board level (board shard) -----------------------------------------
  void enqueue_board(std::vector<rw::Walk> walks);
  /// A partition's pending list joins the guide buffer chunk by chunk.
  void enqueue_board(Fifo<rw::Walk>&& walks);
  void kick_board_guider();
  void process_board_guider();
  void kick_board_updater();
  void process_board_updater();
  /// Channel/chip → board: a batch of walks finished at `origin` (a global
  /// chip id, or kBoardOrigin for channel-level completions).
  void board_receive_completed(std::uint32_t origin, std::vector<rw::Walk> walks);

  // --- windowed channel→board batching -------------------------------------
  /// Stage one channel→board operation in shard `src`'s sink; the shard's
  /// window-flush hook ships the window's accumulated ops as one message.
  void stage_board_op(sim::ShardId src, BoardOp op);
  /// Window-flush hook body: one aggregated xsend per window per shard,
  /// delivered at the latest staged arrival tick.
  void flush_board_stage(sim::ShardId src);
  /// Board shard: apply a flushed window batch in staged order.
  void apply_board_batch(std::vector<BoardOp> ops);

  // --- sharded board guider/updater pool ------------------------------------
  [[nodiscard]] std::uint32_t guider_pool_shards() const {
    return static_cast<std::uint32_t>(gshards_.size());
  }
  [[nodiscard]] sim::ShardId guider_shard_id(std::uint32_t k) const {
    return 1 + static_cast<sim::ShardId>(channels_.size()) + k;
  }
  /// Deterministic (job, walk-batch) partition: which sub-shard routes `w`.
  /// A pure function of walk identity, so the assignment — and with it the
  /// event schedule — is invariant under worker count and timing.
  [[nodiscard]] std::uint32_t guider_shard_of(const rw::Walk& w) const {
    const std::uint32_t batch = std::max<std::uint32_t>(1, opt_.accel.batch_walks);
    return (w.job + w.id / batch) % guider_pool_shards();
  }
  /// Sub-shard k: route a dispatched chunk (dense pre-walk, hot membership,
  /// range check against the snapshot partition `part`, mapping lookup via
  /// the sub-shard's private caches), charge the chunk on the sub-shard's
  /// guider slice, and send the decisions back to the board.
  void guide_route_chunk(std::uint32_t k, PartitionId part, std::uint64_t epoch,
                         std::vector<rw::Walk> walks);
  /// Pure routing verdict for one walk (sub-shard compute half of the old
  /// board_route_walk). Mutates only `w` (pre-walk), the sub-shard's private
  /// cache state, and `sink`/`cycles` tallies.
  RouteDecision route_decide(rw::Walk w, PartitionId part, GuiderShard& g,
                             ShardSink& sink, std::uint64_t& cycles);
  /// The routing tail past the hot set: range check against partition
  /// `part`, then the mapping lookup, through `g`'s query caches when a
  /// sub-shard routes (null: uncached). Returns a kLocal, kForeign or
  /// kDevice verdict and tallies into `sink` and `cycles`.
  RouteDecision route_past_hot(const rw::Walk& w, PartitionId part, GuiderShard* g,
                               ShardSink& sink, std::uint64_t& cycles);
  /// Board shard: apply a chunk's decisions in arrival order (PWB inserts,
  /// hot placement with live capacity check — a full queue sends the walk
  /// through route_past_hot uncached and uncharged — foreigner/forward
  /// placement, then load grants for the touched chips).
  void apply_route_decisions(std::vector<RouteDecision> decs);
  /// Place a routed walk: PWB when its partition is current, forward when
  /// another board owns it, foreigner-park otherwise.
  void place_routed(SubgraphId target, const rw::Walk& w,
                    std::vector<std::uint32_t>& touched_chips);
  /// Foreigner placement: pending list + buffered-bytes accounting + flush.
  void park_foreigner(PartitionId pid, const rw::Walk& w);
  /// Sub-shard k: run one hot-slot batch through update_walk on the
  /// sub-shard's updater slice; completed/to-guide splits return to board.
  void update_board_chunk(std::uint32_t k, SubgraphId sgid,
                          std::vector<rw::Walk> walks);
  /// Board shard: complete finished walks, re-enqueue the rest.
  void apply_board_updates(std::vector<rw::Walk> completed,
                           std::vector<rw::Walk> to_guide);

  // --- cross-device forwarding (array-attached boards only) ---------------
  /// True when partition `p`'s walks execute on this board. Always true for
  /// a standalone engine.
  [[nodiscard]] bool owns_partition(PartitionId p) const {
    return array_ == nullptr ||
           partition::device_of_partition(p, array_->devices) == array_->device;
  }
  /// Board shard: stage `w` (headed for foreign partition `pid`) in the
  /// forwarding buffer of its home device; flushes on batch size, arms the
  /// timeout on the buffer's 0 → 1 transition.
  void forward_walk(PartitionId pid, const rw::Walk& w);
  /// Serialize-and-ship one destination's forwarding buffer to the fabric.
  void flush_forward(std::uint32_t dst);
  /// Push per-job completion deltas accumulated by complete_walk to the
  /// array coordinator (no-op when clean or standalone).
  void array_flush_completions();

  // --- shared helpers ----------------------------------------------------
  /// Round-robin pick: the first slot at or after `rr` whose queue holds
  /// walks, moving `rr` just past it. Null when every queue is empty.
  static LoadedSg* next_busy_slot(std::vector<LoadedSg>& slots, std::uint32_t& rr);
  void complete_walk(const rw::Walk& w, std::uint64_t& completed_bytes,
                     std::uint64_t flush_cap);
  void flush_walk_pages(std::uint64_t bytes, std::uint64_t& counter);
  void insert_pwb(SubgraphId sg, rw::Walk w, std::vector<std::uint32_t>& touched_chips);
  void maybe_switch_partition();
  void check_done();
  /// Board → all channel shards: the run is over; stop polling and kicking.
  void broadcast_done();
  /// Fold every shard sink into the global totals (metrics_ and job hops).
  /// Deterministic: plain sums in shard order.
  void merge_sinks();
  [[nodiscard]] std::uint32_t chip_of_sg(SubgraphId sg) const;
  [[nodiscard]] bool walk_in_sg(const rw::Walk& w, const partition::Subgraph& sg) const;
  [[nodiscard]] std::uint64_t wbytes() const { return walk_bytes_; }

  /// Fold run totals (per-unit update counts, busy times, byte counters,
  /// scheduler work) into the counter registry; called once at end of run.
  void publish_counters(const ShardAuditReport& audit);

  // --- parallel-DES shard facade -----------------------------------------
  /// Home shards: the board (plus every other shared resource — DRAM, FTL,
  /// host link, job control) is shard 0; channel c and its chips are 1 + c.
  static constexpr sim::ShardId kBoardShard = 0;
  /// `origin` sentinel for board_receive_completed: channel-level finish.
  static constexpr std::uint32_t kBoardOrigin =
      std::numeric_limits<std::uint32_t>::max();
  [[nodiscard]] static sim::ShardId chip_shard(const ChipState& c) {
    return 1 + c.channel;
  }
  [[nodiscard]] static sim::ShardId channel_shard(const ChannelState& ch) {
    return 1 + ch.index;
  }
  /// Translate a board-local shard id (0 = board, 1 + c = channel c) into
  /// the owning simulator's global shard. Standalone engines own their
  /// simulator, so the slice starts at 0 and the mapping is the identity;
  /// array-attached boards add the slice base the array assigned them.
  [[nodiscard]] sim::Shard& shard(sim::ShardId s) {
    return psim_->shard(shard_base_ + s);
  }
  [[nodiscard]] std::uint32_t num_local_shards() const {
    return static_cast<std::uint32_t>(sinks_.size());
  }
  /// Board clock — the timeline every board-owned model charges against.
  [[nodiscard]] Tick bnow() const {
    return psim_->shard(shard_base_ + kBoardShard).now();
  }
  /// Same-shard schedule, `delay` ns from the shard clock.
  void sched(sim::ShardId s, Tick delay, sim::EventFn fn);
  /// Same-shard schedule at absolute tick `at` (clamped to the shard clock).
  void sched_at(sim::ShardId s, Tick at, sim::EventFn fn);
  /// Cross-shard send targeting absolute tick `at`, floored to the honest
  /// handoff cost (>= the lookahead window) so it always clears the
  /// conservative window — the shard audit must report zero violations.
  void xsend(sim::ShardId src, sim::ShardId dst, Tick at, sim::EventFn fn);

  // --- members -----------------------------------------------------------
  const partition::PartitionedGraph* pg_;
  EngineOptions opt_;
  Tick handoff_ns_ = 0;  ///< cross-shard floor == conservative lookahead
  /// Array attachment (null for a standalone engine). Non-owning; the
  /// array keeps it alive for the engine's lifetime.
  const ArrayAttachment* array_ = nullptr;
  sim::ShardId shard_base_ = 0;  ///< first global shard of this board's slice
  /// ParallelSimulator owned by a standalone engine; empty when array-attached.
  std::unique_ptr<sim::ParallelSimulator> owned_psim_;
  /// The simulator events actually run on: owned_psim_ or the array's.
  sim::ParallelSimulator* psim_ = nullptr;
  std::unique_ptr<ssd::FlashArray> flash_;
  std::unique_ptr<ssd::GraphLayout> layout_;
  std::unique_ptr<ssd::Ftl> ftl_;
  std::unique_ptr<ssd::BankedDram> dram_;
  std::unique_ptr<partition::SubgraphMappingTable> mtab_;
  std::unique_ptr<partition::DenseVertexTable> dtab_;
  std::unique_ptr<SubgraphScheduler> scheduler_;
  std::unique_ptr<rw::ItsTable> its_;

  std::vector<ChipState> chips_;
  std::vector<ChannelState> channels_;
  BoardState board_;
  std::vector<GuiderShard> gshards_;  ///< board guider pool, one per sub-shard
  std::vector<ChipView> chip_views_;  ///< board-side slot residency replica
  std::vector<ShardSink> sinks_;      ///< one per shard, single writer each

  static constexpr std::uint64_t kDramLineBytes = 64;
  /// Chips fed by the decisions apply_route_decisions is applying (board
  /// shard only; emptied at the end of each call, its capacity reused).
  std::vector<std::uint32_t> touched_chips_;
  std::vector<std::vector<rw::Walk>> pwb_walks_;   // per subgraph (current partition)
  std::vector<std::uint32_t> pwb_wc_bytes_;        // write-combining residue per entry
  std::vector<std::vector<rw::Walk>> fl_walks_;    // per subgraph, resident in flash
  std::vector<Fifo<rw::Walk>> pending_;            // per partition (foreign / future)

  // Job table (always at least the implicit job 0), in submission order.
  std::vector<JobRt> jobs_;
  bool explicit_jobs_ = false;     ///< EngineOptions::jobs was non-empty
  bool track_job_outputs_ = false; ///< record per-job visits/endpoints/paths
  bool track_job_visits_ = false;  ///< track_job_outputs_ && record_visits
  std::uint64_t total_expected_ = 0;
  std::uint32_t admitted_jobs_ = 0;
  std::uint32_t running_jobs_ = 0;
  std::deque<std::uint16_t> admit_queue_;  ///< arrived, awaiting a slot
  bool partition_started_ = false;
  bool hot_loaded_ = false;

  EngineMetrics metrics_;  ///< run totals, valid after merge_sinks()
  obs::CounterRegistry registry_;
  /// Per-vertex visit counts (record_visits). One vector for the whole run,
  /// counted into by every hop-executing shard (see count_visit), so its
  /// memory does not grow with the shard count.
  std::vector<std::uint64_t> visits_;
  std::vector<std::uint64_t> endpoints_;
  std::vector<std::vector<VertexId>> paths_;
  std::unique_ptr<sim::TimelineRecorder> timeline_;

  // Cross-device forwarding state (board shard only; sized iff array-attached).
  std::vector<std::vector<rw::Walk>> fwd_buf_;  ///< per destination device
  std::vector<std::uint64_t> fwd_epoch_;  ///< bumped per flush; stales timeouts
  std::vector<std::uint64_t> completion_delta_;  ///< per job, un-notified
  bool completion_dirty_ = false;
  bool primed_ = false;
  bool finalized_ = false;

  PartitionId current_partition_ = 0;
  std::uint64_t active_walks_ = 0;  ///< unfinished walks owned by current partition
  std::uint64_t walk_bytes_ = 0;
  std::uint64_t flush_lpn_ = 0;     ///< rolling logical page for walk flushes
  std::uint64_t flush_window_ = 1;  ///< LPN window size for walk flushes
  std::uint64_t partition_epoch_ = 0;  ///< bumped per switch; stales sub caches
  std::uint32_t upd_rr_ = 0;  ///< round-robin updater-chunk dispatch
  bool done_ = false;
  Tick done_tick_ = 0;  ///< when the final walk completed (== exec time)
};

}  // namespace fw::accel
