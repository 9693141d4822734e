#include "accel/engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <iterator>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>

#include "accel/lookahead.hpp"
#include "common/stats.hpp"
#include "rw/model/registry.hpp"

namespace fw::accel {
namespace {

/// Comparator-tree depth for matching against `n` loaded subgraphs.
std::uint32_t match_cycles(std::size_t n) {
  return n == 0 ? 1 : static_cast<std::uint32_t>(std::bit_width(n));
}

/// One visit into a tally every hop-executing shard shares. Relaxed adds
/// suffice: the tallies are read only after the run's workers have joined,
/// and integer sums do not depend on the order the shards add in, so the
/// counts are identical for any worker count.
void count_visit(std::uint64_t& tally) {
  std::atomic_ref<std::uint64_t>(tally).fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

FlashWalkerEngine::FlashWalkerEngine(const partition::PartitionedGraph& pg,
                                     EngineOptions options, BuildAccess access)
    : FlashWalkerEngine(pg, std::move(options), nullptr, access) {}

FlashWalkerEngine::FlashWalkerEngine(const partition::PartitionedGraph& pg,
                                     EngineOptions options, const ArrayAttachment* array,
                                     BuildAccess /*access*/)
    : pg_(&pg), opt_(std::move(options)), array_(array) {
  // Build the job table: the explicit job list, or `spec` as implicit job 0.
  explicit_jobs_ = !opt_.jobs.empty();
  track_job_outputs_ = explicit_jobs_;
  std::vector<service::WalkJob> job_defs;
  if (explicit_jobs_) {
    job_defs = opt_.jobs;
  } else {
    service::WalkJob j;
    j.name = "default";
    j.spec = opt_.spec;
    job_defs.push_back(std::move(j));
  }
  if (opt_.policy.max_jobs > 0 && job_defs.size() > opt_.policy.max_jobs) {
    throw std::invalid_argument("FlashWalkerEngine: job count exceeds policy.max_jobs");
  }
  if (job_defs.size() >
      static_cast<std::size_t>(std::numeric_limits<std::uint16_t>::max())) {
    throw std::invalid_argument("FlashWalkerEngine: too many jobs");
  }
  bool any_weights = false;
  bool any_labels = false;
  std::uint64_t max_state_bytes = 0;
  jobs_.reserve(job_defs.size());
  for (auto& def : job_defs) {
    JobRt jc;
    jc.job = std::move(def);
    // Resolve the job's walk model from the registry; throws for an
    // unknown model name or invalid model parameters.
    jc.model = rw::create_model(jc.job.spec);
    jc.start_hops = rw::hop_count(jc.job.spec.length);
    if (jc.job.weight == 0) jc.job.weight = service::qos_weight(jc.job.qos);
    jc.expected = service::expected_walks(jc.job.spec, pg.graph().num_vertices());
    jc.walk_base = static_cast<std::uint32_t>(total_expected_);
    total_expected_ += jc.expected;
    any_weights |= jc.model->needs_weights();
    any_labels |= jc.model->needs_labels();
    max_state_bytes = std::max(max_state_bytes, jc.model->state_bytes(pg.id_bytes()));
    jobs_.push_back(std::move(jc));
  }
  if (any_labels && !pg.graph().labeled()) {
    throw std::invalid_argument("metapath walk requires a labeled graph");
  }
  if (total_expected_ > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("FlashWalkerEngine: total walk count overflows walk ids");
  }
  if (opt_.policy.max_total_walks > 0 && total_expected_ > opt_.policy.max_total_walks) {
    throw std::invalid_argument(
        "FlashWalkerEngine: total walk count exceeds policy.max_total_walks");
  }

  flash_ = std::make_unique<ssd::FlashArray>(opt_.ssd);
  layout_ = std::make_unique<ssd::GraphLayout>(pg, opt_.ssd);
  flash_->attach_observability(&registry_);
  ftl_ = std::make_unique<ssd::Ftl>(*flash_, layout_->reserved_blocks_per_plane());
  ftl_->attach_observability(&registry_, opt_.trace);
  // Walk flushes cycle through a bounded LPN window sized well under the
  // FTL's spare capacity, so steady flushing overwrites (and invalidates)
  // earlier pages instead of marching through fresh LPNs forever — that is
  // what gives garbage collection something to reclaim.
  flush_window_ = std::clamp<std::uint64_t>(ftl_->host_capacity_pages() / 3, 1, 1024);
  dram_ = std::make_unique<ssd::BankedDram>(opt_.ssd.dram);
  mtab_ = std::make_unique<partition::SubgraphMappingTable>(pg, layout_->first_pages());
  dtab_ = std::make_unique<partition::DenseVertexTable>(pg);

  const auto& topo = opt_.ssd.topo;
  scheduler_ = std::make_unique<SubgraphScheduler>(pg, *layout_, opt_.accel,
                                                   topo.total_chips(),
                                                   topo.chips_per_channel);
  if (jobs_.size() > 1) {
    // Multi-job runs turn on the weighted-fair pick policy; single-job runs
    // keep the exact paper pick sequence.
    std::vector<std::uint32_t> weights;
    weights.reserve(jobs_.size());
    for (const JobRt& jc : jobs_) weights.push_back(jc.job.weight);
    scheduler_->configure_jobs(std::move(weights));
  }
  if (any_weights) {
    if (!pg.graph().weighted()) {
      throw std::invalid_argument("biased walk requires a weighted graph");
    }
    its_ = std::make_unique<rw::ItsTable>(pg.graph());
  }
  // The board guider pool: K sub-shards, each owning an equal slice of the
  // guiders/updaters and of the query caches. Entry: the mapping-table
  // fields a cached lookup short-circuits.
  gshards_.resize(std::max<std::uint32_t>(1, opt_.accel.board_guider_shards));
  const std::uint32_t caches_per_shard = std::max<std::uint32_t>(
      1, opt_.accel.query_cache_count /
             static_cast<std::uint32_t>(gshards_.size()));
  for (GuiderShard& g : gshards_) {
    for (std::uint32_t i = 0; i < caches_per_shard; ++i) {
      g.caches.push_back(std::make_unique<AssocCacheModel>(
          opt_.accel.query_cache_bytes, 2 * pg.id_bytes() + 8));
    }
  }

  // Model-carried state (prev vertex, residual register, ...) rides with
  // every walk, charged uniformly at the max over co-scheduled jobs.
  walk_bytes_ = rw::walk_bytes(pg.id_bytes()) + max_state_bytes;

  const std::uint64_t block_cap = pg.config().block_capacity_bytes;
  const auto chip_slots = std::max<std::uint64_t>(
      1, opt_.accel.chip.subgraph_buffer_bytes / block_cap);
  chips_.resize(topo.total_chips());
  for (std::uint32_t g = 0; g < chips_.size(); ++g) {
    ChipState& c = chips_[g];
    c.global = g;
    c.channel = g / topo.chips_per_channel;
    c.chip = g % topo.chips_per_channel;
    c.slots.resize(chip_slots);
  }
  channels_.resize(topo.channels);
  for (std::uint32_t i = 0; i < channels_.size(); ++i) {
    channels_[i].index = i;
    // Channel-owned roving lane, same ONFI parameters as the FlashArray's
    // per-channel links (see ChannelState::bus for why it is separate).
    channels_[i].bus = sim::BandwidthLink(opt_.ssd.timing.channel_mb_per_s,
                                          opt_.ssd.timing.channel_cmd_overhead);
  }
  chip_views_.resize(chips_.size());
  for (auto& v : chip_views_) v.slots.resize(chip_slots);

  pwb_walks_.resize(pg.num_subgraphs());
  pwb_wc_bytes_.assign(pg.num_subgraphs(), 0);
  fl_walks_.resize(pg.num_subgraphs());
  pending_.resize(pg.num_partitions());
  if (opt_.record_visits) visits_.assign(pg.graph().num_vertices(), 0);
  if (opt_.record_endpoints) endpoints_.assign(pg.graph().num_vertices(), 0);
  // Walk ids are global (job walk_base + local index), so the path table can
  // be sized up front even though jobs are admitted at different times.
  if (opt_.record_paths) paths_.resize(total_expected_);
  if (opt_.timeline_interval > 0) {
    timeline_ = std::make_unique<sim::TimelineRecorder>(opt_.timeline_interval);
  }
  if (opt_.trace != nullptr) {
    for (auto& c : chips_) {
      c.trace_track =
          opt_.trace->register_track("chip", "chip." + std::to_string(c.global));
    }
    for (auto& ch : channels_) {
      ch.trace_track =
          opt_.trace->register_track("channel", "channel." + std::to_string(ch.index));
    }
    board_.guider_track = opt_.trace->register_track("board", "guider");
    board_.updater_track = opt_.trace->register_track("board", "updater");
  }

  // The sharded DES: board residue = shard 0, channel c (and its chips) =
  // 1 + c, guider-pool sub-shard k = 1 + channels + k. Cross-shard messages
  // pay at least the conservative-lookahead window as their honest
  // ONFI-command + DRAM-hop cost, so every send clears it.
  track_job_visits_ = track_job_outputs_ && opt_.record_visits;
  sinks_ = std::vector<ShardSink>(local_shard_count(opt_.accel, opt_.ssd));
  for (auto& sink : sinks_) sink.job_hops.assign(jobs_.size(), 0);
  handoff_ns_ = conservative_lookahead_ns(opt_.accel, opt_.ssd);
  if (opt_.trace != nullptr && opt_.sim_threads > 1) {
    throw std::invalid_argument(
        "FlashWalkerEngine: tracing requires sim_threads == 1 (the trace "
        "recorder is a single shared sink)");
  }
  if (array_ == nullptr) {
    owned_psim_ = std::make_unique<sim::ParallelSimulator>(
        num_local_shards(), handoff_ns_,
        std::max<std::uint32_t>(1, opt_.sim_threads));
    psim_ = owned_psim_.get();
  } else {
    // Array-attached board: run on the array's shared simulator inside the
    // shard slice it assigned us. The board keeps full walk/visit tables
    // (walk ids are global across the array) but only ever starts, loads,
    // and schedules partitions it owns.
    if (array_->psim == nullptr || !array_->forward || !array_->notify_completed) {
      throw std::invalid_argument(
          "FlashWalkerEngine: array attachment needs a simulator and fabric "
          "callbacks");
    }
    if (array_->device >= array_->devices) {
      throw std::invalid_argument("FlashWalkerEngine: array device out of range");
    }
    if (opt_.trace != nullptr) {
      throw std::invalid_argument(
          "FlashWalkerEngine: tracing is limited to single-device runs");
    }
    if (opt_.record_paths) {
      throw std::invalid_argument(
          "FlashWalkerEngine: record_paths is limited to single-device runs "
          "(a forwarded walk's path would be split across boards)");
    }
    psim_ = array_->psim;
    shard_base_ = array_->shard_base;
    if (psim_->num_shards() < shard_base_ + num_local_shards()) {
      throw std::invalid_argument(
          "FlashWalkerEngine: array shard slice exceeds the shared simulator");
    }
    if (psim_->lookahead() > handoff_ns_) {
      throw std::invalid_argument(
          "FlashWalkerEngine: array lookahead exceeds the board handoff floor");
    }
    fwd_buf_.resize(array_->devices);
    fwd_epoch_.assign(array_->devices, 0);
    completion_delta_.assign(jobs_.size(), 0);
    // Annotate the mapping table with the array's device column so lookups,
    // the routing filter, and the SRAM area accounting all share one
    // device-assignment source of truth.
    mtab_->assign_devices(pg, array_->devices);
  }

  // Windowed board batching: each channel shard flushes its staged
  // channel→board ops once per lookahead window as a single aggregated
  // message. The hook cadence is a pure function of the window schedule,
  // so batching is invariant under the worker count.
  for (std::uint32_t c = 0; c < channels_.size(); ++c) {
    const sim::ShardId cs = 1 + c;
    shard(cs).set_window_flush(
        [this, cs](sim::Shard&) { flush_board_stage(cs); });
  }
}

FlashWalkerEngine::~FlashWalkerEngine() = default;

std::uint32_t FlashWalkerEngine::chip_of_sg(SubgraphId sg) const {
  const auto& p = layout_->placement(sg);
  return p.channel * opt_.ssd.topo.chips_per_channel + p.chip;
}

bool FlashWalkerEngine::walk_in_sg(const rw::Walk& w, const partition::Subgraph& sg) const {
  if (sg.dense) return w.prewalked_sg == sg.id;
  return w.prewalked_sg == kInvalidSubgraph && w.cur >= sg.low_vid && w.cur <= sg.high_vid;
}

// ---------------------------------------------------------------------------
// Parallel-DES shard facade
// ---------------------------------------------------------------------------

void FlashWalkerEngine::sched(sim::ShardId s, Tick delay, sim::EventFn fn) {
  if (opt_.shard_audit) ++sinks_[s].local_sends;
  shard(s).schedule(delay, std::move(fn));
}

void FlashWalkerEngine::sched_at(sim::ShardId s, Tick at, sim::EventFn fn) {
  if (opt_.shard_audit) ++sinks_[s].local_sends;
  shard(s).schedule_at(at, std::move(fn));
}

void FlashWalkerEngine::xsend(sim::ShardId src, sim::ShardId dst, Tick at,
                              sim::EventFn fn) {
  const Tick now = shard(src).now();
  Tick delay = at > now ? at - now : Tick{0};
  // The honest handoff floor: any cross-shard interaction rides the ONFI
  // command path and touches board DRAM, which is exactly what the
  // conservative lookahead lower-bounds — so the floored delay always
  // clears the window and the audit must report zero violations.
  if (delay < handoff_ns_) delay = handoff_ns_;
  if (opt_.shard_audit) {
    ShardSink& sink = sinks_[src];
    ++sink.cross_sends;
    sink.min_cross_delay = std::min(sink.min_cross_delay, delay);
    if (delay < psim_->lookahead()) ++sink.lookahead_violations;
  }
  shard(src).send(shard_base_ + dst, delay, std::move(fn));
}

// ---------------------------------------------------------------------------
// Setup / job lifecycle
// ---------------------------------------------------------------------------

service::JobStats FlashWalkerEngine::job_stats(const JobRt& jc) const {
  service::JobStats s;
  s.id = static_cast<service::JobId>(&jc - jobs_.data());
  s.name = jc.job.name;
  s.qos = jc.job.qos;
  s.weight = jc.job.weight;
  s.walks = jc.completed;
  s.steps = jc.hops;
  s.parked_walks = jc.parked;
  s.arrival = jc.job.arrival;
  s.admitted = jc.admit_tick;
  s.completed = jc.done_tick;
  return s;
}

void FlashWalkerEngine::arrive_job(std::uint16_t j) {
  if (opt_.policy.max_concurrent_jobs > 0 &&
      running_jobs_ >= opt_.policy.max_concurrent_jobs) {
    admit_queue_.push_back(j);  // FIFO: admitted as running jobs finish
    return;
  }
  admit_job(j);
}

void FlashWalkerEngine::admit_job(std::uint16_t j) {
  JobRt& jc = jobs_[j];
  jc.admitted = true;
  jc.admit_tick = bnow();
  ++admitted_jobs_;
  ++running_jobs_;
  if (!hot_loaded_) {
    load_hot_subgraphs();  // global hot sets, loaded once per run
    hot_loaded_ = true;
  }
  if (track_job_outputs_ && opt_.record_endpoints) {
    jc.endpoints.assign(pg_->graph().num_vertices(), 0);
  }
  // Sized before the job's first walk exists; hops on any shard count into
  // it from then on.
  if (track_job_visits_) jc.visits.assign(pg_->graph().num_vertices(), 0);

  const auto& spec = jc.job.spec;
  const VertexId n = pg_->graph().num_vertices();
  // Start-vertex draws come from a job-local generator and the per-walk
  // streams are keyed off (job seed, local walk id), so a job's walk output
  // is bit-identical whether it runs alone or co-scheduled.
  std::uint32_t local = 0;
  auto start_walk = [&](VertexId v) {
    const std::uint32_t idx = local++;
    // Every board of an array enumerates every walk in the same global
    // order (ids and RNG streams are array-wide invariants), but a walk
    // starts only on the board that owns its start partition; the rest of
    // the array sees it later, if ever, as forwarded traffic.
    const SubgraphId sg = pg_->subgraph_of(v);
    const PartitionId part = pg_->partition_of(sg);
    if (!owns_partition(part)) return;
    rw::Walk w;
    w.id = jc.walk_base + idx;
    w.job = j;
    w.src = v;
    w.cur = v;
    w.state = jc.model->init_state();
    w.hops_left = jc.start_hops;
    // Per-walk stream, same derivation as the host reference walker: the
    // walk's path is a pure function of (seed, id), independent of how the
    // DES interleaves updates — fault-induced reordering and co-scheduled
    // jobs cannot change it.
    w.rng_state = spec.seed ^ (0x9E3779B97F4A7C15ull * (idx + 1));
    ++sinks_[kBoardShard].metrics.walks_started;
    if (opt_.record_paths) paths_[w.id].push_back(v);
    pending_[part].push_back(w);
  };

  Xoshiro256 job_rng(spec.seed);
  switch (spec.start_mode) {
    case rw::StartMode::kAllVertices:
      for (VertexId v = 0; v < n; ++v) start_walk(v);
      break;
    case rw::StartMode::kUniformRandom:
      for (std::uint64_t i = 0; i < spec.num_walks; ++i) start_walk(job_rng.bounded(n));
      break;
    case rw::StartMode::kSingleSource:
      for (std::uint64_t i = 0; i < spec.num_walks; ++i) start_walk(spec.source);
      break;
  }
  jc.started = local;
  if (jc.expected == 0) {
    // Standalone: the empty job completes on the spot. Array-attached: the
    // coordinator observes the zero expected count and broadcasts the
    // finish, keeping every board's admission bookkeeping in lockstep.
    if (array_ == nullptr) finish_job(jc);
    return;
  }
  inject_admitted_walks();
}

void FlashWalkerEngine::finish_job(JobRt& jc) {
  jc.done_tick = bnow();
  // Board-visible lower bound for the completion callback; the exact
  // all-shard total replaces it in merge_sinks after the run.
  jc.hops = sinks_[kBoardShard].job_hops[static_cast<std::size_t>(&jc - jobs_.data())];
  --running_jobs_;
  if (jc.job.on_complete) jc.job.on_complete(job_stats(jc));
  drain_admit_queue();
}

void FlashWalkerEngine::drain_admit_queue() {
  // A freed slot admits queued jobs (FIFO) before anything else runs.
  while (!admit_queue_.empty() &&
         (opt_.policy.max_concurrent_jobs == 0 ||
          running_jobs_ < opt_.policy.max_concurrent_jobs)) {
    const std::uint16_t next = admit_queue_.front();
    admit_queue_.pop_front();
    admit_job(next);
  }
}

void FlashWalkerEngine::array_finish_job(std::uint16_t j, Tick at) {
  // Coordinator broadcast: job `j`'s final walk completed somewhere in the
  // array at tick `at`. Every board records the same completion tick and
  // frees the admission slot at the same local tick, so queued-job admission
  // stays in lockstep across boards. on_complete fires at the coordinator
  // (it alone sees array-wide stats), not here.
  JobRt& jc = jobs_[j];
  jc.done_tick = at;
  jc.hops = sinks_[kBoardShard].job_hops[j];
  --running_jobs_;
  drain_admit_queue();
}

void FlashWalkerEngine::array_finish_run(Tick at) {
  if (done_) return;
  done_ = true;
  done_tick_ = at;
  broadcast_done();
}

void FlashWalkerEngine::inject_admitted_walks() {
  if (!partition_started_) {
    // First admission: start with the first partition that has walks.
    for (PartitionId p = 0; p < pg_->num_partitions(); ++p) {
      if (!pending_[p].empty()) {
        partition_started_ = true;
        begin_partition(p, /*charge_io=*/false);
        return;
      }
    }
    return;
  }
  // A partition is (or was) active: walks that landed in it enter the board
  // directly; the rest wait in pending_ for their partition's turn.
  auto& cur = pending_[current_partition_];
  if (!cur.empty()) {
    active_walks_ += cur.size();
    enqueue_board(std::move(cur));
  } else {
    maybe_switch_partition();
  }
}

void FlashWalkerEngine::load_hot_subgraphs() {
  // Hot sets are global (paper §III.C: "top K among subgraphs stored in
  // flash chips connected to the channel" — no partition qualifier), so
  // they are selected and loaded once per run, and hot-subgraph walks are
  // updatable regardless of the current partition.
  board_.hot.clear();
  if (!opt_.accel.features.hot_subgraphs) return;

  const std::uint64_t block_cap = pg_->config().block_capacity_bytes;

  // Non-dense candidates only: dense blocks are routed via pre-walking and
  // must be loaded where the chosen block lives. An array-attached board
  // restricts the candidate set to partitions it owns — a foreign hot
  // subgraph would swallow walks that must instead cross the fabric to
  // their home board.
  std::vector<SubgraphId> part_sgs;
  for (SubgraphId sg = 0; sg < pg_->num_subgraphs(); ++sg) {
    if (pg_->subgraph(sg).dense) continue;
    if (!owns_partition(pg_->partition_of(sg))) continue;
    part_sgs.push_back(sg);
  }

  // Every hot load's flash traffic is charged here on the board shard (the
  // board orchestrates the loads); channel hot lists then cross to their
  // home shards with the handoff floor. Roving walks that race ahead of
  // the list simply pass through to the board — deterministic either way.
  auto charge_load = [&](SubgraphId sg) {
    const auto& place = layout_->placement(sg);
    flash_->read_chip_pages(bnow(), place.channel, place.chip, place.start_plane,
                            place.num_pages, /*over_channel=*/true);
    ++sinks_[kBoardShard].metrics.hot_subgraph_loads;
  };

  const auto board_k = std::max<std::uint64_t>(
      1, opt_.accel.board.subgraph_buffer_bytes / block_cap);
  for (SubgraphId sg : pg_->top_k_popular(part_sgs, board_k)) {
    LoadedSg slot;
    slot.sg = sg;
    board_.hot.push_back(std::move(slot));
    charge_load(sg);
  }

  const auto chan_k = std::max<std::uint64_t>(
      1, opt_.accel.channel.subgraph_buffer_bytes / block_cap);
  for (auto& ch : channels_) {
    std::vector<SubgraphId> local;
    for (SubgraphId sg : part_sgs) {
      if (layout_->placement(sg).channel == ch.index) local.push_back(sg);
    }
    auto top = pg_->top_k_popular(local, chan_k);
    if (top.empty()) continue;
    for (SubgraphId sg : top) charge_load(sg);
    xsend(kBoardShard, channel_shard(ch), bnow(),
          [this, &ch, list = std::move(top)] {
      for (SubgraphId sg : list) {
        LoadedSg slot;
        slot.sg = sg;
        ch.hot.push_back(std::move(slot));
      }
    });
  }
}

void FlashWalkerEngine::begin_partition(PartitionId p, bool charge_io) {
  current_partition_ = p;
  scheduler_->begin_partition(p);
  // Partition switch replaces the mapping entries the query caches index.
  // The caches live on the guider sub-shards, so the epoch bump rides the
  // next dispatch message and each sub-shard clears lazily on observing it
  // (no cross-shard write here; switches only happen with no decisions in
  // flight — active_walks_ gates maybe_switch_partition).
  ++partition_epoch_;

  Fifo<rw::Walk>& walks = pending_[p];
  if (walks.empty()) return;
  active_walks_ += walks.size();

  if (charge_io) {
    // Pending walks were flushed to flash when they became foreigners; read
    // them back (striped pages over one channel, round-robin by partition).
    const std::uint64_t bytes = walks.size() * wbytes();
    const auto pages = static_cast<std::uint32_t>(
        (bytes + opt_.ssd.topo.page_bytes - 1) / opt_.ssd.topo.page_bytes);
    const std::uint32_t channel = p % opt_.ssd.topo.channels;
    flash_->read_chip_pages(bnow(), channel, 0, 0, pages, /*over_channel=*/true);
  }
  enqueue_board(std::move(walks));
}

void FlashWalkerEngine::schedule_heartbeats() {
  for (auto& ch : channels_) {
    sched(channel_shard(ch), opt_.accel.roving_poll_interval,
          [this, &ch] { poll_channel(ch); });
  }
  if (timeline_) {
    // Samplers live on the board shard: they read board-owned models plus
    // the board sink's progress counters. Channel-lane bus bytes are folded
    // in post-run only, so mid-run channel-byte samples reflect the board's
    // view of the FlashArray links.
    const Tick interval = timeline_->interval();
    auto tick = [this, interval](auto&& self) -> void {
      timeline_->sample(bnow(), flash_->read_bytes(), flash_->programmed_bytes(),
                        flash_->channel_bytes(),
                        flash_->read_bytes() + flash_->programmed_bytes() +
                            flash_->channel_bytes() + dram_->bytes_moved(),
                        sinks_[kBoardShard].metrics.walks_completed,
                        sinks_[kBoardShard].metrics.walks_started);
      if (!done_) {
        sched(kBoardShard, interval, [self]() mutable { self(self); });
      }
    };
    sched(kBoardShard, interval, [tick]() mutable { tick(tick); });
  }
  if (opt_.trace != nullptr) {
    // Periodic counter samples give the trace its progress overlays. Reuse
    // the Fig-8 cadence when timeline sampling is on; otherwise sample at a
    // coarse multiple of the roving poll so the overhead stays negligible.
    const Tick interval = opt_.timeline_interval > 0
                              ? opt_.timeline_interval
                              : opt_.accel.roving_poll_interval * 64;
    auto sample = [this, interval](auto&& self) -> void {
      const Tick now = bnow();
      opt_.trace->counter("engine.walks_completed", now,
                          sinks_[kBoardShard].metrics.walks_completed);
      opt_.trace->counter("flash.read_bytes", now, flash_->read_bytes());
      opt_.trace->counter("flash.write_bytes", now, flash_->programmed_bytes());
      opt_.trace->counter("dram.bytes", now, dram_->bytes_moved());
      if (!done_) {
        sched(kBoardShard, interval, [self]() mutable { self(self); });
      }
    };
    sched(kBoardShard, interval, [sample]() mutable { sample(sample); });
  }
}

// ---------------------------------------------------------------------------
// Walk updating (shared step 2-6 logic)
// ---------------------------------------------------------------------------

FlashWalkerEngine::HopOutcome FlashWalkerEngine::update_walk(
    rw::Walk& w, const partition::Subgraph& sg, ShardSink& sink) {
  Xoshiro256 wrng(w.rng_state);
  w.parked = false;  // the walk made progress; it may park again next hop
  const HopOutcome out = update_walk_step(w, sg, sink, wrng);
  // One state derivation per hop, however many draws the hop consumed.
  w.rng_state = wrng.next();
  return out;
}

FlashWalkerEngine::HopOutcome FlashWalkerEngine::update_walk_step(
    rw::Walk& w, const partition::Subgraph& sg, ShardSink& sink, Xoshiro256& rng) {
  HopOutcome out;
  // Per-hop decisions dispatch through the owning job's walk model, so
  // co-scheduled jobs each run their own model over the shared hierarchy.
  const rw::WalkModel& model = model_of(w);
  if (model.stop_before_hop(w, rng)) {
    out.completed = true;
    return out;
  }

  // Gather: the candidate slice the resident subgraph exposes — the walk
  // vertex's full adjacency, or the resident sub-slice of a dense vertex.
  const auto& g = pg_->graph();
  rw::Gather gv;
  gv.dense = sg.dense;
  gv.begin = sg.dense ? sg.edge_begin : g.offsets()[w.cur];
  gv.end = sg.dense ? sg.edge_end : g.offsets()[VertexId{w.cur} + 1];
  gv.vertex_first_edge = sg.dense ? g.offsets()[sg.low_vid] : gv.begin;

  const rw::SampleResult s = model.sample(g, its_.get(), gv, w, rng);
  out.extra_cycles = s.search_steps;

  if (s.next == kInvalidVertex) {
    if (spec_of(w).dead_end == rw::WalkSpec::DeadEnd::kRestart) {
      // Restart-at-source consumes the hop but revisits nothing (matches
      // rw::run_walks); the walk then routes onward from its source. Model
      // state is deliberately left untouched (pre-plugin behavior).
      w.cur = w.src;
      w.prewalked_sg = kInvalidSubgraph;
      w.range_tag = rw::kNoRangeTag;
      --w.hops_left;
      if (opt_.record_paths) paths_[w.id].push_back(w.cur);
      out.completed = w.finished();
      return out;
    }
    ++sink.metrics.dead_ends;
    out.completed = true;
    return out;
  }
  // Update: the model advances its carried state (still seeing w.cur as the
  // hop's origin) and may terminate the walk early (per-walk stop criteria).
  const rw::WalkModel::Verdict verdict = model.update(w, s.next);
  w.cur = s.next;
  w.prewalked_sg = kInvalidSubgraph;
  w.range_tag = rw::kNoRangeTag;
  --w.hops_left;
  ++sink.metrics.total_hops;
  ++sink.job_hops[w.job];
  if (opt_.record_visits) count_visit(visits_[s.next]);
  if (track_job_visits_) count_visit(jobs_[w.job].visits[s.next]);
  if (opt_.record_paths) paths_[w.id].push_back(s.next);
  out.completed = verdict == rw::WalkModel::Verdict::kTerminate || w.finished();
  return out;
}

// ---------------------------------------------------------------------------
// Shared routing helpers (board shard)
// ---------------------------------------------------------------------------

void FlashWalkerEngine::flush_walk_pages(std::uint64_t bytes, std::uint64_t& counter) {
  const std::uint32_t page = opt_.ssd.topo.page_bytes;
  const std::uint64_t pages = (bytes + page - 1) / page;
  for (std::uint64_t i = 0; i < pages; ++i) {
    // Rolling LPN window (sized in the constructor from FTL capacity): later
    // flushes overwrite older (already consumed) walk pages, invalidating
    // them so FTL garbage collection has blocks to reclaim.
    ftl_->write_page(bnow(), flush_lpn_);
    flush_lpn_ = (flush_lpn_ + 1) % flush_window_;
    ++counter;
  }
}

void FlashWalkerEngine::complete_walk(const rw::Walk& w, std::uint64_t& completed_bytes,
                                      std::uint64_t flush_cap) {
  ++sinks_[kBoardShard].metrics.walks_completed;
  if (!endpoints_.empty()) ++endpoints_[w.cur];
  --active_walks_;
  completed_bytes += wbytes();
  if (completed_bytes >= flush_cap) {
    flush_walk_pages(completed_bytes, sinks_[kBoardShard].metrics.completed_flush_pages);
    completed_bytes = 0;
  }
  JobRt& jc = jobs_[w.job];
  if (!jc.endpoints.empty()) ++jc.endpoints[w.cur];
  ++jc.completed;
  if (array_ != nullptr) {
    // Array-attached: a board sees only its slice of the job, so completion
    // decisions belong to the coordinator. Deltas batch up per caller (see
    // array_flush_completions call sites) to keep fabric chatter bounded.
    completion_delta_[w.job] += 1;
    completion_dirty_ = true;
    return;
  }
  if (jc.completed == jc.expected) finish_job(jc);
  check_done();
}

void FlashWalkerEngine::insert_pwb(SubgraphId sg, rw::Walk w,
                                   std::vector<std::uint32_t>& touched_chips) {
  ShardSink& bsink = sinks_[kBoardShard];
  pwb_walks_[sg].push_back(w);
  scheduler_->on_walk_insert(sg, w.job);
  ++bsink.metrics.pwb_inserts;
  // Appends are write-combined through a board SRAM line buffer: DRAM sees
  // one (row-buffer-hostile, which the banked model charges for) 64 B line
  // write per ~6 walks, not one random access per walk.
  pwb_wc_bytes_[sg] += wbytes();
  if (pwb_wc_bytes_[sg] >= kDramLineBytes) {
    pwb_wc_bytes_[sg] -= kDramLineBytes;
    const std::uint64_t addr = static_cast<std::uint64_t>(sg) * opt_.accel.pwb_entry_bytes +
                               pwb_walks_[sg].size() * wbytes();
    dram_->access(bnow(), addr, kDramLineBytes);
  }
  touched_chips.push_back(chip_of_sg(sg));

  // Dense entries store walks without `cur` (implied by the entry), so the
  // same byte budget holds more dense walks — the β asymmetry of Eq. 1.
  const std::uint64_t entry_bytes =
      pwb_walks_[sg].size() * rw::walk_bytes(pg_->id_bytes(), pg_->subgraph(sg).dense);
  if (entry_bytes >= opt_.accel.pwb_entry_bytes) {
    // Entry overflow: the entry's walks move to flash (paper §III.D).
    auto& fl = fl_walks_[sg];
    const std::uint64_t n = pwb_walks_[sg].size();
    fl.insert(fl.end(), pwb_walks_[sg].begin(), pwb_walks_[sg].end());
    pwb_walks_[sg].clear();
    scheduler_->on_entry_flushed(sg, n);
    flush_walk_pages(n * wbytes(), bsink.metrics.overflow_flush_pages);
    ++bsink.metrics.pwb_overflow_events;
    bsink.metrics.pwb_overflow_walks += n;
  }
}

FlashWalkerEngine::RouteDecision FlashWalkerEngine::route_decide(
    rw::Walk w, PartitionId part, GuiderShard& g, ShardSink& sink,
    std::uint64_t& cycles) {
  RouteDecision d;
  SubgraphId target = w.prewalked_sg;

  if (target == kInvalidSubgraph) {
    // Dense-vertex check runs first (paper: "looks up the dense vertices
    // mapping table before the subgraph mapping table").
    ++cycles;  // Bloom probe
    ++sink.metrics.bloom_lookups;
    const auto dres = dtab_->lookup(w.cur);
    if (dres.bloom_positive) {
      ++cycles;  // hash-table probe
      if (dres.bloom_false_positive) ++sink.metrics.bloom_false_positives;
    }
    if (dres.meta) {
      // Pre-walking: choose the destination graph block before the hop. The
      // draw comes from the walk's own stream (it picks part of the walk's
      // path), so the choice survives any event-ordering perturbation.
      ++cycles;
      Xoshiro256 wrng(w.rng_state);
      const auto& meta = *dres.meta;
      std::uint32_t block;
      if (model_of(w).needs_weights()) {
        // Biased pre-walk: block chosen proportionally to its weight mass.
        const auto& gr = pg_->graph();
        const EdgeId first_edge = gr.offsets()[w.cur];
        const EdgeId last_edge = gr.offsets()[VertexId{w.cur} + 1];
        const double total = its_->cumulative_weight(last_edge - 1);
        const double rnd = wrng.uniform() * total;
        // Binary search over block boundaries.
        std::uint32_t lo = 0, hi = meta.num_blocks;
        while (lo + 1 < hi) {
          ++cycles;
          const std::uint32_t mid = lo + (hi - lo) / 2;
          const EdgeId bound = first_edge +
                               static_cast<EdgeId>(mid) * pg_->edges_per_block();
          if (rnd < its_->cumulative_weight(bound - 1)) {
            hi = mid;
          } else {
            lo = mid;
          }
        }
        block = lo;
      } else {
        const std::uint64_t rnd = rw::prewalk_draw(meta.out_degree, wrng);
        block = rw::prewalk_block_choice(rnd, pg_->edges_per_block());
      }
      block = std::min(block, meta.num_blocks - 1);
      target = meta.first_sgid + block;
      w.prewalked_sg = target;
      w.rng_state = wrng.next();
      ++sink.metrics.dense_prewalks;
    }
  }

  if (target != kInvalidSubgraph) {
    d.w = w;  // pre-walked: the chosen block is the target
    d.target = target;
    return d;
  }

  // Hot-subgraph short circuit (HS). Slot identities are fixed at load
  // time, so membership is decidable here; queue capacity is live board
  // state and is re-checked when the decision applies.
  if (opt_.accel.features.hot_subgraphs && !board_.hot.empty()) {
    cycles += match_cycles(board_.hot.size());
    for (std::size_t i = 0; i < board_.hot.size(); ++i) {
      if (walk_in_sg(w, pg_->subgraph(board_.hot[i].sg))) {
        d.w = w;
        d.action = RouteDecision::Action::kHot;
        d.hot_slot = static_cast<std::uint32_t>(i);
        return d;
      }
    }
  }
  return route_past_hot(w, part, &g, sink, cycles);
}

FlashWalkerEngine::RouteDecision FlashWalkerEngine::route_past_hot(
    const rw::Walk& w, PartitionId part, GuiderShard* g, ShardSink& sink,
    std::uint64_t& cycles) {
  RouteDecision d;
  d.w = w;
  // Channel-attached range tags double as a foreigner check (paper
  // §III.C): if the whole tagged range lies in another partition, the
  // walk goes straight to the foreigner buffer — no mapping search. A
  // sub-shard compares against the snapshot partition its dispatch carried;
  // switches are blocked while decisions are in flight, so the snapshot
  // always equals the live partition at apply time.
  if (opt_.accel.features.walk_query && w.range_tag != rw::kNoRangeTag) {
    ++cycles;
    const auto [first, count] = mtab_->range_span(w.range_tag);
    const PartitionId pid_lo = pg_->partition_of(mtab_->entries()[first].sgid);
    const PartitionId pid_hi =
        pg_->partition_of(mtab_->entries()[first + count - 1].sgid);
    if (pid_lo == pid_hi && pid_lo != part) {
      ++sink.metrics.range_foreigner_hints;
      d.pid = pid_lo;
      d.action = owns_partition(pid_lo) ? RouteDecision::Action::kForeign
                                        : RouteDecision::Action::kDevice;
      return d;
    }
  }

  // Subgraph mapping lookup, narrowed to the tagged range under WQ and,
  // when a sub-shard routes, accelerated by its private query-cache slice.
  const partition::Lookup lookup =
      opt_.accel.features.walk_query && w.range_tag != rw::kNoRangeTag
          ? mtab_->find_in_range(w.cur, w.range_tag)
          : mtab_->find(w.cur);
  const bool cached = g != nullptr && opt_.accel.features.walk_query;
  if (cached && g->caches[g->cache_rr++ % g->caches.size()]->access(lookup.sgid)) {
    ++cycles;
    ++sink.metrics.query_cache_hits;
  } else {
    if (cached) ++sink.metrics.query_cache_misses;
    cycles += lookup.steps;
    sink.metrics.mapping_search_steps += lookup.steps;
  }
  if (!lookup.found()) {
    throw std::logic_error("route_past_hot: mapping lookup failed");
  }
  d.target = lookup.sgid;
  return d;
}

void FlashWalkerEngine::park_foreigner(PartitionId pid, const rw::Walk& w) {
  // Foreigner: buffered, flushed to flash when the buffer fills, and
  // revisited when its partition becomes current.
  ShardSink& bsink = sinks_[kBoardShard];
  pending_[pid].push_back(w);
  --active_walks_;
  ++bsink.metrics.foreigner_walks;
  board_.foreigner_buffered_bytes += wbytes();
  if (board_.foreigner_buffered_bytes >= opt_.accel.foreigner_buffer_bytes) {
    flush_walk_pages(board_.foreigner_buffered_bytes,
                     bsink.metrics.foreigner_flush_pages);
    board_.foreigner_buffered_bytes = 0;
  }
}

void FlashWalkerEngine::place_routed(SubgraphId target, const rw::Walk& w,
                                     std::vector<std::uint32_t>& touched_chips) {
  const PartitionId pid = pg_->partition_of(target);
  if (pid == current_partition_) {
    insert_pwb(target, w, touched_chips);
  } else if (!owns_partition(pid)) {
    // The walk's next subgraph lives on another board: stage it for the
    // host fabric instead of the local foreigner buffer.
    forward_walk(pid, w);
  } else {
    park_foreigner(pid, w);
  }
}

void FlashWalkerEngine::apply_route_decisions(std::vector<RouteDecision> decs) {
  for (RouteDecision& d : decs) {
    if (d.action == RouteDecision::Action::kHot) {
      LoadedSg& slot = board_.hot[d.hot_slot];
      const std::uint64_t cap =
          opt_.accel.board.walk_queue_bytes /
          std::max<std::uint64_t>(1, board_.hot.size() * wbytes());
      if (slot.queue.size() < cap) {
        slot.queue.push_back(d.w);
        continue;
      }
      // The hot queue filled while this decision was in flight: route past
      // the hot set, as the serial guider's fall-through did. The lookup
      // runs uncached (the query caches live on the sub-shards) and its
      // cycles are not charged: the chunk already paid its guider time, and
      // this path fires at most once per capacity race.
      std::uint64_t uncharged = 0;
      d = route_past_hot(d.w, current_partition_, nullptr, sinks_[kBoardShard],
                         uncharged);
    }
    switch (d.action) {
      case RouteDecision::Action::kHot:
        break;  // queued above
      case RouteDecision::Action::kLocal:
        place_routed(d.target, d.w, touched_chips_);
        break;
      case RouteDecision::Action::kForeign:
        park_foreigner(d.pid, d.w);
        break;
      case RouteDecision::Action::kDevice:
        forward_walk(d.pid, d.w);
        break;
    }
  }
  // Re-run the load granter for every chip this chunk fed: chips holding
  // walks are already processing (they kick themselves); idle chips get
  // their loads granted from the board-side slot views.
  for (std::uint32_t g : touched_chips_) board_request_loads(g);
  touched_chips_.clear();
  kick_board_updater();
  kick_board_guider();
  maybe_switch_partition();
}

// ---------------------------------------------------------------------------
// Cross-device forwarding (board shard, array-attached only)
// ---------------------------------------------------------------------------

void FlashWalkerEngine::forward_walk(PartitionId pid, const rw::Walk& w) {
  ShardSink& bsink = sinks_[kBoardShard];
  const std::uint32_t dst = partition::device_of_partition(pid, array_->devices);
  --active_walks_;
  ++bsink.metrics.forwarded_out_walks;
  bsink.metrics.forwarded_bytes += wbytes();
  auto& buf = fwd_buf_[dst];
  buf.push_back(w);
  if (buf.size() >= array_->forward_batch) {
    flush_forward(dst);
    return;
  }
  if (buf.size() == 1) {
    // First walk in an empty buffer arms the flush timeout, so a straggler
    // that never fills a batch still leaves within forward_timeout_ns. The
    // epoch stamp stales the timer if a size-triggered flush beats it.
    const std::uint64_t epoch = fwd_epoch_[dst];
    sched(kBoardShard, array_->forward_timeout_ns, [this, dst, epoch] {
      if (fwd_epoch_[dst] == epoch && !fwd_buf_[dst].empty()) {
        ++sinks_[kBoardShard].metrics.forward_timeout_flushes;
        flush_forward(dst);
      }
    });
  }
}

void FlashWalkerEngine::flush_forward(std::uint32_t dst) {
  ++fwd_epoch_[dst];
  auto batch = std::move(fwd_buf_[dst]);
  fwd_buf_[dst].clear();
  ++sinks_[kBoardShard].metrics.forward_batches;
  // Serializing the batch out of board DRAM before it crosses the host link.
  dram_->access(bnow(), static_cast<std::uint64_t>(dst) * opt_.accel.pwb_entry_bytes,
                batch.size() * wbytes());
  array_->forward(dst, std::move(batch));
}

void FlashWalkerEngine::array_flush_completions() {
  if (array_ == nullptr || !completion_dirty_) return;
  completion_dirty_ = false;
  std::vector<std::pair<std::uint16_t, std::uint64_t>> deltas;
  for (std::size_t j = 0; j < completion_delta_.size(); ++j) {
    if (completion_delta_[j] == 0) continue;
    deltas.emplace_back(static_cast<std::uint16_t>(j), completion_delta_[j]);
    completion_delta_[j] = 0;
  }
  array_->notify_completed(std::move(deltas));
}

void FlashWalkerEngine::receive_forwarded(std::vector<rw::Walk> walks) {
  ShardSink& bsink = sinks_[kBoardShard];
  bsink.metrics.forwarded_in_walks += walks.size();
  for (const rw::Walk& w : walks) {
    // Re-admission with foreigner-buffer semantics: the walk lands in its
    // partition's pending list and, unless that partition is being worked
    // on right now, charges the board's foreigner buffer like any other
    // out-of-partition walk.
    const SubgraphId sg =
        w.prewalked_sg != kInvalidSubgraph ? w.prewalked_sg : pg_->subgraph_of(w.cur);
    const PartitionId pid = pg_->partition_of(sg);
    pending_[pid].push_back(w);
    if (!partition_started_ || pid != current_partition_) {
      board_.foreigner_buffered_bytes += wbytes();
      if (board_.foreigner_buffered_bytes >= opt_.accel.foreigner_buffer_bytes) {
        flush_walk_pages(board_.foreigner_buffered_bytes,
                         bsink.metrics.foreigner_flush_pages);
        board_.foreigner_buffered_bytes = 0;
      }
    }
  }
  inject_admitted_walks();
}

// ---------------------------------------------------------------------------
// Chip level (channel shard)
// ---------------------------------------------------------------------------

FlashWalkerEngine::LoadedSg* FlashWalkerEngine::next_busy_slot(
    std::vector<LoadedSg>& slots, std::uint32_t& rr) {
  for (std::size_t i = 0; i < slots.size(); ++i) {
    LoadedSg& s = slots[(rr + i) % slots.size()];
    if (!s.queue.empty()) {
      rr = static_cast<std::uint32_t>((rr + i + 1) % slots.size());
      return &s;
    }
  }
  return nullptr;
}

void FlashWalkerEngine::kick_chip(ChipState& c) {
  if (sinks_[chip_shard(c)].done) return;
  report_drained_slots(c);
  if (c.processing) return;
  const bool has_walks = std::any_of(c.slots.begin(), c.slots.end(),
                                     [](const LoadedSg& s) { return !s.queue.empty(); });
  if (!has_walks) return;
  c.processing = true;
  sched_at(chip_shard(c), std::max(shard(chip_shard(c)).now(), c.unit.busy_until()),
           [this, &c] { process_chip(c); });
}

void FlashWalkerEngine::report_drained_slots(ChipState& c) {
  if (sinks_[chip_shard(c)].done) return;
  const std::uint32_t g = c.global;
  for (std::size_t i = 0; i < c.slots.size(); ++i) {
    LoadedSg& s = c.slots[i];
    if (!s.queue.empty() || s.reported) continue;
    s.reported = true;
    // Staged, not sent: the window-flush hook coalesces every drained-slot
    // report the shard produced this window into one board message.
    stage_board_op(chip_shard(c),
                   BoardOp{BoardOp::Kind::kDrained, g,
                           static_cast<std::uint32_t>(i),
                           shard(chip_shard(c)).now(), {}});
  }
}

void FlashWalkerEngine::process_chip(ChipState& c) {
  c.processing = false;
  LoadedSg* slot = next_busy_slot(c.slots, c.rr);
  if (slot == nullptr) {
    report_drained_slots(c);
    return;
  }

  ShardSink& sink = sinks_[chip_shard(c)];
  const std::uint64_t roving_cap =
      std::max<std::uint64_t>(1, opt_.accel.chip.roving_buffer_bytes / wbytes());
  const auto& sg = pg_->subgraph(slot->sg);
  const Tick ucycle = opt_.accel.chip.updater_cycle;
  const Tick gcycle = opt_.accel.chip.guider_cycle;

  Tick cost = 0;
  std::uint32_t processed = 0;
  bool stalled = false;
  std::vector<rw::Walk> completed = sink.walk_pool.acquire();
  while (processed < opt_.accel.batch_walks && !slot->queue.empty()) {
    if (c.roving.size() >= roving_cap) {
      stalled = true;  // roving buffer full: wait for the channel poll
      break;
    }
    rw::Walk w = slot->queue.front();
    slot->queue.pop_front();
    ++processed;

    const HopOutcome hop = update_walk(w, sg, sink);
    cost += (5 + hop.extra_cycles) * ucycle;
    ++sink.metrics.chip_updates;
    ++c.updates;

    if (hop.completed) {
      completed.push_back(w);  // finishes at the board (shared FTL/DRAM path)
      continue;
    }

    // Guider: compare against the chip's loaded subgraphs. Walks landing on
    // a dense vertex always rove — the board must pre-walk them — and no
    // regular subgraph's vertex range holds a dense vertex.
    cost += match_cycles(c.slots.size()) * gcycle;
    LoadedSg* dest = nullptr;
    for (auto& s : c.slots) {
      if (!s.reported && s.sg != kInvalidSubgraph && !pg_->subgraph(s.sg).dense &&
          walk_in_sg(w, pg_->subgraph(s.sg))) {
        dest = &s;
        break;
      }
    }
    if (dest != nullptr) {
      dest->queue.push_back(w);
    } else {
      c.roving.push_back(w);
    }
  }

  if (processed == 0) {
    // Stalled before doing any work (roving buffer full): stay idle and let
    // the next channel poll drain the buffer and re-kick us.
    sink.walk_pool.release(std::move(completed));
    return;
  }
  (void)stalled;
  const Tick completion = c.unit.acquire(shard(chip_shard(c)).now(), cost);
  if (opt_.trace != nullptr && cost > 0) {
    opt_.trace->complete(c.trace_track, "update", completion - cost, completion,
                         processed, "walks");
  }
  if (!completed.empty()) {
    stage_board_op(chip_shard(c),
                   BoardOp{BoardOp::Kind::kCompleted, c.global, 0, completion,
                           std::move(completed)});
  } else {
    sink.walk_pool.release(std::move(completed));
  }
  c.processing = true;
  sched_at(chip_shard(c), completion, [this, &c] {
    c.processing = false;
    kick_chip(c);
  });
}

// ---------------------------------------------------------------------------
// Board-side load path
// ---------------------------------------------------------------------------

void FlashWalkerEngine::board_slot_drained(std::uint32_t g, std::size_t slot_idx) {
  // The chip consumed everything the board installed into this slot (and
  // its guider will not refill it while the report is outstanding), so the
  // slot is a safe load target. A grant dispatched before this report
  // landed keeps the slot `loading`; the belief refreshes at install time.
  SlotView& s = chip_views_[g].slots[slot_idx];
  if (!s.loading) s.empty = true;
  board_request_loads(g);
}

void FlashWalkerEngine::board_request_loads(std::uint32_t g) {
  ChipView& cv = chip_views_[g];
  for (std::size_t i = 0; i < cv.slots.size(); ++i) {
    SlotView& slot = cv.slots[i];
    if (slot.loading || !slot.empty) continue;
    auto eligible = [&](SubgraphId sg) {
      for (const SlotView& s : cv.slots) {
        if (s.loading && s.sg == sg) return false;
      }
      return true;
    };
    const auto pick = scheduler_->pick_for_chip(g, eligible);
    if (!pick) break;  // nothing pending for this chip
    sinks_[kBoardShard].metrics.scheduler_compare_ops += pick->compare_ops;
    // If the subgraph is already resident in another slot, refresh that
    // slot (walk fetch only, no flash page reads).
    std::size_t target = i;
    for (std::size_t j = 0; j < cv.slots.size(); ++j) {
      if (!cv.slots[j].loading && cv.slots[j].sg == pick->sg) {
        target = j;
        break;
      }
    }
    start_load(g, target, pick->sg, pick->compare_ops);
  }
}

void FlashWalkerEngine::start_load(std::uint32_t g, std::size_t slot_idx, SubgraphId sg,
                                   std::uint32_t compare_ops) {
  ChipState& c = chips_[g];  // topology + trace lane only; queues are chip-owned
  SlotView& vslot = chip_views_[g].slots[slot_idx];
  const bool refresh = vslot.sg == sg;
  // `vslot.sg` keeps the *installed* subgraph until the install lands (set
  // in the t_install callback below), mirroring the serial engine, where
  // slot.sg changed only at install. The eligibility filter therefore
  // excludes only (loading, installed-sg) pairs — an in-flight first load
  // of `sg` does not hide it from later picks, and those picks load `sg`
  // into further empty slots. These speculative duplicate loads are part
  // of the reference dynamics (they are what makes plane reads dominate
  // in small configs) and are preserved, not "fixed".
  vslot.loading = true;
  vslot.empty = false;

  ShardSink& bsink = sinks_[kBoardShard];
  // Take the buffered walks now; new arrivals accumulate for the next load.
  std::vector<rw::Walk> walks = std::move(pwb_walks_[sg]);
  pwb_walks_[sg] = bsink.walk_pool.acquire();
  const std::uint64_t fl_count = fl_walks_[sg].size();
  walks.insert(walks.end(), fl_walks_[sg].begin(), fl_walks_[sg].end());
  // The flash-resident list can grow far past batch scale between loads;
  // hand its buffer to the pool (which drops it if it is that large)
  // instead of keeping the capacity for the rest of the run.
  bsink.walk_pool.release(std::exchange(fl_walks_[sg], {}));
  // A full load grants the subgraph's plane-read pages to the jobs whose
  // walks it serves (the weighted-fair deficit currency); a refresh fetches
  // walks only and grants nothing.
  scheduler_->on_subgraph_loaded(sg,
                                 refresh ? 0 : layout_->placement(sg).num_pages);

  const Tick now = bnow();
  // Scheduling decision cost runs on the board guider pool.
  const Tick sched_ns = static_cast<Tick>(compare_ops) * opt_.accel.board.guider_cycle /
                        std::max<std::uint32_t>(1, opt_.accel.board.guiders);
  const Tick t_cmd = board_.guider_unit.acquire(now, sched_ns);
  // Load command travels over the channel bus (extended ONFI command).
  const Tick cmd_done = flash_->channel_transfer(t_cmd, c.channel, 16);
  // Walks (from DRAM/flash) and the clean slice of the subgraph both gate
  // slot activation; pages stuck in the retry ladder (and board-rebuilt
  // uncorrectable pages) only gate the parked walks, so the plane slot goes
  // back to work while recovery proceeds in the background.
  Tick fetch_done = cmd_done;
  Tick sg_clean = cmd_done;
  Tick sg_full = cmd_done;
  std::uint32_t faulty_pages = 0;
  std::uint32_t sg_pages = 0;

  if (!refresh) {
    const auto& place = layout_->placement(sg);
    // The in-storage fast path: pages stream from the chip's own planes
    // into the subgraph buffer — no ONFI transfer.
    const ssd::ChipReadResult rd = flash_->read_chip_pages_checked(
        t_cmd, c.channel, c.chip, place.start_plane, place.num_pages,
        /*over_channel=*/false, /*fault_base=*/place.first_ppn);
    sg_pages = place.num_pages;
    faulty_pages = rd.retried_pages + rd.uncorrectable_pages;
    sg_clean = std::max(sg_clean, rd.clean_done);
    sg_full = std::max(sg_full, rd.done);
    if (rd.uncorrectable_pages > 0) {
      // Lost pages are rebuilt through the board-level path (RAID-style
      // reconstruction): each crosses the channel and pays the recovery
      // latency, but the load always completes — a deterministic fault
      // oracle would otherwise fail the same pages on every re-load.
      const std::uint64_t bytes =
          static_cast<std::uint64_t>(rd.uncorrectable_pages) * opt_.ssd.topo.page_bytes;
      const Tick rebuilt =
          flash_->channel_transfer(rd.done, c.channel, bytes) +
          static_cast<Tick>(rd.uncorrectable_pages) * opt_.ssd.reliability.recovery_latency;
      sg_full = std::max(sg_full, rebuilt);
      bsink.metrics.recovered_pages += rd.uncorrectable_pages;
      ++bsink.metrics.degraded_loads;
      if (opt_.trace != nullptr) {
        opt_.trace->complete(c.trace_track, "recover", rd.done, rebuilt,
                             rd.uncorrectable_pages, "pages");
      }
    }
    ++bsink.metrics.subgraph_loads;
    bsink.metrics.subgraph_load_pages += place.num_pages;
  }

  // Walk fetch: pwb walks come from on-board DRAM over the channel bus;
  // fl walks are read back from flash pages.
  const std::uint64_t pwb_bytes = (walks.size() - fl_count) * wbytes();
  if (pwb_bytes > 0) {
    const Tick t_dram = dram_->access(
        t_cmd, static_cast<std::uint64_t>(sg) * opt_.accel.pwb_entry_bytes, pwb_bytes);
    fetch_done = std::max(fetch_done, flash_->channel_transfer(t_dram, c.channel, pwb_bytes));
  }
  if (fl_count > 0) {
    const std::uint64_t fl_bytes = fl_count * wbytes();
    const auto pages = static_cast<std::uint32_t>(
        (fl_bytes + opt_.ssd.topo.page_bytes - 1) / opt_.ssd.topo.page_bytes);
    fetch_done = std::max(fetch_done,
                          flash_->read_chip_pages(t_cmd, c.channel, c.chip, 0, pages,
                                                  /*over_channel=*/true));
    bsink.metrics.walk_reload_pages += pages;
  }

  const Tick t_install = std::max(fetch_done, sg_clean);
  const Tick t_full = std::max(fetch_done, sg_full);

  if (opt_.trace != nullptr) {
    opt_.trace->complete(c.trace_track, refresh ? "walk_fetch" : "sg_load", t_cmd, t_full,
                         sg, "subgraph");
  }

  // Park a proportional share of the batch behind the retrying/lost pages;
  // the rest start at `t_install`. A walk parks at most once per hop
  // (`parked` is cleared by its next update), so faults delay walks but can
  // never starve them.
  if (faulty_pages > 0 && sg_pages > 0 && !walks.empty()) {
    const std::uint64_t npark =
        std::min<std::uint64_t>(walks.size(),
                                (walks.size() * faulty_pages + sg_pages - 1) / sg_pages);
    std::vector<rw::Walk> parked = bsink.walk_pool.acquire();
    std::vector<rw::Walk> ready = bsink.walk_pool.acquire();
    for (auto& w : walks) {
      if (parked.size() < npark && !w.parked) {
        w.parked = true;
        parked.push_back(w);
      } else {
        ready.push_back(w);
      }
    }
    walks.swap(ready);
    bsink.walk_pool.release(std::move(ready));
    if (!parked.empty()) {
      bsink.metrics.parked_walks += parked.size();
      for (const auto& w : parked) ++jobs_[w.job].parked;
      const Tick t_parked = t_full + opt_.ssd.reliability.retry_backoff;
      if (opt_.trace != nullptr) {
        opt_.trace->complete(c.trace_track, "parked", t_install, t_parked,
                             parked.size(), "walks");
      }
      xsend(kBoardShard, chip_shard(c), t_parked,
            [this, g, slot_idx, sg, ws = std::move(parked)]() mutable {
        ChipState& cc = chips_[g];
        LoadedSg& s = cc.slots[slot_idx];
        if (s.sg == sg) {
          for (auto& w : ws) s.queue.push_back(w);
          sinks_[chip_shard(cc)].walk_pool.release(std::move(ws));
          kick_chip(cc);
        } else {
          // The slot moved on while these walks waited out the retries;
          // re-route them through the board instead of blocking the chip.
          stage_board_op(chip_shard(cc),
                         BoardOp{BoardOp::Kind::kGuide, 0, 0,
                                 shard(chip_shard(cc)).now(), std::move(ws)});
        }
      });
    } else {
      bsink.walk_pool.release(std::move(parked));
    }
  }

  // The board's view flips to the new subgraph exactly at t_install, so a
  // later dispatch to the same slot can never overtake this one in flight.
  sched_at(kBoardShard, t_install, [this, g, slot_idx, sg] {
    SlotView& v = chip_views_[g].slots[slot_idx];
    v.loading = false;
    v.sg = sg;
  });
  xsend(kBoardShard, chip_shard(c), t_install,
        [this, g, slot_idx, sg, walks = std::move(walks)]() mutable {
    ChipState& cc = chips_[g];
    LoadedSg& s = cc.slots[slot_idx];
    if (s.sg != sg && !s.queue.empty()) {
      // Chip-side guider appends can land in a slot the board re-targeted
      // while this load was in flight; send the stale queue back through
      // the board (walk conservation — nothing is dropped).
      ShardSink& sink = sinks_[chip_shard(cc)];
      std::vector<rw::Walk> stale = sink.walk_pool.acquire();
      stale.insert(stale.end(), s.queue.begin(), s.queue.end());
      s.queue.clear();
      stage_board_op(chip_shard(cc),
                     BoardOp{BoardOp::Kind::kGuide, 0, 0,
                             shard(chip_shard(cc)).now(), std::move(stale)});
    }
    s.sg = sg;
    s.reported = false;
    for (auto& w : walks) s.queue.push_back(w);
    sinks_[chip_shard(cc)].walk_pool.release(std::move(walks));
    kick_chip(cc);
  });
}

// ---------------------------------------------------------------------------
// Channel level (channel shard)
// ---------------------------------------------------------------------------

void FlashWalkerEngine::poll_channel(ChannelState& ch) {
  const sim::ShardId cs = channel_shard(ch);
  ShardSink& sink = sinks_[cs];
  if (sink.done) return;
  std::vector<rw::Walk> pulled = sink.walk_pool.acquire();
  const auto chips_per_channel = opt_.ssd.topo.chips_per_channel;
  for (std::uint32_t k = 0; k < chips_per_channel; ++k) {
    ChipState& c = chips_[ch.index * chips_per_channel + k];
    if (c.roving.empty()) continue;
    pulled.insert(pulled.end(), c.roving.begin(), c.roving.end());
    c.roving.clear();
    kick_chip(c);  // a stalled chip can resume
  }
  if (!pulled.empty()) {
    sink.metrics.roving_walks += pulled.size();
    const Tick done = ch.bus.transfer(shard(cs).now(), pulled.size() * wbytes());
    sched_at(cs, done, [this, &ch, walks = std::move(pulled)]() mutable {
      receive_roving(ch, std::move(walks));
    });
  } else {
    sink.walk_pool.release(std::move(pulled));
  }
  sched(cs, opt_.accel.roving_poll_interval, [this, &ch] { poll_channel(ch); });
}

void FlashWalkerEngine::receive_roving(ChannelState& ch, std::vector<rw::Walk> walks) {
  const sim::ShardId cs = channel_shard(ch);
  ShardSink& sink = sinks_[cs];
  const Tick gcycle = opt_.accel.channel.guider_cycle;
  const std::uint32_t guiders = std::max<std::uint32_t>(1, opt_.accel.channel.guiders);

  Tick cost = 0;
  std::vector<rw::Walk> to_board = sink.walk_pool.acquire();
  for (auto& w : walks) {
    // Hot-subgraph check (HS) — dense-vertex walks always continue to the
    // board for pre-walking.
    bool placed = false;
    if (opt_.accel.features.hot_subgraphs && !ch.hot.empty() &&
        !pg_->is_dense_vertex(w.cur)) {
      cost += match_cycles(ch.hot.size()) * gcycle / guiders;
      for (auto& slot : ch.hot) {
        if (walk_in_sg(w, pg_->subgraph(slot.sg))) {
          const std::uint64_t cap =
              opt_.accel.channel.walk_queue_bytes /
              std::max<std::uint64_t>(1, ch.hot.size() * wbytes());
          if (slot.queue.size() < cap) {
            slot.queue.push_back(w);
            placed = true;
          }
          break;
        }
      }
    }
    if (placed) continue;

    // Approximate walk search (WQ): tag the walk with its subgraph range so
    // the board searches one range instead of the whole table.
    if (opt_.accel.features.walk_query) {
      const auto r = mtab_->find_range(w.cur);
      cost += static_cast<Tick>(r.steps) * gcycle / guiders;
      ++sink.metrics.range_searches;
      if (r.found()) {
        w.range_tag = r.range_id;
        ++sink.metrics.range_tagged_walks;
      }
    }
    to_board.push_back(w);
  }

  const Tick completion = ch.unit.acquire(shard(cs).now(), cost);
  if (opt_.trace != nullptr && cost > 0) {
    opt_.trace->complete(ch.trace_track, "rove", completion - cost, completion,
                         walks.size(), "walks");
  }
  if (!to_board.empty()) {
    sink.metrics.to_board_walks += to_board.size();
    stage_board_op(cs, BoardOp{BoardOp::Kind::kGuide, 0, 0, completion,
                               std::move(to_board)});
  } else {
    sink.walk_pool.release(std::move(to_board));
  }
  sink.walk_pool.release(std::move(walks));
  kick_channel(ch);
}

void FlashWalkerEngine::kick_channel(ChannelState& ch) {
  if (ch.processing || sinks_[channel_shard(ch)].done) return;
  const bool has_walks = std::any_of(ch.hot.begin(), ch.hot.end(),
                                     [](const LoadedSg& s) { return !s.queue.empty(); });
  if (!has_walks) return;
  ch.processing = true;
  sched_at(channel_shard(ch),
           std::max(shard(channel_shard(ch)).now(), ch.unit.busy_until()),
           [this, &ch] { process_channel(ch); });
}

void FlashWalkerEngine::process_channel(ChannelState& ch) {
  ch.processing = false;
  LoadedSg* slot = next_busy_slot(ch.hot, ch.rr);
  if (slot == nullptr) return;

  const sim::ShardId cs = channel_shard(ch);
  ShardSink& sink = sinks_[cs];
  const auto& sg = pg_->subgraph(slot->sg);
  const Tick ucycle = opt_.accel.channel.updater_cycle;
  const Tick gcycle = opt_.accel.channel.guider_cycle;
  const std::uint32_t updaters = std::max<std::uint32_t>(1, opt_.accel.channel.updaters);
  const std::uint32_t guiders = std::max<std::uint32_t>(1, opt_.accel.channel.guiders);

  Tick cost = 0;
  std::vector<rw::Walk> to_board = sink.walk_pool.acquire();
  std::vector<rw::Walk> completed = sink.walk_pool.acquire();
  std::uint32_t processed = 0;
  while (processed < opt_.accel.batch_walks && !slot->queue.empty()) {
    rw::Walk w = slot->queue.front();
    slot->queue.pop_front();
    ++processed;

    const HopOutcome hop = update_walk(w, sg, sink);
    cost += (5 + hop.extra_cycles) * ucycle / updaters;
    ++sink.metrics.channel_updates;
    ++ch.updates;

    if (hop.completed) {
      completed.push_back(w);  // finishes at the board (shared FTL/DRAM path)
      continue;
    }

    bool placed = false;
    if (!pg_->is_dense_vertex(w.cur)) {
      cost += match_cycles(ch.hot.size()) * gcycle / guiders;
      for (auto& s : ch.hot) {
        if (walk_in_sg(w, pg_->subgraph(s.sg))) {
          s.queue.push_back(w);
          placed = true;
          break;
        }
      }
    }
    if (!placed) {
      if (opt_.accel.features.walk_query) {
        const auto r = mtab_->find_range(w.cur);
        cost += static_cast<Tick>(r.steps) * gcycle / guiders;
        ++sink.metrics.range_searches;
        if (r.found()) {
          w.range_tag = r.range_id;
          ++sink.metrics.range_tagged_walks;
        }
      }
      to_board.push_back(w);
    }
  }

  const Tick completion = ch.unit.acquire(shard(cs).now(), cost);
  if (opt_.trace != nullptr && cost > 0) {
    opt_.trace->complete(ch.trace_track, "update", completion - cost, completion,
                         processed, "walks");
  }
  if (!completed.empty()) {
    stage_board_op(cs, BoardOp{BoardOp::Kind::kCompleted, kBoardOrigin, 0,
                               completion, std::move(completed)});
  } else {
    sink.walk_pool.release(std::move(completed));
  }
  if (!to_board.empty()) {
    sink.metrics.to_board_walks += to_board.size();
    stage_board_op(cs, BoardOp{BoardOp::Kind::kGuide, 0, 0, completion,
                               std::move(to_board)});
  } else {
    sink.walk_pool.release(std::move(to_board));
  }
  ch.processing = true;
  sched_at(cs, completion, [this, &ch] {
    ch.processing = false;
    kick_channel(ch);
  });
}

// ---------------------------------------------------------------------------
// Board level
// ---------------------------------------------------------------------------

void FlashWalkerEngine::stage_board_op(sim::ShardId src, BoardOp op) {
  sinks_[src].board_stage.push_back(std::move(op));
}

void FlashWalkerEngine::flush_board_stage(sim::ShardId src) {
  // Runs from the shard's window-flush hook: everything this shard staged
  // for the board during the window leaves as ONE cross-shard message,
  // delivered at the latest intended arrival tick (xsend floors the delay
  // to the handoff minimum). Ops inside the batch keep their staging order,
  // which is the order the serial reference would have delivered them in —
  // same tick, same source, ascending send sequence.
  ShardSink& sink = sinks_[src];
  if (sink.board_stage.empty()) return;
  Tick deliver = 0;
  for (const BoardOp& op : sink.board_stage) deliver = std::max(deliver, op.at);
  ++sink.board_batches;
  sink.board_batched_ops += sink.board_stage.size();
  std::vector<BoardOp> ops = std::move(sink.board_stage);
  sink.board_stage.clear();
  xsend(src, kBoardShard, deliver, [this, ops = std::move(ops)]() mutable {
    apply_board_batch(std::move(ops));
  });
}

void FlashWalkerEngine::apply_board_batch(std::vector<BoardOp> ops) {
  for (BoardOp& op : ops) {
    switch (op.kind) {
      case BoardOp::Kind::kDrained:
        board_slot_drained(op.origin, op.slot);
        break;
      case BoardOp::Kind::kCompleted:
        board_receive_completed(op.origin, std::move(op.walks));
        break;
      case BoardOp::Kind::kGuide:
        enqueue_board(std::move(op.walks));
        break;
    }
  }
}

void FlashWalkerEngine::enqueue_board(std::vector<rw::Walk> walks) {
  sinks_[kBoardShard].walk_pool.release(board_.guide.append(std::move(walks)));
  kick_board_guider();
}

void FlashWalkerEngine::enqueue_board(Fifo<rw::Walk>&& walks) {
  board_.guide.splice(std::move(walks));
  kick_board_guider();
}

void FlashWalkerEngine::board_receive_completed(std::uint32_t origin,
                                                std::vector<rw::Walk> walks) {
  // Chip-level finishes buffer in the (board-tracked) per-chip completed
  // buffer; channel-level finishes share the board's own buffer — the same
  // accounting the serial engine used, now fed by explicit messages.
  std::uint64_t& bytes = origin == kBoardOrigin
                             ? board_.completed_buffered_bytes
                             : chip_views_[origin].completed_buffered_bytes;
  for (const rw::Walk& w : walks) {
    complete_walk(w, bytes, opt_.accel.completed_buffer_bytes);
  }
  sinks_[kBoardShard].walk_pool.release(std::move(walks));
  array_flush_completions();  // one fabric notification per completed batch
  maybe_switch_partition();
}

void FlashWalkerEngine::kick_board_guider() {
  if (board_.guiding || board_.guide.empty() || done_) return;
  board_.guiding = true;
  sched_at(kBoardShard, std::max(bnow(), board_.guider_unit.busy_until()),
           [this] { process_board_guider(); });
}

void FlashWalkerEngine::process_board_guider() {
  board_.guiding = false;
  if (board_.guide.empty() || done_) return;

  const Tick gcycle = opt_.accel.board.guider_cycle;
  const std::uint32_t guiders = std::max<std::uint32_t>(1, opt_.accel.board.guiders);
  const std::uint32_t pool = guider_pool_shards();
  ShardSink& bsink = sinks_[kBoardShard];

  // The board drains bigger batches: it has 128 guiders. The dispatch pass
  // scans each walk once to pick its (job, walk-batch) sub-shard; the
  // per-walk routing work is charged on the sub-shards' guider slices.
  const std::uint32_t batch = opt_.accel.batch_walks * 4;
  std::vector<std::vector<rw::Walk>> chunks(pool);
  for (auto& chunk : chunks) chunk = bsink.walk_pool.acquire();
  std::uint32_t processed = 0;
  while (processed < batch && !board_.guide.empty()) {
    rw::Walk w = board_.guide.front();
    board_.guide.pop_front();
    ++processed;
    chunks[guider_shard_of(w)].push_back(w);
  }
  const Tick cost = static_cast<Tick>(processed) * gcycle / guiders;
  const Tick t_dispatch = board_.guider_unit.acquire(bnow(), cost);
  if (opt_.trace != nullptr && cost > 0) {
    opt_.trace->complete(board_.guider_track, "dispatch", t_dispatch - cost,
                         t_dispatch, processed, "walks");
  }
  // Partition identity travels with the chunk; sub-shards never read the
  // live current_partition_/partition_epoch_ (no cross-shard reads). The
  // snapshot stays valid: maybe_switch_partition requires active_walks_ == 0
  // and these walks are still active until their decisions apply.
  const PartitionId part = current_partition_;
  const std::uint64_t epoch = partition_epoch_;
  for (std::uint32_t k = 0; k < pool; ++k) {
    if (chunks[k].empty()) {
      bsink.walk_pool.release(std::move(chunks[k]));
      continue;
    }
    xsend(kBoardShard, guider_shard_id(k), t_dispatch,
          [this, k, part, epoch, ws = std::move(chunks[k])]() mutable {
      guide_route_chunk(k, part, epoch, std::move(ws));
    });
  }
  // Pipelined: the next batch dispatches as soon as the dispatch pass's
  // guider time frees; routing rounds overlap, and their decision messages
  // apply in the deterministic (tick, src, seq) merge order.
  board_.guiding = true;
  sched_at(kBoardShard, t_dispatch, [this] {
    board_.guiding = false;
    kick_board_guider();
  });
}

void FlashWalkerEngine::guide_route_chunk(std::uint32_t k, PartitionId part,
                                          std::uint64_t epoch,
                                          std::vector<rw::Walk> walks) {
  GuiderShard& g = gshards_[k];
  const sim::ShardId gs = guider_shard_id(k);
  ShardSink& sink = sinks_[gs];
  if (g.epoch != epoch) {
    // A partition switch replaced the mapping entries the caches index.
    g.epoch = epoch;
    for (auto& cache : g.caches) cache->clear();
  }

  std::uint64_t cycles = 0;
  std::vector<RouteDecision> decs;
  decs.reserve(walks.size());
  for (rw::Walk& w : walks) {
    decs.push_back(route_decide(w, part, g, sink, cycles));
  }
  const std::size_t n = walks.size();
  sink.walk_pool.release(std::move(walks));

  // This sub-shard models its 1/K slice of the board guider pool.
  const Tick gcycle = opt_.accel.board.guider_cycle;
  const std::uint32_t width = std::max<std::uint32_t>(
      1, std::max<std::uint32_t>(1, opt_.accel.board.guiders) /
             guider_pool_shards());
  const Tick cost = static_cast<Tick>(cycles) * gcycle / width;
  const Tick completion = g.guider_unit.acquire(shard(gs).now(), cost);
  if (opt_.trace != nullptr && cost > 0) {
    opt_.trace->complete(board_.guider_track, "guide", completion - cost,
                         completion, n, "walks");
  }
  xsend(gs, kBoardShard, completion, [this, ds = std::move(decs)]() mutable {
    apply_route_decisions(std::move(ds));
  });
}

void FlashWalkerEngine::kick_board_updater() {
  if (board_.updating || done_) return;
  const bool has_walks = std::any_of(board_.hot.begin(), board_.hot.end(),
                                     [](const LoadedSg& s) { return !s.queue.empty(); });
  if (!has_walks) return;
  board_.updating = true;
  sched_at(kBoardShard, bnow(), [this] { process_board_updater(); });
}

void FlashWalkerEngine::process_board_updater() {
  board_.updating = false;
  LoadedSg* slot = next_busy_slot(board_.hot, board_.rr);
  if (slot == nullptr) return;

  ShardSink& bsink = sinks_[kBoardShard];
  std::vector<rw::Walk> ws = bsink.walk_pool.acquire();
  std::uint32_t processed = 0;
  while (processed < opt_.accel.batch_walks && !slot->queue.empty()) {
    ws.push_back(slot->queue.front());
    slot->queue.pop_front();
    ++processed;
  }
  const SubgraphId sgid = slot->sg;
  const std::uint32_t k = upd_rr_++ % guider_pool_shards();
  xsend(kBoardShard, guider_shard_id(k), bnow(),
        [this, k, sgid, ws = std::move(ws)]() mutable {
    update_board_chunk(k, sgid, std::move(ws));
  });
  // Pipelined: the next hot batch dispatches immediately (to the next
  // sub-shard, round-robin); the sub-units' serial resources pace the
  // actual hop work.
  kick_board_updater();
}

void FlashWalkerEngine::update_board_chunk(std::uint32_t k, SubgraphId sgid,
                                           std::vector<rw::Walk> walks) {
  GuiderShard& g = gshards_[k];
  const sim::ShardId gs = guider_shard_id(k);
  ShardSink& sink = sinks_[gs];
  const auto& sg = pg_->subgraph(sgid);
  const Tick ucycle = opt_.accel.board.updater_cycle;
  // This sub-shard models its 1/K slice of the board updater pool.
  const std::uint32_t width = std::max<std::uint32_t>(
      1, std::max<std::uint32_t>(1, opt_.accel.board.updaters) /
             guider_pool_shards());

  Tick cost = 0;
  std::vector<rw::Walk> completed = sink.walk_pool.acquire();
  std::vector<rw::Walk> to_guide = sink.walk_pool.acquire();
  for (rw::Walk& w : walks) {
    const HopOutcome hop = update_walk(w, sg, sink);
    cost += (5 + hop.extra_cycles) * ucycle / width;
    ++sink.metrics.board_updates;
    ++g.updates;
    if (hop.completed) {
      completed.push_back(w);
    } else {
      to_guide.push_back(w);  // updated walks re-enter the board guide buffer
    }
  }
  const std::size_t n = walks.size();
  sink.walk_pool.release(std::move(walks));

  const Tick completion = g.updater_unit.acquire(shard(gs).now(), cost);
  if (opt_.trace != nullptr && cost > 0) {
    opt_.trace->complete(board_.updater_track, "update", completion - cost,
                         completion, n, "walks");
  }
  xsend(gs, kBoardShard, completion,
        [this, done = std::move(completed), guide = std::move(to_guide)]() mutable {
    apply_board_updates(std::move(done), std::move(guide));
  });
}

void FlashWalkerEngine::apply_board_updates(std::vector<rw::Walk> completed,
                                            std::vector<rw::Walk> to_guide) {
  ShardSink& bsink = sinks_[kBoardShard];
  for (const rw::Walk& w : completed) {
    complete_walk(w, board_.completed_buffered_bytes,
                  opt_.accel.completed_buffer_bytes);
  }
  bsink.walk_pool.release(std::move(completed));
  array_flush_completions();  // hot-subgraph completions notify per batch too
  if (!to_guide.empty()) {
    enqueue_board(std::move(to_guide));
  } else {
    bsink.walk_pool.release(std::move(to_guide));
  }
  kick_board_updater();
  maybe_switch_partition();
}

// ---------------------------------------------------------------------------
// Partition lifecycle / termination
// ---------------------------------------------------------------------------

void FlashWalkerEngine::check_done() {
  // Array-attached boards never self-terminate: only the coordinator sees
  // array-wide completion, and it calls array_finish_run on every board.
  if (array_ != nullptr) return;
  if (!done_ && sinks_[kBoardShard].metrics.walks_completed == total_expected_) {
    done_ = true;
    done_tick_ = bnow();
    if (total_expected_ > 0) broadcast_done();
  }
}

void FlashWalkerEngine::broadcast_done() {
  // Quiesce: channel shards keep polling until they observe their done
  // flag, then stop rescheduling — the queues drain and the run ends. No
  // walk-carrying event can still be in flight here (every walk has
  // completed at the board), so dropping future kicks loses nothing.
  const Tick at = bnow();
  for (auto& ch : channels_) {
    const sim::ShardId cs = channel_shard(ch);
    xsend(kBoardShard, cs, at, [this, cs] { sinks_[cs].done = true; });
  }
}

void FlashWalkerEngine::maybe_switch_partition() {
  if (done_ || active_walks_ > 0) return;
  // Also require the accelerator pipelines to be empty: in-flight batches
  // still hold active walks, so active_walks_ == 0 already implies drained
  // queues; this is a pure safety re-check for the buffers.
  if (!board_.guide.empty()) return;

  const std::uint32_t parts = pg_->num_partitions();
  for (std::uint32_t step = 1; step <= parts; ++step) {
    const PartitionId p = (current_partition_ + step) % parts;
    if (!pending_[p].empty()) {
      ++sinks_[kBoardShard].metrics.partition_switches;
      begin_partition(p, /*charge_io=*/true);
      return;
    }
  }
  if (admitted_jobs_ < jobs_.size()) {
    // The device idles until a future arrival (or a queued admission) brings
    // new walks; the pending arrival events keep the simulation alive.
    return;
  }
  if (array_ != nullptr) {
    // An idle array board is normal mid-run: its walks may all be executing
    // on other boards right now. Conservation (started + forwarded_in ==
    // completed + forwarded_out) is checked board-wide in finalize().
    return;
  }
  if (sinks_[kBoardShard].metrics.walks_completed !=
      sinks_[kBoardShard].metrics.walks_started) {
    throw std::logic_error("FlashWalkerEngine: walks lost (conservation violated)");
  }
}

// ---------------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------------

void FlashWalkerEngine::merge_sinks() {
  for (auto& jc : jobs_) jc.hops = 0;
  for (const ShardSink& sink : sinks_) {
    metrics_ += sink.metrics;
    for (std::size_t j = 0; j < jobs_.size(); ++j) jobs_[j].hops += sink.job_hops[j];
  }
}

void FlashWalkerEngine::publish_counters(const ShardAuditReport& audit) {
  auto set = [this](const std::string& name, std::uint64_t v) {
    registry_.counter(name).set(v);
  };
  set("engine.walks_started", metrics_.walks_started);
  set("engine.walks_completed", metrics_.walks_completed);
  set("engine.total_hops", metrics_.total_hops);
  set("engine.dead_ends", metrics_.dead_ends);
  set("engine.foreigner_walks", metrics_.foreigner_walks);
  set("engine.partition_switches", metrics_.partition_switches);
  set("sched.compare_ops", metrics_.scheduler_compare_ops);
  set("sched.subgraph_loads", metrics_.subgraph_loads);
  set("sched.subgraph_load_pages", metrics_.subgraph_load_pages);
  set("flash.read_bytes", flash_->read_bytes());
  set("flash.write_bytes", flash_->programmed_bytes());
  std::uint64_t bus_bytes = 0;
  for (const ChannelState& ch : channels_) bus_bytes += ch.bus.bytes_moved();
  set("flash.channel_bytes", flash_->channel_bytes() + bus_bytes);
  set("dram.bytes", dram_->bytes_moved());
  for (const ChipState& c : chips_) {
    const std::string prefix = "chip." + std::to_string(c.global);
    set(prefix + ".updates", c.updates);
    set(prefix + ".busy_ns", c.unit.busy_time());
  }
  for (const ChannelState& ch : channels_) {
    const std::string prefix = "channel." + std::to_string(ch.index);
    set(prefix + ".updates", ch.updates);
    set(prefix + ".busy_ns", ch.unit.busy_time());
  }
  // Board totals: the residue's guider unit (dispatch and load scheduling)
  // plus the guider-pool sub-shards, which run every board update.
  std::uint64_t board_updates = 0;
  Tick guider_busy = board_.guider_unit.busy_time();
  Tick updater_busy = 0;
  for (const GuiderShard& g : gshards_) {
    board_updates += g.updates;
    guider_busy += g.guider_unit.busy_time();
    updater_busy += g.updater_unit.busy_time();
  }
  set("board.updates", board_updates);
  set("board.guider.busy_ns", guider_busy);
  set("board.updater.busy_ns", updater_busy);
  if (flash_->reliability_enabled()) {
    // Gated so ideal-NAND runs emit exactly the pre-reliability metrics JSON
    // (the `reliability.*` family is live-updated by the flash array).
    set("engine.parked_walks", metrics_.parked_walks);
    set("engine.recovered_pages", metrics_.recovered_pages);
    set("engine.degraded_loads", metrics_.degraded_loads);
  }
  if (explicit_jobs_) {
    // Per-job and service-level families exist only for explicit multi-job
    // runs, so single-workload runs keep their pre-service counter sets.
    std::vector<double> latencies;
    latencies.reserve(jobs_.size());
    for (const JobRt& jc : jobs_) {
      const std::string prefix = "job." + std::to_string(&jc - jobs_.data());
      set(prefix + ".exec_ns", jc.done_tick - jc.admit_tick);
      set(prefix + ".steps", jc.hops);
      set(prefix + ".parked_walks", jc.parked);
      set(prefix + ".walks", jc.completed);
      set(prefix + ".latency_ns", jc.done_tick - jc.job.arrival);
      latencies.push_back(static_cast<double>(jc.done_tick - jc.job.arrival));
    }
    set("service.jobs", jobs_.size());
    // Nearest-rank (see WalkService::run): SLO percentiles report observed
    // latencies, not interpolations between them.
    set("service.latency_p50_ns",
        static_cast<std::uint64_t>(percentile_nearest_rank(latencies, 50)));
    set("service.latency_p95_ns",
        static_cast<std::uint64_t>(percentile_nearest_rank(latencies, 95)));
    set("service.latency_p99_ns",
        static_cast<std::uint64_t>(percentile_nearest_rank(latencies, 99)));
  }
  if (array_ != nullptr) {
    // The array.* family exists only on array-attached boards, so every
    // single-device run keeps its counter set byte-for-byte.
    set("array.device", array_->device);
    set("array.devices", array_->devices);
    set("array.forwarded_out_walks", metrics_.forwarded_out_walks);
    set("array.forwarded_in_walks", metrics_.forwarded_in_walks);
    set("array.forward_batches", metrics_.forward_batches);
    set("array.forward_timeout_flushes", metrics_.forward_timeout_flushes);
    set("array.forwarded_bytes", metrics_.forwarded_bytes);
  }
  if (audit.enabled) {
    // The parallel.* family exists only in shard-audit runs, so default
    // runs keep their pre-audit counter sets byte-for-byte.
    set("parallel.shards", audit.shards);
    set("parallel.lookahead_ns", audit.lookahead_ns);
    set("parallel.events", audit.events);
    set("parallel.max_shard_events", audit.max_shard_events);
    set("parallel.shard_events_min", audit.min_shard_events);
    set("parallel.shard_events_max", audit.max_shard_events);
    set("parallel.shard_events_board_share_ppm", audit.board_share_ppm());
    set("parallel.board_batches", audit.board_batches);
    set("parallel.board_batched_ops", audit.board_batched_ops);
    set("parallel.local_sends", audit.local_sends);
    set("parallel.cross_sends", audit.cross_sends);
    set("parallel.lookahead_violations", audit.lookahead_violations);
  }
}

void FlashWalkerEngine::prime() {
  if (primed_) {
    throw std::logic_error("FlashWalkerEngine: prime() called twice");
  }
  primed_ = true;
  check_done();  // zero-walk workloads finish immediately (standalone only)

  if (!done_) {
    // Jobs enter the simulation at their arrival ticks; the implicit
    // single-workload job arrives at tick 0, reproducing the pre-service
    // event sequence exactly. Job control lives on the board shard.
    for (std::uint16_t j = 0; j < jobs_.size(); ++j) {
      sched_at(kBoardShard, jobs_[j].job.arrival, [this, j] { arrive_job(j); });
    }
    schedule_heartbeats();
  }
}

EngineResult FlashWalkerEngine::finalize() {
  if (finalized_) {
    throw std::logic_error("FlashWalkerEngine: finalize() called twice");
  }
  finalized_ = true;
  merge_sinks();

  if (array_ == nullptr) {
    if (metrics_.walks_completed != total_expected_) {
      throw std::logic_error("FlashWalkerEngine: run ended with unfinished walks");
    }
  } else {
    // Board-wide conservation: every walk this board took in either
    // completed here or left over the fabric; the array checks the global
    // ledger (sum of completions == total expected) on top.
    if (!done_) {
      throw std::logic_error(
          "FlashWalkerEngine: board never observed array completion");
    }
    if (metrics_.walks_started + metrics_.forwarded_in_walks !=
        metrics_.walks_completed + metrics_.forwarded_out_walks) {
      throw std::logic_error(
          "FlashWalkerEngine: walks lost crossing the fabric (conservation "
          "violated)");
    }
  }

  EngineResult result;
  // The run ends when the final walk completes. Heartbeat timers (channel
  // polls, timeline/trace samplers) already queued at that point still fire
  // and advance the shard clocks, so psim_->now() would overstate the run
  // by up to one sampling interval — and would make attaching a tracer
  // perturb the measurement.
  result.exec_time = done_tick_;
  result.metrics = metrics_;
  if (opt_.shard_audit) {
    // The audit covers this board's shard slice. For a standalone engine
    // the slice is the whole simulator, so the totals are unchanged from
    // when they were read off the simulator directly.
    ShardAuditReport& r = result.shard_audit;
    r.enabled = true;
    r.shards = num_local_shards();
    r.lookahead_ns = psim_->lookahead();
    Tick min_cross = std::numeric_limits<Tick>::max();
    r.min_shard_events = std::numeric_limits<std::uint64_t>::max();
    r.board_events = shard(kBoardShard).events_executed();
    for (sim::ShardId s = 0; s < num_local_shards(); ++s) {
      const std::uint64_t ev = shard(s).events_executed();
      r.events += ev;
      r.max_shard_events = std::max(r.max_shard_events, ev);
      r.min_shard_events = std::min(r.min_shard_events, ev);
      const ShardSink& sink = sinks_[s];
      r.local_sends += sink.local_sends;
      r.cross_sends += sink.cross_sends;
      r.lookahead_violations += sink.lookahead_violations;
      r.board_batches += sink.board_batches;
      r.board_batched_ops += sink.board_batched_ops;
      min_cross = std::min(min_cross, sink.min_cross_delay);
    }
    r.min_cross_delay_ns = r.cross_sends > 0 ? min_cross : Tick{0};
  }
  result.flash_read_bytes = flash_->read_bytes();
  result.flash_write_bytes = flash_->programmed_bytes();
  // Channel traffic = the FlashArray's per-channel links (loads, walk
  // fetches, foreigner reloads) plus the channel accelerators' own roving
  // lanes — the concurrent split of what the serial engine charged to one
  // set of links.
  std::uint64_t bus_bytes = 0;
  for (const ChannelState& ch : channels_) bus_bytes += ch.bus.bytes_moved();
  result.channel_bytes = flash_->channel_bytes() + bus_bytes;
  result.dram_bytes = dram_->bytes_moved();
  // Run totals (exec time, bandwidth numerators) are captured above; the
  // idle-GC pass below models background compaction after the workload
  // drains, so its flash traffic must not count against the run.
  publish_counters(result.shard_audit);
  if (opt_.idle_gc_episodes > 0) {
    ftl_->idle_gc(psim_->now(), opt_.idle_gc_episodes);
  }
  result.ftl = ftl_->stats();
  result.reliability = flash_->reliability_stats();
  result.counters = registry_.snapshot();
  result.chip_utilization.reserve(chips_.size());
  for (const ChipState& c : chips_) {
    result.chip_utilization.push_back(c.unit.utilization(result.exec_time));
  }
  if (timeline_) result.timeline = timeline_->points();
  result.visit_counts = std::move(visits_);
  result.endpoint_counts = std::move(endpoints_);
  result.jobs.reserve(jobs_.size());
  for (JobRt& jc : jobs_) {
    service::JobResult jr;
    jr.stats = job_stats(jc);
    jr.visit_counts = std::move(jc.visits);
    jr.endpoint_counts = std::move(jc.endpoints);
    if (track_job_outputs_ && opt_.record_paths) {
      // Slice the global path table by the job's contiguous walk-id range.
      auto first = paths_.begin() + static_cast<std::ptrdiff_t>(jc.walk_base);
      auto last = first + static_cast<std::ptrdiff_t>(jc.expected);
      jr.paths.assign(std::make_move_iterator(first), std::make_move_iterator(last));
    }
    result.jobs.push_back(std::move(jr));
  }
  if (track_job_outputs_ && opt_.record_paths) {
    paths_.clear();  // gutted by the per-job slices above
  }
  result.paths = std::move(paths_);
  return result;
}

EngineResult FlashWalkerEngine::run() {
  if (array_ != nullptr) {
    throw std::logic_error(
        "FlashWalkerEngine: array-attached boards are driven by BoardArray "
        "(prime / shared simulator / finalize), not run()");
  }
  prime();
  psim_->run();
  return finalize();
}

}  // namespace fw::accel
