#include "sim/parallel_sim.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>

namespace fw::sim {

void Shard::send(ShardId dst, Tick delay, EventFn fn) {
  if (dst == id_) {
    schedule(delay, std::move(fn));
    return;
  }
  if (dst >= owner_->shards_.size()) {
    throw std::out_of_range("Shard::send: destination shard out of range");
  }
  if (delay < owner_->lookahead_) {
    throw std::logic_error(
        "Shard::send: cross-shard delay below the conservative lookahead");
  }
  post(dst, now_ + delay, std::move(fn));
}

void Shard::send_at(ShardId dst, Tick at, EventFn fn) {
  if (dst == id_) {
    schedule_at(at, std::move(fn));
    return;
  }
  if (dst >= owner_->shards_.size()) {
    throw std::out_of_range("Shard::send_at: destination shard out of range");
  }
  if (at < now_ || at - now_ < owner_->lookahead_) {
    throw std::logic_error(
        "Shard::send_at: cross-shard delivery below the conservative "
        "lookahead");
  }
  post(dst, at, std::move(fn));
}

void Shard::post(ShardId dst, Tick at, EventFn fn) {
  std::vector<Envelope>& box = outbox_[parity_][dst];
  if (box.empty()) sent_to_[parity_].push_back(dst);
  box.push_back(Envelope{at, std::move(fn)});
  Tick& earliest = owner_->sent_min_[parity_][id_];
  earliest = std::min(earliest, at);
}

void ParallelSimulator::Barrier::arrive_and_wait() {
  if (parties_ == 1) return;
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
    arrived_.store(0, std::memory_order_relaxed);
    generation_.store(gen + 1, std::memory_order_release);
  } else {
    int spins = 0;
    while (generation_.load(std::memory_order_acquire) == gen) {
      if (++spins > kSpinLimit) std::this_thread::yield();
    }
  }
}

ParallelSimulator::ParallelSimulator(std::uint32_t num_shards, Tick lookahead,
                                     std::uint32_t workers)
    : lookahead_(lookahead),
      pool_(std::clamp<std::uint32_t>(workers, 1, num_shards == 0 ? 1 : num_shards)),
      barrier_(static_cast<std::uint32_t>(pool_.size())) {
  if (num_shards == 0) {
    throw std::invalid_argument("ParallelSimulator: need at least one shard");
  }
  if (lookahead == 0) {
    throw std::invalid_argument("ParallelSimulator: lookahead must be >= 1 ns");
  }
  shards_.resize(num_shards);
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    shards_[s].owner_ = this;
    shards_[s].id_ = s;
    for (auto& boxes : shards_[s].outbox_) boxes.resize(num_shards);
    for (auto& dsts : shards_[s].sent_to_) dsts.reserve(num_shards);
  }
  for (auto& earliest : sent_min_) earliest.assign(num_shards, kNever);
  published_.assign(num_shards, 0);
  // Until the first rebalance, shard s runs on worker s mod W. Buffers are
  // sized here so the window loop never allocates outside a handler.
  const auto w_count = static_cast<std::uint32_t>(pool_.size());
  for (std::uint32_t w = 0; w < w_count; ++w) {
    Worker& wk = pool_[w];
    wk.owner.resize(num_shards);
    for (ShardId s = 0; s < num_shards; ++s) {
      wk.owner[s] = s % w_count;
      if (wk.owner[s] == w) wk.mine.push_back(s);
    }
    wk.mine.reserve(num_shards);
    wk.order.resize(num_shards);
    wk.load.resize(w_count);
  }
}

bool ParallelSimulator::idle() const {
  for (const Shard& s : shards_) {
    if (!s.queue_.empty() || sent_min_[parity_][s.id_] != kNever) return false;
  }
  return true;
}

std::uint64_t ParallelSimulator::events_executed() const {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) total += s.executed_;
  return total;
}

Tick ParallelSimulator::earliest_pending() {
  Tick earliest = kNever;
  for (Shard& s : shards_) {
    if (!s.queue_.empty()) earliest = std::min(earliest, s.queue_.next_tick());
    earliest = std::min(earliest, sent_min_[parity_][s.id_]);
  }
  return earliest;
}

void ParallelSimulator::deliver(Worker& me, std::uint32_t w, std::uint32_t parity) {
  // Senders in increasing id, so each destination sees its equal-tick
  // crossings in (source shard, send order).
  for (ShardId src = 0; src < shards_.size(); ++src) {
    if (sent_min_[parity][src] == kNever) continue;
    Shard& from = shards_[src];
    for (const ShardId dst : from.sent_to_[parity]) {
      if (me.owner[dst] != w) continue;
      EventQueue& queue = shards_[dst].queue_;
      std::vector<Shard::Envelope>& box = from.outbox_[parity][dst];
      try {
        for (Shard::Envelope& env : box) queue.push(env.at, std::move(env.fn));
      } catch (...) {
        fail(me, dst);
      }
      box.clear();
    }
  }
}

void ParallelSimulator::fail(Worker& me, ShardId s) {
  if (s < me.error_shard) {
    me.error_shard = s;
    me.error = std::current_exception();
  }
}

void ParallelSimulator::drain_window(Shard& s, Tick window_end) {
  while (!s.queue_.empty() && s.queue_.next_tick() < window_end) {
    auto popped = s.queue_.try_pop();
    if (!popped) break;  // unreachable given the guard; keeps the API honest
    s.now_ = popped->first;
    popped->second();
    ++s.executed_;
  }
  // Flush after the pop loop so anything the shard staged during the window
  // crosses via the outbox this window. The hook fires even when the shard
  // executed nothing (staging is then necessarily empty), keeping its
  // cadence a pure function of the window schedule.
  if (s.window_flush_) s.window_flush_(s);
}

void ParallelSimulator::rebalance(Worker& me, std::uint32_t w) {
  // Heaviest shard first (ties by id) onto the least-loaded worker (ties by
  // worker id): every worker computes the same placement from the same
  // counts. The +1 spreads never-run shards, which still cost a visit per
  // window.
  std::iota(me.order.begin(), me.order.end(), ShardId{0});
  std::sort(me.order.begin(), me.order.end(), [this](ShardId a, ShardId b) {
    return published_[a] != published_[b] ? published_[a] > published_[b] : a < b;
  });
  std::fill(me.load.begin(), me.load.end(), 0);
  bool changed = false;
  me.mine.clear();
  for (const ShardId s : me.order) {
    const auto target = static_cast<std::uint32_t>(
        std::min_element(me.load.begin(), me.load.end()) - me.load.begin());
    me.load[target] += published_[s] + 1;
    changed |= me.owner[s] != target;
    me.owner[s] = target;
    if (target == w) me.mine.push_back(s);
  }
  std::sort(me.mine.begin(), me.mine.end());
  if (w == 0 && changed) ++placement_changes_;
}

std::uint64_t ParallelSimulator::window_loop(std::uint32_t w, Tick start,
                                             Tick until) noexcept {
  Worker& me = pool_[w];
  std::uint32_t cur = parity_;
  std::uint64_t windows = 0;
  for (;;) {
    const std::uint32_t prev = cur;
    cur ^= 1u;
    Tick end = start + lookahead_;
    if (end < start) end = kNever;  // saturate
    if (until != kNever && end > until + 1) end = until + 1;

    deliver(me, w, prev);
    Tick next = kNever;
    for (const ShardId s : me.mine) {
      Shard& sh = shards_[s];
      // Readers of this parity's sends finished before the last barrier.
      sent_min_[cur][s] = kNever;
      sh.sent_to_[cur].clear();
      sh.parity_ = cur;
      // After a handler throws, drain nothing more: this worker's remaining
      // shards have higher ids.
      if (me.error_shard == kNoShard) {
        try {
          drain_window(sh, end);
        } catch (...) {
          fail(me, s);
        }
      }
      if (!sh.queue_.empty()) next = std::min(next, sh.queue_.next_tick());
      next = std::min(next, sent_min_[cur][s]);
    }
    ++windows;
    const bool rebalancing = (windows_ + windows) % kRebalanceWindows == 0;
    if (rebalancing) {
      for (const ShardId s : me.mine) published_[s] = shards_[s].executed_;
    }
    me.report[cur] = Report{next, me.error_shard != kNoShard};

    barrier_.arrive_and_wait();

    start = kNever;
    bool failed = false;
    for (const Worker& other : pool_) {
      start = std::min(start, other.report[cur].next);
      failed |= other.report[cur].failed;
    }
    if (failed || start == kNever || start > until) break;
    if (rebalancing) rebalance(me, w);
  }
  // Queue the last window's crossings at their destinations, so nothing
  // waits in an outbox between runs.
  deliver(me, w, cur);
  return windows;
}

std::uint64_t ParallelSimulator::run(Tick until) {
  const std::uint64_t before = events_executed();
  const Tick start = earliest_pending();
  if (start != kNever && start <= until) {
    // Workers 1..W-1 wait behind a start gate, so a failed spawn can
    // release and join the ones already running before it propagates.
    enum : int { kWait, kGo, kCancel };
    std::atomic<int> gate{kWait};
    std::vector<std::thread> threads;
    threads.reserve(pool_.size() - 1);
    try {
      for (std::uint32_t w = 1; w < pool_.size(); ++w) {
        threads.emplace_back([this, w, start, until, &gate] {
          int g = kWait;
          while ((g = gate.load(std::memory_order_acquire)) == kWait) {
            std::this_thread::yield();
          }
          if (g == kGo) window_loop(w, start, until);
        });
      }
    } catch (...) {
      gate.store(kCancel, std::memory_order_release);
      for (std::thread& t : threads) t.join();
      throw;
    }
    gate.store(kGo, std::memory_order_release);
    const std::uint64_t windows = window_loop(0, start, until);
    for (std::thread& t : threads) t.join();

    windows_ += windows;
    parity_ ^= static_cast<std::uint32_t>(windows & 1u);
    // Every crossing of the last window is queued now.
    std::fill(sent_min_[parity_].begin(), sent_min_[parity_].end(), kNever);
    for (Shard& s : shards_) s.sent_to_[parity_].clear();

    Worker* failed = nullptr;
    for (Worker& wk : pool_) {
      if (wk.error_shard != kNoShard &&
          (failed == nullptr || wk.error_shard < failed->error_shard)) {
        failed = &wk;
      }
    }
    if (failed != nullptr) {
      const std::exception_ptr error = failed->error;
      for (Worker& wk : pool_) {
        wk.error_shard = kNoShard;
        wk.error = nullptr;
      }
      std::rethrow_exception(error);
    }
  }
  for (const Shard& s : shards_) now_ = std::max(now_, s.now_);
  if (idle() && until != kNever && now_ < until) now_ = until;
  return events_executed() - before;
}

}  // namespace fw::sim
