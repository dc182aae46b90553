#include "sim/shard_exec.h"

#include <atomic>
#include <exception>
#include <thread>
#include <utility>

#include "util/check.h"

namespace ge::sim {

namespace {
constexpr int kClassShift = 35;
constexpr int kEpochShift = 36;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// A spinning thread yields its core every kYieldEvery polls, so a host
// with more shards than cores still runs the thread being waited for.
constexpr int kYieldEvery = 64;

// Waits until `flag` no longer holds `old` and returns its new value:
// ShardExecutor::kSpinLimit polls, then parks in std::atomic::wait.
std::uint32_t await_change(const std::atomic<std::uint32_t>& flag,
                           std::uint32_t old) {
  for (int i = 0; i < ShardExecutor::kSpinLimit; ++i) {
    const std::uint32_t v = flag.load(std::memory_order_acquire);
    if (v != old) {
      return v;
    }
    if (i % kYieldEvery == kYieldEvery - 1) {
      std::this_thread::yield();
    } else {
      cpu_relax();
    }
  }
  for (;;) {
    flag.wait(old, std::memory_order_acquire);
    const std::uint32_t v = flag.load(std::memory_order_acquire);
    if (v != old) {
      return v;
    }
  }
}
}  // namespace

std::uint64_t StampContext::reserve(std::uint64_t count) {
  GE_CHECK(epoch != nullptr, "stamp context is not wired to a stamper");
  const std::uint64_t g = *epoch;
  GE_CHECK(g < (std::uint64_t{1} << (64 - kEpochShift)),
           "stamp epoch counter overflow");
  GE_CHECK(count <= (std::uint64_t{1} << kClassShift) - n, "stamp counter overflow");
  const std::uint64_t first = (g << kEpochShift) |
                              (static_cast<std::uint64_t>(shard) << kClassShift) | n;
  n += count;
  return first;
}

StampContext*& current_stamp_context() noexcept {
  thread_local StampContext* ctx = nullptr;
  return ctx;
}

ShardStamper::ShardStamper(std::size_t num_shards) : shards_(num_shards) {
  GE_CHECK(num_shards > 0, "stamper needs at least one shard");
  serial_.epoch = &epoch_;
  serial_.shard = false;
  for (StampContext& ctx : shards_) {
    ctx.epoch = &epoch_;
    ctx.shard = true;
  }
}

StampContext* ShardStamper::shard_context(std::size_t i) {
  GE_CHECK(i < shards_.size(), "shard context index out of range");
  return &shards_[i];
}

// One shard's worker.  Generations count the windows posted to it; each is
// claimed exactly once, by the worker or by the coordinator taking back one
// the worker has not started, so the window's bounds and the shard are
// only ever touched by the claimant.  `finished` sits on its own cache
// line: the coordinator spins on it while the worker spins on `posted`.
struct ShardExecutor::Worker {
  // Coordinator -> worker: bumped once per window handed off (or to stop);
  // the window's bounds are written before the release store.
  alignas(64) std::atomic<std::uint32_t> posted{0};
  // The last generation claimed; a claim moves it from posted - 1 to posted.
  std::atomic<std::uint32_t> claimed{0};
  // Worker -> coordinator: the last generation the worker claimed and ran.
  alignas(64) std::atomic<std::uint32_t> finished{0};
  double time = 0.0;
  std::uint64_t seq = 0;
  bool drain = false;
  // Atomic because a worker that lost its last claim may still read it
  // while the destructor sets it.
  std::atomic<bool> stop{false};
  std::exception_ptr error;  // thrown by the last window, for the coordinator
  std::thread thread;
};

ShardExecutor::ShardExecutor(Simulator& global, std::vector<Simulator*> shards,
                             ShardStamper& stamper)
    : global_(&global), shards_(std::move(shards)), stamper_(&stamper) {
  GE_CHECK(!shards_.empty(), "sharded run needs at least one shard");
  for (Simulator* s : shards_) {
    GE_CHECK(s != nullptr, "null shard simulator");
  }
  workers_.reserve(shards_.size());
  busy_.reserve(shards_.size());
  try {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Worker* w = workers_.emplace_back(std::make_unique<Worker>()).get();
      w->thread = std::thread([this, w, i] { worker_loop(*w, i); });
    }
  } catch (...) {
    stop_workers();
    throw;
  }
}

ShardExecutor::~ShardExecutor() { stop_workers(); }

void ShardExecutor::stop_workers() noexcept {
  for (const std::unique_ptr<Worker>& w : workers_) {
    if (w->thread.joinable()) {
      w->stop.store(true, std::memory_order_relaxed);
      w->posted.fetch_add(1, std::memory_order_release);
      w->posted.notify_one();
    }
  }
  for (const std::unique_ptr<Worker>& w : workers_) {
    if (w->thread.joinable()) {
      w->thread.join();
    }
  }
}

void ShardExecutor::worker_loop(Worker& w, std::size_t shard) {
  std::uint32_t seen = 0;
  for (;;) {
    seen = await_change(w.posted, seen);
    if (w.stop.load(std::memory_order_relaxed)) {
      return;
    }
    std::uint32_t unclaimed = seen - 1;
    if (!w.claimed.compare_exchange_strong(unclaimed, seen,
                                           std::memory_order_acq_rel)) {
      continue;  // the coordinator ran it
    }
    try {
      run_window(shard, w.time, w.seq, w.drain);
    } catch (...) {
      w.error = std::current_exception();
    }
    w.finished.store(seen, std::memory_order_release);
    w.finished.notify_one();
  }
}

void ShardExecutor::run_window(std::size_t shard, double time,
                               std::uint64_t seq, bool drain) {
  ScopedStampContext scope(stamper_->shard_context(shard));
  if (drain) {
    shards_[shard]->run_until(time);
  } else {
    shards_[shard]->run_until_key(time, seq);
  }
}

void ShardExecutor::run_windows(double time, std::uint64_t seq, bool drain) {
  // The coordinator owns every shard here: the workers are parked or
  // spinning, and their last release store has been acquired.
  busy_.clear();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    double t = 0.0;
    std::uint64_t s = 0;
    if (shards_[i]->peek_key(t, s) &&
        (drain ? t <= time : (t < time || (t == time && s < seq)))) {
      busy_.push_back(i);
    }
  }
  if (busy_.empty()) {
    return;
  }
  for (std::size_t k = 1; k < busy_.size(); ++k) {
    Worker& w = *workers_[busy_[k]];
    w.time = time;
    w.seq = seq;
    w.drain = drain;
    w.posted.fetch_add(1, std::memory_order_release);
    w.posted.notify_one();
  }
  handed_off_windows_ += busy_.size() - 1;
  ++inline_windows_;

  // Every busy window runs to the end before an error leaves run(): a
  // worker still writes its shard until it reports back.  The
  // lowest-numbered failing shard's error wins.
  std::exception_ptr error;
  try {
    run_window(busy_.front(), time, seq, drain);
  } catch (...) {
    error = std::current_exception();
  }
  for (std::size_t k = 1; k < busy_.size(); ++k) {
    Worker& w = *workers_[busy_[k]];
    const std::uint32_t target = w.posted.load(std::memory_order_relaxed);
    std::uint32_t unclaimed = target - 1;
    std::exception_ptr e;
    if (w.claimed.compare_exchange_strong(unclaimed, target,
                                          std::memory_order_acq_rel)) {
      // The worker has not woken yet: a window is a few events long, so
      // running it here beats waiting for the wake-up.
      ++reclaimed_windows_;
      try {
        run_window(busy_[k], time, seq, drain);
      } catch (...) {
        e = std::current_exception();
      }
    } else {
      // `finished` skips the generations the coordinator reclaimed.
      std::uint32_t done = w.finished.load(std::memory_order_acquire);
      while (done != target) {
        done = await_change(w.finished, done);
      }
      e = std::exchange(w.error, nullptr);
    }
    if (error == nullptr) {
      error = std::move(e);
    }
  }
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

void ShardExecutor::run(double horizon) {
  double gt = 0.0;
  std::uint64_t gs = 0;
  while (global_->peek_key(gt, gs) && gt <= horizon) {
    // Conservative window: every pending event strictly below the next
    // global key is local to its shard, so the shards advance to it
    // independently.
    run_windows(gt, gs, /*drain=*/false);
    for (Simulator* shard : shards_) {
      shard->advance_clock_to(gt);  // fleet state is the serial state at (gt, gs)
    }
    ++epochs_;
    if (on_epoch) {
      on_epoch(gt, gs);
    }
    stamper_->begin_global_event();
    ScopedStampContext scope(stamper_->serial_context());
    global_->step();
  }
  // No cross-shard event left inside the horizon: drain every shard fully.
  run_windows(horizon, 0, /*drain=*/true);
  for (Simulator* shard : shards_) {
    shard->advance_clock_to(horizon);
  }
  global_->run_until(horizon);
}

std::uint64_t ShardExecutor::executed_events() const {
  std::uint64_t total = global_->executed_events();
  for (const Simulator* shard : shards_) {
    total += shard->executed_events();
  }
  return total;
}

}  // namespace ge::sim
