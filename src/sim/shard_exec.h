// Conservative time-windowed parallel DES (docs/DESIGN.md §11).
//
// A sharded run splits the fleet into groups of servers, each advanced by a
// private Simulator.  Between cross-shard ("global") events, servers
// interact with nothing outside their own shard, so the key of the next
// global event is a safe horizon: every shard may execute all of its events
// strictly below that key independently, with no rollback.  The executor
// loop is
//
//     while the global queue has an event at (t, s) within the horizon:
//       busy = the shards holding an event below (t, s)     [coordinator]
//       hand every busy shard but the lowest-numbered to    [coordinator +
//         its worker, run that one here, then run any         workers]
//         handed-off window whose worker has not started
//         it and wait for the rest (the barrier)
//       sync every shard clock to t                         [coordinator]
//       execute the global event                            [coordinator]
//     drain the shards to the run horizon the same way
//
// State-free dispatch (single, rr, random) is planned at setup, admission
// and lifecycle windows included, so such a run's only global events are
// the lifecycle transitions, the arrivals of jobs that find the whole fleet
// dark, and verify/failure/timeline events.  When state-reading dispatch
// (jsq, least-energy) makes every arrival and deadline a global event
// instead, most epochs have no busy shard or exactly one; those never
// leave the coordinator thread, and the windows of the rest are a few
// events long, often shorter than a wake-up.  Each
// shard owns one persistent worker, woken through a per-shard atomic
// generation: it polls kSpinLimit times (yielding its core now and then),
// then parks in std::atomic::wait.  Worker and coordinator claim a posted
// window with a compare-exchange, so exactly one of them runs it.  The
// release store that posts a window, the claim, and the release store that
// reports it finished are the happens-before edges between them.  An
// exception thrown by a shard event reaches run()'s caller once every busy
// window of that epoch has finished.
//
// Determinism: the serial simulator orders ties by a single per-queue push
// counter, so a sharded run must reproduce, on every queue, the serial
// (time, seq) order *projected onto that queue*.  Stamps do that without
// knowing serial seq values.  A stamp packs
//
//     (epoch : 28 bits | class : 1 bit | counter : 35 bits)
//
// where `epoch` counts global events begun, `class` is 0 for serial contexts
// (setup and global-event execution, which share one counter) and 1 for
// shard contexts (one counter per shard, whichever thread runs it), and
// `counter` is monotone per context.  Three facts make per-queue stamp
// order equal per-queue serial order: (a) within one context, pushes happen
// in the same relative order as in the serial run, and the counter is
// monotone; (b) serial-context pushes of epoch k (the k-th global event's
// children) precede every shard push of epoch k and follow every shard push
// of earlier epochs, exactly as the serial run interleaves them -- the epoch
// field and the class bit encode precisely that; (c) a queue only ever
// receives stamps from its own shard's context and the serial context, so
// the class bit also keeps seqs unique per queue.  Set-up does not push the
// trace's arrivals and deadlines: it reserves their stamps as one epoch-0
// block of the serial context (StampContext::reserve) and the runner pushes
// each just in time, from whichever thread runs the arrival before it (see
// Simulator::schedule_reserved).  Those stamps are the ones an eager set-up
// would have drawn, so (a)-(c) hold unchanged.  tests/test_shard_des.cpp
// pins the invariants; tests/test_fuzz_e2e.cpp pins end-to-end bit-identity
// against the serial path.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/simulator.h"

namespace ge::sim {

// One tie-break stamp stream.  Contexts are owned by a ShardStamper and
// installed per thread with ScopedStampContext; a Simulator in stamp mode
// draws from the installing thread's context on every schedule_at.
struct StampContext {
  const std::uint64_t* epoch = nullptr;  // global-events-begun counter
  bool shard = false;                    // class bit: serial=0, shard=1
  std::uint64_t n = 0;                   // monotone per-context counter

  std::uint64_t next_stamp() { return reserve(1); }
  // Takes `count` consecutive stamps (one epoch, one class, a contiguous
  // counter block: first, first + 1, ...) and returns the first.
  std::uint64_t reserve(std::uint64_t count);
};

// The calling thread's current stamp context (nullptr outside a scope).
StampContext*& current_stamp_context() noexcept;

// RAII installer; nests (the previous context is restored on destruction).
class ScopedStampContext {
 public:
  explicit ScopedStampContext(StampContext* ctx) noexcept
      : prev_(current_stamp_context()) {
    current_stamp_context() = ctx;
  }
  ~ScopedStampContext() { current_stamp_context() = prev_; }

  ScopedStampContext(const ScopedStampContext&) = delete;
  ScopedStampContext& operator=(const ScopedStampContext&) = delete;

 private:
  StampContext* prev_;
};

// Owns the epoch counter and one context per execution stream: a single
// serial context (setup + every global event) and one context per shard.
class ShardStamper {
 public:
  explicit ShardStamper(std::size_t num_shards);

  StampContext* serial_context() noexcept { return &serial_; }
  StampContext* shard_context(std::size_t i);

  // Called by the executor immediately before a global event runs; the
  // event's children then stamp into the new epoch, after every shard push
  // of the closing epoch -- the serial interleaving.
  void begin_global_event() noexcept { ++epoch_; }
  std::uint64_t epoch() const noexcept { return epoch_; }

 private:
  std::uint64_t epoch_ = 0;
  StampContext serial_;
  std::vector<StampContext> shards_;
};

// Drives one sharded run.  All simulators must be in stamp mode and share
// the stamper's tie order; the global simulator carries only cross-shard
// events (dispatch decisions that read fleet state, lifecycle transitions
// and the dark-fleet arrivals they deliver, power verification, failure
// injection, timeline sampling).
class ShardExecutor {
 public:
  // Polls a waiting thread makes of its atomic before it parks.
  static constexpr int kSpinLimit = 4096;

  // References must outlive the executor; `shards` must match the stamper's
  // shard count.  Starts one worker thread per shard.
  ShardExecutor(Simulator& global, std::vector<Simulator*> shards,
                ShardStamper& stamper);
  // Stops and joins the workers.
  ~ShardExecutor();

  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;

  // Test hook: invoked at every barrier with the epoch's global key, after
  // the shards synchronised to it and before the global event executes.
  std::function<void(double time, std::uint64_t seq)> on_epoch;

  void run(double horizon);

  std::uint64_t epochs() const noexcept { return epochs_; }
  // Events executed across the global and every shard simulator.
  std::uint64_t executed_events() const;
  // Busy shard windows: the lowest-numbered of each epoch, run on the
  // thread that called run(), and the rest, posted to their workers.  Idle
  // shards count in neither.
  std::uint64_t inline_windows() const noexcept { return inline_windows_; }
  std::uint64_t handed_off_windows() const noexcept { return handed_off_windows_; }
  // Handed-off windows the coordinator took back and ran itself because
  // their worker had not started them when it finished its own.
  std::uint64_t reclaimed_windows() const noexcept { return reclaimed_windows_; }

 private:
  struct Worker;

  // Runs every shard that has an event inside the window -- below the key
  // (time, seq), or at or before `time` when `drain` -- and returns once
  // all of them are done.
  void run_windows(double time, std::uint64_t seq, bool drain);
  void run_window(std::size_t shard, double time, std::uint64_t seq,
                  bool drain);
  void worker_loop(Worker& w, std::size_t shard);
  void stop_workers() noexcept;

  Simulator* global_;
  std::vector<Simulator*> shards_;
  ShardStamper* stamper_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::size_t> busy_;  // the current window's busy shards, reused
  std::uint64_t epochs_ = 0;
  std::uint64_t inline_windows_ = 0;
  std::uint64_t handed_off_windows_ = 0;
  std::uint64_t reclaimed_windows_ = 0;
};

}  // namespace ge::sim
