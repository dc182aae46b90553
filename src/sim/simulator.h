// Discrete-event simulator: a virtual clock plus an event queue.
//
// Components schedule closures at absolute or relative virtual times; the
// simulator executes them in non-decreasing time order (FIFO among equal
// timestamps).  Time never goes backwards; scheduling in the past is a
// checked error.  This is the substrate every experiment in the paper runs
// on -- the paper's evaluation is entirely simulation-based.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/event_queue.h"

namespace ge::obs {
struct Telemetry;
}

namespace ge::sim {

class Simulator {
 public:
  double now() const noexcept { return now_; }

  // Telemetry rides on the simulator because every instrumented component
  // (cores, schedulers, the runner) already holds a Simulator reference.
  // Null (the default) means telemetry is off; hooks test the pointer once
  // at construction or per event.
  obs::Telemetry* telemetry() const noexcept { return telemetry_; }
  void set_telemetry(obs::Telemetry* telemetry) noexcept { telemetry_ = telemetry; }

  // Schedules `action` at absolute virtual time `time` (>= now).
  EventId schedule_at(double time, std::function<void()> action);

  // Schedules `action` `delay` seconds from now (delay >= 0).
  EventId schedule_in(double delay, std::function<void()> action);

  // Cancels a pending event; returns false if it already ran or was cancelled.
  bool cancel(EventId id);

  // Moves a pending event to absolute time `time` (>= now), keeping its
  // action: exactly cancel(id) followed by schedule_at(time, same action),
  // including the moment its tie-break seq (or shard stamp) is drawn.
  // Returns the event's new id.  A non-pending id returns kInvalidEventId
  // and draws nothing.
  EventId reschedule(EventId id, double time);

  bool event_pending(EventId id) const { return queue_.is_pending(id); }

  // --- reserved tie-break keys -------------------------------------------
  // A materialised run knows every job's arrival and deadline at set-up
  // but releases them just in time (exp/runner.cpp): it reserves the keys
  // an eager set-up would have drawn and pushes each event only when the
  // previous arrival of its chain fires.  The queue pops by (time, seq)
  // alone, so such a push pops exactly where the eager one would have.
  //
  // Reserves `count` consecutive seqs and returns the first: off the
  // queue's counter, or in stamp mode a block of the calling thread's
  // current StampContext.
  std::uint64_t reserve_seqs(std::uint64_t count);

  // Schedules `action` at (time, seq), seq taken from reserve_seqs on this
  // simulator or, in stamp mode, on any simulator of the run.  The key must
  // lie above the key of the last event this simulator executed (checked):
  // a key at or below it would pop out of the order its reservation fixed.
  EventId schedule_reserved(double time, std::uint64_t seq,
                            std::function<void()> action);

  // Executes the next event, if any.  Returns false when the queue is empty.
  bool step();

  // Runs events with time <= horizon, then advances the clock to exactly
  // `horizon` (even if no event lands there).
  void run_until(double horizon);

  // --- sharded-run hooks (see shard_exec.h) -------------------------------
  // In stamp mode schedule_at draws its (time, seq) tie-break from the
  // calling thread's current StampContext instead of the queue's private
  // counter, so several simulators can share one run-wide tie order.
  void set_stamp_mode(bool on) noexcept { stamp_mode_ = on; }

  // Key of the earliest pending event; returns false when the queue is empty.
  bool peek_key(double& time, std::uint64_t& seq) const;

  // Executes every pending event whose key is strictly below (time, seq) --
  // including events those executions schedule.  The clock is left at the
  // last executed event, not advanced to `time`.
  void run_until_key(double time, std::uint64_t seq);

  // Advances the clock without executing anything (>= now required).  The
  // sharded executor syncs every shard's clock to the epoch key before the
  // cross-shard event runs, so state read during that event is at-time.
  void advance_clock_to(double time);

  std::uint64_t executed_events() const noexcept { return executed_; }
  std::size_t pending_events() const noexcept { return queue_.size(); }

  // High-water mark of concurrently pending events (streaming gauge).
  std::size_t peak_pending_events() const noexcept { return queue_.peak_live(); }

 private:
  double now_ = 0.0;
  HeapEventQueue queue_;
  std::uint64_t executed_ = 0;
  // Key of the last executed event (meaningful once executed_ > 0).
  double last_time_ = 0.0;
  std::uint64_t last_seq_ = 0;
  bool stamp_mode_ = false;
  obs::Telemetry* telemetry_ = nullptr;
};

}  // namespace ge::sim
