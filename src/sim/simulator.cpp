#include "sim/simulator.h"

#include "sim/shard_exec.h"
#include "util/check.h"

namespace ge::sim {

namespace {

StampContext& stamp_context() {
  StampContext* ctx = current_stamp_context();
  GE_CHECK(ctx != nullptr, "stamp-mode scheduling outside a ScopedStampContext");
  return *ctx;
}

}  // namespace

EventId Simulator::schedule_at(double time, std::function<void()> action) {
  GE_CHECK(time >= now_ - 1e-9, "cannot schedule an event in the past");
  const double at = time < now_ ? now_ : time;
  if (stamp_mode_) {
    return queue_.push_with_seq(at, stamp_context().next_stamp(), std::move(action));
  }
  return queue_.push(at, std::move(action));
}

EventId Simulator::schedule_in(double delay, std::function<void()> action) {
  GE_CHECK(delay >= -1e-9, "negative delay");
  return schedule_at(now_ + (delay > 0.0 ? delay : 0.0), std::move(action));
}

bool Simulator::cancel(EventId id) { return queue_.cancel(id); }

EventId Simulator::reschedule(EventId id, double time) {
  GE_CHECK(time >= now_ - 1e-9, "cannot reschedule an event into the past");
  const double at = time < now_ ? now_ : time;
  if (!queue_.is_pending(id)) {
    return kInvalidEventId;
  }
  if (stamp_mode_) {
    return queue_.reschedule_with_seq(id, at, stamp_context().next_stamp());
  }
  return queue_.reschedule(id, at);
}

std::uint64_t Simulator::reserve_seqs(std::uint64_t count) {
  if (stamp_mode_) {
    return stamp_context().reserve(count);
  }
  return queue_.reserve_seqs(count);
}

EventId Simulator::schedule_reserved(double time, std::uint64_t seq,
                                     std::function<void()> action) {
  GE_CHECK(time >= now_, "cannot schedule a reserved-key event in the past");
  GE_CHECK(executed_ == 0 || time > last_time_ ||
               (time == last_time_ && seq > last_seq_),
           "reserved key at or below the key of the event being executed");
  return queue_.push_with_seq(time, seq, std::move(action));
}

bool Simulator::step() {
  if (queue_.empty()) {
    return false;
  }
  Event ev = queue_.pop();
  GE_CHECK(ev.time >= now_ - 1e-9, "event time went backwards");
  if (ev.time > now_) {
    now_ = ev.time;
  }
  last_time_ = ev.time;
  last_seq_ = ev.seq;
  ++executed_;
  ev.action();
  return true;
}

void Simulator::run_until(double horizon) {
  GE_CHECK(horizon >= now_, "run_until horizon is in the past");
  while (!queue_.empty() && queue_.next_time() <= horizon) {
    step();
  }
  now_ = horizon;
}

bool Simulator::peek_key(double& time, std::uint64_t& seq) const {
  if (queue_.empty()) {
    return false;
  }
  queue_.next_key(time, seq);
  return true;
}

void Simulator::run_until_key(double time, std::uint64_t seq) {
  double t = 0.0;
  std::uint64_t s = 0;
  while (peek_key(t, s) && (t < time || (t == time && s < seq))) {
    step();
  }
}

void Simulator::advance_clock_to(double time) {
  GE_CHECK(time >= now_, "advance_clock_to is behind the clock");
  now_ = time;
}

}  // namespace ge::sim
