// Pending-event set for the discrete-event simulator: an indexed 4-ary
// min-heap.
//
// Ordering contract: events pop in non-decreasing time order, ties broken
// by scheduling order (a per-queue monotone sequence number, or a caller
// stamp -- see push_with_seq).  Because (time, seq) is a total order, the
// pop sequence is a function of the pushed keys alone, not of the heap's
// shape: any change to the structure that keeps the keys pops the exact
// same events.
//
// Layout: heap nodes are plain (time, seq, slot) triples, so sifting moves
// 24-byte PODs.  The event's action and its current heap position live in a
// slot table indexed by `slot`; every node move updates its slot's
// position.  That index makes cancellation eager: cancel() removes the node
// at once (the last node fills the hole and sifts), so the heap never holds
// dead entries and its size is always the live count.  reschedule() moves a
// pending event to a new key in place -- exactly cancel() followed by a push
// of the same action, without releasing and re-acquiring the slot or the
// action.
//
// Ids are generational handles: the low 32 bits name a slot, the high 32
// bits carry the slot's generation, and +1 keeps 0 as kInvalidEventId.  A
// slot returns to a LIFO free list when its event is popped or cancelled,
// so the slot table tracks the peak of *concurrently pending* events, not
// the total ever scheduled.  Popping, cancelling or rescheduling bumps the
// generation, so stale handles fail the check and cancel()/is_pending() on
// them is a safe no-op.  A reschedule hands back the id a cancel + push
// would have produced (same slot, next generation).  The tie-break seq is
// separate from the id, so recycling cannot perturb event order.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace ge::sim {

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;  // tie-break key (counter value or caller stamp)
  EventId id = kInvalidEventId;
  std::function<void()> action;
};

class HeapEventQueue {
 public:
  // Inserts an event and returns its id.  Ids are unique among *pending*
  // events; a fresh queue that never recycles hands out 1, 2, 3, ...
  EventId push(double time, std::function<void()> action) {
    return push_with_seq(time, next_seq_++, std::move(action));
  }

  // Inserts an event whose tie-break seq is supplied by the caller instead
  // of the internal counter.  Seqs must be unique per queue, and the
  // internal counter is not advanced, so a queue that also sees push() may
  // only be handed seqs it reserved (reserve_seqs) -- the just-in-time
  // release of a materialised run (runner.cpp) pushes its set-up keys that
  // way.  Any other caller stamps every push of the queue's life: sharded
  // runs (see shard_exec.h) draw from a run-wide scheme so that each
  // queue's (time, seq) order is the serial run's order projected onto it.
  EventId push_with_seq(double time, std::uint64_t seq,
                        std::function<void()> action);

  // Takes `count` consecutive seqs off the internal counter, to be pushed
  // later (in any order) with push_with_seq, and returns the first.  An
  // event pushed with a reserved seq pops exactly where it would have had
  // it been pushed when the seq was drawn, provided no event with a larger
  // key has popped before the push.
  std::uint64_t reserve_seqs(std::uint64_t count) noexcept {
    const std::uint64_t first = next_seq_;
    next_seq_ += count;
    return first;
  }

  // Cancels a pending event.  Returns false (and does nothing) if the id is
  // unknown, stale, already executed, or already cancelled.
  bool cancel(EventId id);

  // Moves a pending event to `time` with a fresh tie-break seq (the next
  // internal counter value, or `seq`), keeping its action.  Returns the
  // event's new id; the old id goes stale.  A non-pending id returns
  // kInvalidEventId, leaves the queue alone and draws no seq.
  EventId reschedule(EventId id, double time);
  EventId reschedule_with_seq(EventId id, double time, std::uint64_t seq);

  bool is_pending(EventId id) const noexcept { return live_slot(id) != kNoSlot; }

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  // Time of the earliest event; requires !empty().
  double next_time() const;

  // Full (time, seq) key of the earliest event; requires !empty().  The
  // sharded executor compares keys across queues to find the next
  // cross-shard event and the per-shard safe horizon.
  void next_key(double& time, std::uint64_t& seq) const;

  // Removes and returns the earliest event; requires !empty().
  Event pop();

  // --- introspection (tests, gauges) ---
  // Allocated slot-table entries: the peak of concurrently pending events.
  std::size_t slot_count() const noexcept { return slots_.size(); }
  std::size_t peak_live() const noexcept { return peak_live_; }
  // Seqs drawn from the internal counter (pushes, reschedules and
  // reservations).
  std::uint64_t total_pushed() const noexcept { return next_seq_ - 1; }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  struct Node {
    double time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Slot {
    std::function<void()> action;
    std::uint32_t gen = 0;
    std::uint32_t pos = kNoSlot;  // heap index; kNoSlot while free
  };

  static bool before(const Node& a, const Node& b) noexcept {
    if (a.time != b.time) {
      return a.time < b.time;
    }
    return a.seq < b.seq;
  }
  static EventId encode(std::uint32_t slot, std::uint32_t gen) noexcept {
    return ((static_cast<EventId>(gen) << 32) | slot) + 1;
  }

  // Slot of a pending id, or kNoSlot.
  std::uint32_t live_slot(EventId id) const noexcept;
  void release_slot(std::uint32_t slot);
  void place(std::size_t i, const Node& node) {
    heap_[i] = node;
    slots_[node.slot].pos = static_cast<std::uint32_t>(i);
  }
  // Moves `node` from hole `i` towards the root / the leaves.
  void sift_up(std::size_t i, Node node);
  void sift_down(std::size_t i, Node node);
  // Refills hole `i` with `node`, sifting whichever way restores order.
  void settle(std::size_t i, const Node& node);
  void remove_at(std::size_t i);

  std::vector<Node> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;  // LIFO
  std::size_t peak_live_ = 0;
  std::uint64_t next_seq_ = 1;
};

}  // namespace ge::sim
