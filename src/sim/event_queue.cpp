#include "sim/event_queue.h"

#include "util/check.h"

namespace ge::sim {

EventId HeapEventQueue::push_with_seq(double time, std::uint64_t seq,
                                      std::function<void()> action) {
  GE_CHECK(action != nullptr, "event action must be callable");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    GE_CHECK(slots_.size() < kNoSlot, "event slot table overflow");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].action = std::move(action);
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Node{time, seq, slot});
  if (heap_.size() > peak_live_) {
    peak_live_ = heap_.size();
  }
  return encode(slot, slots_[slot].gen);
}

bool HeapEventQueue::cancel(EventId id) {
  const std::uint32_t slot = live_slot(id);
  if (slot == kNoSlot) {
    return false;
  }
  const std::size_t pos = slots_[slot].pos;
  release_slot(slot);
  remove_at(pos);
  return true;
}

EventId HeapEventQueue::reschedule(EventId id, double time) {
  if (live_slot(id) == kNoSlot) {
    return kInvalidEventId;
  }
  return reschedule_with_seq(id, time, next_seq_++);
}

EventId HeapEventQueue::reschedule_with_seq(EventId id, double time,
                                            std::uint64_t seq) {
  const std::uint32_t slot = live_slot(id);
  if (slot == kNoSlot) {
    return kInvalidEventId;
  }
  ++slots_[slot].gen;  // the old handle goes stale, as after a cancel
  settle(slots_[slot].pos, Node{time, seq, slot});
  return encode(slot, slots_[slot].gen);
}

std::uint32_t HeapEventQueue::live_slot(EventId id) const noexcept {
  if (id == kInvalidEventId) {
    return kNoSlot;
  }
  const std::uint64_t v = id - 1;
  const std::uint32_t slot = static_cast<std::uint32_t>(v);
  const std::uint32_t gen = static_cast<std::uint32_t>(v >> 32);
  if (slot >= slots_.size() || slots_[slot].gen != gen ||
      slots_[slot].pos == kNoSlot) {
    return kNoSlot;
  }
  return slot;
}

void HeapEventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.gen;  // invalidate outstanding handles
  s.pos = kNoSlot;
  s.action = nullptr;  // drop the captures now, not at reuse
  free_slots_.push_back(slot);
}

double HeapEventQueue::next_time() const {
  GE_CHECK(!empty(), "next_time() on empty queue");
  return heap_.front().time;
}

void HeapEventQueue::next_key(double& time, std::uint64_t& seq) const {
  GE_CHECK(!empty(), "next_key() on empty queue");
  time = heap_.front().time;
  seq = heap_.front().seq;
}

Event HeapEventQueue::pop() {
  GE_CHECK(!empty(), "pop() on empty queue");
  const Node top = heap_.front();
  Event ev{top.time, top.seq, encode(top.slot, slots_[top.slot].gen),
           std::move(slots_[top.slot].action)};
  release_slot(top.slot);
  remove_at(0);
  return ev;
}

void HeapEventQueue::sift_up(std::size_t i, Node node) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(node, heap_[parent])) {
      break;
    }
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, node);
}

void HeapEventQueue::sift_down(std::size_t i, Node node) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) {
      break;
    }
    const std::size_t last = first + 4 < n ? first + 4 : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!before(heap_[best], node)) {
      break;
    }
    place(i, heap_[best]);
    i = best;
  }
  place(i, node);
}

void HeapEventQueue::settle(std::size_t i, const Node& node) {
  if (i > 0 && before(node, heap_[(i - 1) / 4])) {
    sift_up(i, node);
  } else {
    sift_down(i, node);
  }
}

void HeapEventQueue::remove_at(std::size_t i) {
  const Node last = heap_.back();
  heap_.pop_back();
  if (i < heap_.size()) {
    settle(i, last);
  }
}

}  // namespace ge::sim
