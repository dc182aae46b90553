// Unit tests for the discrete-event engine.
//
// The EventQueue contract tests pin the (time, scheduling-order) dequeue
// contract, eager cancellation and slot recycling of the indexed heap; the
// ReservedKeys tests pin just-in-time pushes of keys reserved at set-up.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "sim/shard_exec.h"
#include "sim/simulator.h"

namespace ge::sim {
namespace {

template <typename Queue>
class EventQueueContract : public ::testing::Test {
 protected:
  Queue q;
};

using QueueKinds = ::testing::Types<HeapEventQueue>;
TYPED_TEST_SUITE(EventQueueContract, QueueKinds);

TYPED_TEST(EventQueueContract, PopsInTimeOrder) {
  auto& q = this->q;
  std::vector<int> order;
  q.push(3.0, [&] { order.push_back(3); });
  q.push(1.0, [&] { order.push_back(1); });
  q.push(2.0, [&] { order.push_back(2); });
  while (!q.empty()) {
    q.pop().action();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TYPED_TEST(EventQueueContract, TiesBreakInSchedulingOrder) {
  auto& q = this->q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) {
    q.pop().action();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TYPED_TEST(EventQueueContract, CancelRemovesEvent) {
  auto& q = this->q;
  bool ran = false;
  const EventId id = q.push(1.0, [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TYPED_TEST(EventQueueContract, CancelUnknownIdIsNoop) {
  auto& q = this->q;
  EXPECT_FALSE(q.cancel(12345));
  EXPECT_FALSE(q.cancel(kInvalidEventId));
}

TYPED_TEST(EventQueueContract, CancelExecutedIdIsNoop) {
  auto& q = this->q;
  const EventId id = q.push(1.0, [] {});
  q.pop().action();
  EXPECT_FALSE(q.cancel(id));
}

TYPED_TEST(EventQueueContract, DoubleCancelReturnsFalse) {
  auto& q = this->q;
  const EventId id = q.push(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TYPED_TEST(EventQueueContract, SizeCountsLiveEvents) {
  auto& q = this->q;
  const EventId a = q.push(1.0, [] {});
  q.push(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

TYPED_TEST(EventQueueContract, CancelMiddleOfEqualTimestamps) {
  auto& q = this->q;
  std::vector<int> order;
  q.push(1.0, [&] { order.push_back(0); });
  const EventId mid = q.push(1.0, [&] { order.push_back(1); });
  q.push(1.0, [&] { order.push_back(2); });
  q.cancel(mid);
  while (!q.empty()) {
    q.pop().action();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

TYPED_TEST(EventQueueContract, SlotTableRecyclesRetiredIds) {
  // The liveness table must track *pending* events, not every id ever
  // issued: a long push/pop chain with a bounded working set keeps a
  // bounded slot table (the O(max_job_id) regression this guards against).
  auto& q = this->q;
  for (int i = 0; i < 10; ++i) {
    q.push(static_cast<double>(i), [] {});
  }
  for (int round = 0; round < 1000; ++round) {
    q.pop();
    q.push(static_cast<double>(10 + round), [] {});
  }
  EXPECT_EQ(q.size(), 10u);
  EXPECT_LE(q.slot_count(), 16u);
  EXPECT_EQ(q.total_pushed(), 1010u);
  EXPECT_LE(q.peak_live(), 11u);
}

TYPED_TEST(EventQueueContract, RecycledSlotsKeepHandlesDistinct) {
  // A recycled slot's new id must not alias the retired one: the old
  // handle stays dead for cancel()/is_pending() and the new one is live.
  auto& q = this->q;
  const EventId first = q.push(1.0, [] {});
  q.pop();
  const EventId second = q.push(2.0, [] {});
  EXPECT_NE(first, second);
  EXPECT_FALSE(q.is_pending(first));
  EXPECT_TRUE(q.is_pending(second));
  EXPECT_FALSE(q.cancel(first));
  EXPECT_TRUE(q.cancel(second));
}

// Executes events until the queue is empty.
void drain(Simulator& sim) {
  while (sim.step()) {
  }
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  double seen = -1.0;
  sim.schedule_at(2.5, [&] { seen = sim.now(); });
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  sim.run_until(5.0);
  EXPECT_DOUBLE_EQ(seen, 2.5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule_in(1.0, [&] {
    times.push_back(sim.now());
    sim.schedule_in(1.5, [&] { times.push_back(sim.now()); });
  });
  sim.run_until(10.0);
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.5);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  bool late_ran = false;
  sim.schedule_at(10.0, [&] { late_ran = true; });
  sim.run_until(5.0);
  EXPECT_FALSE(late_ran);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run_until(15.0);
  EXPECT_TRUE(late_ran);
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int count = 0;
  // A self-rescheduling ticker.
  std::function<void()> tick = [&] {
    ++count;
    if (count < 5) {
      sim.schedule_in(1.0, tick);
    }
  };
  sim.schedule_at(1.0, tick);
  sim.run_until(100.0);
  EXPECT_EQ(count, 5);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_at(1.0, [&] { ran = true; });
  EXPECT_TRUE(sim.event_pending(id));
  sim.cancel(id);
  EXPECT_FALSE(sim.event_pending(id));
  sim.run_until(2.0);
  EXPECT_FALSE(ran);
}

TEST(Simulator, RescheduleMovesTheEventAndKeepsItsAction) {
  Simulator sim;
  std::vector<double> ran_at;
  const EventId first = sim.schedule_at(5.0, [&] { ran_at.push_back(sim.now()); });
  const EventId moved = sim.reschedule(first, 2.0);
  ASSERT_NE(moved, kInvalidEventId);
  EXPECT_NE(moved, first);
  EXPECT_FALSE(sim.event_pending(first));  // the old handle goes stale
  EXPECT_TRUE(sim.event_pending(moved));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_FALSE(sim.cancel(first));
  drain(sim);
  EXPECT_EQ(ran_at, (std::vector<double>{2.0}));
  EXPECT_FALSE(sim.event_pending(moved));
}

TEST(Simulator, RescheduleOfANonPendingIdDoesNothing) {
  Simulator sim;
  int runs = 0;
  const EventId done = sim.schedule_at(1.0, [&] { ++runs; });
  const EventId cancelled = sim.schedule_at(2.0, [&] { ++runs; });
  sim.cancel(cancelled);
  sim.run_until(1.5);
  EXPECT_EQ(sim.reschedule(done, 3.0), kInvalidEventId);
  EXPECT_EQ(sim.reschedule(cancelled, 3.0), kInvalidEventId);
  EXPECT_EQ(sim.reschedule(kInvalidEventId, 3.0), kInvalidEventId);
  EXPECT_EQ(sim.pending_events(), 0u);
  drain(sim);
  EXPECT_EQ(runs, 1);
}

TEST(Simulator, RescheduleOrdersExactlyLikeCancelThenSchedule) {
  // Ties at one timestamp resolve by the moment the seq was drawn, so a
  // rescheduled event must land after events scheduled before the move and
  // before events scheduled after it -- the order cancel + schedule_at gives.
  const auto run = [](bool in_place) {
    Simulator sim;
    std::vector<int> order;
    const auto log = [&order](int tag) {
      return [&order, tag] { order.push_back(tag); };
    };
    const EventId mover = sim.schedule_at(4.0, log(0));
    sim.schedule_at(1.0, log(1));
    sim.schedule_at(1.0, log(2));
    if (in_place) {
      sim.reschedule(mover, 1.0);
    } else {
      sim.cancel(mover);
      sim.schedule_at(1.0, log(0));
    }
    sim.schedule_at(1.0, log(3));
    drain(sim);
    return order;
  };
  EXPECT_EQ(run(true), (std::vector<int>{1, 2, 0, 3}));
  EXPECT_EQ(run(true), run(false));
}

TEST(Simulator, RescheduleIntoThePastDies) {
  Simulator sim;
  const EventId id = sim.schedule_at(5.0, [] {});
  sim.run_until(2.0);
  EXPECT_DEATH(sim.reschedule(id, 1.0), "past");
}

TEST(Simulator, ExecutedEventsCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) {
    sim.schedule_at(static_cast<double>(i), [] {});
  }
  sim.run_until(100.0);
  EXPECT_EQ(sim.executed_events(), 7u);
}

TEST(Simulator, RunToCompletionDrainsQueue) {
  Simulator sim;
  int runs = 0;
  sim.schedule_at(1.0, [&] { ++runs; });
  sim.schedule_at(2.0, [&] { ++runs; });
  drain(sim);
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, SameTimestampFifo) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] { order.push_back(0); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.run_until(1.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(Simulator, SchedulingInThePastDies) {
  Simulator sim;
  sim.schedule_at(5.0, [] {});
  sim.run_until(5.0);
  EXPECT_DEATH(sim.schedule_at(1.0, [] {}), "past");
}

// ---------------------------------------------------------------------------
// Reserved keys (Simulator::reserve_seqs / schedule_reserved).

TEST(ReservedKeys, PopWhereTheirReservationPutThem) {
  Simulator sim;
  std::vector<char> order;
  const auto log = [&order](char tag) { return [&order, tag] { order.push_back(tag); }; };
  sim.schedule_at(1.0, log('A'));
  const std::uint64_t base = sim.reserve_seqs(2);
  sim.schedule_at(1.0, log('D'));
  sim.schedule_reserved(1.0, base + 1, log('C'));
  sim.schedule_reserved(1.0, base, log('B'));
  drain(sim);
  EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'C', 'D'}));
}

TEST(ReservedKeys, PushAtOrBelowTheExecutingKeyDies) {
  const auto run = [](double at, std::uint64_t offset) {
    Simulator sim;
    const std::uint64_t base = sim.reserve_seqs(8);
    sim.schedule_reserved(2.0, base + 4, [&sim, at, base, offset] {
      sim.schedule_reserved(at, base + offset, [] {});
    });
    drain(sim);
  };
  EXPECT_DEATH(run(2.0, 3), "reserved key at or below");  // same time, lower seq
  EXPECT_DEATH(run(2.0, 4), "reserved key at or below");  // the executing key
  EXPECT_DEATH(run(1.5, 6), "past");                      // earlier time
  run(2.0, 5);                                            // just above: fine
}

// A job chain on a 0.25 s grid -- arrivals sorted with frequent equal
// times, each deadline 0-3 steps after its arrival, so deadlines tie with
// other jobs' arrivals -- run once with every arrival and deadline pushed
// at set-up and once released just in time on reserved keys.  Every event,
// job or not, draws from an RNG seeded by its tag and may schedule a
// child, reschedule a pending child or cancel one, so dynamic pushes
// interleave with the chain.  The runs must pop the same (time, seq, tag)
// sequence.
struct Popped {
  double time;
  std::uint64_t seq;
  int tag;
  bool operator==(const Popped&) const = default;
};

class ChainRun {
 public:
  struct Job {
    double arrival;
    double deadline;
  };

  ChainRun(const std::vector<Job>& jobs, bool lazy, bool stamped)
      : jobs_(jobs), stamper_(1) {
    std::optional<ScopedStampContext> scope;
    if (stamped) {
      sim_.set_stamp_mode(true);
      scope.emplace(stamper_.serial_context());
    }
    sim_.schedule_at(0.5, action(kSetupTag));  // a push before the block
    if (lazy) {
      base_ = sim_.reserve_seqs(2 * jobs_.size());
      release(0);
    } else {
      for (std::size_t i = 0; i < jobs_.size(); ++i) {
        sim_.schedule_at(jobs_[i].arrival, action(job_tag(i, 0)));
        sim_.schedule_at(jobs_[i].deadline, action(job_tag(i, 1)));
      }
    }
    sim_.schedule_at(0.0, action(kSetupTag + 1));  // and one after it
    double t = 0.0;
    std::uint64_t seq = 0;
    while (sim_.peek_key(t, seq)) {
      if (stamped) {
        stamper_.begin_global_event();  // every event opens a new epoch
      }
      log_.push_back({t, seq, -1});
      sim_.step();
    }
    peak_ = sim_.peak_pending_events();
  }

  const std::vector<Popped>& log() const { return log_; }
  std::size_t peak() const { return peak_; }

 private:
  static constexpr int kSetupTag = 1 << 20;
  static constexpr int kChildTag = 1 << 21;

  static int job_tag(std::size_t i, int deadline) {
    return static_cast<int>(2 * i) + deadline;
  }

  // The lazy chain: pushes job i's arrival, which on firing pushes the
  // job's deadline and the next arrival before running its own action.
  void release(std::size_t i) {
    if (i == jobs_.size()) {
      return;
    }
    sim_.schedule_reserved(jobs_[i].arrival, base_ + 2 * i, [this, i] {
      sim_.schedule_reserved(jobs_[i].deadline, base_ + 2 * i + 1,
                             action(job_tag(i, 1)));
      release(i + 1);
      action(job_tag(i, 0))();
    });
  }

  std::function<void()> action(int tag) {
    return [this, tag] {
      log_.back().tag = tag;
      std::mt19937_64 rng(static_cast<std::uint64_t>(tag) * 7919u + 17u);
      const auto grid = [&rng](int steps) {
        return 0.25 * static_cast<double>(rng() % static_cast<std::uint64_t>(steps));
      };
      switch (rng() % 4) {
        case 0:
        case 1:
          children_.push_back(
              sim_.schedule_in(grid(4), action(kChildTag + next_child_++)));
          break;
        case 2:
          if (!children_.empty()) {
            EventId& id = children_[rng() % children_.size()];
            if (sim_.event_pending(id)) {
              id = sim_.reschedule(id, sim_.now() + grid(3));
            }
          }
          break;
        default:
          if (!children_.empty()) {
            sim_.cancel(children_[rng() % children_.size()]);
          }
          break;
      }
    };
  }

  std::vector<Job> jobs_;
  Simulator sim_;
  ShardStamper stamper_;
  std::uint64_t base_ = 0;
  std::vector<Popped> log_;
  std::vector<EventId> children_;
  int next_child_ = 0;
  std::size_t peak_ = 0;
};

std::vector<ChainRun::Job> grid_chain(std::uint64_t seed, int n) {
  std::mt19937_64 rng(seed);
  std::vector<ChainRun::Job> jobs;
  double t = 0.0;
  for (int i = 0; i < n; ++i) {
    t += 0.25 * static_cast<double>(rng() % 3 == 0 ? 1 : 0);  // 2/3 tie
    jobs.push_back({t, t + 0.25 * static_cast<double>(rng() % 4)});
  }
  return jobs;
}

TEST(ReservedKeys, JustInTimeChainPopsLikeEagerSetup) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::vector<ChainRun::Job> jobs = grid_chain(seed, 400);
    for (const bool stamped : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + (stamped ? " stamped" : ""));
      const ChainRun eager(jobs, false, stamped);
      const ChainRun lazy(jobs, true, stamped);
      ASSERT_GT(eager.log().size(), 2 * jobs.size());
      EXPECT_EQ(lazy.log(), eager.log());
      EXPECT_LT(lazy.peak(), eager.peak() / 4);
    }
  }
}

}  // namespace
}  // namespace ge::sim
