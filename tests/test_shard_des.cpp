// Property tests for the sharded parallel DES (docs/DESIGN.md, "Sharded
// parallel DES") plus the golden bit-identity pin.
//
// The executor promises (src/sim/shard_exec.h):
//
//  * conservative windows -- no shard ever executes an event at or past the
//    key of the next cross-shard (global) event;
//  * barrier-only interaction -- global events run while no shard window
//    is running, with every shard drained to the global key;
//  * idle shards run nothing, a lone busy shard runs on the calling
//    thread, and an exception from any shard event reaches run()'s caller;
//  * serial merge order -- per queue, the sharded (time, stamp) pop order
//    equals the serial (time, seq) pop order projected onto that queue;
//  * conservation -- every released job is dispatched to exactly one node,
//    whatever the shard count.
//
// The golden table at the bottom pins eight cluster configurations captured
// from the pre-shard serial runner at full %.17g precision; --shards 1 and
// --shards 4 must both reproduce every field exactly, mirroring the golden
// pins in test_golden_schedulers.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/dispatcher.h"
#include "core/queue_policy.h"
#include "exp/config.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "exp/timeline.h"
#include "power/power_model.h"
#include "quality/quality_function.h"
#include "sim/shard_exec.h"
#include "sim/simulator.h"
#include "workload/trace.h"

namespace ge::sim {
namespace {

// Harness for toy-event executor tests: one global simulator, `n` shard
// simulators, all in stamp mode, plus the stamper that ties them together.
struct ShardRig {
  explicit ShardRig(std::size_t n) : stamper(n) {
    global.set_stamp_mode(true);
    shard_sims.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto sim = std::make_unique<Simulator>();
      sim->set_stamp_mode(true);
      shards.push_back(sim.get());
      shard_sims.push_back(std::move(sim));
    }
  }

  Simulator global;
  std::vector<std::unique_ptr<Simulator>> shard_sims;
  std::vector<Simulator*> shards;
  ShardStamper stamper;
};

TEST(ShardExec, NoShardExecutesPastTheEpochHorizon) {
  constexpr std::size_t kShards = 4;
  ShardRig rig(kShards);

  // Horizon of epoch e (the key time of the e+1-th global event); filled at
  // each barrier.  Shard events record the epoch they executed in.
  std::vector<double> horizon_of_epoch;
  struct Exec {
    std::uint64_t epoch;
    double time;
  };
  std::vector<std::vector<Exec>> log(kShards);

  {
    ScopedStampContext setup(rig.stamper.serial_context());
    for (std::size_t s = 0; s < kShards; ++s) {
      for (int k = 0; k < 12; ++k) {
        const double t = 0.25 * (k + 1) + 0.01 * static_cast<double>(s);
        rig.shards[s]->schedule_at(t, [&rig, &log, s, t] {
          log[s].push_back({rig.stamper.epoch(), t});
        });
      }
    }
    for (double t : {1.0, 2.0, 3.0}) {
      rig.global.schedule_at(t, [] {});
    }
  }

  ShardExecutor exec(rig.global, rig.shards, rig.stamper);
  exec.on_epoch = [&](double time, std::uint64_t seq) {
    horizon_of_epoch.push_back(time);
    // At the barrier every shard is synced to the key and its remaining
    // events all sit at or beyond it.
    for (Simulator* shard : rig.shards) {
      EXPECT_EQ(shard->now(), time);
      double t = 0.0;
      std::uint64_t s = 0;
      if (shard->peek_key(t, s)) {
        EXPECT_TRUE(t > time || (t == time && s >= seq))
            << "shard holds an unexecuted event below the barrier key";
      }
    }
  };
  exec.run(4.0);

  ASSERT_EQ(horizon_of_epoch.size(), 3u);
  EXPECT_EQ(exec.epochs(), 3u);
  for (std::size_t s = 0; s < kShards; ++s) {
    ASSERT_EQ(log[s].size(), 12u) << "every toy event must run";
    double prev = -1.0;
    for (const Exec& e : log[s]) {
      // Conservative window: an event executed in epoch e happened strictly
      // before that epoch's global horizon (ties go to the shard here
      // because the global events were pushed later at equal times).
      if (e.epoch < horizon_of_epoch.size()) {
        EXPECT_LE(e.time, horizon_of_epoch[e.epoch])
            << "shard " << s << " ran past its window";
      }
      EXPECT_LE(prev, e.time) << "per-shard execution must be time-ordered";
      prev = e.time;
    }
  }
}

TEST(ShardExec, GlobalEventsRunOnlyAtQuiescentBarriers) {
  constexpr std::size_t kShards = 4;
  ShardRig rig(kShards);
  std::atomic<int> active_workers{0};
  std::atomic<int> violations{0};
  int global_runs = 0;

  {
    ScopedStampContext setup(rig.stamper.serial_context());
    for (std::size_t s = 0; s < kShards; ++s) {
      for (int k = 0; k < 50; ++k) {
        rig.shards[s]->schedule_at(0.05 * (k + 1), [&active_workers] {
          active_workers.fetch_add(1, std::memory_order_acq_rel);
          active_workers.fetch_sub(1, std::memory_order_acq_rel);
        });
      }
    }
    for (int g = 0; g < 4; ++g) {
      const double t = 0.6 * (g + 1);
      rig.global.schedule_at(t, [&, t] {
        ++global_runs;
        // Barrier-only interaction: no worker may be mid-event, and every
        // shard must have drained up to the global key and synced its clock.
        if (active_workers.load(std::memory_order_acquire) != 0) {
          ++violations;
        }
        for (Simulator* shard : rig.shards) {
          if (shard->now() != t) {
            ++violations;
          }
          double st = 0.0;
          std::uint64_t ss = 0;
          if (shard->peek_key(st, ss) && st < t) {
            ++violations;
          }
        }
      });
    }
  }

  ShardExecutor exec(rig.global, rig.shards, rig.stamper);
  exec.run(3.0);

  EXPECT_EQ(global_runs, 4);
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(exec.executed_events(),
            static_cast<std::uint64_t>(kShards * 50 + 4));
}

// The merge-order contract, exercised on the tie cases that matter: setup
// pushes vs pushes made by shard events vs pushes made by global events, all
// landing at the same simulated time on the same queue.  The serial
// reference runs the identical logical program on one simulator; per queue,
// the sharded pop order must equal the serial order projected onto it.
TEST(ShardExec, MergePreservesSerialTieOrderPerQueue) {
  // Labels: "sK:..." runs on shard K, "g:..." on the global queue.
  std::vector<std::string> serial_order;
  {
    Simulator sim;
    auto rec = [&serial_order](std::string label) {
      return [&serial_order, label] { serial_order.push_back(label); };
    };
    for (std::size_t s = 0; s < 2; ++s) {
      const std::string p = "s" + std::to_string(s);
      sim.schedule_at(1.0, rec(p + ":setup@1"));
      sim.schedule_at(2.5, rec(p + ":setup@2.5"));
    }
    // The t=1.0 shard events spawn a same-time rival for t=2.5.
    sim.schedule_at(1.0, [&sim, &serial_order] {
      sim.schedule_at(2.5, [&serial_order] { serial_order.push_back("s0:spawned@2.5"); });
    });
    // A global event at t=2.0 spawns children that also tie at t=2.5.
    sim.schedule_at(2.0, [&sim, &serial_order] {
      serial_order.push_back("g:@2");
      sim.schedule_at(2.5, [&serial_order] { serial_order.push_back("s0:global-child@2.5"); });
      sim.schedule_at(2.5, [&serial_order] { serial_order.push_back("s1:global-child@2.5"); });
    });
    sim.run_until(3.0);
  }

  std::vector<std::string> shard_order[2];
  std::vector<std::string> global_order;
  {
    ShardRig rig(2);
    auto rec = [&](std::size_t s, std::string label) {
      return [&shard_order, s, label] { shard_order[s].push_back(label); };
    };
    {
      ScopedStampContext setup(rig.stamper.serial_context());
      for (std::size_t s = 0; s < 2; ++s) {
        const std::string p = "s" + std::to_string(s);
        rig.shards[s]->schedule_at(1.0, rec(s, p + ":setup@1"));
        rig.shards[s]->schedule_at(2.5, rec(s, p + ":setup@2.5"));
      }
      rig.shards[0]->schedule_at(1.0, [&rig, &shard_order] {
        rig.shards[0]->schedule_at(2.5, [&shard_order] {
          shard_order[0].push_back("s0:spawned@2.5");
        });
      });
      rig.global.schedule_at(2.0, [&rig, &shard_order, &global_order] {
        global_order.push_back("g:@2");
        rig.shards[0]->schedule_at(2.5, [&shard_order] {
          shard_order[0].push_back("s0:global-child@2.5");
        });
        rig.shards[1]->schedule_at(2.5, [&shard_order] {
          shard_order[1].push_back("s1:global-child@2.5");
        });
      });
    }
    ShardExecutor exec(rig.global, rig.shards, rig.stamper);
    exec.run(3.0);
  }

  // Project the serial order onto each queue and compare.
  for (std::size_t s = 0; s < 2; ++s) {
    std::vector<std::string> expected;
    const std::string p = "s" + std::to_string(s);
    for (const std::string& label : serial_order) {
      if (label.compare(0, p.size() + 1, p + ":") == 0) {
        expected.push_back(label);
      }
    }
    EXPECT_EQ(shard_order[s], expected) << "shard " << s;
  }
  std::vector<std::string> expected_global;
  for (const std::string& label : serial_order) {
    if (label.compare(0, 2, "g:") == 0) {
      expected_global.push_back(label);
    }
  }
  EXPECT_EQ(global_order, expected_global);
}

// Idle shards are skipped and a lone busy shard runs on the coordinator:
// the executor posts work to a worker only when two or more shards have
// work inside one window, and then the lowest-numbered one stays inline.
TEST(ShardExec, LoneBusyShardRunsOnTheCallingThread) {
  constexpr std::size_t kShards = 4;
  ShardRig rig(kShards);
  std::vector<std::thread::id> ran_on[kShards];
  auto rec = [&ran_on](std::size_t s) {
    return [&ran_on, s] { ran_on[s].push_back(std::this_thread::get_id()); };
  };
  {
    ScopedStampContext setup(rig.stamper.serial_context());
    rig.shards[2]->schedule_at(0.5, rec(2));  // window of epoch 0: shard 2 alone
    // Window of epoch 1, [1, 2): no shard has work.
    rig.shards[1]->schedule_at(2.5, rec(1));  // window of epoch 2: shards 1, 3
    rig.shards[3]->schedule_at(2.5, rec(3));
    rig.shards[0]->schedule_at(3.5, rec(0));  // final drain: shard 0 alone
    for (double t : {1.0, 2.0, 3.0}) {
      rig.global.schedule_at(t, [] {});
    }
  }

  ShardExecutor exec(rig.global, rig.shards, rig.stamper);
  std::vector<std::uint64_t> inline_at, handed_off_at;
  exec.on_epoch = [&](double, std::uint64_t) {
    inline_at.push_back(exec.inline_windows());
    handed_off_at.push_back(exec.handed_off_windows());
  };
  exec.run(4.0);

  EXPECT_EQ(inline_at, (std::vector<std::uint64_t>{1, 1, 2}));
  EXPECT_EQ(handed_off_at, (std::vector<std::uint64_t>{0, 0, 1}));
  EXPECT_EQ(exec.inline_windows(), 3u);
  EXPECT_EQ(exec.handed_off_windows(), 1u);

  const std::thread::id caller = std::this_thread::get_id();
  for (std::size_t s = 0; s < kShards; ++s) {
    ASSERT_EQ(ran_on[s].size(), 1u) << "shard " << s;
  }
  EXPECT_EQ(ran_on[2].front(), caller);
  EXPECT_EQ(ran_on[0].front(), caller);
  EXPECT_EQ(ran_on[1].front(), caller);
  // Shard 3's window was posted to its worker; the coordinator runs it only
  // if it took the window back before the worker started it.
  EXPECT_LE(exec.reclaimed_windows(), 1u);
  EXPECT_EQ(ran_on[3].front() == caller, exec.reclaimed_windows() == 1);
}

// A shard event that throws on a worker surfaces from run() on the calling
// thread, and the executor's threads still join.  An exception thrown
// inline waits for a handed-off window the worker is still running.  In
// both cases the inline event blocks until the worker has started, so the
// coordinator cannot take the worker's window back.
TEST(ShardExec, ShardExceptionsReachTheCallerAndWorkersJoin) {
  auto await_flag = [](const std::atomic<bool>& flag) {
    while (!flag.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  };
  {
    ShardRig rig(3);
    std::thread::id thrower;
    std::atomic<bool> worker_started{false};
    {
      ScopedStampContext setup(rig.stamper.serial_context());
      rig.shards[0]->schedule_at(
          0.5, [&] { await_flag(worker_started); });
      rig.shards[2]->schedule_at(0.5, [&thrower, &worker_started] {
        thrower = std::this_thread::get_id();
        worker_started.store(true, std::memory_order_release);
        throw std::runtime_error("shard event failed");
      });
      rig.global.schedule_at(1.0, [] {});
    }
    {
      ShardExecutor exec(rig.global, rig.shards, rig.stamper);
      EXPECT_THROW(exec.run(2.0), std::runtime_error);
      EXPECT_EQ(exec.handed_off_windows(), 1u);
      EXPECT_EQ(exec.reclaimed_windows(), 0u);
    }  // joins the workers
    EXPECT_NE(thrower, std::this_thread::get_id())
        << "the throwing event was meant to run on a worker";
  }
  {
    ShardRig rig(2);
    constexpr int kEvents = 2000;
    int worker_events = 0;
    std::atomic<bool> worker_started{false};
    {
      ScopedStampContext setup(rig.stamper.serial_context());
      rig.shards[0]->schedule_at(0.5, [&] {
        await_flag(worker_started);
        throw std::runtime_error("inline shard event failed");
      });
      for (int k = 0; k < kEvents; ++k) {
        rig.shards[1]->schedule_at(0.1 + 1e-4 * k, [&worker_events, &worker_started] {
          worker_started.store(true, std::memory_order_release);
          ++worker_events;
        });
      }
      rig.global.schedule_at(1.0, [] {});
    }
    ShardExecutor exec(rig.global, rig.shards, rig.stamper);
    EXPECT_THROW(exec.run(2.0), std::runtime_error);
    EXPECT_EQ(exec.reclaimed_windows(), 0u);
    EXPECT_EQ(worker_events, kEvents)
        << "run() returned before the handed-off window finished";
  }
}

// A barrier-dense toy fleet: every arrival is a global event that reads all
// nodes' load, and every shard-side completion is followed at the same
// instant by a global deadline that reads the node back.  Completions spawn
// same-node follow-ups from shard context.  Each node also keeps one pending
// tick that arrivals (global context) and completions (shard context) move
// in place with reschedule, as a core moves its segment-boundary event on
// every re-plan; each move lands on the instant of the event scheduled just
// before it, so only the stamp drawn by reschedule orders the tie.
// Per-node logs and the global accumulator must be bit-identical to one
// plain serial simulator at 1, 2 and 8 shards.
struct ToyNode {
  double load = 0.0;
  double acc = 0.0;
  std::vector<double> log;
  EventId tick = kInvalidEventId;
};

void move_tick(ToyNode& node, Simulator* sim, double at) {
  node.tick = sim->reschedule(node.tick, at);
  if (node.tick == kInvalidEventId) {
    node.tick = sim->schedule_at(at, [&node, sim] {
      node.tick = kInvalidEventId;
      node.log.push_back(-sim->now());
    });
  }
}

struct ToyOutcome {
  std::vector<std::vector<double>> logs;
  std::vector<double> loads;
  double global_sum = 0.0;
};

// Schedules the toy program.  `node_sims[i]` carries node i's events; the
// global simulator carries arrivals and deadlines.
void schedule_toy(Simulator& global, const std::vector<Simulator*>& node_sims,
                  std::vector<ToyNode>& nodes, double& global_sum) {
  std::uint64_t x = 12345;
  auto uniform = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  };
  for (int k = 0; k < 400; ++k) {
    const double at = 0.0005 * (k + 1);
    const double work = 1.0 + uniform();
    const double svc = 0.002 + 0.018 * uniform();
    const bool follow_up = uniform() < 0.3;
    global.schedule_at(at, [&global, &nodes, &node_sims, &global_sum, work, svc,
                            follow_up] {
      std::size_t pick = 0;
      for (std::size_t i = 1; i < nodes.size(); ++i) {
        if (nodes[i].load < nodes[pick].load) {
          pick = i;
        }
      }
      ToyNode& node = nodes[pick];
      Simulator* sim = node_sims[pick];
      node.load += work;
      sim->schedule_in(svc, [&node, sim, work, follow_up] {
        node.load -= work;
        node.acc = node.acc * 0.5 + sim->now() * work;
        node.log.push_back(node.acc);
        const double next = sim->now() + 0.5 * work * 1e-3;
        if (follow_up) {
          sim->schedule_at(next, [&node, sim] { node.log.push_back(sim->now()); });
        }
        move_tick(node, sim, next);
      });
      move_tick(node, sim, sim->now() + svc);
      global.schedule_in(svc, [&node, &global_sum] {
        global_sum = global_sum * 0.75 + node.acc + node.load;
      });
    });
  }
}

ToyOutcome toy_outcome(const std::vector<ToyNode>& nodes, double global_sum) {
  ToyOutcome out;
  for (const ToyNode& node : nodes) {
    out.logs.push_back(node.log);
    out.loads.push_back(node.load);
  }
  out.global_sum = global_sum;
  return out;
}

TEST(ShardExec, BarrierDenseToyFleetIsBitIdenticalAcrossShardCounts) {
  constexpr std::size_t kNodes = 8;
  constexpr double kHorizon = 2.0;

  ToyOutcome serial;
  {
    Simulator sim;
    std::vector<Simulator*> node_sims(kNodes, &sim);
    std::vector<ToyNode> nodes(kNodes);
    double global_sum = 0.0;
    schedule_toy(sim, node_sims, nodes, global_sum);
    sim.run_until(kHorizon);
    serial = toy_outcome(nodes, global_sum);
  }
  std::size_t completions = 0;
  for (const std::vector<double>& log : serial.logs) {
    EXPECT_FALSE(log.empty()) << "every node must see work";
    completions += log.size();
  }
  ASSERT_GT(completions, 400u) << "follow-ups must run";
  std::size_t ticks = 0;
  for (const std::vector<double>& log : serial.logs) {
    ticks += static_cast<std::size_t>(
        std::count_if(log.begin(), log.end(), [](double v) { return v < 0.0; }));
  }
  EXPECT_GT(ticks, 0u) << "some ticks must fire";
  EXPECT_LT(ticks, 400u) << "most ticks must be moved before they fire";

  for (std::size_t nshards : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("shards=" + std::to_string(nshards));
    ShardRig rig(nshards);
    std::vector<Simulator*> node_sims(kNodes);
    for (std::size_t i = 0; i < kNodes; ++i) {
      node_sims[i] = rig.shards[i * nshards / kNodes];
    }
    std::vector<ToyNode> nodes(kNodes);
    double global_sum = 0.0;
    {
      ScopedStampContext setup(rig.stamper.serial_context());
      schedule_toy(rig.global, node_sims, nodes, global_sum);
    }
    ShardExecutor exec(rig.global, rig.shards, rig.stamper);
    exec.run(kHorizon);
    EXPECT_EQ(exec.epochs(), 800u) << "one barrier per arrival and deadline";
    if (nshards > 1) {
      EXPECT_GT(exec.handed_off_windows(), 0u) << "the worker path must run";
    }
    const ToyOutcome sharded = toy_outcome(nodes, global_sum);
    EXPECT_EQ(sharded.logs, serial.logs);
    EXPECT_EQ(sharded.loads, serial.loads);
    EXPECT_EQ(sharded.global_sum, serial.global_sum);
  }
}

// ---------------------------------------------------------------------------
// Conservation across the dispatch tier, cluster assembled directly on shard
// simulators (no exp layer): released == sum of per-node dispatch counters
// for every shard count, and the per-node counters themselves match the
// serial assembly.

std::unique_ptr<sched::Scheduler> fcfs_factory(
    const sched::SchedulerEnv& env, const power::DiscreteSpeedTable* table) {
  sched::QueuePolicyOptions opts;
  opts.order = sched::QueueOrder::kFcfs;
  opts.speed_table = table;
  return std::make_unique<sched::QueuePolicyScheduler>(env, opts);
}

TEST(ShardExec, DispatchedJobConservationForEveryShardCount) {
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.arrival_rate = 240.0;
  cfg.duration = 1.5;
  cfg.seed = 21;
  const workload::Trace trace =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  constexpr std::size_t kServers = 4;
  const double horizon = cfg.duration + cfg.deadline_interval_max + 1.0;

  std::vector<std::uint64_t> serial_counts;
  for (std::size_t nshards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    ShardRig rig(nshards);
    quality::ExponentialQuality f(cfg.quality_c, cfg.demand_max);
    std::vector<cluster::NodeSpec> nodes(kServers);
    for (cluster::NodeSpec& node : nodes) {
      node.core_models.assign(4, power::PowerModel(5.0, 2.0, 1000.0));
      node.power_budget = 80.0;
    }
    // Contiguous node -> shard blocks, exactly as the runner maps them.
    std::vector<Simulator*> node_sims(kServers);
    for (std::size_t i = 0; i < kServers; ++i) {
      node_sims[i] = rig.shards[i * nshards / kServers];
    }
    std::vector<workload::Job> jobs = trace.jobs();
    std::uint64_t released = 0;
    {
      ScopedStampContext setup(rig.stamper.serial_context());
      cluster::Cluster cluster(nodes, f, fcfs_factory,
                               cluster::DispatchPolicy::kRoundRobin, cfg.seed,
                               rig.global, node_sims);
      for (workload::Job& job : jobs) {
        // Round-robin is state-free: preroute at setup, then arrival and
        // deadline run on the owning node's shard (the runner's fast path).
        const std::size_t s = cluster.preroute(&job);
        Simulator* sim = node_sims[s];
        sim->schedule_at(job.arrival, [&cluster, &job] { cluster.deliver(&job); });
        sim->schedule_at(job.deadline,
                         [&cluster, &job] { cluster.on_deadline(&job); });
        ++released;
      }
      cluster.start();
      ShardExecutor exec(rig.global, rig.shards, rig.stamper);
      exec.run(horizon);
      cluster.finish();

      std::uint64_t dispatched = 0;
      std::vector<std::uint64_t> counts;
      for (std::size_t s = 0; s < cluster.size(); ++s) {
        counts.push_back(cluster.node(s).dispatched());
        dispatched += cluster.node(s).dispatched();
      }
      EXPECT_EQ(dispatched, released)
          << "released must equal the per-node dispatch sum at " << nshards
          << " shards";
      EXPECT_EQ(dispatched, jobs.size());
      if (nshards == 1) {
        serial_counts = counts;
      } else {
        EXPECT_EQ(counts, serial_counts)
            << "per-node routing must not depend on the shard count";
      }
    }
  }
}

}  // namespace
}  // namespace ge::sim

// ---------------------------------------------------------------------------
// Golden bit-identity pin: eight cluster configurations captured from the
// pre-shard serial runner at %.17g.  Both --shards 1 (the serial loop) and
// --shards 4 must reproduce every field bit-for-bit.

namespace ge::exp {
namespace {

struct ShardGolden {
  double quality;
  double energy;
  double static_energy;
  double avg_power;
  double mean_response_ms;
  double p50_response_ms;
  double p95_response_ms;
  double p99_response_ms;
  double aes_fraction;
  double avg_speed_ghz;
  double speed_variance;
  double busy_fraction;
  double energy_cov;
  double server_energy_cov;
  double server_load_cov;
  std::uint64_t released;
  std::uint64_t completed;
  std::uint64_t partial;
  std::uint64_t dropped;
  std::uint64_t rounds;
  std::uint64_t wf_rounds;
  std::uint64_t es_rounds;
};

// Captured 2026-08 from the serial cluster runner immediately before the
// shard refactor landed (commit history: "Add scheduler plugin registry...").
const ShardGolden kGoldens[] = {
    {0.56587724082986823, 324.70217712867009, 0, 162.35108856433504,
     140.67291253704991, 143.17535673944371, 150.00000000000003, 150.00000000000014,
     0.079781573069152414, 1.9510618629959109, 0.050487412368935995, 0.66811373629107407, 0.016481284795732291,
     0.0075022852013331377, 0,
     368ULL, 0ULL, 368ULL, 0ULL, 62ULL, 0ULL, 62ULL},
    {0.60163260926090711, 631.26837788939088, 0, 315.63418894469544,
     143.17061084948131, 146.06242313927947, 150.00000000000003, 150.00000000000014,
     0.076602606036120083, 1.9392425447920201, 0.053948841269492634, 0.65669437363190608, 0.025849908838190792,
     0.013361650375972433, 0.017777292362333254,
     656ULL, 9ULL, 647ULL, 0ULL, 116ULL, 0ULL, 116ULL},
    {0.53243785922366471, 646.18934389021831, 0, 323.09467194510916,
     145.54472847366083, 148.35048039918442, 150.00000000000003, 150.00000000000014,
     0.085643156174699864, 1.9411372001962242, 0.05446961178315151, 0.67083182997794599, 0.015210792656826897,
     0.0081954276394195415, 0.0034405088570410879,
     769ULL, 0ULL, 769ULL, 0ULL, 184ULL, 0ULL, 184ULL},
    {0.69961752696561896, 621.14024225437856, 0, 310.57012112718928,
     139.87846256932278, 146.68473997758389, 150.00000000000003, 150.00000000000011,
     0, 1.9039997156142563, 0.10864216997063299, 0.66013298680611654, 0.063160534270097074,
     0.017533796096419602, 0.084252927019621074,
     526ULL, 60ULL, 466ULL, 0ULL, 130ULL, 130ULL, 0ULL},
    {0.47248919386554378, 399.6338418067877, 0, 199.81692090339385,
     116.31714020673382, 118.99963519251332, 150.00000000000003, 150.00000000000003,
     0.069012280637373247, 1.8565128517389282, 0.10550244331125262, 0.44644847944399557, 0.054123640237371477,
     0.038349315749852023, 0.12628324601824251,
     561ULL, 8ULL, 553ULL, 0ULL, 180ULL, 2ULL, 178ULL},
    {0.60863487062493271, 327.31274922524608, 0, 163.65637461262304,
     145.20753106106281, 149.99999999999991, 150.00000000000003, 150.00000000000011,
     0, 1.9749103636939014, 0.02011194397192588, 0.66261901088842856, 0.021407504866125325,
     0.0055089949868426386, 0,
     312ULL, 54ULL, 258ULL, 0ULL, 0ULL, 0ULL, 0ULL},
    {0.76904918739271055, 895.55549540207676, 0, 447.77774770103838,
     144.66947188052043, 149.99999999999991, 150.00000000000003, 150.00000000000014,
     0.094794845108694833, 1.8176188123686952, 0.070255691941641274, 0.66204103694840355, 0.0435201372950254,
     0.31475651250422743, 0.3133806607838534,
     703ULL, 110ULL, 593ULL, 0ULL, 241ULL, 0ULL, 241ULL},
    {0.63039729904351327, 625.52342454728739, 0, 312.7617122736437,
     143.38309930306275, 146.00772128421039, 150.00000000000003, 150.00000000000014,
     0.099539613865742546, 1.9772245006581841, 0.12500501273374959, 0.61526433586807283, 0.29333063841725115,
     0.010692931401653836, 0,
     580ULL, 14ULL, 564ULL, 2ULL, 114ULL, 0ULL, 114ULL},
};

struct GoldenCase {
  const char* sched;
  ExperimentConfig cfg;
};

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  auto base = [] {
    ExperimentConfig c = ExperimentConfig::paper_defaults();
    c.duration = 2.0;
    c.cores = 4;
    c.power_budget = 80.0;
    return c;
  };
  {
    ExperimentConfig c = base();
    c.num_servers = 2;
    c.dispatch = cluster::DispatchPolicy::kRoundRobin;
    c.arrival_rate = 200.0;
    c.seed = 31;
    cases.push_back({"GE", c});
  }
  {
    ExperimentConfig c = base();
    c.num_servers = 4;
    c.dispatch = cluster::DispatchPolicy::kJsq;
    c.arrival_rate = 320.0;
    c.seed = 32;
    cases.push_back({"GE", c});
  }
  {
    ExperimentConfig c = base();
    c.cores = 2;
    c.power_budget = 40.0;
    c.num_servers = 8;
    c.dispatch = cluster::DispatchPolicy::kRoundRobin;
    c.arrival_rate = 400.0;
    c.seed = 33;
    cases.push_back({"GE", c});
  }
  {
    ExperimentConfig c = base();
    c.num_servers = 4;
    c.dispatch = cluster::DispatchPolicy::kRandom;
    c.arrival_rate = 250.0;
    c.seed = 34;
    cases.push_back({"BE", c});
  }
  {
    ExperimentConfig c = base();
    c.num_servers = 4;
    c.dispatch = cluster::DispatchPolicy::kLeastEnergy;
    c.arrival_rate = 280.0;
    c.seed = 35;
    c.discrete_speeds = true;
    cases.push_back({"GE", c});
  }
  {
    ExperimentConfig c = base();
    c.num_servers = 2;
    c.dispatch = cluster::DispatchPolicy::kRoundRobin;
    c.arrival_rate = 150.0;
    c.seed = 36;
    cases.push_back({"OA", c});
  }
  {
    ExperimentConfig c = base();
    c.num_servers = 8;
    c.dispatch = cluster::DispatchPolicy::kJsq;
    c.arrival_rate = 350.0;
    c.seed = 37;
    c.server_cores = {4, 2, 4, 2, 4, 2, 4, 2};
    c.server_power_scale = {1.0, 1.2, 1.0, 1.2, 1.0, 1.2, 1.0, 1.2};
    cases.push_back({"GE", c});
  }
  {
    ExperimentConfig c = base();
    c.num_servers = 4;
    c.dispatch = cluster::DispatchPolicy::kRoundRobin;
    c.arrival_rate = 300.0;
    c.seed = 38;
    c.failure_time = 1.0;
    c.failure_cores = 2;
    cases.push_back({"GE", c});
  }
  return cases;
}

void expect_matches_golden(const RunResult& r, const ShardGolden& g) {
  EXPECT_EQ(r.quality, g.quality);
  EXPECT_EQ(r.energy, g.energy);
  EXPECT_EQ(r.static_energy, g.static_energy);
  EXPECT_EQ(r.avg_power, g.avg_power);
  EXPECT_EQ(r.mean_response_ms, g.mean_response_ms);
  EXPECT_EQ(r.p50_response_ms, g.p50_response_ms);
  EXPECT_EQ(r.p95_response_ms, g.p95_response_ms);
  EXPECT_EQ(r.p99_response_ms, g.p99_response_ms);
  EXPECT_EQ(r.aes_fraction, g.aes_fraction);
  EXPECT_EQ(r.avg_speed_ghz, g.avg_speed_ghz);
  EXPECT_EQ(r.speed_variance, g.speed_variance);
  EXPECT_EQ(r.busy_fraction, g.busy_fraction);
  EXPECT_EQ(r.energy_cov, g.energy_cov);
  EXPECT_EQ(r.server_energy_cov, g.server_energy_cov);
  EXPECT_EQ(r.server_load_cov, g.server_load_cov);
  EXPECT_EQ(r.released, g.released);
  EXPECT_EQ(r.completed, g.completed);
  EXPECT_EQ(r.partial, g.partial);
  EXPECT_EQ(r.dropped, g.dropped);
  EXPECT_EQ(r.rounds, g.rounds);
  EXPECT_EQ(r.wf_rounds, g.wf_rounds);
  EXPECT_EQ(r.es_rounds, g.es_rounds);
}

TEST(ShardGoldens, SerialAndShardedReproducePreRefactorResults) {
  const std::vector<GoldenCase> cases = golden_cases();
  ASSERT_EQ(cases.size(), std::size(kGoldens));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("golden case " + std::to_string(i) + " sched=" +
                 cases[i].sched);
    const workload::Trace trace = workload::Trace::generate(
        cases[i].cfg.workload_spec(), cases[i].cfg.duration);
    const SchedulerSpec spec = SchedulerSpec::parse(cases[i].sched);

    // The verify-power sampler and timeline sampling ride along as
    // cross-shard events; neither may perturb the run, and the timeline
    // must sample the same fleet state under both executors.
    ExperimentConfig serial_cfg = cases[i].cfg;
    serial_cfg.shards = 1;
    serial_cfg.verify_power = true;
    Timeline serial_timeline;
    serial_timeline.interval = 0.05;
    expect_matches_golden(
        run_simulation(serial_cfg, spec, trace, &serial_timeline), kGoldens[i]);

    ExperimentConfig sharded_cfg = cases[i].cfg;
    sharded_cfg.shards = 4;
    sharded_cfg.verify_power = true;
    Timeline sharded_timeline;
    sharded_timeline.interval = 0.05;
    expect_matches_golden(
        run_simulation(sharded_cfg, spec, trace, &sharded_timeline), kGoldens[i]);

    ASSERT_FALSE(serial_timeline.empty());
    ASSERT_EQ(serial_timeline.points.size(), sharded_timeline.points.size());
    for (std::size_t k = 0; k < serial_timeline.points.size(); ++k) {
      SCOPED_TRACE("timeline point " + std::to_string(k));
      const TimelinePoint& a = serial_timeline.points[k];
      const TimelinePoint& b = sharded_timeline.points[k];
      EXPECT_EQ(a.time, b.time);
      EXPECT_EQ(a.total_power, b.total_power);
      EXPECT_EQ(a.quality, b.quality);
      EXPECT_EQ(a.busy_cores, b.busy_cores);
      EXPECT_EQ(a.backlog, b.backlog);
      EXPECT_EQ(a.mode, b.mode);
    }
  }
}

}  // namespace
}  // namespace ge::exp
