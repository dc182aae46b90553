// Property tests for the sharded parallel DES (docs/DESIGN.md, "Sharded
// parallel DES") plus serial-vs-sharded equality on the golden configs.
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
// At the bottom, --shards 4 must reproduce the serial result and timeline on
// the eight golden cluster configurations (their records are pinned in
// tests/goldens.txt).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/dispatcher.h"
#include "core/queue_policy.h"
#include "exp/config.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "exp/timeline.h"
#include "golden_cases.h"
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
// Serial vs sharded on the golden cluster configs (test_goldens pins their
// records): the verify-power sampler and timeline sampling ride along as
// cross-shard events, and --shards 4 must give the serial result and
// sample the same fleet state.

namespace ge::exp {
namespace {

TEST(ShardTimeline, ShardedRunsMatchSerialOnTheGoldenClusterConfigs) {
  for (const testdata::ClusterCase& c : testdata::cluster_cases()) {
    SCOPED_TRACE(c.name);
    const workload::Trace trace =
        workload::Trace::generate(c.cfg.workload_spec(), c.cfg.duration);
    std::vector<std::string> records;
    std::vector<Timeline> timelines;
    for (const std::size_t shards : {1u, 4u}) {
      ExperimentConfig cfg = c.cfg;
      cfg.shards = shards;
      cfg.verify_power = true;
      Timeline& timeline = timelines.emplace_back();
      timeline.interval = 0.05;
      records.push_back(
          to_json(run_simulation(cfg, SchedulerSpec::parse(c.sched), trace, &timeline)));
    }
    EXPECT_EQ(records[0], records[1]);
    ASSERT_FALSE(timelines[0].empty());
    ASSERT_EQ(timelines[0].points.size(), timelines[1].points.size());
    for (std::size_t k = 0; k < timelines[0].points.size(); ++k) {
      SCOPED_TRACE("timeline point " + std::to_string(k));
      const TimelinePoint& a = timelines[0].points[k];
      const TimelinePoint& b = timelines[1].points[k];
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
