// Registry plugins for the non-cutting queue-policy baselines: FCFS, FDFS,
// LJF, SJF.  All four share QueuePolicyScheduler and differ only in the
// dispatch order.
#include <memory>

#include "core/queue_policy.h"
#include "exp/config.h"
#include "exp/scheduler_registry.h"
#include "exp/scheduler_spec.h"

namespace ge::exp {
namespace {

SchedulerPlugin make_queue_plugin(std::string name, sched::QueueOrder order,
                                  std::string summary) {
  SchedulerPlugin p;
  p.name = std::move(name);
  p.summary = std::move(summary);
  p.factory = [order](const SchedulerSpec&, const sched::SchedulerEnv& env,
                      const ExperimentConfig&,
                      const power::DiscreteSpeedTable* table) {
    sched::QueuePolicyOptions opts;
    opts.order = order;
    opts.speed_table = table;
    return std::make_unique<sched::QueuePolicyScheduler>(env, opts);
  };
  return p;
}

SchedulerPlugin make_fcfs() {
  return make_queue_plugin("FCFS", sched::QueueOrder::kFcfs,
                           "First-Come-First-Served queue baseline");
}

SchedulerPlugin make_fdfs() {
  return make_queue_plugin("FDFS", sched::QueueOrder::kFdfs,
                           "First-Deadline-First-Served (EDF) queue baseline");
}

SchedulerPlugin make_ljf() {
  return make_queue_plugin("LJF", sched::QueueOrder::kLjf,
                           "Longest-Job-First queue baseline");
}

SchedulerPlugin make_sjf() {
  return make_queue_plugin("SJF", sched::QueueOrder::kSjf,
                           "Shortest-Job-First queue baseline");
}

}  // namespace

std::vector<SchedulerPlugin> queue_family_plugins() {
  return {make_fcfs(), make_fdfs(), make_ljf(), make_sjf()};
}

}  // namespace ge::exp
