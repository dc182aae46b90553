// Ablation: reclaimable-energy fraction vs load x Q_GE x dispatch (beyond
// the paper; companion to the reclaim advisor in docs/OBSERVABILITY.md).
// Each run captures its own trace and feeds the realised exec slices to the
// clairvoyant re-speed advisor, exactly as the engine's --report path does.
// reclaim_frac = 1 - reclaim_J / realised_J is the share of the realised
// energy a deadline-preserving re-speed could have saved (continuous
// speeds); disc_frac prices the same schedule through the DVFS ladder and
// is therefore never larger.  Telemetry capture pins the serial event loop,
// so every cell is bit-deterministic.
#include <cstddef>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/dispatcher.h"
#include "fig_common.h"
#include "obs/analysis/analysis.h"
#include "obs/analysis/reclaim.h"
#include "obs/telemetry.h"
#include "power/discrete_speed.h"
#include "workload/trace.h"

namespace {

// One traced run plus its advisor verdict (mirrors the engine's report path).
struct ReclaimPoint {
  double realized_j = 0.0;
  double cont_frac = 0.0;
  double disc_frac = 0.0;
};

ReclaimPoint run_point(const ge::exp::ExperimentConfig& cfg) {
  using namespace ge;
  const exp::SchedulerSpec spec = exp::SchedulerSpec::parse("GE");
  obs::RunTelemetry telem;
  telem.want_trace = true;
  const workload::Trace trace = workload::Trace::generate(
      cfg.workload_spec(), cfg.duration, cfg.max_jobs);
  const exp::RunResult result =
      exp::run_simulation(cfg, spec, trace, nullptr, &telem);

  obs::analysis::TaskInput input;
  input.info.task = 0;
  input.info.scheduler = "GE";
  input.info.arrival_rate = cfg.arrival_rate;
  input.info.cores = cfg.cores;
  input.info.power_budget = exp::effective_budget(spec, cfg);
  input.info.power_model_json = cfg.power_model().describe_json();
  if (cfg.discrete_speeds) {
    input.info.ladder_units = power::DiscreteSpeedTable::uniform_ghz(
                                  cfg.discrete_step_ghz, cfg.discrete_max_ghz,
                                  cfg.power_model().units_per_ghz())
                                  .levels();
  }
  input.buffer = &telem.trace;
  for (const cluster::NodeSpec& node :
       cfg.cluster_node_specs(input.info.power_budget)) {
    input.models.push_back(node.core_models);
  }
  input.reported_energy_j = result.energy;

  const obs::analysis::TaskAnalysis analysis =
      obs::analysis::analyze_task(input);
  const obs::analysis::ReclaimAnalysis reclaim =
      obs::analysis::analyze_reclaim(input, analysis);

  ReclaimPoint point;
  point.realized_j = reclaim.realized_j;
  if (reclaim.realized_j > 0.0) {
    point.cont_frac = 1.0 - reclaim.cont_j / reclaim.realized_j;
    point.disc_frac = 1.0 - reclaim.disc_j / reclaim.realized_j;
  }
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  const bench::FigureContext ctx =
      bench::parse_figure_args(flags, {100.0, 150.0, 200.0});
  flags.reject_unread();
  bench::print_banner(ctx, "Ablation",
                      "reclaimable-energy fraction vs load x Q_GE x dispatch");

  constexpr std::size_t kServers = 2;
  const double qges[] = {0.8, 0.9, 1.0};
  for (cluster::DispatchPolicy policy :
       {cluster::DispatchPolicy::kRoundRobin, cluster::DispatchPolicy::kJsq,
        cluster::DispatchPolicy::kRandom}) {
    util::Table table({"rate/server", "q80_J", "q80_frac", "q80_disc",
                       "q90_J", "q90_frac", "q90_disc", "q100_J", "q100_frac",
                       "q100_disc"});
    for (double rate : ctx.rates) {
      table.begin_row();
      table.add(rate, 1);
      for (double qge : qges) {
        exp::ExperimentConfig cfg = ctx.base;
        cfg.num_servers = kServers;
        cfg.dispatch = policy;
        cfg.arrival_rate = rate * static_cast<double>(kServers);
        cfg.q_ge = qge;
        const ReclaimPoint point = run_point(cfg);
        table.add(point.realized_j, 1);
        table.add(point.cont_frac, 4);
        table.add(point.disc_frac, 4);
      }
    }
    bench::print_panel(
        ctx, std::string(cluster::to_string(policy)) + " dispatch: realised J / reclaim fraction",
        table,
        "the reclaimable fraction peaks near the critical load "
        "(compensation sprints leave convexity headroom a clairvoyant "
        "re-speed smooths away) and collapses in overload, where GE "
        "already runs flat out; it shrinks as Q_GE rises (cut work at low "
        "Q_GE runs on schedules far from the fluid profile); random "
        "dispatch leaves the most on the table at light load because its "
        "imbalance makes the busy server sprint hardest; with a continuous "
        "DVFS range the ladder column equals the continuous one, and "
        "trails it by the envelope-chord premium when --discrete pins a "
        "finite ladder");
  }
  return 0;
}
