// Ablation: parallel-DES shard count x load on an 8-server fleet
// (docs/DESIGN.md, "Sharded parallel DES").  Each row runs the *same*
// simulation with the cluster event loop split into 1/2/4/8 shards and
// reports wall-clock time, speedup over the serial loop, and job
// throughput; the binary aborts if any sharded result differs from the
// serial one by a single bit, so the table doubles as an end-to-end
// determinism check.
//
// Three panels per rate:
//
//  * prerouted -- plain round-robin dispatch is state-free, so the sharded
//    run needs *zero* cross-shard barriers: shards only synchronise at the
//    final horizon, the best case for scaling.  Speedup is bounded by
//    physical cores; every shard has its own worker thread, so counts above
//    the core count time-share.
//  * prerouted (churn + admission) -- the same fleet with lifecycle churn,
//    wake costs, three tenants and admission control (the perfbench
//    `fleet_sharded` shape).  Dispatch is still planned at setup against
//    the precomputed availability windows, so only the lifecycle
//    transitions (a few per window) are cross-shard barriers.
//  * barrier-dense (churn + admission, jsq) -- that fleet under
//    join-shortest-queue, which reads live load: every arrival and deadline
//    is a cross-shard barrier and most epochs have at most one shard with
//    work; this measures the executor's per-epoch cost (a lone busy shard
//    runs on the coordinator, idle shards are skipped).
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>

#include "cluster/dispatcher.h"
#include "fig_common.h"
#include "util/check.h"
#include "workload/trace.h"

namespace {

double wall_seconds_best_of(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    best = std::min(best, dt);
  }
  return best;
}

// One table: the shard counts 1/2/4/8 on `cfg`, each row checked
// bit-for-bit against the serial row.
void run_panel(const ge::bench::FigureContext& ctx,
               ge::exp::ExperimentConfig cfg, const char* regime,
               double rate_per_server) {
  using namespace ge;
  const exp::SchedulerSpec spec = exp::SchedulerSpec::parse("GE");
  const workload::Trace trace =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);

  util::Table table(
      {"shards", "wall_s", "speedup", "kjobs/s", "quality", "energy_J"});
  exp::RunResult serial;
  double serial_wall = 0.0;
  constexpr std::size_t kShardCounts[] = {1, 2, 4, 8};
  for (std::size_t shards : kShardCounts) {
    if (shards > cfg.num_servers) {
      continue;
    }
    cfg.shards = shards;
    exp::RunResult r;
    const double wall = wall_seconds_best_of(
        2, [&] { r = exp::run_simulation(cfg, spec, trace); });
    if (shards == 1) {
      serial = r;
      serial_wall = wall;
    } else {
      // The table is only worth printing if the parallel loop is exact.
      GE_CHECK(r.quality == serial.quality && r.energy == serial.energy &&
                   r.released == serial.released &&
                   r.completed == serial.completed &&
                   r.mean_response_ms == serial.mean_response_ms,
               "sharded run diverged from the serial event loop");
    }
    table.begin_row();
    table.add(static_cast<std::uint64_t>(shards));
    table.add(wall, 3);
    table.add(serial_wall / wall, 2);
    table.add(static_cast<double>(r.released) / wall / 1000.0, 1);
    table.add(r.quality, 4);
    table.add(r.energy, 1);
  }
  char caption[96];
  std::snprintf(caption, sizeof(caption), "%s, rate/server = %g req/s", regime,
                rate_per_server);
  bench::print_panel(
      ctx, caption, table,
      "results are bit-identical across rows by construction; prerouted wall "
      "time drops toward 1/min(shards, cores) of the serial loop on multicore "
      "hosts (no or few cross-shard barriers), and barrier-dense wall time "
      "stays near serial");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  bench::FigureContext ctx =
      bench::parse_figure_args(flags, {150.0, 220.0});
  flags.reject_unread();
  // The ablation is about the fleet's event loop; default to the 8-server
  // heavy-load shape unless --servers overrides it.
  if (ctx.base.num_servers == 1) {
    ctx.base.num_servers = 8;
  }
  ctx.base.dispatch = cluster::DispatchPolicy::kRoundRobin;
  bench::print_banner(ctx, "Ablation",
                      "parallel-DES shard count x load, " +
                          std::to_string(ctx.base.num_servers) +
                          "-server fleet");
  std::printf("hardware concurrency: %u threads\n\n",
              std::thread::hardware_concurrency());

  for (double rate_per_server : ctx.rates) {
    exp::ExperimentConfig cfg = ctx.base;
    cfg.arrival_rate =
        rate_per_server * static_cast<double>(cfg.num_servers);
    run_panel(ctx, cfg, "prerouted", rate_per_server);

    cfg.churn = 0.1;
    cfg.churn_dwell = 0.5;
    cfg.wake_latency = 0.02;
    cfg.setup_energy = 50.0;
    cfg.num_tenants = 3;
    cfg.tenant_qge = {0.95, 0.9, 0.8};
    cfg.admission = 1.5;
    run_panel(ctx, cfg, "prerouted (churn + admission)", rate_per_server);

    cfg.dispatch = cluster::DispatchPolicy::kJsq;
    run_panel(ctx, cfg, "barrier-dense (churn + admission, jsq)",
              rate_per_server);
  }
  return 0;
}
