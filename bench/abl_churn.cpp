// Ablation: availability churn x wake latency x load (beyond the paper,
// which assumes always-on servers; Sec. VII's server-farm setting plus the
// setup/wake costs of real fleets).  A fixed fleet of 4 GE servers behind
// round-robin dispatch suffers exponential ON/OFF churn: each server is
// OFF a `churn` fraction of the time in dwells of mean `churn_dwell`, pays
// `setup_energy` J per wake, and is undispatchable for `wake_latency` s
// after each window ends.  The dispatcher queues arrivals whenever the
// whole fleet is dark and re-dispatches on wake; jobs whose deadline
// passes in the queue expire there.  Columns: quality, dynamic energy,
// setup energy, wakes, and dispatcher-queue expiries -- the knee where
// churn outruns the deadline window is the interesting part.
#include <cstddef>
#include <string>

#include "cluster/dispatcher.h"
#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  const bench::FigureContext ctx =
      bench::parse_figure_args(flags, {100.0, 150.0, 200.0});
  flags.reject_unread();
  bench::print_banner(ctx, "Ablation",
                      "availability churn x wake latency x load");

  constexpr std::size_t kServers = 4;
  const double churns[] = {0.0, 0.1, 0.3};
  for (double wake_latency : {0.0, 0.05}) {
    std::vector<exp::RunVariant> variants;
    for (double churn : churns) {
      exp::RunVariant variant;
      variant.label = "churn " + std::to_string(churn).substr(0, 3);
      variant.spec = exp::SchedulerSpec::parse("GE");
      variant.tweak = [churn, wake_latency](exp::ExperimentConfig cfg) {
        cfg.num_servers = kServers;
        cfg.dispatch = cluster::DispatchPolicy::kRoundRobin;
        cfg.churn = churn;
        cfg.churn_dwell = 0.4;
        cfg.wake_latency = wake_latency;
        cfg.setup_energy = 20.0;
        return cfg;
      };
      variants.push_back(std::move(variant));
    }

    const auto points = exp::sweep_variants(
        ctx.base, variants, ctx.rates,
        [](exp::ExperimentConfig cfg, double rate_per_server) {
          cfg.arrival_rate = rate_per_server * static_cast<double>(kServers);
          return cfg;
        },
        ctx.exec);

    util::Table table({"rate/server", "c0_q", "c.1_q", "c.3_q", "c0_J",
                       "c.1_J", "c.3_J", "c.1_setupJ", "c.3_setupJ",
                       "c.1_wakes", "c.3_wakes", "c.1_expired", "c.3_expired"});
    for (const auto& point : points) {
      table.begin_row();
      table.add(point.x, 1);
      for (const auto& r : point.results) {
        table.add(r.quality, 4);
      }
      for (const auto& r : point.results) {
        table.add(r.energy, 1);
      }
      for (std::size_t i = 1; i < point.results.size(); ++i) {
        table.add(point.results[i].setup_energy_j, 1);
      }
      for (std::size_t i = 1; i < point.results.size(); ++i) {
        table.add(static_cast<double>(point.results[i].wakes), 0);
      }
      for (std::size_t i = 1; i < point.results.size(); ++i) {
        table.add(static_cast<double>(point.results[i].expired_in_queue), 0);
      }
    }
    bench::print_panel(
        ctx,
        "wake latency " + std::to_string(wake_latency).substr(0, 4) +
            " s: quality / energy / setup / wakes / queue expiries",
        table,
        "mild churn mostly shifts load onto the surviving servers (quality "
        "dips, dynamic energy concentrates); heavy churn plus wake latency "
        "starts expiring jobs in the dispatcher queue once outages rival "
        "the deadline window, and setup energy grows linearly with wakes "
        "while buying no quality -- the energy argument for consolidating "
        "into fewer, steadier servers");
  }
  return 0;
}
