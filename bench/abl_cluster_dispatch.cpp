// Ablation: cluster dispatch policy x server count x load (beyond the
// paper, which studies one server; Sec. VII points at server farms).  N
// identical servers -- each with its own GE scheduler compensating against
// its own quality feedback -- sit behind one dispatch tier; the arrival
// rate scales with N so every panel compares policies at the same
// per-server load.  Load CoV is the coefficient of variation of per-server
// dispatched-job counts (0 = perfectly balanced dispatch).
#include <cstddef>

#include "cluster/dispatcher.h"
#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  const bench::FigureContext ctx =
      bench::parse_figure_args(flags, {100.0, 150.0, 200.0});
  flags.reject_unread();
  bench::print_banner(ctx, "Ablation",
                      "cluster dispatch policy x server count x load");

  const cluster::DispatchPolicy policies[] = {
      cluster::DispatchPolicy::kRandom, cluster::DispatchPolicy::kRoundRobin,
      cluster::DispatchPolicy::kJsq, cluster::DispatchPolicy::kLeastEnergy};
  for (std::size_t servers : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    std::vector<exp::RunVariant> variants;
    for (cluster::DispatchPolicy policy : policies) {
      exp::RunVariant variant;
      variant.label = cluster::to_string(policy);
      variant.spec = exp::SchedulerSpec::parse("GE");
      variant.tweak = [servers, policy](exp::ExperimentConfig cfg) {
        cfg.num_servers = servers;
        cfg.dispatch = policy;
        return cfg;
      };
      variants.push_back(std::move(variant));
    }

    const auto points = exp::sweep_variants(
        ctx.base, variants, ctx.rates,
        [servers](exp::ExperimentConfig cfg, double rate_per_server) {
          cfg.arrival_rate = rate_per_server * static_cast<double>(servers);
          return cfg;
        },
        ctx.exec);

    util::Table table({"rate/server", "rand_q", "rr_q", "jsq_q", "le_q",
                       "rand_J", "rr_J", "jsq_J", "le_J", "rand_cov", "rr_cov",
                       "jsq_cov", "le_cov"});
    for (const auto& point : points) {
      table.begin_row();
      table.add(point.x, 1);
      for (const auto& r : point.results) {
        table.add(r.quality, 4);
      }
      for (const auto& r : point.results) {
        table.add(r.energy, 1);
      }
      for (const auto& r : point.results) {
        table.add(r.server_load_cov, 4);
      }
    }
    bench::print_panel(
        ctx, std::to_string(servers) + " servers: quality / energy / load CoV",
        table,
        "rr and jsq balance load (CoV near 0) and track the single-server "
        "quality curve at the same per-server rate; random's imbalance costs "
        "quality as load grows; least-energy herds arrivals onto whichever "
        "server has spent least so far, trading balance for an energy-"
        "levelling effect across the fleet");
  }
  return 0;
}
