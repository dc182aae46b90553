#include "fig_common.h"

#include <cstdio>
#include <iostream>

#include "exp/flags_config.h"

namespace ge::bench {

FigureContext parse_figure_args(const util::Flags& flags,
                                std::vector<double> default_rates) {
  FigureContext ctx;
  ctx.base = exp::ExperimentConfig::paper_defaults();
  ctx.base.duration = flags.get_positive_double("seconds", 60.0);
  ctx.base.seed = static_cast<std::uint64_t>(flags.get_int_at_least("seed", 1, 0));
  ctx.base = exp::apply_cluster_flags(std::move(ctx.base), flags);
  ctx.rates = flags.get_positive_double_list("rates", std::move(default_rates));
  ctx.csv = flags.get_bool("csv", false);
  ctx.exec = exp::parse_execution_options(flags);
  return ctx;
}

void print_banner(const FigureContext& ctx, const std::string& figure,
                  const std::string& title) {
  std::printf("== %s: %s ==\n", figure.c_str(), title.c_str());
  std::printf(
      "config: m=%zu cores, H=%.0f W, P=%g*s^%g, c=%g, Q_GE=%.2f, "
      "deadline=%.0f ms, duration=%.0f s/point, seed=%llu\n",
      ctx.base.cores, ctx.base.power_budget, ctx.base.power_a, ctx.base.power_beta,
      ctx.base.quality_c, ctx.base.q_ge, ctx.base.deadline_interval * 1000.0,
      ctx.base.duration, static_cast<unsigned long long>(ctx.base.seed));
  std::printf("note: critical load %.0f req/s, overload point ~%.0f req/s\n\n",
              ctx.base.critical_load, ctx.base.overload_rate);
}

void print_panel(const FigureContext& ctx, const std::string& caption,
                 const util::Table& table, const std::string& paper_shape) {
  std::printf("-- %s --\n", caption.c_str());
  if (ctx.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::printf("paper shape: %s\n\n", paper_shape.c_str());
}

double metric_quality(const exp::RunResult& r) { return r.quality; }
double metric_energy(const exp::RunResult& r) { return r.energy; }

}  // namespace ge::bench
