// Ablation: triggering-event parameters (Sec. III-E / IV-B) -- the quantum
// period and the waiting-queue counter threshold.
#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  const bench::FigureContext ctx = bench::parse_figure_args(flags, {175.0});
  flags.reject_unread();
  bench::print_banner(ctx, "Ablation",
                      "quantum / counter trigger sensitivity (175 req/s)");

  exp::ExperimentConfig base = ctx.base;
  base.arrival_rate = ctx.rates.front();

  // All nine (quantum, counter) combinations share the single point's trace
  // and run concurrently on the engine.
  struct Combo {
    double quantum;
    int counter;
  };
  std::vector<Combo> combos;
  exp::ExperimentPlan plan;
  for (double quantum : {0.1, 0.5, 2.0}) {
    for (int counter : {1, 8, 32}) {
      exp::ExperimentConfig cfg = base;
      cfg.quantum = quantum;
      cfg.counter_threshold = counter;
      plan.add(cfg, exp::SchedulerSpec::parse("GE"), 0);
      combos.push_back({quantum, counter});
    }
  }
  const std::vector<exp::RunResult> results = exp::run_plan(plan, ctx.exec);

  util::Table table({"quantum_s", "counter", "quality", "energy_J", "p99_ms",
                     "rounds"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const exp::RunResult& r = results[i];
    table.begin_row();
    table.add(combos[i].quantum, 2);
    table.add(static_cast<std::uint64_t>(combos[i].counter));
    table.add(r.quality, 4);
    table.add(r.energy, 1);
    table.add(r.p99_response_ms, 1);
    table.add(r.rounds);
  }
  bench::print_panel(ctx, "GE sensitivity to the triggering parameters", table,
                     "the paper's (0.5 s, 8) sits in a flat region: idle-core "
                     "triggering dominates, so quality and energy barely move "
                     "unless the counter gets so large that batching delays "
                     "dispatch near the 150 ms deadline");
  return 0;
}
