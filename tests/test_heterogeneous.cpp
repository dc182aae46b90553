// Tests for heterogeneous-core servers (per-core power models).
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "exp/config.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "server/multicore_server.h"

namespace ge::server {
namespace {

TEST(Heterogeneous, PerCoreModelsExposed) {
  sim::Simulator sim;
  std::vector<power::PowerModel> models;
  models.emplace_back(5.0, 2.0, 1000.0);
  models.emplace_back(10.0, 2.0, 1000.0);
  MulticoreServer server(std::move(models), 40.0, sim);
  EXPECT_NE(server.power_model(0).a(), server.power_model(1).a());
  EXPECT_EQ(server.core_count(), 2u);
  // Same speed costs twice the power on the inefficient core.
  EXPECT_NEAR(server.power_model(1).power(1000.0),
              2.0 * server.power_model(0).power(1000.0), 1e-9);
  EXPECT_NEAR(server.core(1).power_model().power(1000.0), 10.0, 1e-9);
}

TEST(Heterogeneous, HomogeneousConstructorIsNotHeterogeneous) {
  sim::Simulator sim;
  power::PowerModel pm;
  MulticoreServer server(4, 80.0, pm, sim);
  for (std::size_t i = 0; i < server.core_count(); ++i) {
    EXPECT_EQ(server.power_model(i).a(), server.power_model().a()) << i;
  }
  EXPECT_NEAR(server.power_model(3).power(1000.0), server.power_model().power(1000.0),
              1e-12);
}

}  // namespace
}  // namespace ge::server

namespace ge::exp {
namespace {

ExperimentConfig hetero_config(double spread, double rate = 150.0) {
  ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  cfg.arrival_rate = rate;
  cfg.duration = 5.0;
  cfg.seed = 37;
  cfg.hetero_spread = spread;
  return cfg;
}

TEST(Heterogeneous, ConfigBuildsLinearSpread) {
  const ExperimentConfig cfg = hetero_config(3.0);
  const auto models = cfg.cluster_node_specs(cfg.power_budget)[0].core_models;
  ASSERT_EQ(models.size(), 16u);
  EXPECT_NEAR(models.front().a(), 5.0, 1e-12);
  EXPECT_NEAR(models.back().a(), 15.0, 1e-12);
  EXPECT_GT(models[8].a(), models[7].a());
}

TEST(Heterogeneous, SpreadOneIsHomogeneous) {
  const ExperimentConfig cfg = hetero_config(1.0);
  const auto models = cfg.cluster_node_specs(cfg.power_budget)[0].core_models;
  for (const auto& m : models) {
    EXPECT_DOUBLE_EQ(m.a(), 5.0);
  }
}

TEST(Heterogeneous, GeRunsWithinBudget) {
  ExperimentConfig cfg = hetero_config(2.5, 180.0);
  cfg.verify_power = true;
  const RunResult r = run_simulation(cfg, SchedulerSpec{});
  EXPECT_GT(r.released, 0u);
  EXPECT_EQ(r.released, r.completed + r.partial + r.dropped);
}

TEST(Heterogeneous, InefficientSiliconCostsEnergyOrQuality) {
  const ExperimentConfig homo = hetero_config(1.0);
  const workload::Trace trace =
      workload::Trace::generate(homo.workload_spec(), homo.duration);
  const RunResult base = run_simulation(homo, SchedulerSpec{}, trace);
  const RunResult spread = run_simulation(hetero_config(3.0), SchedulerSpec{}, trace);
  // With part of the silicon less efficient, the same promise costs more
  // energy (or, at the cap, some quality).
  EXPECT_GT(spread.energy + 1e-6, base.energy);
  EXPECT_LE(spread.quality, base.quality + 0.01);
}

TEST(Heterogeneous, InvalidSpreadDies) {
  ExperimentConfig cfg = hetero_config(0.5);
  EXPECT_DEATH(cfg.validate(), "hetero");
}

TEST(Heterogeneous, AllSchedulersComplete) {
  for (const char* algo : {"GE", "BE", "FCFS", "SJF"}) {
    const RunResult r = run_simulation(hetero_config(2.0), SchedulerSpec::parse(algo));
    EXPECT_GT(r.quality, 0.0) << algo;
    EXPECT_EQ(r.released, r.completed + r.partial + r.dropped) << algo;
  }
}

}  // namespace
}  // namespace ge::exp
