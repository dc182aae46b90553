#include "server/multicore_server.h"

#include "util/check.h"

namespace ge::server {

MulticoreServer::MulticoreServer(std::size_t cores, double power_budget,
                                 const power::PowerModel& pm, sim::Simulator& sim)
    : budget_(power_budget), models_(cores, pm) {
  GE_CHECK(cores > 0, "server needs at least one core");
  GE_CHECK(power_budget > 0.0, "power budget must be positive");
  build_cores(sim);
}

MulticoreServer::MulticoreServer(std::vector<power::PowerModel> models,
                                 double power_budget, sim::Simulator& sim)
    : budget_(power_budget), models_(std::move(models)) {
  GE_CHECK(!models_.empty(), "server needs at least one core");
  GE_CHECK(power_budget > 0.0, "power budget must be positive");
  build_cores(sim);
}

void MulticoreServer::build_cores(sim::Simulator& sim) {
  cores_.reserve(models_.size());
  for (std::size_t i = 0; i < models_.size(); ++i) {
    cores_.push_back(std::make_unique<Core>(static_cast<int>(i), models_[i], sim));
  }
}

Core& MulticoreServer::core(std::size_t i) {
  GE_CHECK(i < cores_.size(), "core index out of range");
  return *cores_[i];
}

const Core& MulticoreServer::core(std::size_t i) const {
  GE_CHECK(i < cores_.size(), "core index out of range");
  return *cores_[i];
}

const power::PowerModel& MulticoreServer::power_model(std::size_t i) const {
  GE_CHECK(i < models_.size(), "core index out of range");
  return models_[i];
}

void MulticoreServer::check_caps(const std::vector<double>& caps) const {
  GE_CHECK(caps.size() == cores_.size(), "one cap per core required");
  double total = 0.0;
  for (double cap : caps) {
    GE_CHECK(cap >= 0.0, "power caps must be non-negative");
    total += cap;
  }
  GE_CHECK(total <= budget_ * (1.0 + 1e-9) + 1e-9, "caps exceed the power budget");
}

double MulticoreServer::total_power(double t) const {
  double total = 0.0;
  for (const auto& core : cores_) {
    total += core->current_power(t);
  }
  return total;
}

double MulticoreServer::total_energy() const {
  double total = 0.0;
  for (const auto& core : cores_) {
    total += core->energy();
  }
  return total;
}

util::TimeWeightedStats MulticoreServer::aggregate_speed_stats() const {
  util::TimeWeightedStats stats;
  for (const auto& core : cores_) {
    stats.merge(core->speed_stats());
  }
  return stats;
}

double MulticoreServer::total_busy_time() const {
  double total = 0.0;
  for (const auto& core : cores_) {
    total += core->busy_time();
  }
  return total;
}

int MulticoreServer::find_idle_core(double t) const {
  for (const auto& core : cores_) {
    if (core->online() && !core->busy(t)) {
      return core->id();
    }
  }
  return -1;
}

std::size_t MulticoreServer::online_cores() const {
  std::size_t count = 0;
  for (const auto& core : cores_) {
    count += core->online() ? 1u : 0u;
  }
  return count;
}

}  // namespace ge::server
