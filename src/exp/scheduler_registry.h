// Scheduler plugin registry.
//
// A scheduler is a SchedulerPlugin -- canonical name, aliases, parameter
// contract, factory.  SchedulerSpec::parse, display_name and make_scheduler
// are thin lookups over this table.  The built-in families
// (src/exp/schedulers/) each export a function returning their plugins, and
// the registry adds them, in one fixed list, when it is first used.  A
// binary of your own adds its plugins with add() at the top of main()
// (examples/custom_scheduler.cpp is the worked tutorial; docs/SCHEDULERS.md
// is the handbook).
//
// add() is not synchronised: call it before any thread looks a scheduler
// up.  After that the registry is read-only and safe to consult from the
// experiment engine's worker threads without locking.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace ge::sched {
class Scheduler;
struct SchedulerEnv;
}  // namespace ge::sched

namespace ge::power {
class DiscreteSpeedTable;
}

namespace ge::exp {

struct ExperimentConfig;
struct SchedulerSpec;

struct SchedulerPlugin {
  // Canonical CLI name ("GE", "GE-NoComp", "QOA", ...).  Lookups are
  // case-insensitive; display_name() and docs use this exact spelling.
  std::string name;
  // Alternate spellings ("GE-NC" for "GE-NoComp"), also case-insensitive.
  std::vector<std::string> aliases;
  // One-line description for ge_list_schedulers / docs validation.
  std::string summary;
  // Human-readable parameter contract, "" when the scheduler takes none
  // (e.g. "q > 0: multiplier on the OA speed (default 1.5)").
  std::string params_help;
  // Accepted bracket-parameter count for the "NAME[p1,p2]" grammar.
  std::size_t min_params = 0;
  std::size_t max_params = 0;

  // Builds the scheduler (required).  `table` may be nullptr (continuous
  // DVFS) and must outlive the scheduler when provided.
  std::function<std::unique_ptr<sched::Scheduler>(
      const SchedulerSpec& spec, const sched::SchedulerEnv& env,
      const ExperimentConfig& cfg, const power::DiscreteSpeedTable* table)>
      factory;

  // Optional: validates and applies spec.params right after parse() stores
  // them (set defaults, copy into dedicated spec fields).  Returns "" or a
  // one-line domain error.  Called with parse()'s result even when no
  // bracket was given.
  std::function<std::string(SchedulerSpec& spec)> apply_params;

  // Optional: canonical display of a spec; must round-trip through parse().
  // Default: the canonical name, plus "[p1,p2]" when params are present.
  std::function<std::string(const SchedulerSpec& spec)> display;

  // Optional: effective server power budget (BE-P scales it).  Default:
  // cfg.power_budget.
  std::function<double(const SchedulerSpec& spec, const ExperimentConfig& cfg)>
      effective_budget;
};

class SchedulerRegistry {
 public:
  // The process-wide registry; the first call adds the built-ins.
  static SchedulerRegistry& instance();

  // Registers a plugin.  Checked errors: missing name/factory, duplicate
  // name or alias (case-insensitive), min_params > max_params.
  void add(SchedulerPlugin plugin);

  // Case-insensitive lookup by canonical name or alias; nullptr if absent.
  const SchedulerPlugin* find(std::string_view key) const;

  // Every plugin in canonical-name order (stable across runs, used by
  // ge_list_schedulers and the docs catalog check).
  std::vector<const SchedulerPlugin*> plugins() const;

  std::size_t size() const noexcept { return plugins_.size(); }

 private:
  SchedulerRegistry();

  // unique_ptr keeps plugin addresses stable: SchedulerSpec holds one.
  std::vector<std::unique_ptr<SchedulerPlugin>> plugins_;
  std::map<std::string, const SchedulerPlugin*> index_;  // case-folded key
};

// The built-in families, one per file under src/exp/schedulers/.
std::vector<SchedulerPlugin> ge_family_plugins();
std::vector<SchedulerPlugin> queue_family_plugins();
std::vector<SchedulerPlugin> speed_scaling_family_plugins();
std::vector<SchedulerPlugin> yds_offline_plugins();

}  // namespace ge::exp
