#include "exp/scheduler_registry.h"

#include <algorithm>
#include <cctype>

#include "util/check.h"

namespace ge::exp {
namespace {

std::string upper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::toupper(c));
  });
  return out;
}

}  // namespace

SchedulerRegistry::SchedulerRegistry() {
  for (auto family : {ge_family_plugins, queue_family_plugins,
                      speed_scaling_family_plugins, yds_offline_plugins}) {
    for (SchedulerPlugin& plugin : family()) {
      add(std::move(plugin));
    }
  }
}

SchedulerRegistry& SchedulerRegistry::instance() {
  static SchedulerRegistry registry;
  return registry;
}

void SchedulerRegistry::add(SchedulerPlugin plugin) {
  GE_CHECK(!plugin.name.empty(), "scheduler plugin has no name");
  GE_CHECK(plugin.factory != nullptr,
           "scheduler plugin has no factory: " + plugin.name);
  GE_CHECK(plugin.min_params <= plugin.max_params,
           "scheduler plugin min_params > max_params: " + plugin.name);
  plugins_.push_back(std::make_unique<SchedulerPlugin>(std::move(plugin)));
  const SchedulerPlugin* stored = plugins_.back().get();
  const auto claim = [&](const std::string& key) {
    GE_CHECK(!key.empty(), "scheduler plugin has an empty alias: " + stored->name);
    const bool inserted = index_.emplace(upper(key), stored).second;
    GE_CHECK(inserted, "duplicate scheduler name/alias: " + key);
  };
  claim(stored->name);
  for (const std::string& alias : stored->aliases) {
    claim(alias);
  }
}

const SchedulerPlugin* SchedulerRegistry::find(std::string_view key) const {
  const auto it = index_.find(upper(key));
  return it == index_.end() ? nullptr : it->second;
}

std::vector<const SchedulerPlugin*> SchedulerRegistry::plugins() const {
  std::vector<const SchedulerPlugin*> out;
  out.reserve(plugins_.size());
  for (const auto& plugin : plugins_) {
    out.push_back(plugin.get());
  }
  std::sort(out.begin(), out.end(),
            [](const SchedulerPlugin* a, const SchedulerPlugin* b) {
              return upper(a->name) < upper(b->name);
            });
  return out;
}

}  // namespace ge::exp
