#include "exp/scheduler_spec.h"

#include <cstdio>
#include <cstdlib>

#include "exp/config.h"
#include "exp/scheduler_registry.h"
#include "util/check.h"

namespace ge::exp {
namespace {

std::string format_param(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

std::string format_params(const std::vector<double>& params) {
  std::string out = "[";
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (i > 0) out += ",";
    out += format_param(params[i]);
  }
  out += "]";
  return out;
}

}  // namespace

const SchedulerPlugin& SchedulerSpec::resolved() const {
  if (plugin != nullptr) {
    return *plugin;
  }
  const SchedulerPlugin* ge = SchedulerRegistry::instance().find("GE");
  GE_CHECK(ge != nullptr, "default scheduler plugin 'GE' is not registered");
  return *ge;
}

bool SchedulerSpec::is(std::string_view canonical_name) const {
  return resolved().name == canonical_name;
}

std::string SchedulerSpec::display_name() const {
  const SchedulerPlugin& p = resolved();
  if (p.display) {
    return p.display(*this);
  }
  if (params.empty()) {
    return p.name;
  }
  return p.name + format_params(params);
}

std::optional<SchedulerSpec> SchedulerSpec::try_parse(const std::string& name,
                                                     std::string& error) {
  std::string base = name;
  std::vector<double> params;
  const std::size_t lb = name.find('[');
  if (lb != std::string::npos) {
    if (name.back() != ']') {
      error = "bad scheduler spec (expected trailing ']'): " + name;
      return std::nullopt;
    }
    base = name.substr(0, lb);
    const std::string inside = name.substr(lb + 1, name.size() - lb - 2);
    std::size_t pos = 0;
    while (pos < inside.size()) {
      std::size_t comma = inside.find(',', pos);
      if (comma == std::string::npos) comma = inside.size();
      const std::string token = inside.substr(pos, comma - pos);
      char* end = nullptr;
      const double value = std::strtod(token.c_str(), &end);
      if (token.empty() || end != token.c_str() + token.size()) {
        error = "bad scheduler parameter '" + token + "' in: " + name;
        return std::nullopt;
      }
      params.push_back(value);
      pos = comma + 1;
    }
    if (params.empty()) {
      error = "empty scheduler parameter list in: " + name;
      return std::nullopt;
    }
  }

  const SchedulerPlugin* p = SchedulerRegistry::instance().find(base);
  if (p == nullptr) {
    error = "unknown scheduler name: " + name;
    return std::nullopt;
  }
  if (params.size() < p->min_params || params.size() > p->max_params) {
    error = "scheduler " + p->name + " expects between " +
            std::to_string(p->min_params) + " and " +
            std::to_string(p->max_params) + " parameters, got " +
            std::to_string(params.size()) + ": " + name;
    return std::nullopt;
  }

  SchedulerSpec spec;
  spec.plugin = p;
  spec.params = std::move(params);
  if (p->apply_params) {
    if (std::string domain = p->apply_params(spec); !domain.empty()) {
      error = domain + ": " + name;
      return std::nullopt;
    }
  }
  return spec;
}

SchedulerSpec SchedulerSpec::parse(const std::string& name) {
  std::string error;
  std::optional<SchedulerSpec> spec = try_parse(name, error);
  if (!spec) {
    GE_FAIL(error);
  }
  return *spec;
}

std::optional<std::vector<SchedulerSpec>> parse_scheduler_list(
    const std::string& text, std::string& error) {
  std::vector<SchedulerSpec> specs;
  std::size_t from = 0;
  int depth = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    const char ch = i < text.size() ? text[i] : ',';
    depth += ch == '[' ? 1 : ch == ']' ? -1 : 0;
    if (ch != ',' || (depth > 0 && i < text.size())) {
      continue;
    }
    std::optional<SchedulerSpec> spec = SchedulerSpec::try_parse(
        text.substr(from, i - from), error);
    if (!spec) {
      return std::nullopt;
    }
    specs.push_back(std::move(*spec));
    from = i + 1;
  }
  return specs;
}

double effective_budget(const SchedulerSpec& spec, const ExperimentConfig& cfg) {
  const SchedulerPlugin& p = spec.resolved();
  if (p.effective_budget) {
    return p.effective_budget(spec, cfg);
  }
  return cfg.power_budget;
}

std::unique_ptr<sched::Scheduler> make_scheduler(const SchedulerSpec& spec,
                                                 const sched::SchedulerEnv& env,
                                                 const ExperimentConfig& cfg,
                                                 const power::DiscreteSpeedTable* table) {
  return spec.resolved().factory(spec, env, cfg, table);
}

}  // namespace ge::exp
