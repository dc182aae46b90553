// Enumerates the scheduler plugin registry: every compiled-in scheduler
// with its aliases, parameter arity/help, and one-line summary.
//
//   ge_list_schedulers          aligned table for humans
//   ge_list_schedulers --json   machine-readable catalog (ge-schedulers-v1);
//                               CI and ctest feed this to
//                               tools/check_scheduler_docs.py so
//                               docs/SCHEDULERS.md cannot drift from the
//                               registry (see docs/SCHEDULERS.md)
//   ge_list_schedulers --json --out FILE   write to FILE instead of stdout
//
// A misspelled flag, a stray argument or --out without a file exits 2.
#include <fstream>
#include <iostream>
#include <string>

#include "exp/scheduler_registry.h"
#include "util/flags.h"
#include "util/table.h"

namespace {

std::string join(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& p : parts) {
    if (!out.empty()) {
      out += ", ";
    }
    out += p;
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

void print_json(std::ostream& os) {
  const auto plugins = ge::exp::SchedulerRegistry::instance().plugins();
  os << "{\n  \"schema\": \"ge-schedulers-v1\",\n  \"schedulers\": [\n";
  for (std::size_t i = 0; i < plugins.size(); ++i) {
    const ge::exp::SchedulerPlugin& p = *plugins[i];
    os << "    {\"name\": \"" << json_escape(p.name) << "\", \"aliases\": [";
    for (std::size_t a = 0; a < p.aliases.size(); ++a) {
      os << (a ? ", " : "") << '"' << json_escape(p.aliases[a]) << '"';
    }
    os << "], \"min_params\": " << p.min_params
       << ", \"max_params\": " << p.max_params << ", \"params_help\": \""
       << json_escape(p.params_help) << "\", \"summary\": \""
       << json_escape(p.summary) << "\"}" << (i + 1 < plugins.size() ? "," : "")
       << "\n";
  }
  os << "  ]\n}\n";
}

void print_table(std::ostream& os) {
  ge::util::Table table({"name", "aliases", "params", "summary"});
  for (const ge::exp::SchedulerPlugin* p :
       ge::exp::SchedulerRegistry::instance().plugins()) {
    table.begin_row();
    table.add(p->name);
    table.add(p->aliases.empty() ? "-" : join(p->aliases));
    if (p->max_params == 0) {
      table.add("-");
    } else {
      table.add(std::to_string(p->min_params) + ".." +
                std::to_string(p->max_params));
    }
    table.add(p->summary);
  }
  table.print(os);
  os << "\nspec grammar: NAME or NAME[p1,p2,...] (case-insensitive); see "
        "docs/SCHEDULERS.md\n";
}

}  // namespace

int main(int argc, char** argv) {
  const ge::util::Flags flags(argc, argv);
  const bool json = flags.get_bool("json", false);
  const std::string out_path = flags.get_string("out", "");
  if (flags.has("out") && out_path.empty()) {
    ge::util::Flags::reject("out", "a file path", out_path);
  }
  flags.reject_unread();
  std::ofstream file;
  if (!out_path.empty()) {
    file.open(out_path);
    if (!file) {
      std::cerr << "ge_list_schedulers: cannot open " << out_path << "\n";
      return 1;
    }
  }
  std::ostream& os = out_path.empty() ? std::cout : file;
  if (json) {
    print_json(os);
  } else {
    print_table(os);
  }
  return 0;
}
