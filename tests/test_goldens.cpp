// The golden store (DESIGN.md section 7): every pinned end-to-end result
// is one `<key> <record>` line of tests/goldens.txt.  A run's record is
// exp::to_json(RunResult), every field in round-trip form, so comparing
// text compares whole results bit for bit.  The store is read strictly; on
// any failure the test writes every recomputed record to goldens.actual
// and names the one `cp` that applies it.  Each TEST checks one key group
// (cluster/ is split by run) and keeps the name of the table it replaced.
#include <gtest/gtest.h>

#include <unistd.h>

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exp/config.h"
#include "exp/replicate.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "exp/timeline.h"
#include "golden_cases.h"
#include "workload/trace.h"

namespace ge {
namespace {

// ---------------------------------------------------------------------------
// Harness.

// Every way a case is run, as (how, record) pairs; each must print the
// stored record, and the first is the one a refresh writes.
using Runs = std::vector<std::pair<std::string, std::string>>;

struct Case {
  std::string key;
  std::function<Runs()> run;
};

const std::vector<Case>& all_cases();

constexpr const char* kHeader =
    "# Pinned end-to-end results: one `<key> <record>` line per case of\n"
    "# tests/test_goldens.cpp.  Refresh with the `cp` its failure prints.\n";

struct Store {
  struct Line {
    std::size_t number;
    std::string record;
  };
  std::map<std::string, Line> lines;
  std::string errors;  // one "\n  <file>[:<line>]: <problem>" each
};

Store load_store() {
  Store store;
  const auto error = [&store](std::size_t number, const std::string& problem) {
    store.errors += std::string("\n  ") + GE_GOLDENS_FILE +
                    (number > 0 ? ":" + std::to_string(number) : "") + ": " + problem;
  };
  std::ifstream in(GE_GOLDENS_FILE);
  if (!in) {
    error(0, "cannot read");
  }
  std::string text;
  for (std::size_t number = 1; std::getline(in, text); ++number) {
    if (text.starts_with('#')) {
      continue;
    }
    const std::size_t space = text.find(' ');
    if (space == 0 || space == std::string::npos || space + 1 == text.size()) {
      error(number, "not a `<key> <record>` line");
      continue;
    }
    const auto [it, fresh] = store.lines.emplace(
        text.substr(0, space), Store::Line{number, text.substr(space + 1)});
    if (!fresh) {
      error(number, "duplicate key " + it->first + " (first on line " +
                        std::to_string(it->second.number) + ")");
    }
  }
  std::set<std::string> keys;
  for (const Case& c : all_cases()) {
    keys.insert(c.key);
    if (!store.lines.contains(c.key)) {
      error(0, "no line for case " + c.key);
    }
  }
  for (const auto& [key, line] : store.lines) {
    if (!keys.contains(key)) {
      error(line.number, "no case reads key " + key);
    }
  }
  return store;
}

const Store& store() {
  static const Store loaded = load_store();
  return loaded;
}

// Each case runs at most once per process, however many groups fail.
const Runs& runs_of(const Case& c) {
  static std::map<std::string, Runs> done;
  const auto it = done.find(c.key);
  return it != done.end() ? it->second : done.emplace(c.key, c.run()).first->second;
}

void write_actual() {
  std::ostringstream out;
  out << kHeader;
  for (const Case& c : all_cases()) {
    out << c.key << ' ' << runs_of(c).front().second << '\n';
  }
  // Written aside and renamed, so concurrent failing tests cannot
  // interleave; every writer writes the same bytes.
  const std::filesystem::path actual = std::filesystem::absolute("goldens.actual");
  const std::filesystem::path tmp =
      actual.string() + "." + std::to_string(::getpid());
  std::ofstream(tmp) << out.str();
  std::filesystem::rename(tmp, actual);
  ADD_FAILURE() << "wrote every recomputed record to " << actual.string()
                << "; if the change is deliberate, review the diff and apply "
                   "it with\n  cp "
                << actual.string() << ' ' << GE_GOLDENS_FILE;
}

// Checks every case whose key starts with `group` against the store, in
// each way of running it whose name starts with `how`.
void expect_group(std::string_view group, std::string_view how_prefix = "") {
  const Store& s = store();
  bool ok = s.errors.empty();
  if (!ok) {
    ADD_FAILURE() << "malformed golden store:" << s.errors;
  }
  for (const Case& c : all_cases()) {
    const auto line = s.lines.find(c.key);
    if (!c.key.starts_with(group) || line == s.lines.end()) {
      continue;
    }
    for (const auto& [how, record] : runs_of(c)) {
      if (how.starts_with(how_prefix) && record != line->second.record) {
        ok = false;
        ADD_FAILURE() << c.key << " (" << how << ") differs from "
                      << GE_GOLDENS_FILE << ":" << line->second.number
                      << "\n  got:    " << record
                      << "\n  stored: " << line->second.record;
      }
    }
  }
  if (!ok) {
    write_actual();
  }
}

exp::ExperimentConfig paper_config(double duration, double rate, std::uint64_t seed) {
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.duration = duration;
  cfg.arrival_rate = rate;
  cfg.seed = seed;
  return cfg;
}

Case run_case(std::string key, const exp::ExperimentConfig& cfg,
              const exp::SchedulerSpec& spec) {
  return {std::move(key), [cfg, spec] {
            return Runs{{"run", exp::to_json(exp::run_simulation(cfg, spec))}};
          }};
}

std::string round_trip(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

// ---------------------------------------------------------------------------
// Cases.

// registry/: every pre-registry scheduler on three configs -- paper
// defaults, discrete DVFS on a smaller server, a 3-server JSQ cluster.
void add_registry_cases(std::vector<Case>& cases) {
  exp::ExperimentConfig discrete8 = paper_config(1.5, 220.0, 11);
  discrete8.cores = 8;
  discrete8.power_budget = 160.0;
  discrete8.discrete_speeds = true;
  exp::ExperimentConfig jsq3 = paper_config(1.0, 180.0, 3);
  jsq3.num_servers = 3;
  jsq3.dispatch = cluster::DispatchPolicy::kJsq;
  std::vector<std::pair<std::string, exp::SchedulerSpec>> specs;
  for (const char* name : {"GE", "GE-NoComp", "GE-ES", "GE-WF", "GE-RR", "OQ",
                           "BE", "FCFS", "FDFS", "LJF", "SJF"}) {
    specs.emplace_back(name, exp::SchedulerSpec::parse(name));
  }
  // The calibrated variants set their fields the way calibrate.cpp does,
  // not through bracket parameters.
  specs.emplace_back("BE-P-x0.8", exp::SchedulerSpec::parse("BE-P"));
  specs.back().second.budget_scale = 0.8;
  specs.emplace_back("BE-S-2.4GHz", exp::SchedulerSpec::parse("BE-S"));
  specs.back().second.speed_cap_ghz = 2.4;
  for (const auto& [cfg_name, cfg] : {std::pair{"paper", paper_config(2.0, 150.0, 7)},
                                      std::pair{"discrete8", discrete8},
                                      std::pair{"jsq3", jsq3}}) {
    for (const auto& [spec_name, spec] : specs) {
      cases.push_back(
          run_case(std::string("registry/") + cfg_name + "/" + spec_name, cfg, spec));
    }
  }
}

// single/ and kernel/: the paper server over 4 s.  single/ pins the
// num_servers == 1 path through the cluster layer to the pre-cluster
// runner; kernel/ guards the hot-path kernels (summation order, sort
// order, math library calls).
struct PaperPoint {
  const char* sched;
  double rate;
  std::uint64_t seed;
  bool discrete = false;
  int hetero = 1;
  double failure_time = -1.0;
  std::size_t failure_cores = 0;
};

void add_paper_server_cases(std::vector<Case>& cases, const std::string& group,
                            const std::vector<PaperPoint>& points) {
  for (const PaperPoint& p : points) {
    exp::ExperimentConfig cfg = paper_config(4.0, p.rate, p.seed);
    cfg.discrete_speeds = p.discrete;
    cfg.hetero_spread = p.hetero;
    cfg.failure_time = p.failure_time;
    cfg.failure_cores = p.failure_cores;
    exp::SchedulerSpec spec = exp::SchedulerSpec::parse(p.sched);
    if (spec.is("BE-P")) {
      spec.budget_scale = 0.8;
    }
    if (spec.is("BE-S")) {
      spec.speed_cap_ghz = 2.2;
    }
    std::string key = group + p.sched + "-" + std::to_string(static_cast<int>(p.rate)) +
                      "-s" + std::to_string(p.seed);
    key += p.discrete ? "-discrete" : "";
    key += p.hetero != 1 ? "-hetero" + std::to_string(p.hetero) : "";
    key += p.failure_time >= 0.0 ? "-failure" : "";
    cases.push_back(run_case(key, cfg, spec));
  }
}

// cluster/: the eight cluster configs, always-on and single-tenant, so
// the record's lifecycle and tenant fields stay inert.  The serial loop,
// and the serial loop and --shards 4 with the verify-power sampler and a
// timeline riding along as cross-shard events, must each print it.
Runs cluster_runs(const testdata::ClusterCase& c) {
  const workload::Trace trace =
      workload::Trace::generate(c.cfg.workload_spec(), c.cfg.duration);
  const exp::SchedulerSpec spec = exp::SchedulerSpec::parse(c.sched);
  Runs runs = {{"serial", exp::to_json(exp::run_simulation(c.cfg, spec, trace))}};
  for (const std::size_t shards : {1u, 4u}) {
    exp::ExperimentConfig cfg = c.cfg;
    cfg.shards = shards;
    cfg.verify_power = true;
    exp::Timeline timeline;
    timeline.interval = 0.05;
    runs.emplace_back("shards " + std::to_string(shards) + " + verify_power + timeline",
                      exp::to_json(exp::run_simulation(cfg, spec, trace, &timeline)));
  }
  return runs;
}

// reclaim/: digests of every reclaim total and bin on the same configs.
// Every instance there is agreeable, so they pin the linear taut-string
// path; a change that moves them must show its drift against the YDS
// oracle (ReclaimAgreeable.GoldenClusterConfigsMatchTheYdsOracle).
void add_cluster_cases(std::vector<Case>& cases) {
  for (const testdata::ClusterCase& c : testdata::cluster_cases()) {
    cases.push_back({std::string("cluster/") + c.name, [c] { return cluster_runs(c); }});
  }
  for (const testdata::ClusterCase& c : testdata::cluster_cases()) {
    cases.push_back({std::string("reclaim/") + c.name, [c] {
                       const std::uint64_t digest = testdata::reclaim_digest(
                           testdata::run_and_reclaim(c.cfg, c.sched).reclaim);
                       char hex[24];
                       std::snprintf(hex, sizeof(hex), "0x%016" PRIx64, digest);
                       return Runs{{"run", hex}};
                     }});
  }
}

// replay/: one tie-heavy CSV trace replayed on one server, on a 2-server
// rr fleet and on a 2-server jsq fleet, serially and with --shards 2.
// Every time sits on a 0.05 s grid that contains the 0.5 s quantum grid,
// each step releases 3-6 jobs at the same instant, and every deadline is
// the spelling of a later step's arrival time, so arrivals, deadlines and
// round boundaries tie exactly and only the (time, seq) tie-break orders
// them.  The records were first captured from the build that pushed every
// arrival and deadline at set-up.
std::string tie_heavy_csv() {
  std::string csv = "id,arrival,deadline,demand\n";
  char row[64];
  std::uint64_t id = 1;
  for (int k = 0; k < 40; ++k) {
    for (int j = 0; j < 3 + k % 4; ++j) {
      const int window = 1 + (j + k) % 3;  // 0.05, 0.10 or 0.15 s
      const int demand = 130 + ((7 * k + 13 * j) % 9) * 40;
      std::snprintf(row, sizeof(row), "%llu,%.2f,%.2f,%d\n",
                    static_cast<unsigned long long>(id++), 0.05 * k,
                    0.05 * (k + window), demand);
      csv += row;
    }
  }
  return csv;
}

Case replay_case(std::string key, std::size_t servers,
                 cluster::DispatchPolicy dispatch) {
  return {std::move(key), [servers, dispatch] {
            const workload::Trace trace = workload::Trace::from_csv(tie_heavy_csv());
            exp::ExperimentConfig cfg = testdata::small_fleet(servers, dispatch, 90.0, 41);
            const exp::SchedulerSpec spec = exp::SchedulerSpec::parse("GE");
            Runs runs = {{"serial", exp::to_json(exp::run_simulation(cfg, spec, trace))}};
            if (servers > 1) {
              cfg.shards = 2;
              runs.emplace_back("shards 2",
                                exp::to_json(exp::run_simulation(cfg, spec, trace)));
            }
            return runs;
          }};
}

void add_replay_cases(std::vector<Case>& cases) {
  cases.push_back(replay_case("replay/ties-single", 1, cluster::DispatchPolicy::kJsq));
  cases.push_back(replay_case("replay/ties-rr2", 2, cluster::DispatchPolicy::kRoundRobin));
  cases.push_back(replay_case("replay/ties-jsq2", 2, cluster::DispatchPolicy::kJsq));
}

// replicate/: replicate() statistics, first captured from the pre-engine
// serial implementation.
Case replicate_case() {
  return {"replicate/GE-150-s7-x4", [] {
            const exp::ReplicationSummary s = exp::replicate(
                paper_config(2.0, 150.0, 7), exp::SchedulerSpec::parse("GE"), 4);
            std::string record = "{\"replicas\": " + std::to_string(s.replicas);
            for (const auto& [name, stats] :
                 {std::pair{"quality", &s.quality}, std::pair{"energy", &s.energy},
                  std::pair{"aes_fraction", &s.aes_fraction},
                  std::pair{"p99_response_ms", &s.p99_response_ms}}) {
              record += std::string(", \"") + name + "_mean\": " +
                        round_trip(stats->mean()) + ", \"" + name +
                        "_stddev\": " + round_trip(stats->stddev());
            }
            return Runs{{"run", record + "}"}};
          }};
}

const std::vector<Case>& all_cases() {
  static const std::vector<Case> cases = [] {
    std::vector<Case> all;
    add_registry_cases(all);
    add_paper_server_cases(all, "single/",
                           {{"GE", 150, 21},
                            {"GE", 230, 22, true},
                            {"BE", 150, 23},
                            {"BE-P", 180, 24},
                            {"BE-S", 180, 25},
                            {"GE-RR", 200, 26},
                            {"FDFS", 120, 27, false, 2},
                            {"GE", 160, 28, false, 1, 1.5, 4}});
    add_paper_server_cases(all, "kernel/",
                           {{"GE", 100, 11},
                            {"GE", 220, 12},
                            {"GE", 180, 13, true},
                            {"BE", 220, 14},
                            {"OQ", 150, 15},
                            {"FCFS", 150, 16},
                            {"GE-NoComp", 200, 17},
                            {"SJF", 150, 18, true}});
    add_cluster_cases(all);
    add_replay_cases(all);
    all.push_back(replicate_case());
    return all;
  }();
  return cases;
}

// ---------------------------------------------------------------------------
// One TEST per group.

TEST(GoldenSchedulers, BitIdenticalThroughRegistry) { expect_group("registry/"); }

TEST(ClusterRun, SingleServerGoldenBitIdentity) { expect_group("single/"); }

TEST(KernelEquivalence, GoldenPinnedSeeds) { expect_group("kernel/"); }

// The cluster/ records split by how they are run: the plain serial loop
// must reproduce the pre-lifecycle build, lifecycle and tenant fields
// inert; the sharded runs must print the same records.
TEST(ClusterGoldens, AlwaysOnRunsAreBitIdenticalToPreLifecycleBuild) {
  expect_group("cluster/", "serial");
}

TEST(ShardGoldens, SerialAndShardedReproducePreRefactorResults) {
  expect_group("cluster/", "shards");
}

TEST(ReclaimScanExactness, GoldenClusterTotalsAndBinsAreBitwiseUnchanged) {
  expect_group("reclaim/");
}

TEST(ReplayGoldens, TieHeavyTraceMatchesEagerSetupRelease) { expect_group("replay/"); }

TEST(Replicate, MatchesPreEngineSerialValues) { expect_group("replicate/"); }

}  // namespace
}  // namespace ge
