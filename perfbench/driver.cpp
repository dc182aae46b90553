// perfbench driver: runs one named benchmark workload through the library's
// public functions, times each call, checks the results, and prints one JSON
// result line.  See README.md for the workloads, metrics and traced mode.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--pins FILE] [--out-dir DIR] [--commit ID]
//                    [--source-sha HEX] [--print-pins]
//
// With --trace 0 the driver repeats the workload's measured section for S
// seconds (at least kMinIterations times) with no telemetry attached and
// reports the end-to-end metrics as medians over the iterations.  With
// --trace 1 it attaches the library's metrics and profiler to each run,
// records a span around every public call it makes, and reports per-layer
// metrics; the spans are written to DIR when the run ends.
#include <malloc.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "exp/config.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "obs/analysis/analysis.h"
#include "obs/analysis/dashboard.h"
#include "obs/analysis/reclaim.h"
#include "obs/analysis/report.h"
#include "obs/analysis/trace_reader.h"
#include "obs/telemetry.h"
#include "power/discrete_speed.h"
#include "workload/trace.h"

namespace {

namespace fs = std::filesystem;
namespace analysis = ge::obs::analysis;
using ge::exp::ExperimentConfig;
using ge::exp::RunResult;
using ge::exp::SchedulerSpec;
using Clock = std::chrono::steady_clock;

// Every measured loop runs at least this many iterations, so a median is
// taken over at least three samples even when one iteration outlasts the
// requested run length.
constexpr std::size_t kMinIterations = 3;
// Set-ups timed per iteration; setup_s is the median over all of them.  A
// single set-up of a few milliseconds varies by +-25% within one process on
// a shared host, so the median needs many samples.
constexpr int kSetupSamples = 9;
// Seeds whose RunResults are pinned in the pins file: the default seed and
// one held out from tuning.
constexpr std::uint64_t kPinnedSeeds[] = {1, 99};

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// The numeric value of one "Key:" line of /proc/self/status, 0 if absent.
double proc_status(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtod(line.c_str() + key.size(), nullptr);
    }
  }
  return 0.0;
}

// The kernel's RSS high-water mark, in MiB.
double peak_rss_mib() { return proc_status("VmHWM:") / 1024.0; }  // kB

// Returns freed heap to the OS and restarts the high-water mark at the
// current RSS, so the next iteration's peak is its own and does not depend
// on how earlier iterations fragmented the heap.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string g17(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

// ---------------------------------------------------------------- checks

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
  }
  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

using Fields = std::vector<std::pair<std::string, std::string>>;

// Every RunResult field a run fills, doubles at %.17g, so two results
// compare bit for bit.
Fields all_fields(const RunResult& r) {
  Fields f = {
      {"scheduler", r.scheduler},
      {"quality", g17(r.quality)},
      {"energy", g17(r.energy)},
      {"static_energy", g17(r.static_energy)},
      {"avg_power", g17(r.avg_power)},
      {"mean_response_ms", g17(r.mean_response_ms)},
      {"p50_response_ms", g17(r.p50_response_ms)},
      {"p95_response_ms", g17(r.p95_response_ms)},
      {"p99_response_ms", g17(r.p99_response_ms)},
      {"aes_fraction", g17(r.aes_fraction)},
      {"avg_speed_ghz", g17(r.avg_speed_ghz)},
      {"speed_variance", g17(r.speed_variance)},
      {"released", std::to_string(r.released)},
      {"completed", std::to_string(r.completed)},
      {"partial", std::to_string(r.partial)},
      {"dropped", std::to_string(r.dropped)},
      {"rounds", std::to_string(r.rounds)},
      {"wf_rounds", std::to_string(r.wf_rounds)},
      {"es_rounds", std::to_string(r.es_rounds)},
      {"busy_fraction", g17(r.busy_fraction)},
      {"energy_cov", g17(r.energy_cov)},
      {"num_servers", std::to_string(r.num_servers)},
      {"dispatch", r.dispatch},
      {"server_energy_cov", g17(r.server_energy_cov)},
      {"server_load_cov", g17(r.server_load_cov)},
      {"setup_energy_j", g17(r.setup_energy_j)},
      {"wakes", std::to_string(r.wakes)},
      {"rejected", std::to_string(r.rejected)},
      {"expired_in_queue", std::to_string(r.expired_in_queue)},
  };
  for (std::size_t t = 0; t < r.tenants.size(); ++t) {
    const ge::exp::TenantRunResult& tr = r.tenants[t];
    char prefix[32];
    std::snprintf(prefix, sizeof prefix, "t%zu.", t);
    const std::string p = prefix;
    f.emplace_back(p + "quality", g17(tr.quality));
    f.emplace_back(p + "slo_burn", g17(tr.slo_burn));
    f.emplace_back(p + "energy_j", g17(tr.energy_j));
    f.emplace_back(p + "released", std::to_string(tr.released));
    f.emplace_back(p + "completed", std::to_string(tr.completed));
    f.emplace_back(p + "partial", std::to_string(tr.partial));
    f.emplace_back(p + "dropped", std::to_string(tr.dropped));
  }
  return f;
}

// The fields pinned per (workload, seed): energy, quality and mean response
// at %.17g, and the outcome counts, rounds, wakes and rejects exactly; one
// set per task, prefixed "taskK." when the workload has several.
Fields pinned_fields(const std::vector<RunResult>& results) {
  const std::vector<std::string> keep = {
      "quality", "energy", "mean_response_ms", "released", "completed",
      "partial", "dropped", "rounds", "wf_rounds", "es_rounds",
      "wakes", "rejected", "expired_in_queue"};
  Fields out;
  for (std::size_t k = 0; k < results.size(); ++k) {
    const std::string prefix =
        results.size() > 1 ? "task" + std::to_string(k) += "." : std::string();
    for (auto& [name, value] : all_fields(results[k])) {
      if (std::find(keep.begin(), keep.end(), name) != keep.end()) {
        out.emplace_back(prefix + name, value);
      }
    }
  }
  return out;
}

void expect_same(Checks& checks, const RunResult& a, const RunResult& b,
                 const std::string& what) {
  const Fields fa = all_fields(a);
  const Fields fb = all_fields(b);
  checks.expect(fa.size() == fb.size(), what + ": field count");
  for (std::size_t i = 0; i < std::min(fa.size(), fb.size()); ++i) {
    checks.expect(fa[i] == fb[i], what + ": " + fa[i].first + " " +
                                      fa[i].second + " vs " + fb[i].second);
  }
}

void expect_same(Checks& checks, const std::vector<RunResult>& a,
                 const std::vector<RunResult>& b, const std::string& what) {
  checks.expect(a.size() == b.size(), what + ": task count");
  for (std::size_t k = 0; k < std::min(a.size(), b.size()); ++k) {
    expect_same(checks, a[k], b[k], what);
  }
}

// released = completed + partial + dropped, and the tenant slices partition
// the released jobs.
void expect_conserved(Checks& checks, const ExperimentConfig& cfg,
                      const RunResult& r) {
  checks.expect(r.released > 0, "no job released");
  checks.expect(r.released == r.completed + r.partial + r.dropped,
                "released != completed + partial + dropped");
  if (cfg.num_tenants > 1) {
    checks.expect(r.tenants.size() == cfg.num_tenants, "tenant slice count");
    std::uint64_t released = 0;
    std::uint64_t settled = 0;
    for (const ge::exp::TenantRunResult& t : r.tenants) {
      released += t.released;
      settled += t.completed + t.partial + t.dropped;
    }
    checks.expect(released == r.released, "sum of tenant released != released");
    checks.expect(settled == r.released, "sum of tenant outcomes != released");
  }
}

// Pins file: one "workload seed field value" line per pinned field.
using Pins = std::map<std::string, std::string>;  // "workload seed field" -> value

Pins load_pins(const std::string& path) {
  Pins pins;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream row(line);
    std::string workload, seed, field, value;
    if (row >> workload >> seed >> field >> value) {
      pins[workload + " " + seed + " " + field] = value;
    }
  }
  return pins;
}

// ---------------------------------------------------------------- workloads

struct Workload {
  std::string name;
  // One config per task of the measured section; tasks differ only in seed.
  std::vector<ExperimentConfig> tasks;
  std::string scheduler = "GE";
  bool report = false;  // --report capture, report directory and dashboard
};

// The fleet both fleet workloads share: 8 x 16-core servers behind
// round-robin dispatch at 140 req/s per server (below the 154 req/s
// critical load), with churn, wake costs, three tenants and admission.
ExperimentConfig fleet_config() {
  ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  cfg.num_servers = 8;
  cfg.dispatch = ge::cluster::DispatchPolicy::kRoundRobin;
  cfg.arrival_rate = 140.0 * 8;
  cfg.churn = 0.1;
  cfg.churn_dwell = 0.5;
  cfg.wake_latency = 0.02;
  cfg.setup_energy = 50.0;
  cfg.num_tenants = 3;
  cfg.tenant_qge = {0.95, 0.9, 0.8};
  cfg.admission = 1.5;
  cfg.shards = 2;
  return cfg;
}

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  Workload w;
  w.name = name;
  ExperimentConfig cfg;
  std::size_t replicates = 1;
  if (name == "single_overload") {
    // The paper's server running GE above the 198 req/s overload point.
    // 500 s (110k jobs) keeps the trace and the event heap clear of a
    // power-of-two capacity step; at 600 s (132k jobs, 264k events) every
    // seed lands within a fraction of a percent of 2^17 jobs / 2^18 events,
    // and peak RSS flips by ~10% between seeds.
    cfg = ExperimentConfig::paper_defaults();
    cfg.arrival_rate = 220.0;
    cfg.duration = 500.0;
  } else if (name == "fleet_sharded") {
    cfg = fleet_config();
    cfg.duration = 60.0;
  } else if (name == "fleet_stream") {
    // 1120 req/s reaches the job cap at ~893 s, before the horizon.
    cfg = fleet_config();
    cfg.stream = true;
    cfg.max_jobs = 1000000;
    cfg.duration = 1000.0;
  } else if (name == "report_traced") {
    cfg = ExperimentConfig::paper_defaults();
    cfg.num_servers = 2;
    cfg.dispatch = ge::cluster::DispatchPolicy::kJsq;
    cfg.arrival_rate = 150.0 * 2;
    cfg.discrete_speeds = true;
    cfg.num_tenants = 2;
    cfg.tenant_qge = {0.95, 0.85};
    // The reclaim advisor's cost grows roughly cubically with the horizon
    // and varies by +-20% between seeds; twelve 12 s replicates in one
    // report keep a pass at a few seconds and average the per-seed
    // variation.  At 12 s a task captures ~55k trace events, clear of the
    // 2^16 capacity step that made peak RSS flip between seeds at 15 s.
    cfg.duration = 12.0;
    replicates = 12;
    w.report = true;
  } else {
    return std::nullopt;
  }
  for (std::size_t k = 0; k < replicates; ++k) {
    cfg.seed = seed * replicates + k;
    w.tasks.push_back(cfg);
  }
  return w;
}

// ---------------------------------------------------------------- tracing

// One span: a public call made by the driver, or (calls != 1) a library
// profiler aggregate laid out inside its parent.
struct Span {
  std::string name;
  int parent = -1;
  double start_s = 0.0;  // since the tracer's origin
  double end_s = 0.0;
  double calls = 1.0;
  double child_cursor = 0.0;  // where the next aggregate child starts
  std::vector<std::pair<std::string, double>> counters;
};

class Tracer {
 public:
  int open(const std::string& name, int parent) {
    const double t = since(origin_);
    spans_.push_back(Span{name, parent, t, t, 1.0, t, {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { at(id).end_s = since(origin_); }

  // Records `seconds` spent over `calls` calls inside `parent`, placed after
  // the parent's previous aggregate child.
  int aggregate(const std::string& name, int parent, double seconds, double calls) {
    Span& p = at(parent);
    const double start = p.child_cursor;
    p.child_cursor += seconds;
    spans_.push_back(Span{name, parent, start, start + seconds, calls, start, {}});
    return static_cast<int>(spans_.size()) - 1;
  }

  Span& at(int id) { return spans_[static_cast<std::size_t>(id)]; }
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// Opens a span on a non-null tracer for the scope's lifetime.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int parent)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->open(name, parent) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->close(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

// Live thread count of this process.
int thread_count() { return static_cast<int>(proc_status("Threads:")); }

// Samples the process's thread count every 2 ms while it lives.  The
// library's sharded loop runs one pool worker per shard and the serial loop
// none, so the peak number of extra threads is the shard count a run
// actually used.
class ShardSampler {
 public:
  ShardSampler() : baseline_(thread_count() + 1), thread_([this] { loop(); }) {}
  ~ShardSampler() { stop(); }
  ShardSampler(const ShardSampler&) = delete;
  ShardSampler& operator=(const ShardSampler&) = delete;

  // Stops sampling; returns the observed shard count (1 = serial loop).
  int stop() {
    if (thread_.joinable()) {
      stop_ = true;
      thread_.join();
    }
    return std::max(1, peak_.load() - baseline_);
  }

 private:
  void loop() {
    while (!stop_) {
      peak_ = std::max(peak_.load(), thread_count());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  int baseline_;
  std::atomic<bool> stop_{false};
  std::atomic<int> peak_{0};
  std::thread thread_;  // last: starts after the members it reads
};

// ---------------------------------------------------------------- running

// What the measured section consumes: the resolved scheduler and, for
// materialised workloads, one generated trace per task.
struct Prepared {
  SchedulerSpec spec;
  std::vector<ge::workload::Trace> traces;
};

// Set-up: validate the configs, resolve the scheduler, generate the traces.
Prepared prepare(const Workload& w, Tracer* tracer = nullptr, int parent = -1) {
  Prepared p;
  {
    ScopedSpan span(tracer, "exp.validate", parent);
    for (const ExperimentConfig& cfg : w.tasks) {
      cfg.validate();
    }
    p.spec = SchedulerSpec::parse(w.scheduler);
  }
  for (const ExperimentConfig& cfg : w.tasks) {
    if (!cfg.stream) {
      ScopedSpan span(tracer, "workload.generate", parent);
      p.traces.push_back(
          ge::workload::Trace::generate(cfg.workload_spec(), cfg.duration, cfg.max_jobs));
    }
  }
  return p;
}

// Times prepare() kSetupSamples times into `samples`, in CPU seconds of the
// calling thread: set-up is single-threaded, and CPU time leaves out the
// waits for a core that dominate wall-time noise on a shared host.  A sample
// shorter than 5 ms (the streaming workload has no trace to generate) is the
// mean of a doubling batch of repeats, so the clock reads stay negligible.
Prepared timed_prepare(const Workload& w, std::vector<double>* samples) {
  Prepared p;
  for (int s = 0; s < kSetupSamples; ++s) {
    const double t0 = thread_cpu_seconds();
    int reps = 0;
    for (int batch = 1; reps == 0 || thread_cpu_seconds() - t0 < 0.005; batch *= 2) {
      for (int i = 0; i < batch; ++i) {
        p = prepare(w);
      }
      reps += batch;
    }
    samples->push_back((thread_cpu_seconds() - t0) / reps);
  }
  return p;
}

// One task's run; `trace` is null on streaming workloads.
RunResult simulate(const ExperimentConfig& cfg, const SchedulerSpec& spec,
                   const ge::workload::Trace* trace,
                   ge::obs::RunTelemetry* telemetry) {
  if (cfg.stream) {
    return ge::exp::run_simulation_stream(cfg, spec, nullptr, telemetry);
  }
  return ge::exp::run_simulation(cfg, spec, *trace, nullptr, telemetry);
}

// The analysis input for one captured task, as the experiment engine builds
// it for --report.
analysis::TaskInput task_input(std::size_t index, const ExperimentConfig& cfg,
                               const SchedulerSpec& spec, const RunResult& result,
                               const ge::obs::TraceBuffer& buffer) {
  analysis::TaskInput input;
  input.info.task = index;
  input.info.scheduler = spec.display_name();
  input.info.arrival_rate = cfg.arrival_rate;
  input.info.cores = cfg.cores;
  input.info.power_budget = ge::exp::effective_budget(spec, cfg);
  input.info.power_model_json = cfg.power_model().describe_json();
  if (cfg.discrete_speeds) {
    input.info.ladder_units =
        ge::power::DiscreteSpeedTable::uniform_ghz(
            cfg.discrete_step_ghz, cfg.discrete_max_ghz,
            cfg.power_model().units_per_ghz())
            .levels();
  }
  input.buffer = &buffer;
  for (const ge::cluster::NodeSpec& node :
       cfg.cluster_node_specs(input.info.power_budget)) {
    input.models.push_back(node.core_models);
  }
  input.reported_energy_j = result.energy;
  for (std::size_t t = 0; cfg.num_tenants > 1 && t < cfg.num_tenants; ++t) {
    input.tenant_q_ge.push_back(cfg.tenant_q_target(t));
  }
  return input;
}

analysis::MetricsValues metric_values(const ge::obs::MetricsRegistry& reg) {
  std::stringstream json;
  reg.write_json(json);
  return analysis::read_metrics_json(json);
}

// Facts the report pipeline's checks and per-layer metrics need.
struct TaskReport {
  double watchdog_checks = 0.0;
  double watchdog_violations = -1.0;
  std::size_t recorded_violations = 0;
  double energy_rel_err = -1.0;
  std::uint64_t analysed_released = 0;
  analysis::ReclaimAnalysis reclaim;
};

struct ReportFacts {
  std::vector<TaskReport> tasks;
  std::size_t trace_events = 0;
  bool loaded = false;
  std::size_t loaded_tasks = 0;
  std::uintmax_t report_bytes = 0;
};

struct RunOutput {
  std::vector<RunResult> results;                   // one per task
  std::vector<analysis::MetricsValues> metrics;     // per task, with telemetry
  std::optional<ReportFacts> report;                // report pipeline
};

std::uintmax_t directory_bytes(const fs::path& dir) {
  std::uintmax_t bytes = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) {
      bytes += e.file_size();
    }
  }
  return bytes;
}

// How one measured section executes.
struct ExecOptions {
  bool capture = false;      // attach trace capture and the watchdog
  bool pipeline = false;     // report, reload and dashboard after the runs
  std::size_t shards = 0;    // non-zero: override the workload's shard count
  Tracer* tracer = nullptr;  // non-null: profile the runs and record spans
  int parent = -1;
  const fs::path* report_dir = nullptr;
};

// The measured section: one run_simulation call per task, then (report
// workloads) the pipeline the CLI's --report runs over those tasks: report
// directory, reload, dashboard.
RunOutput execute(const Workload& w, const Prepared& p, const ExecOptions& opt) {
  RunOutput out;
  Tracer* tr = opt.tracer;
  std::vector<std::unique_ptr<ge::obs::RunTelemetry>> tels;
  for (std::size_t k = 0; k < w.tasks.size(); ++k) {
    ExperimentConfig cfg = w.tasks[k];
    if (opt.shards != 0) {
      cfg.shards = opt.shards;
    }
    std::unique_ptr<ge::obs::RunTelemetry> tel;
    if (opt.capture || tr != nullptr) {
      tel = std::make_unique<ge::obs::RunTelemetry>();
      tel->want_trace = opt.capture;
      tel->want_watchdog = opt.capture;
      if (tr != nullptr) {
        tel->enable_profiling();
      }
    }
    int run_id = -1;
    {
      ScopedSpan span(tr, "exp.run", opt.parent);
      run_id = span.id();
      out.results.push_back(
          simulate(cfg, p.spec, cfg.stream ? nullptr : &p.traces[k], tel.get()));
    }
    if (tel != nullptr) {
      out.metrics.push_back(metric_values(tel->metrics));
    }
    if (tr != nullptr) {
      // The library's profiler spans nest as sim_run > ge_round > {cut,
      // power_dist, plan}; hang them, and every counter, under exp.run.
      const analysis::MetricsValues& m = out.metrics.back();
      const auto agg = [&](const char* name, const char* prof, int parent) {
        const std::string base = std::string("prof.") + prof;
        return tr->aggregate(name, parent, m.get(base + "_ns", 0.0) * 1e-9,
                             m.get(base + "_calls", 0.0));
      };
      const int loop = agg("sim.loop", "sim_run", run_id);
      const int round = agg("core.round", "ge_round", loop);
      agg("opt.cut", "cut", round);
      agg("power.dist", "power_dist", round);
      agg("opt.plan", "plan", round);
      tr->at(run_id).counters = m.values;
    }
    tels.push_back(std::move(tel));
  }
  if (!opt.pipeline) {
    return out;
  }

  ReportFacts facts;
  const fs::path& dir = *opt.report_dir;
  fs::remove_all(dir);
  std::vector<analysis::TaskInput> inputs;
  for (std::size_t k = 0; k < w.tasks.size(); ++k) {
    inputs.push_back(task_input(k, w.tasks[k], p.spec, out.results[k], tels[k]->trace));
    facts.trace_events += tels[k]->trace.size();
    TaskReport t;
    t.watchdog_checks = out.metrics[k].get("watchdog.checks", 0.0);
    t.watchdog_violations = out.metrics[k].get("watchdog.violations", -1.0);
    facts.tasks.push_back(t);
  }
  if (tr != nullptr) {
    // Traced runs also call the two analysis passes directly, so each gets
    // its own span; ReportWriter::add_task runs both again internally.
    for (const analysis::TaskInput& input : inputs) {
      analysis::TaskAnalysis task;
      {
        ScopedSpan span(tr, "analysis.analyze", opt.parent);
        task = analysis::analyze_task(input);
      }
      ScopedSpan span(tr, "analysis.reclaim", opt.parent);
      analysis::analyze_reclaim(input, task);
    }
  }
  analysis::ReportWriter writer;
  for (const analysis::TaskInput& input : inputs) {
    ScopedSpan span(tr, "analysis.add_task", opt.parent);
    writer.add_task(input);
  }
  {
    ScopedSpan span(tr, "analysis.write", opt.parent);
    writer.write_directory(dir.string());
  }
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    const analysis::TaskAnalysis& task = writer.tasks()[k];
    facts.tasks[k].recorded_violations = task.violations.size();
    facts.tasks[k].energy_rel_err = task.energy_rel_err;
    facts.tasks[k].analysed_released = task.released;
    facts.tasks[k].reclaim = writer.reclaims()[k];
  }
  const analysis::LoadedReport loaded = [&] {
    ScopedSpan span(tr, "analysis.load", opt.parent);
    return analysis::load_report_dir(dir.string());
  }();
  facts.loaded = loaded.ok();
  facts.loaded_tasks = loaded.inputs.size();
  {
    ScopedSpan span(tr, "analysis.dashboard", opt.parent);
    std::ofstream html(dir / "dashboard.html");
    analysis::write_dashboard(html, loaded.inputs);
  }
  facts.report_bytes = directory_bytes(dir);
  out.report = std::move(facts);
  return out;
}

// Zero watchdog violations, a passing energy-identity verdict, the reclaim
// chain offline <= continuous <= ladder <= realised, and a report directory
// that loads back.
void expect_report_clean(Checks& checks, const std::vector<RunResult>& results,
                         const ReportFacts& f) {
  checks.expect(f.tasks.size() == results.size(), "report task count");
  for (std::size_t k = 0; k < std::min(f.tasks.size(), results.size()); ++k) {
    const TaskReport& t = f.tasks[k];
    checks.expect(t.watchdog_checks > 0.0, "watchdog ran no checks");
    checks.expect(t.watchdog_violations == 0.0, "watchdog recorded violations");
    checks.expect(t.recorded_violations == 0, "report lists violations");
    checks.expect(t.energy_rel_err >= 0.0 && t.energy_rel_err <= 1e-9,
                  "energy identity verdict is not OK (rel err " +
                      g17(t.energy_rel_err) + ")");
    checks.expect(t.analysed_released == results[k].released,
                  "report released != run released");
    const analysis::ReclaimAnalysis& r = t.reclaim;
    const double tol = 1e-9 * r.realized_j;
    checks.expect(r.offline_j <= r.cont_j + tol && r.cont_j <= r.disc_j + tol &&
                      r.disc_j <= r.realized_j + tol,
                  "reclaim chain offline <= cont <= disc <= realised");
  }
  checks.expect(f.loaded && f.loaded_tasks == results.size(),
                "report dir did not reload");
  checks.expect(f.report_bytes > 0, "empty report directory");
}

// Checks every workload's results get: conservation, the pinned fields at a
// pinned seed, and workload-specific cross-checks against reference runs.
void check_results(Checks& checks, const Workload& w, const Prepared& p,
                   const std::vector<RunResult>& results, const Pins& pins,
                   std::uint64_t seed) {
  for (std::size_t k = 0; k < results.size(); ++k) {
    expect_conserved(checks, w.tasks[k], results[k]);
  }
  if (std::find(std::begin(kPinnedSeeds), std::end(kPinnedSeeds), seed) !=
      std::end(kPinnedSeeds)) {
    for (const auto& [field, value] : pinned_fields(results)) {
      const std::string key = w.name + " " + std::to_string(seed) + " " + field;
      const auto it = pins.find(key);
      checks.expect(it != pins.end() && it->second == value,
                    "pin " + key + " = " + value + ", pinned " +
                        (it == pins.end() ? std::string("<missing>") : it->second));
    }
  }
  if (w.name == "fleet_sharded") {
    // Sharding must not change the result: replay the traces serially.
    ExecOptions serial;
    serial.shards = 1;
    expect_same(checks, results, execute(w, p, serial).results,
                "shards 2 vs shards 1");
  }
  if (w.name == "fleet_stream") {
    // The streamed and materialised paths must agree; compared on a capped
    // prefix so the check adds little memory.
    ExperimentConfig capped = w.tasks.front();
    capped.max_jobs = 20000;
    const RunResult streamed = simulate(capped, p.spec, nullptr, nullptr);
    capped.stream = false;
    const ge::workload::Trace trace = ge::workload::Trace::generate(
        capped.workload_spec(), capped.duration, capped.max_jobs);
    expect_same(checks, streamed, simulate(capped, p.spec, &trace, nullptr),
                "stream vs materialised (20000-job prefix)");
  }
}

// ---------------------------------------------------------------- modes

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string pins_path;
  std::string out_dir = ".";
  std::string commit = "unknown";
  std::string source_sha = "unknown";
  bool print_pins = false;
};

std::uint64_t released(const std::vector<RunResult>& results) {
  std::uint64_t n = 0;
  for (const RunResult& r : results) {
    n += r.released;
  }
  return n;
}

// Mean of one RunResult field over the tasks.
double task_mean(const std::vector<RunResult>& results, double RunResult::*field) {
  double sum = 0.0;
  for (const RunResult& r : results) {
    sum += r.*field;
  }
  return sum / static_cast<double>(results.size());
}

struct Iteration {
  RunOutput out;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mib = 0.0;  // high-water mark over set-up and run
};

std::vector<Metric> measure_end_to_end(const Workload& w, const Args& args,
                                       const Pins& pins, Checks& checks,
                                       const fs::path& report_dir) {
  ExecOptions opt;
  opt.capture = w.report;
  opt.pipeline = w.report;
  opt.report_dir = &report_dir;
  std::vector<Iteration> its;
  std::vector<double> setup;
  Prepared last;
  const Clock::time_point t0 = Clock::now();
  while (its.size() < kMinIterations || since(t0) < args.seconds) {
    Iteration it;
    // Each iteration starts from a trimmed heap, so set-up faults in the
    // same pages and the section's peak does not depend on how earlier
    // iterations fragmented the heap.
    last = Prepared{};
    reset_peak_rss();
    last = timed_prepare(w, &setup);
    const double c0 = cpu_seconds();
    const Clock::time_point w0 = Clock::now();
    it.out = execute(w, last, opt);
    it.wall_s = since(w0);
    it.cpu_s = cpu_seconds() - c0;
    it.peak_rss_mib = peak_rss_mib();
    its.push_back(std::move(it));
  }

  const std::vector<RunResult>& r = its.front().out.results;
  std::vector<double> rate, cpu, wall, rss;
  for (const Iteration& it : its) {
    expect_same(checks, r, it.out.results, "iteration determinism");
    if (it.out.report) {
      expect_report_clean(checks, it.out.results, *it.out.report);
    }
    rate.push_back(static_cast<double>(released(it.out.results)) / it.wall_s);
    cpu.push_back(it.cpu_s);
    wall.push_back(it.wall_s);
    rss.push_back(it.peak_rss_mib);
  }
  check_results(checks, w, last, r, pins, args.seed);
  if (args.print_pins) {
    for (const auto& [field, value] : pinned_fields(r)) {
      std::printf("pin %s %llu %s %s\n", w.name.c_str(),
                  static_cast<unsigned long long>(args.seed), field.c_str(),
                  value.c_str());
    }
  }
  std::printf("perfbench %s: %zu iterations, median wall %.4f s\n",
              w.name.c_str(), its.size(), median(wall));
  return {
      {"setup_s", median(setup), "s"},
      {"jobs_per_s", median(rate), "1/s"},
      {"cpu_s", median(cpu), "s"},
      {"peak_rss_mib", median(rss), "MiB"},
      {"sim_energy_j", task_mean(r, &RunResult::energy), "J"},
      {"sim_quality", task_mean(r, &RunResult::quality), "ratio"},
      {"sim_mean_response_ms", task_mean(r, &RunResult::mean_response_ms), "ms"},
  };
}

// Layer of a span: the prefix of its name; the root is the driver itself.
std::string layer_of(const Span& s) {
  return s.parent < 0 ? "other" : s.name.substr(0, s.name.find('.'));
}

double span_seconds(const std::vector<Span>& spans, const std::string& name) {
  double total = 0.0;
  for (const Span& s : spans) {
    if (s.name == name) {
      total += s.end_s - s.start_s;
    }
  }
  return total;
}

// One traced pass: untraced reference runs, then the traced iteration.
struct Pass {
  std::vector<Span> spans;
  double measured_total_s = 0.0;  // wall clock around the root span
  double untraced_run_s = 0.0;    // the runs at the requested shard count
  double untraced_cpu_s = 0.0;
  int untraced_shards = 1;
  double serial_run_s = 0.0;     // the runs at --shards 1
  double nocapture_run_s = 0.0;  // report workload: the runs without capture
  int traced_shards = 1;
};

void write_spans(const fs::path& path, const std::string& context,
                 const std::vector<Pass>& passes);

std::vector<Metric> measure_per_layer(const Workload& w, const Args& args,
                                      const Pins& pins, Checks& checks,
                                      const fs::path& report_dir,
                                      const std::string& context) {
  std::vector<Pass> passes;
  std::optional<RunOutput> first;  // the first traced iteration's output
  const Clock::time_point t0 = Clock::now();
  while (passes.empty() || since(t0) < args.seconds) {
    Pass pass;
    const Prepared p = prepare(w);
    ExecOptions plain;
    plain.capture = w.report;

    // Untraced references for the overhead and shard-speedup ratios.
    std::vector<RunResult> untraced;
    {
      ShardSampler sampler;
      const double c0 = cpu_seconds();
      const Clock::time_point r0 = Clock::now();
      untraced = execute(w, p, plain).results;
      pass.untraced_run_s = since(r0);
      pass.untraced_cpu_s = cpu_seconds() - c0;
      pass.untraced_shards = sampler.stop();
    }
    if (passes.empty()) {
      check_results(checks, w, p, untraced, pins, args.seed);
    }
    pass.serial_run_s = pass.untraced_run_s;
    if (w.tasks.front().shards > 1) {
      ExecOptions serial = plain;
      serial.shards = 1;
      const Clock::time_point r0 = Clock::now();
      execute(w, p, serial);
      pass.serial_run_s = since(r0);
    }
    if (w.report) {
      const Clock::time_point r0 = Clock::now();
      execute(w, p, ExecOptions{});
      pass.nocapture_run_s = since(r0);
    }

    Tracer tracer;
    ExecOptions traced;
    traced.capture = w.report;
    traced.pipeline = w.report;
    traced.tracer = &tracer;
    traced.report_dir = &report_dir;
    RunOutput out;
    const Clock::time_point m0 = Clock::now();
    {
      ShardSampler sampler;
      ScopedSpan root(&tracer, "iteration", -1);
      traced.parent = root.id();
      out = execute(w, prepare(w, &tracer, root.id()), traced);
      pass.traced_shards = sampler.stop();
    }
    pass.measured_total_s = since(m0);
    pass.spans = tracer.spans();
    expect_same(checks, untraced, out.results, "traced vs untraced result");
    if (out.report) {
      expect_report_clean(checks, out.results, *out.report);
    }
    if (!first) {
      first = std::move(out);
    }
    passes.push_back(std::move(pass));
  }

  // Self time = span - its children; the root's self time is `other`.
  const std::vector<std::string> layers = {"workload", "exp", "sim", "core",
                                           "opt", "power", "analysis", "other"};
  std::map<std::string, std::vector<double>> layer_self;
  std::map<std::string, std::vector<double>> span_s;
  std::vector<double> totals, sum_frac, untraced_run, serial_run, nocap_run,
      cpu_per_wall, speedup;
  for (const Pass& pass : passes) {
    const std::vector<Span>& sp = pass.spans;
    std::vector<double> self(sp.size());
    for (std::size_t i = 0; i < sp.size(); ++i) {
      self[i] = sp[i].end_s - sp[i].start_s;
    }
    for (const Span& s : sp) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
      }
    }
    std::map<std::string, double> by_layer;
    double sum = 0.0;
    for (std::size_t i = 0; i < sp.size(); ++i) {
      checks.expect(self[i] >= -1e-3 * pass.measured_total_s,
                    "span " + sp[i].name + " overruns its parent by " +
                        g17(-self[i]) + " s");
      by_layer[layer_of(sp[i])] += self[i];
      sum += self[i];
    }
    const double frac = sum / pass.measured_total_s;
    checks.expect(frac > 0.98 && frac < 1.02,
                  "layer self times sum to " + g17(frac) + " of the measured total");
    for (const std::string& l : layers) {
      layer_self[l].push_back(by_layer[l]);
    }
    for (const char* name :
         {"exp.run", "sim.loop", "core.round", "opt.cut", "power.dist", "opt.plan",
          "workload.generate", "analysis.analyze", "analysis.reclaim",
          "analysis.add_task", "analysis.write", "analysis.load",
          "analysis.dashboard"}) {
      span_s[name].push_back(span_seconds(sp, name));
    }
    totals.push_back(pass.measured_total_s);
    sum_frac.push_back(frac);
    untraced_run.push_back(pass.untraced_run_s);
    serial_run.push_back(pass.serial_run_s);
    nocap_run.push_back(pass.nocapture_run_s);
    cpu_per_wall.push_back(pass.untraced_cpu_s / pass.untraced_run_s);
    speedup.push_back(pass.serial_run_s / pass.untraced_run_s);
  }
  const auto med = [&](const char* name) { return median(span_s[name]); };
  // Counters add over the tasks; peak gauges take the largest task.
  const auto total = [&](const char* name) {
    double sum = 0.0;
    for (const analysis::MetricsValues& m : first->metrics) {
      sum += m.get(name, 0.0);
    }
    return sum;
  };
  const auto peak = [&](const char* name) {
    double max = 0.0;
    for (const analysis::MetricsValues& m : first->metrics) {
      max = std::max(max, m.get(name, 0.0));
    }
    return max;
  };
  const std::vector<RunResult>& r = first->results;
  const double jobs = static_cast<double>(released(r));
  const double events = total("sim.events_executed");
  const double other_s = med("sim.loop") - med("core.round");
  // The stream.* gauges exist only on the streaming path.  Materialised
  // runs keep every job resident and push one arrival and one deadline
  // event per job at set-up, so those counts stand in there.
  const bool stream = w.tasks.front().stream;
  const double peak_in_flight = stream ? peak("stream.peak_in_flight") : jobs;
  const double arena_bytes =
      stream ? peak("stream.arena_bytes")
             : jobs * static_cast<double>(sizeof(ge::workload::Job));
  const double peak_pending = stream ? peak("sim.peak_pending_events") : 2.0 * jobs;
  const ReportFacts facts = first->report.value_or(ReportFacts{});
  std::uint64_t wf_rounds = 0, wakes = 0, rejected = 0;
  for (const RunResult& t : r) {
    wf_rounds += t.wf_rounds;
    wakes += t.wakes;
    rejected += t.rejected;
  }

  std::vector<Metric> out = {
      {"workload.generate_s", med("workload.generate"), "s"},
      {"workload.jobs", jobs, "count"},
      {"workload.peak_in_flight", peak_in_flight, "count"},
      {"workload.arena_bytes", arena_bytes, "bytes"},
      {"sim.loop_s", med("sim.loop"), "s"},
      {"sim.events", events, "count"},
      {"sim.peak_pending", peak_pending, "count"},
      {"sim.other_s", other_s, "s"},
      {"sim.other_ns_per_event", events > 0.0 ? other_s / events * 1e9 : 0.0, "ns"},
      {"core.round_s", med("core.round"), "s"},
      {"core.rounds", total("prof.ge_round_calls"), "count"},
      {"core.round_self_s",
       med("core.round") - med("opt.cut") - med("power.dist") - med("opt.plan"), "s"},
      {"core.edf_rebuilds", total("ge.edf_rebuilds"), "count"},
      {"core.edf_skips", total("ge.edf_skips"), "count"},
      {"opt.plan_s", med("opt.plan"), "s"},
      {"opt.plans", total("ge.plan_recomputations"), "count"},
      {"opt.trims", total("ge.quality_opt_trims"), "count"},
      {"opt.cut_s", med("opt.cut"), "s"},
      {"power.dist_s", med("power.dist"), "s"},
      {"power.wf_rounds", static_cast<double>(wf_rounds), "count"},
      {"cluster.wakes", static_cast<double>(wakes), "count"},
      {"cluster.rejected", static_cast<double>(rejected), "count"},
      {"cluster.pending_peak", peak("dispatch.pending_peak"), "count"},
      {"exp.run_s", med("exp.run"), "s"},
      {"exp.cpu_per_wall", median(cpu_per_wall), "ratio"},
      {"exp.shard_speedup", median(speedup), "ratio"},
      {"exp.untraced_shards", static_cast<double>(passes.front().untraced_shards),
       "count"},
      {"exp.traced_shards", static_cast<double>(passes.front().traced_shards), "count"},
      {"obs.trace_events", static_cast<double>(facts.trace_events), "count"},
      {"obs.capture_s", w.report ? median(untraced_run) - median(nocap_run) : 0.0, "s"},
      {"obs.profile_overhead_frac", med("exp.run") / median(serial_run) - 1.0,
       "ratio"},
      {"analysis.analyze_s", med("analysis.analyze"), "s"},
      {"analysis.reclaim_s", med("analysis.reclaim"), "s"},
      {"analysis.add_task_s", med("analysis.add_task"), "s"},
      {"analysis.write_s", med("analysis.write"), "s"},
      {"analysis.load_s", med("analysis.load"), "s"},
      {"analysis.dashboard_s", med("analysis.dashboard"), "s"},
      {"analysis.report_bytes", static_cast<double>(facts.report_bytes), "bytes"},
  };
  for (const std::string& l : layers) {
    out.push_back({"self." + l + "_s", median(layer_self[l]), "s"});
  }
  out.push_back({"trace.total_s", median(totals), "s"});
  out.push_back({"trace.sum_frac", median(sum_frac), "ratio"});

  write_spans(fs::path(args.out_dir) /
                  ("spans-" + w.name + "-seed" + std::to_string(args.seed) + ".jsonl"),
              context, passes);
  return out;
}

// ---------------------------------------------------------------- output

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench_driver --workload NAME --seed N "
               "--seconds S --trace 0|1 [--pins FILE] [--out-dir DIR] "
               "[--commit ID] [--source-sha HEX] [--print-pins]\n",
               why.c_str());
  std::exit(2);
}

bool parse_uint(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.size() > 18 ||
      s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *out = std::stoull(s);
  return true;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--print-pins") {
      a.print_pins = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage("missing value for " + key);
    }
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      if (!parse_uint(value, &n)) {
        usage("--seed must be a non-negative integer");
      }
      a.seed = n;
    } else if (key == "--seconds") {
      if (!parse_uint(value, &n) || n < 1 || n > 3600) {
        usage("--seconds must be an integer in [1, 3600]");
      }
      a.seconds = static_cast<double>(n);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        usage("--trace must be 0 or 1");
      }
      a.trace = value == "1";
    } else if (key == "--pins") {
      a.pins_path = value;
    } else if (key == "--out-dir") {
      a.out_dir = value;
    } else if (key == "--commit") {
      a.commit = value;
    } else if (key == "--source-sha") {
      a.source_sha = value;
    } else {
      usage("unknown flag " + key);
    }
  }
  if (a.workload.empty()) {
    usage("--workload is required");
  }
  return a;
}

bool release_build() {
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

// Host and build facts recorded with every result.
std::string context_json(const Args& a) {
  std::ostringstream o;
  o << "{\"workload\": \"" << json_escape(a.workload) << "\", \"seed\": " << a.seed
    << ", \"seconds\": " << a.seconds << ", \"trace\": " << (a.trace ? 1 : 0)
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"compiler\": \"" << json_escape(PERFBENCH_CXX_COMPILER)
    << "\", \"build_type\": \"" << json_escape(PERFBENCH_BUILD_TYPE)
    << "\", \"commit\": \"" << json_escape(a.commit) << "\", \"source_sha\": \""
    << json_escape(a.source_sha) << "\"}";
  return o.str();
}

// The traced run's spans, one JSON object per line after a context line.
void write_spans(const fs::path& path, const std::string& context,
                 const std::vector<Pass>& passes) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path);
  out << "{\"context\": " << context << "}\n";
  for (std::size_t pass = 0; pass < passes.size(); ++pass) {
    const std::vector<Span>& spans = passes[pass].spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << "{\"pass\": " << pass << ", \"id\": " << i << ", \"name\": \""
          << s.name << "\", \"parent\": " << s.parent
          << ", \"start_s\": " << g17(s.start_s) << ", \"end_s\": " << g17(s.end_s)
          << ", \"calls\": " << g17(s.calls);
      if (!s.counters.empty()) {
        out << ", \"counters\": {";
        for (std::size_t c = 0; c < s.counters.size(); ++c) {
          out << (c == 0 ? "" : ", ") << "\"" << json_escape(s.counters[c].first)
              << "\": " << g17(s.counters[c].second);
        }
        out << "}";
      }
      out << "}\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (!release_build()) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  const std::optional<Workload> w = make_workload(args.workload, args.seed);
  if (!w) {
    usage("unknown workload " + args.workload);
  }
  const Pins pins = args.pins_path.empty() ? Pins{} : load_pins(args.pins_path);
  const fs::path report_dir =
      fs::path(args.out_dir) / ("report-" + w->name + "-" + std::to_string(getpid()));
  const std::string context = context_json(args);

  Checks checks;
  std::vector<Metric> metrics =
      args.trace ? measure_per_layer(*w, args, pins, checks, report_dir, context)
                 : measure_end_to_end(*w, args, pins, checks, report_dir);
  fs::remove_all(report_dir);
  const double fail_frac =
      static_cast<double>(checks.failed()) / static_cast<double>(checks.attempted());
  if (!args.trace) {
    // Reported as the pass fraction so the metric is never zero.
    metrics.push_back({"check_pass_frac", 1.0 - fail_frac, "ratio"});
  }

  std::printf("perfbench-context %s\n", context.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-28s %-24s %s\n", m.name.c_str(), g17(m.value).c_str(),
                m.unit.c_str());
  }
  std::printf("  %-28s %-24s ratio (%llu of %llu checks failed)\n",
              "check_fail_frac", g17(fail_frac).c_str(),
              static_cast<unsigned long long>(checks.failed()),
              static_cast<unsigned long long>(checks.attempted()));

  std::ostringstream json;
  json << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
       << ", \"attempted\": " << checks.attempted()
       << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << metrics[i].name << "\": {\"value\": "
         << g17(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return 0;
}
