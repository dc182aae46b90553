// Tests for the telemetry subsystem (src/obs): metric semantics, the
// deterministic merge the experiment engine relies on, the documented trace
// serialisation formats, and the end-to-end contract that telemetry files
// are byte-identical for any worker count.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "exp/config.h"
#include "exp/experiment_engine.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "obs/analysis/trace_reader.h"
#include "obs/format.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "power/power_model.h"
#include "util/rng.h"
#include "workload/trace.h"

namespace ge::obs {
namespace {

TEST(Counter, AddAndIncrement) {
  Counter c;
  EXPECT_EQ(c.value(), 0.0);
  c.increment();
  c.add(2.5);
  EXPECT_EQ(c.value(), 3.5);
}

TEST(Gauge, SetTracksWritten) {
  Gauge g;
  EXPECT_FALSE(g.written());
  g.set(4.0);
  g.set(-1.0);
  EXPECT_TRUE(g.written());
  EXPECT_EQ(g.value(), -1.0);
}

TEST(Histogram, BucketPlacementAndStats) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h", {1.0, 2.0, 5.0});
  // Bucket i counts values <= bounds[i]; last bucket is overflow.
  h.observe(0.5);   // bucket 0
  h.observe(1.0);   // bucket 0 (inclusive upper bound)
  h.observe(1.5);   // bucket 1
  h.observe(10.0);  // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 13.0);
  EXPECT_EQ(h.min(), 0.5);
  EXPECT_EQ(h.max(), 10.0);
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 0u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
}

TEST(MetricsRegistry, GetOrCreateReturnsSameInstance) {
  MetricsRegistry reg;
  Counter& a = reg.counter("jobs", "jobs");
  Counter& b = reg.counter("jobs", "jobs");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.size(), 1u);
  reg.gauge("q", "ratio", Gauge::Merge::kMin);
  reg.histogram("lat", {1, 2}, "ms");
  EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricsRegistry, KindMismatchDies) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_DEATH((void)reg.gauge("x"), "registered");
}

TEST(MetricsRegistry, UnitMismatchDies) {
  MetricsRegistry reg;
  reg.counter("x", "J");
  EXPECT_DEATH((void)reg.counter("x", "W"), "unit");
}

TEST(MetricsRegistry, HistogramBoundsMismatchDies) {
  MetricsRegistry reg;
  reg.histogram("h", {1, 2});
  EXPECT_DEATH((void)reg.histogram("h", {1, 3}), "bounds");
}

std::string to_json(const MetricsRegistry& reg) {
  std::ostringstream out;
  reg.write_json(out);
  return out.str();
}

TEST(MetricsRegistry, MergeCombinesPerKind) {
  MetricsRegistry a;
  a.counter("n").add(2);
  a.gauge("worst", "", Gauge::Merge::kMin).set(0.9);
  a.gauge("best", "", Gauge::Merge::kMax).set(0.9);
  a.gauge("last", "", Gauge::Merge::kLast).set(1.0);
  a.histogram("h", {1.0, 2.0}).observe(0.5);

  MetricsRegistry b;
  b.counter("n").add(3);
  b.gauge("worst", "", Gauge::Merge::kMin).set(0.4);
  b.gauge("best", "", Gauge::Merge::kMax).set(0.4);
  b.gauge("last", "", Gauge::Merge::kLast).set(2.0);
  b.histogram("h", {1.0, 2.0}).observe(1.5);
  b.counter("only_in_b").add(7);

  a.merge(b);
  EXPECT_EQ(a.counter("n").value(), 5.0);
  EXPECT_EQ(a.gauge("worst", "", Gauge::Merge::kMin).value(), 0.4);
  EXPECT_EQ(a.gauge("best", "", Gauge::Merge::kMax).value(), 0.9);
  EXPECT_EQ(a.gauge("last", "", Gauge::Merge::kLast).value(), 2.0);
  EXPECT_EQ(a.histogram("h", {1.0, 2.0}).count(), 2u);
  EXPECT_EQ(a.histogram("h", {1.0, 2.0}).sum(), 2.0);
  // Metrics absent from the destination are appended in source order.
  EXPECT_EQ(a.counter("only_in_b").value(), 7.0);
}

TEST(MetricsRegistry, MergeSkipsUnwrittenGauges) {
  MetricsRegistry a;
  a.gauge("worst", "", Gauge::Merge::kMin).set(0.9);
  MetricsRegistry b;
  (void)b.gauge("worst", "", Gauge::Merge::kMin);  // created, never set
  a.merge(b);
  EXPECT_EQ(a.gauge("worst", "", Gauge::Merge::kMin).value(), 0.9);
}

TEST(MetricsRegistry, MergeIsDeterministic) {
  // Merging equal registries in the same order must yield equal bytes --
  // the property the engine's parallel path relies on.
  auto build = [] {
    MetricsRegistry reg;
    reg.counter("jobs", "jobs").add(17);
    reg.gauge("q", "ratio", Gauge::Merge::kMin).set(0.875);
    reg.histogram("lat", {10.0, 100.0}, "ms").observe(42.5);
    return reg;
  };
  MetricsRegistry m1;
  MetricsRegistry m2;
  for (int i = 0; i < 3; ++i) {
    m1.merge(build());
    m2.merge(build());
  }
  EXPECT_EQ(to_json(m1), to_json(m2));
}

TEST(MetricsRegistry, JsonMatchesDocumentedSchema) {
  MetricsRegistry reg;
  reg.counter("jobs.settled", "jobs").add(3);
  reg.gauge("quality.monitored", "ratio", Gauge::Merge::kMin).set(0.5);
  reg.histogram("lat", {1.0}, "ms").observe(0.5);
  const std::string json = to_json(reg);
  EXPECT_NE(json.find("\"schema\": \"goodenough-metrics-v2\""), std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"jobs.settled\", \"type\": \"counter\", "
                      "\"unit\": \"jobs\", \"value\": 3}"),
            std::string::npos);
  EXPECT_NE(json.find("\"type\": \"gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"merge\": \"min\""), std::string::npos);
  EXPECT_NE(json.find("{\"le\": 1, \"count\": 1}"), std::string::npos);
  EXPECT_NE(json.find("{\"le\": \"inf\", \"count\": 0}"), std::string::npos);
}

TEST(TraceFormat, Parse) {
  EXPECT_EQ(find_trace_format("jsonl"), TraceFormat::kJsonl);
  EXPECT_EQ(find_trace_format("chrome"), TraceFormat::kChrome);
  EXPECT_EQ(find_trace_format("xml"), std::nullopt);
}

// A hand-built miniature of a 3-job run; the golden strings below pin the
// documented JSONL schema (docs/OBSERVABILITY.md) byte for byte.
TraceBuffer tiny_buffer() {
  TraceBuffer buf;
  TraceEvent ev;
  ev.type = TraceEventType::kArrival;
  ev.t = 0.25;
  ev.job = 1;
  ev.a = 150.0;   // demand
  ev.b = 0.4;     // deadline
  buf.push(ev);
  ev = TraceEvent{};
  ev.type = TraceEventType::kRound;
  ev.t = 0.25;
  ev.mode = kModeAes;
  ev.a = 1;      // waiting
  ev.b = 4.0;    // rate
  ev.c = 1;      // round index
  buf.push(ev);
  ev = TraceEvent{};
  ev.type = TraceEventType::kExec;
  ev.t = 0.25;
  ev.t2 = 0.35;
  ev.core = 0;
  ev.job = 1;
  ev.a = 1500.0;  // speed
  buf.push(ev);
  ev = TraceEvent{};
  ev.type = TraceEventType::kCompletion;
  ev.t = 0.35;
  ev.core = 0;
  ev.job = 1;
  ev.a = 150.0;  // executed
  ev.b = 150.0;  // demand
  ev.c = 1.0;    // monitored quality
  buf.push(ev);
  return buf;
}

TraceTaskInfo tiny_info() {
  TraceTaskInfo info;
  info.task = 0;
  info.scheduler = "GE";
  info.arrival_rate = 4.0;
  info.cores = 1;
  info.power_budget = 20.0;
  info.power_model_json = "{\"a\": 5, \"beta\": 2, \"units_per_ghz\": 1000}";
  return info;
}

TEST(TraceWriter, JsonlGolden) {
  std::ostringstream out;
  TraceWriter writer(out, TraceFormat::kJsonl);
  writer.append_task(tiny_info(), tiny_buffer());
  writer.close();
  const std::string expected =
      "{\"ev\": \"meta\", \"task\": 0, \"scheduler\": \"GE\", "
      "\"arrival_rate\": 4, \"cores\": 1, \"power_budget_w\": 20, "
      "\"power_model\": {\"a\": 5, \"beta\": 2, \"units_per_ghz\": 1000}, "
      "\"ladder\": []}\n"
      "{\"ev\": \"arrival\", \"task\": 0, \"t\": 0.25, \"job\": 1, "
      "\"demand\": 150, \"deadline\": 0.4, \"tenant\": 0}\n"
      "{\"ev\": \"round\", \"task\": 0, \"t\": 0.25, \"round\": 1, "
      "\"mode\": \"AES\", \"waiting\": 1, \"rate\": 4}\n"
      "{\"ev\": \"exec\", \"task\": 0, \"t\": 0.25, \"t_end\": 0.35, "
      "\"core\": 0, \"job\": 1, \"speed\": 1500}\n"
      "{\"ev\": \"completion\", \"task\": 0, \"t\": 0.35, \"core\": 0, "
      "\"job\": 1, \"executed\": 150, \"demand\": 150, \"quality\": 1}\n";
  EXPECT_EQ(out.str(), expected);
}

std::string printf_g12(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

// Every obs writer formats numbers with std::to_chars(general, 12), which
// the standard defines as printf("%.12g"); pin that on the values where
// the two conversions could plausibly part ways.
TEST(NumberFormat, ToCharsMatchesPrintfOnEdgeValues) {
  using limits = std::numeric_limits<double>;
  const double edges[] = {
      0.0, -0.0, limits::denorm_min(), -limits::denorm_min(),
      2.2250738585072009e-308,  // largest subnormal
      limits::min(), limits::max(), -limits::max(), limits::epsilon(),
      1e21, 1e22, 1e-5, 1e-4, 9.99999999999e-5, 0.0001, 1e12, 1e11,
      1.0, 42.0, -7.0, 123456789012.0, 1234567890123.0, 9007199254740993.0,
      0.1, 1.0 / 3.0, 2.0 / 3.0, 0.5, 0.25, 1500.0, 3.2e9,
      // 12-digit rounding carries into a new leading digit or exponent.
      9.9999999999995, 99999999999.95, 999999999999.5, 0.99999999999951,
      9.99999999999951e-5, 9.999999999995e20, 1.99999999999951,
      limits::infinity(), -limits::infinity(), limits::quiet_NaN()};
  for (const double v : edges) {
    EXPECT_EQ(fmt_g12(v), printf_g12(v)) << std::bit_cast<std::uint64_t>(v);
  }
}

TEST(NumberFormat, ToCharsMatchesPrintfOnRandomDoubles) {
  util::Rng rng(12);
  for (int i = 0; i < 200000; ++i) {
    // Alternate arbitrary finite bit patterns with decimal-looking values.
    const double u = rng.uniform();
    const double v =
        i % 2 == 0
            ? std::bit_cast<double>(static_cast<std::uint64_t>(
                  u * 9218868437227405311.0))  // below the +inf pattern
            : std::round(u * 1e6) * std::pow(10.0, std::floor(rng.uniform(-30.0, 30.0)));
    ASSERT_EQ(fmt_g12(v), printf_g12(v)) << std::bit_cast<std::uint64_t>(v);
  }
}

// Writer -> reader -> writer must reproduce the same bytes for every event
// kind, edge values included, and the string and stream writers must agree
// (the stream writer flushes in chunks, so the buffer spans several).
TEST(TraceWriter, JsonlRoundTripThroughTheReaderIsByteIdentical) {
  const double values[] = {0.0,    -0.0,     std::numeric_limits<double>::denorm_min(),
                           1e21,   1e-5,     123456789012.0,
                           0.1,    1.0 / 3.0, 999999999999.5,
                           -2.5e-300, 1.7976931348623157e308, 7.0};
  TraceTaskInfo info;
  info.task = 0;
  info.scheduler = "BE-P[0.8]";
  info.arrival_rate = 1.0 / 3.0;
  info.cores = 16;
  info.power_budget = 320.0;
  info.power_model_json = power::PowerModel(5.0, 2.0, 1000.0).describe_json();
  info.ladder_units = {200.0, 400.0, 1.0 / 7.0 * 1e4};
  TraceBuffer buf;
  for (int rep = 0; rep < 120; ++rep) {
    for (const double v : values) {
      for (int kind = 0; kind <= static_cast<int>(TraceEventType::kServerState);
           ++kind) {
        TraceEvent ev;
        ev.type = static_cast<TraceEventType>(kind);
        ev.t = v;
        ev.t2 = v * 0.5;
        ev.core = rep % 16;
        ev.job = 1000000007LL * rep;
        ev.a = v;
        ev.b = -v;
        ev.c = ev.type == TraceEventType::kArrival ? rep % 3 : v / 3.0;
        ev.mode = ev.type == TraceEventType::kViolation ? rep % 7
                  : ev.type == TraceEventType::kServerState ? rep % 4
                                                            : kModeAes + rep % 2;
        buf.push(ev);
      }
    }
  }

  std::ostringstream streamed;
  TraceWriter writer(streamed, TraceFormat::kJsonl);
  writer.append_task(info, buf);
  writer.close();
  std::string appended;
  append_trace_jsonl(appended, info, buf);
  ASSERT_GT(appended.size(), std::size_t{1} << 17);
  EXPECT_EQ(streamed.str(), appended);

  std::istringstream in(appended);
  std::vector<analysis::ParsedTask> parsed;
  ASSERT_EQ(analysis::read_trace_jsonl(in, parsed), "");
  ASSERT_EQ(parsed.size(), 1u);
  std::string rewritten;
  append_trace_jsonl(rewritten, parsed[0].info, parsed[0].buffer);
  EXPECT_TRUE(rewritten == appended) << "round trip changed the JSONL bytes";
}

TEST(TraceWriter, ChromeIsStructurallyValidJson) {
  std::ostringstream out;
  TraceWriter writer(out, TraceFormat::kChrome);
  writer.append_task(tiny_info(), tiny_buffer());
  writer.close();
  const std::string text = out.str();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.front(), '[');
  EXPECT_EQ(text.substr(text.size() - 2), "]\n");
  // Balanced braces and no trailing comma before the closing bracket: the
  // usual ways a hand-rolled JSON array writer goes wrong.
  int depth = 0;
  for (char ch : text) {
    depth += ch == '{' ? 1 : ch == '}' ? -1 : 0;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(text.find(",\n]"), std::string::npos);
  // 2 metadata records + 1 thread name per core + 4 events (completion emits
  // an extra quality counter sample).
  std::size_t records = 0;
  for (std::size_t pos = 0; (pos = text.find("\"ph\"", pos)) != std::string::npos;
       ++pos) {
    ++records;
  }
  EXPECT_EQ(records, 2u + 1u + 5u);
}

}  // namespace
}  // namespace ge::obs

namespace ge::exp {
namespace {

// A deterministic 3-job workload on a small server: every telemetry channel
// fires at least once and the numbers are easy to check by hand.
workload::Trace three_job_trace() {
  std::vector<workload::Job> jobs(3);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = i + 1;
    jobs[i].arrival = 0.1 * static_cast<double>(i + 1);
    jobs[i].deadline = jobs[i].arrival + 0.15;
    jobs[i].demand = 150.0;
  }
  return workload::Trace(std::move(jobs));
}

ExperimentConfig tiny_config() {
  ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  cfg.cores = 2;
  cfg.power_budget = 40.0;
  cfg.arrival_rate = 10.0;
  cfg.duration = 0.5;
  cfg.seed = 1;
  return cfg;
}

TEST(RunnerTelemetry, ThreeJobScenarioRecordsEveryChannel) {
  obs::RunTelemetry telemetry;
  const RunResult result = run_simulation(tiny_config(), SchedulerSpec::parse("GE"),
                                          three_job_trace(), nullptr, &telemetry);
  EXPECT_EQ(result.released, 3u);

  EXPECT_EQ(telemetry.metrics.counter("jobs.settled", "jobs").value(), 3.0);
  EXPECT_EQ(telemetry.metrics.counter("jobs.released", "jobs").value(), 3.0);
  EXPECT_GE(telemetry.metrics.counter("ge.rounds", "rounds").value(), 1.0);
  EXPECT_GT(telemetry.metrics.counter("energy.total_j", "J").value(), 0.0);
  EXPECT_EQ(telemetry.metrics.histogram(
                "run.quality",
                {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}, "ratio")
                .count(),
            1u);

  // Trace: 3 arrivals and one settlement per job.  Instantaneous events are
  // recorded in simulation order; exec slices are retrospective (pushed when
  // the core advances past them, stamped with the slice start), so they are
  // only required to be well-formed, not buffer-order monotone.
  std::size_t arrivals = 0;
  std::size_t settlements = 0;
  std::size_t execs = 0;
  double last_t = 0.0;
  for (const obs::TraceEvent& ev : telemetry.trace.events()) {
    if (ev.type == obs::TraceEventType::kExec) {
      EXPECT_GE(ev.t2, ev.t);
      ++execs;
      continue;
    }
    EXPECT_GE(ev.t, last_t);
    last_t = ev.t;
    arrivals += ev.type == obs::TraceEventType::kArrival ? 1 : 0;
    settlements += (ev.type == obs::TraceEventType::kCompletion ||
                    ev.type == obs::TraceEventType::kDeadlineMiss)
                       ? 1
                       : 0;
  }
  EXPECT_EQ(arrivals, 3u);
  EXPECT_EQ(settlements, 3u);
  EXPECT_GE(execs, 3u);
}

TEST(RunnerTelemetry, MetricsOnlySkipsTraceRecording) {
  obs::RunTelemetry telemetry;
  telemetry.want_trace = false;
  (void)run_simulation(tiny_config(), SchedulerSpec::parse("GE"),
                       three_job_trace(), nullptr, &telemetry);
  EXPECT_EQ(telemetry.trace.size(), 0u);
  EXPECT_GT(telemetry.metrics.size(), 0u);
}

TEST(RunnerTelemetry, NullTelemetryMatchesInstrumentedRun) {
  // The hooks must observe, never perturb: results with telemetry on are
  // bit-identical to results with it off.
  obs::RunTelemetry telemetry;
  const RunResult with = run_simulation(tiny_config(), SchedulerSpec::parse("GE"),
                                        three_job_trace(), nullptr, &telemetry);
  const RunResult without = run_simulation(
      tiny_config(), SchedulerSpec::parse("GE"), three_job_trace(), nullptr, nullptr);
  EXPECT_EQ(to_json(with), to_json(without));
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(EngineTelemetry, FilesAreByteIdenticalForAnyWorkerCount) {
  ExperimentPlan plan;
  ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  cfg.duration = 1.0;
  cfg.seed = 42;
  for (std::size_t p = 0; p < 2; ++p) {
    cfg.arrival_rate = p == 0 ? 110.0 : 170.0;
    for (const char* name : {"GE", "BE"}) {
      plan.add(cfg, SchedulerSpec::parse(name), p);
    }
  }

  const std::string dir = ::testing::TempDir();
  auto run_with = [&](std::size_t jobs, const std::string& tag) {
    ExecutionOptions exec;
    exec.jobs = jobs;
    exec.telemetry.metrics_path = dir + "/m" + tag + ".json";
    exec.telemetry.trace_path = dir + "/t" + tag + ".jsonl";
    (void)run_plan(plan, exec);
  };
  run_with(1, "1");
  run_with(4, "4");
  EXPECT_EQ(slurp(dir + "/m1.json"), slurp(dir + "/m4.json"));
  EXPECT_EQ(slurp(dir + "/t1.jsonl"), slurp(dir + "/t4.jsonl"));
  std::remove((dir + "/m1.json").c_str());
  std::remove((dir + "/m4.json").c_str());
  std::remove((dir + "/t1.jsonl").c_str());
  std::remove((dir + "/t4.jsonl").c_str());
}

// A streamed run releases its jobs on the same reserved tie-break keys as
// a materialised one, so the two are the same run event for event: the
// trace files are byte-identical and the metrics files differ only in the
// stream.* gauges (materialised runs report 0 there by design).  The fleet
// has churn, tenants and admission; the caps are none, one that binds half
// way through, and a tiny one that binds within the first few arrivals.
TEST(EngineTelemetry, StreamedRunMatchesMaterialisedEventForEvent) {
  ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  cfg.num_servers = 8;
  cfg.cores = 4;
  cfg.dispatch = cluster::DispatchPolicy::kRoundRobin;
  cfg.churn = 0.3;
  cfg.wake_latency = 0.05;
  cfg.num_tenants = 3;
  cfg.admission = 1.5;
  cfg.arrival_rate = 300.0;
  cfg.duration = 2.0;
  cfg.seed = 7;

  const std::string dir = ::testing::TempDir();
  const auto run_with = [&](bool stream, std::uint64_t max_jobs,
                            const std::string& tag) {
    ExperimentPlan plan;
    ExperimentConfig run_cfg = cfg;
    run_cfg.stream = stream;
    run_cfg.max_jobs = max_jobs;
    for (const char* name : {"GE", "FCFS", "OA"}) {
      plan.add_isolated(run_cfg, SchedulerSpec::parse(name));
    }
    ExecutionOptions exec;
    exec.jobs = 1;
    exec.telemetry.metrics_path = dir + "/sm" + tag + ".json";
    exec.telemetry.trace_path = dir + "/st" + tag + ".jsonl";
    return run_plan(plan, exec);
  };
  // The metrics file without its stream.* lines.
  const auto without_stream_gauges = [](const std::string& text) {
    std::istringstream in(text);
    std::string out;
    for (std::string line; std::getline(in, line);) {
      if (line.find("\"name\": \"stream.") == std::string::npos) {
        out += line + "\n";
      }
    }
    return out;
  };

  for (const std::uint64_t max_jobs : {std::uint64_t{0}, std::uint64_t{300},
                                       std::uint64_t{5}}) {
    SCOPED_TRACE("max_jobs=" + std::to_string(max_jobs));
    const std::vector<RunResult> mat = run_with(false, max_jobs, "m");
    const std::vector<RunResult> str = run_with(true, max_jobs, "s");
    ASSERT_EQ(mat.size(), 3u);
    for (std::size_t i = 0; i < mat.size(); ++i) {
      EXPECT_EQ(to_json(mat[i]), to_json(str[i]));
      if (max_jobs != 0) {
        EXPECT_EQ(str[i].released, max_jobs) << "the cap must bind";
      }
    }
    const std::string trace = slurp(dir + "/stm.jsonl");
    EXPECT_GT(trace.size(), 0u);
    EXPECT_TRUE(trace == slurp(dir + "/sts.jsonl"))
        << "streamed trace differs from the materialised one";
    const std::string metrics = slurp(dir + "/smm.json");
    EXPECT_NE(metrics.find("\"sim.events_executed\""), std::string::npos);
    EXPECT_NE(metrics.find("\"sim.peak_pending_events\""), std::string::npos);
    EXPECT_EQ(without_stream_gauges(metrics),
              without_stream_gauges(slurp(dir + "/sms.json")));
  }
  for (const char* tag : {"m", "s"}) {
    std::remove((dir + "/sm" + tag + ".json").c_str());
    std::remove((dir + "/st" + tag + ".jsonl").c_str());
  }
}

}  // namespace
}  // namespace ge::exp
