// Tests for the trace-analytics subsystem (src/obs/analysis): golden report
// rendering, the residency-vs-reported energy identity, the trace-file
// round-trip, the online invariant watchdog, the wall-clock profiler, and
// the report determinism contract (byte-identical for any --jobs value).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "exp/config.h"
#include "exp/experiment_engine.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "obs/analysis/analysis.h"
#include "obs/analysis/report.h"
#include "obs/analysis/trace_bin.h"
#include "obs/analysis/trace_reader.h"
#include "obs/analysis/watchdog.h"
#include "obs/profile.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "workload/trace.h"

namespace ge::obs::analysis {
namespace {

// A fully hand-checkable one-job task: job 1 arrives at 0.25 (demand 150,
// deadline 0.4), is admitted to core 0, runs one slice 0.25 -> 0.35 at
// 1500 units/s, and completes.  With the paper model P = 5 * (s/1000)^2,
// the slice draws 11.25 W for 0.1 s: energy 1.125 J at 1.5 GHz.
TraceBuffer tiny_buffer() {
  TraceBuffer buf;
  TraceEvent ev;
  ev.type = TraceEventType::kArrival;
  ev.t = 0.25;
  ev.job = 1;
  ev.a = 150.0;  // demand
  ev.b = 0.4;    // deadline
  buf.push(ev);
  ev = TraceEvent{};
  ev.type = TraceEventType::kRound;
  ev.t = 0.25;
  ev.mode = kModeAes;
  ev.a = 1;
  ev.b = 4.0;
  ev.c = 1;
  buf.push(ev);
  ev = TraceEvent{};
  ev.type = TraceEventType::kAssign;
  ev.t = 0.25;
  ev.job = 1;
  ev.core = 0;
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

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Every field of every event, doubles compared by bit pattern.
void expect_same_events(const std::vector<TraceEvent>& back,
                        const std::vector<TraceEvent>& events) {
  ASSERT_EQ(back.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(back[i].type, events[i].type);
    EXPECT_EQ(bits(back[i].t), bits(events[i].t));
    EXPECT_EQ(bits(back[i].t2), bits(events[i].t2));
    EXPECT_EQ(back[i].core, events[i].core);
    EXPECT_EQ(back[i].job, events[i].job);
    EXPECT_EQ(back[i].mode, events[i].mode);
    EXPECT_EQ(bits(back[i].a), bits(events[i].a));
    EXPECT_EQ(bits(back[i].b), bits(events[i].b));
    EXPECT_EQ(bits(back[i].c), bits(events[i].c));
  }
}

TEST(Analysis, TinyTaskDerivesTheHandComputedSpans) {
  const TraceBuffer buf = tiny_buffer();
  TaskInput input;
  input.info = tiny_info();
  input.buffer = &buf;
  input.models = {{power::PowerModel(5.0, 2.0, 1000.0)}};
  const double slice_energy =
      power::PowerModel(5.0, 2.0, 1000.0).power(1500.0) * (0.35 - 0.25);
  input.reported_energy_j = slice_energy;

  const TaskAnalysis task = analyze_task(input);
  EXPECT_EQ(task.released, 1u);
  EXPECT_EQ(task.completed, 1u);
  EXPECT_EQ(task.missed, 0u);
  EXPECT_EQ(task.rounds, 1u);
  ASSERT_EQ(task.jobs.size(), 1u);
  const JobSpan& job = task.jobs[0];
  EXPECT_EQ(job.arrival, 0.25);
  EXPECT_EQ(job.assigned, 0.25);
  EXPECT_EQ(job.first_exec, 0.25);
  EXPECT_EQ(job.settled, 0.35);
  EXPECT_EQ(job.core, 0);
  EXPECT_EQ(job.energy_j, slice_energy);
  // One core, one 1.5 GHz bin.
  ASSERT_EQ(task.residency.size(), 1u);
  ASSERT_EQ(task.residency[0].bins.size(), 1u);
  EXPECT_EQ(task.residency[0].bins[0].bin, 7);  // [1.4, 1.6) GHz
  EXPECT_EQ(task.integrated_energy_j, slice_energy);
  EXPECT_EQ(task.energy_rel_err, 0.0);
  // Single server: everything counts as dispatched to server 0.
  ASSERT_EQ(task.dispatched.size(), 1u);
  EXPECT_EQ(task.dispatched[0], 1u);
}

// The golden strings pin the ge-report-v2 CSV schema byte for byte; any
// change here is a schema change and must bump docs/OBSERVABILITY.md.
TEST(Report, GoldenCsvsForTinyTask) {
  const TraceBuffer buf = tiny_buffer();
  TaskInput input;
  input.info = tiny_info();
  input.buffer = &buf;
  input.models = {{power::PowerModel(5.0, 2.0, 1000.0)}};
  input.reported_energy_j =
      power::PowerModel(5.0, 2.0, 1000.0).power(1500.0) * (0.35 - 0.25);

  ReportWriter writer;
  writer.add_task(input);

  std::ostringstream summary;
  writer.write_summary_csv(summary);
  EXPECT_EQ(summary.str(),
            "task,scheduler,arrival_rate,servers,cores,released,completed,"
            "partial,dropped,missed,rounds,mode_switches,cuts,violations,"
            "integrated_energy_j,reported_energy_j,energy_rel_err,"
            "mean_response_ms,p99_response_ms,reclaim_energy_j,reclaim_disc_j,"
            "reclaim_offline_j,reclaim_frac\n"
            // Reclaim by hand: the 150-unit job may stretch over its whole
            // [0.25, 0.4] window at 1 GHz, so 5 W * 0.15 s = 0.75 J, vs
            // 1.125 J realised at 1.5 GHz -- a third was avoidable.  No
            // ladder => discrete == continuous; one core => fluid == YDS.
            "0,GE,4,1,1,1,1,0,0,0,1,0,0,0,1.125,1.125,0,100,100,"
            "0.75,0.75,0.75,0.333333333333\n");

  std::ostringstream jobs;
  writer.write_jobs_csv(jobs);
  EXPECT_EQ(jobs.str(),
            "task,job,server,core,tenant,arrival_s,assigned_s,first_exec_s,"
            "settled_s,deadline_s,demand_units,executed_units,energy_j,"
            "wait_ms,service_ms,response_ms,slack_ms,outcome,missed\n"
            "0,1,0,0,0,0.25,0.25,0.25,0.35,0.4,150,150,1.125,0,100,100,50,"
            "completed,0\n");

  std::ostringstream residency;
  writer.write_residency_csv(residency);
  EXPECT_EQ(residency.str(),
            "task,server,core,ghz_lo,ghz_hi,busy_s,energy_j\n"
            "0,0,0,1.4,1.6,0.1,1.125\n");

  std::ostringstream md;
  writer.write_markdown(md);
  EXPECT_NE(md.str().find("schema: ge-report-v2 | tasks: 1"), std::string::npos);
  EXPECT_NE(md.str().find("(rel err 0) — OK"), std::string::npos);
  EXPECT_NE(md.str().find("no violations recorded"), std::string::npos);
}

// Rewriting a ge-report-v1 directory in place leaves no stale trace.jsonl
// beside the new trace.bin; files the report does not own survive.
TEST(Report, WriteDirectoryRemovesTheRetiredJsonlTrace) {
  const TraceBuffer buf = tiny_buffer();
  TaskInput input;
  input.info = tiny_info();
  input.buffer = &buf;
  input.models = {{power::PowerModel(5.0, 2.0, 1000.0)}};
  ReportWriter writer;
  writer.add_task(input);

  const std::filesystem::path dir =
      ::testing::TempDir() + "/report_rewrite_" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  std::ofstream(dir / "report.md") << "# report\n\nschema: ge-report-v1 | tasks: 1\n";
  std::ofstream(dir / "trace.jsonl") << "{\"ev\": \"meta\"}\n";
  std::ofstream(dir / "notes.txt") << "kept\n";
  writer.write_directory(dir.string());

  EXPECT_FALSE(std::filesystem::exists(dir / "trace.jsonl"));
  EXPECT_TRUE(std::filesystem::exists(dir / "trace.bin"));
  EXPECT_TRUE(std::filesystem::exists(dir / "notes.txt"));
  std::ifstream md(dir / "report.md");
  const std::string text((std::istreambuf_iterator<char>(md)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("ge-report-v2"), std::string::npos);
  std::filesystem::remove_all(dir);
}

// The writer keeps a view of each added task's events, not a copy: two
// tasks added before write_directory come back from trace.bin in add order,
// each equal to its own source buffer field for field.
TEST(Report, TraceBinHoldsEachAddedTaskInOrder) {
  const TraceBuffer first = tiny_buffer();
  TraceBuffer second;
  TraceEvent ev;
  ev.type = TraceEventType::kArrival;
  ev.t = 0.5;
  ev.job = 7;
  ev.a = 80.0;
  ev.b = 0.75;
  ev.c = 1.0;  // tenant
  second.push(ev);
  ev = TraceEvent{};
  ev.type = TraceEventType::kExec;
  ev.t = 0.5;
  ev.t2 = 0.6;
  ev.core = 0;
  ev.job = 7;
  ev.a = 800.0;
  second.push(ev);
  ev = TraceEvent{};
  ev.type = TraceEventType::kCompletion;
  ev.t = 0.6;
  ev.core = 0;
  ev.job = 7;
  ev.a = 80.0;
  ev.b = 80.0;
  ev.c = 1.0;
  second.push(ev);

  TaskInput a;
  a.info = tiny_info();
  a.buffer = &first;
  a.models = {{power::PowerModel(5.0, 2.0, 1000.0)}};
  TaskInput b = a;
  b.info.task = 1;
  b.info.scheduler = "BE";
  b.buffer = &second;

  ReportWriter writer;
  writer.add_task(a);
  writer.add_task(b);
  ASSERT_EQ(writer.inputs().size(), 2u);
  EXPECT_EQ(writer.inputs()[0].buffer, &first);
  EXPECT_EQ(writer.inputs()[1].buffer, &second);

  const std::filesystem::path dir =
      ::testing::TempDir() + "/report_two_tasks_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  writer.write_directory(dir.string());
  std::vector<ParsedTask> parsed;
  ASSERT_EQ(read_trace_bin((dir / "trace.bin").string(), parsed), "");
  std::filesystem::remove_all(dir);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].info.task, 0u);
  EXPECT_EQ(parsed[0].info.scheduler, "GE");
  expect_same_events(parsed[0].buffer.events(), first.events());
  EXPECT_EQ(parsed[1].info.task, 1u);
  EXPECT_EQ(parsed[1].info.scheduler, "BE");
  expect_same_events(parsed[1].buffer.events(), second.events());
}

TEST(TraceReader, RoundTripsEveryEventKind) {
  TraceBuffer buf = tiny_buffer();
  TraceEvent ev;
  ev.type = TraceEventType::kModeSwitch;
  ev.t = 0.5;
  ev.mode = kModeBq;
  ev.a = 0.875;
  buf.push(ev);
  ev = TraceEvent{};
  ev.type = TraceEventType::kCut;
  ev.t = 0.5;
  ev.core = 0;
  ev.a = 2.0;
  ev.b = 130.0;
  ev.c = 260.0;
  buf.push(ev);
  ev = TraceEvent{};
  ev.type = TraceEventType::kCap;
  ev.t = 0.5;
  ev.core = 0;
  ev.a = 12.5;
  buf.push(ev);
  ev = TraceEvent{};
  ev.type = TraceEventType::kDeadlineMiss;
  ev.t = 0.625;
  ev.core = -1;
  ev.job = 2;
  ev.a = 0.0;
  ev.b = 150.0;
  ev.c = 0.5;
  buf.push(ev);
  ev = TraceEvent{};
  ev.type = TraceEventType::kCoreOffline;
  ev.t = 0.75;
  ev.core = 1;
  buf.push(ev);
  ev = TraceEvent{};
  ev.type = TraceEventType::kDispatch;
  ev.t = 0.75;
  ev.job = 3;
  ev.core = 1;  // server index
  ev.a = 2.0;   // in flight
  buf.push(ev);
  ev = TraceEvent{};
  ev.type = TraceEventType::kViolation;
  ev.t = 0.875;
  ev.mode = static_cast<std::int32_t>(ViolationCheck::kEnergyIdentity);
  ev.a = 1.5;
  ev.b = 1.25;
  buf.push(ev);

  std::ostringstream out;
  TraceWriter writer(out, TraceFormat::kJsonl);
  writer.append_task(tiny_info(), buf);
  writer.close();

  std::istringstream in(out.str());
  std::vector<ParsedTask> parsed;
  ASSERT_EQ(read_trace_jsonl(in, parsed), "");
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].info.scheduler, "GE");
  EXPECT_EQ(parsed[0].info.cores, 1u);
  EXPECT_EQ(parsed[0].info.power_budget, 20.0);
  EXPECT_EQ(parsed[0].model.a(), 5.0);
  EXPECT_EQ(parsed[0].model.beta(), 2.0);
  EXPECT_EQ(parsed[0].model.units_per_ghz(), 1000.0);

  const std::vector<TraceEvent>& original = buf.events();
  const std::vector<TraceEvent>& round_tripped = parsed[0].buffer.events();
  ASSERT_EQ(round_tripped.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(round_tripped[i].type, original[i].type);
    EXPECT_EQ(round_tripped[i].t, original[i].t);
    EXPECT_EQ(round_tripped[i].t2, original[i].t2);
    EXPECT_EQ(round_tripped[i].job, original[i].job);
    EXPECT_EQ(round_tripped[i].core, original[i].core);
    EXPECT_EQ(round_tripped[i].mode, original[i].mode);
    EXPECT_EQ(round_tripped[i].a, original[i].a);
    EXPECT_EQ(round_tripped[i].b, original[i].b);
    EXPECT_EQ(round_tripped[i].c, original[i].c);
  }
}

// trace.bin stores every field exactly: values %.12g text cannot carry
// (-0.0, subnormals, the ends of the double range, 2^62 job ids) and
// scheduler names JSON would have to escape come back bit for bit.
TEST(TraceBin, RoundTripsEveryEventTypeBitForBit) {
  const double specials[] = {-0.0,
                             std::numeric_limits<double>::denorm_min(),
                             2.2250738585072009e-308,  // largest subnormal
                             1e308,
                             -1e308,
                             0.1,
                             1.0 / 3.0};
  std::vector<TraceEvent> events;
  constexpr int kTypes = static_cast<int>(TraceEventType::kServerState) + 1;
  for (int type = 0; type < kTypes; ++type) {
    for (std::size_t k = 0; k < std::size(specials); ++k) {
      TraceEvent ev;
      ev.type = static_cast<TraceEventType>(type);
      ev.t = specials[k];
      ev.t2 = specials[(k + 1) % std::size(specials)];
      ev.core = k % 2 == 0 ? std::numeric_limits<std::int32_t>::min() : type;
      ev.job = (std::int64_t{1} << 62) + type - static_cast<std::int64_t>(k);
      ev.mode = k % 2 == 0 ? -1 : std::numeric_limits<std::int32_t>::max();
      ev.a = specials[(k + 2) % std::size(specials)];
      ev.b = specials[(k + 3) % std::size(specials)];
      ev.c = specials[(k + 4) % std::size(specials)];
      events.push_back(ev);
    }
  }
  TraceTaskInfo info = tiny_info();
  info.scheduler = "QOA[\"1.5\"]\nsecond line\\";
  info.arrival_rate = std::numeric_limits<double>::denorm_min();
  info.cores = 48;
  info.power_budget = -0.0;
  info.ladder_units = {200.0, 400.0, 1e308};
  TraceTaskInfo empty = tiny_info();
  empty.task = 1;
  empty.scheduler.clear();
  const power::PowerModel model(4.25, 2.75, 999.5);
  const std::vector<TraceEvent> none;

  const std::string path = ::testing::TempDir() + "/trace_bin_round_trip.bin";
  {
    std::ofstream out(path, std::ios::binary);
    write_trace_bin(out, {{&info, model, &events}, {&empty, power::PowerModel(), &none}});
  }
  std::vector<ParsedTask> parsed;
  ASSERT_EQ(read_trace_bin(path, parsed), "");
  std::remove(path.c_str());
  ASSERT_EQ(parsed.size(), 2u);
  const TraceTaskInfo& got = parsed[0].info;
  EXPECT_EQ(got.task, 0u);
  EXPECT_EQ(got.scheduler, info.scheduler);
  EXPECT_EQ(bits(got.arrival_rate), bits(info.arrival_rate));
  EXPECT_EQ(got.cores, 48u);
  EXPECT_EQ(bits(got.power_budget), bits(-0.0));
  EXPECT_EQ(got.ladder_units, info.ladder_units);
  EXPECT_EQ(got.power_model_json, model.describe_json());
  EXPECT_EQ(parsed[0].model.a(), 4.25);
  EXPECT_EQ(parsed[0].model.beta(), 2.75);
  EXPECT_EQ(parsed[0].model.units_per_ghz(), 999.5);
  EXPECT_EQ(parsed[1].info.task, 1u);
  EXPECT_EQ(parsed[1].info.scheduler, "");
  EXPECT_TRUE(parsed[1].info.ladder_units.empty());
  EXPECT_EQ(parsed[1].buffer.size(), 0u);

  expect_same_events(parsed[0].buffer.events(), events);
}

// The reader accepts exactly JSON's number grammar, converted correctly
// rounded, and keeps values finite.
TEST(TraceReader, ParsesJsonNumbersExactly) {
  const std::string meta =
      "{\"ev\": \"meta\", \"task\": 0, \"scheduler\": \"GE\", \"arrival_rate\": 4, "
      "\"cores\": 1, \"power_budget_w\": 20, \"power_model\": {\"a\": 5, "
      "\"beta\": 2, \"units_per_ghz\": 1000}, \"ladder\": []}\n";
  const std::pair<const char*, double> cases[] = {
      {"-0", -0.0},      {"0", 0.0},           {"1E+2", 100.0},
      {"0.5e-3", 5e-4},  {"-12.25", -12.25},   {"1e21", 1e21},
      {"4.94065645841e-324", std::numeric_limits<double>::denorm_min()},
      {"0.1", 0.1},      {"1.7976931348623157e308", std::numeric_limits<double>::max()}};
  for (const auto& [token, expected] : cases) {
    std::istringstream in(meta + "{\"ev\": \"cap\", \"task\": 0, \"t\": " + token +
                          ", \"core\": 0, \"watts\": 1}\n");
    std::vector<ParsedTask> parsed;
    ASSERT_EQ(read_trace_jsonl(in, parsed), "") << token;
    ASSERT_EQ(parsed.size(), 1u) << token;
    ASSERT_EQ(parsed[0].buffer.size(), 1u) << token;
    const double got = parsed[0].buffer.events()[0].t;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(expected))
        << token;
  }
}

// strtod accepted all of these; none is a JSON number, and non-finite
// values have no JSON spelling.  Both readers must stop with the JSON
// error: the trace reader returns it, the metrics reader aborts with it.
TEST(TraceReader, RejectsNumberTokensJsonDoesNotAllow) {
  const char* tokens[] = {"inf",  "-inf", "Infinity", "nan", "NaN",  "0x1p3",
                          "+1",   "1.",   ".5",       "01",  "-01",  "1e",
                          "1e+",  "-",    "--1",      "1e999", "-1e400", "0x10"};
  const std::string meta =
      "{\"ev\": \"meta\", \"task\": 0, \"scheduler\": \"GE\", \"arrival_rate\": 4, "
      "\"cores\": 1, \"power_budget_w\": 20, \"power_model\": {\"a\": 5, "
      "\"beta\": 2, \"units_per_ghz\": 1000}, \"ladder\": []}\n";
  for (const char* token : tokens) {
    SCOPED_TRACE(token);
    std::istringstream in(meta + "{\"ev\": \"cap\", \"task\": 0, \"t\": " + token +
                          ", \"core\": 0, \"watts\": 1}\n");
    std::vector<ParsedTask> parsed;
    EXPECT_NE(read_trace_jsonl(in, parsed).find("JSON"), std::string::npos);
    EXPECT_TRUE(parsed.empty());
    EXPECT_DEATH(
        {
          std::istringstream in(
              std::string("{\"schema\": \"goodenough-metrics-v2\", \"metrics\": "
                          "[{\"name\": \"x\", \"type\": \"counter\", \"value\": ") +
              token + "}]}");
          (void)read_metrics_json(in);
        },
        "JSON");
  }
}

// Only the v2 layout is read; a v1 file stops with one line naming both.
TEST(TraceReader, MetricsReaderRejectsTheV1Layout) {
  const std::string body =
      "\", \"metrics\": [{\"name\": \"energy.total_j\", \"type\": "
      "\"counter\", \"value\": 2}]}";
  std::istringstream v2("{\"schema\": \"goodenough-metrics-v2" + body);
  EXPECT_EQ(read_metrics_json(v2).get("energy.total_j", -1.0), 2.0);
  EXPECT_DEATH(
      {
        std::istringstream v1("{\"schema\": \"goodenough-metrics-v1" + body);
        (void)read_metrics_json(v1);
      },
      "schema 'goodenough-metrics-v1' is not goodenough-metrics-v2");
}

TEST(Watchdog, CleanBufferRecordsNoViolations) {
  TraceBuffer buf;
  WatchdogOptions options;
  options.models = {{power::PowerModel()}};
  options.server_budgets_w = {20.0};
  MetricsRegistry reg;
  Watchdog dog(buf, options, &reg);
  buf.set_observer(&dog);
  const TraceBuffer clean = tiny_buffer();
  for (const TraceEvent& ev : clean.events()) {
    buf.push(ev);
  }
  Watchdog::Totals totals;
  totals.released = 1;
  totals.server_energy_j = {power::PowerModel().power(1500.0) * (0.35 - 0.25)};
  dog.finish(0.4, totals);
  buf.set_observer(nullptr);
  EXPECT_EQ(dog.violations(), 0u);
  EXPECT_EQ(reg.counter("watchdog.violations", "violations").value(), 0.0);
  EXPECT_GT(reg.counter("watchdog.checks", "events").value(), 0.0);
}

TEST(Watchdog, CorruptedEventsFireTheMatchingChecks) {
  TraceBuffer buf;
  WatchdogOptions options;
  options.models = {{power::PowerModel()}};
  options.server_budgets_w = {20.0};
  Watchdog dog(buf, options, nullptr);
  buf.set_observer(&dog);

  TraceEvent ev;
  ev.type = TraceEventType::kRound;
  ev.t = 1.0;
  ev.mode = kModeAes;
  buf.push(ev);
  ev = TraceEvent{};  // clock runs backwards for an instantaneous event
  ev.type = TraceEventType::kRound;
  ev.t = 0.5;
  ev.mode = kModeAes;
  buf.push(ev);
  ev = TraceEvent{};  // exec slice that ends before it starts
  ev.type = TraceEventType::kExec;
  ev.t = 1.0;
  ev.t2 = 0.9;
  ev.core = 0;
  ev.job = 1;
  ev.a = 1000.0;
  buf.push(ev);
  ev = TraceEvent{};  // settlement reporting more work than was demanded
  ev.type = TraceEventType::kCompletion;
  ev.t = 1.0;
  ev.core = 0;
  ev.job = 1;
  ev.a = 200.0;  // executed
  ev.b = 150.0;  // demand
  buf.push(ev);

  Watchdog::Totals totals;
  totals.released = 3;          // only 1 settlement seen -> conservation fails
  totals.server_energy_j = {1e6};  // nowhere near the integrated energy
  dog.finish(1.0, totals);
  buf.set_observer(nullptr);

  std::vector<std::int32_t> fired;
  for (const TraceEvent& v : buf.events()) {
    if (v.type == TraceEventType::kViolation) {
      fired.push_back(v.mode);
    }
  }
  EXPECT_EQ(dog.violations(), fired.size());
  auto fired_check = [&](ViolationCheck check) {
    return std::count(fired.begin(), fired.end(),
                      static_cast<std::int32_t>(check)) > 0;
  };
  EXPECT_TRUE(fired_check(ViolationCheck::kMonotoneClock));
  EXPECT_TRUE(fired_check(ViolationCheck::kExecSpan));
  EXPECT_TRUE(fired_check(ViolationCheck::kJobOverrun));
  EXPECT_TRUE(fired_check(ViolationCheck::kSettlementConservation));
  EXPECT_TRUE(fired_check(ViolationCheck::kEnergyIdentity));
}

}  // namespace
}  // namespace ge::obs::analysis

namespace ge::exp {
namespace {

ExperimentConfig small_config(double rate) {
  ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  cfg.arrival_rate = rate;
  cfg.duration = 1.0;
  cfg.seed = 7;
  return cfg;
}

// The residency integration must reproduce the run's reported dynamic
// energy *bit for bit*: exec events carry the exact accrual terms and the
// analysis adds them in the same order the cores did.
TEST(AnalysisIdentity, IntegratedEnergyMatchesRunResultExactly) {
  const ExperimentConfig cfg = small_config(150.0);
  const SchedulerSpec spec = SchedulerSpec::parse("GE");
  const workload::Trace trace =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  obs::RunTelemetry telemetry;
  const RunResult result =
      run_simulation(cfg, spec, trace, nullptr, &telemetry);

  obs::analysis::TaskInput input;
  input.buffer = &telemetry.trace;
  for (const cluster::NodeSpec& node :
       cfg.cluster_node_specs(effective_budget(spec, cfg))) {
    input.models.push_back(node.core_models);
  }
  input.reported_energy_j = result.energy;
  const obs::analysis::TaskAnalysis task = obs::analysis::analyze_task(input);

  EXPECT_EQ(task.integrated_energy_j, result.energy);
  EXPECT_EQ(task.energy_rel_err, 0.0);
  EXPECT_EQ(task.released, result.released);
  EXPECT_EQ(task.completed, result.completed);
  EXPECT_EQ(task.partial, result.partial);
  EXPECT_EQ(task.dropped, result.dropped);
}

TEST(AnalysisIdentity, HoldsOnClusterRunsWithDispatchAttribution) {
  ExperimentConfig cfg = small_config(180.0);
  cfg.num_servers = 2;
  const SchedulerSpec spec = SchedulerSpec::parse("GE");
  const workload::Trace trace =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  obs::RunTelemetry telemetry;
  const RunResult result =
      run_simulation(cfg, spec, trace, nullptr, &telemetry);

  obs::analysis::TaskInput input;
  input.buffer = &telemetry.trace;
  for (const cluster::NodeSpec& node :
       cfg.cluster_node_specs(effective_budget(spec, cfg))) {
    input.models.push_back(node.core_models);
  }
  input.reported_energy_j = result.energy;
  const obs::analysis::TaskAnalysis task = obs::analysis::analyze_task(input);

  EXPECT_EQ(task.num_servers, 2u);
  EXPECT_EQ(task.integrated_energy_j, result.energy);
  EXPECT_EQ(task.energy_rel_err, 0.0);
  // Dispatch conservation: the per-server tallies partition the jobs.
  ASSERT_EQ(task.dispatched.size(), 2u);
  EXPECT_EQ(task.dispatched[0] + task.dispatched[1], task.released);
}

TEST(RunnerWatchdog, RealRunIsViolationFree) {
  obs::RunTelemetry telemetry;
  telemetry.want_watchdog = true;
  const ExperimentConfig cfg = small_config(150.0);
  const workload::Trace trace =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  (void)run_simulation(cfg, SchedulerSpec::parse("GE"), trace, nullptr,
                       &telemetry);
  EXPECT_EQ(
      telemetry.metrics.counter("watchdog.violations", "violations").value(),
      0.0);
  EXPECT_GT(telemetry.metrics.counter("watchdog.checks", "events").value(), 0.0);
  for (const obs::TraceEvent& ev : telemetry.trace.events()) {
    EXPECT_NE(ev.type, obs::TraceEventType::kViolation);
  }
}

TEST(RunnerProfiler, SpansRecordOnlyWhenEnabled) {
  const ExperimentConfig cfg = small_config(120.0);
  const workload::Trace trace =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);

  obs::RunTelemetry off;
  (void)run_simulation(cfg, SchedulerSpec::parse("GE"), trace, nullptr, &off);
  EXPECT_EQ(off.profiler, nullptr);

  obs::RunTelemetry on;
  on.enable_profiling();
  (void)run_simulation(cfg, SchedulerSpec::parse("GE"), trace, nullptr, &on);
  EXPECT_EQ(on.metrics.counter("prof.sim_run_calls", "calls").value(), 1.0);
  EXPECT_GT(on.metrics.counter("prof.sim_run_ns", "ns").value(), 0.0);
  EXPECT_GE(on.metrics.counter("prof.ge_round_calls", "calls").value(), 1.0);
  EXPECT_GE(on.metrics.counter("prof.cut_calls", "calls").value(), 1.0);
  EXPECT_GE(on.metrics.counter("prof.power_dist_calls", "calls").value(), 1.0);
  EXPECT_GE(on.metrics.counter("prof.plan_calls", "calls").value(), 1.0);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(EngineReport, DirectoryIsByteIdenticalForAnyWorkerCount) {
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
    exec.telemetry.report_dir = dir + "/report" + tag;
    exec.telemetry.watchdog = true;
    (void)run_plan(plan, exec);
  };
  run_with(1, "1");
  run_with(4, "4");
  for (const char* name : {"report.md", "summary.csv", "jobs.csv",
                           "residency.csv", "timeline.csv", "reclaim.csv",
                           "trace.bin"}) {
    const std::string a = dir + "/report1/" + name;
    const std::string b = dir + "/report4/" + name;
    EXPECT_EQ(slurp(a), slurp(b)) << name;
    std::remove(a.c_str());
    std::remove(b.c_str());
  }
}

}  // namespace
}  // namespace ge::exp
