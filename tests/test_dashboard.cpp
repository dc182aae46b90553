// Tests for the HTML fleet dashboard (src/obs/analysis/dashboard.h): the
// panel-id contract, the self-containment pledge (no scripts, no external
// fetches), byte determinism, the report-directory loader's round trip and
// its clean error paths (missing dir / missing or malformed trace.bin /
// wrong schema).
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/config.h"
#include "exp/experiment_engine.h"
#include "exp/scheduler_spec.h"
#include "obs/analysis/dashboard.h"
#include "obs/analysis/trace_bin.h"
#include "obs/trace.h"
#include "power/power_model.h"

namespace ge::obs::analysis {
namespace {

// A two-task report directory rendered by the engine, shared by the tests
// below (SetUpTestSuite keeps it to one simulation).
class DashboardFromEngine : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // ctest runs every discovered test as its own process; a pid suffix keeps
    // concurrent processes from racing on one report directory.
    dir_ = new std::string(::testing::TempDir() + "/dash_report_" +
                           std::to_string(::getpid()));
    exp::ExperimentPlan plan;
    exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
    cfg.duration = 1.0;
    cfg.seed = 91;
    cfg.arrival_rate = 130.0;
    cfg.num_servers = 2;
    cfg.dispatch = cluster::DispatchPolicy::kRoundRobin;
    for (const char* name : {"GE", "BE"}) {
      plan.add(cfg, exp::SchedulerSpec::parse(name), 0);
    }
    exp::ExecutionOptions exec;
    exec.telemetry.report_dir = *dir_;
    exec.telemetry.trace_path = *dir_ + ".jsonl";
    (void)exp::run_plan(plan, exec);
  }
  static void TearDownTestSuite() {
    delete dir_;
    dir_ = nullptr;
  }
  static std::string* dir_;
};

std::string* DashboardFromEngine::dir_ = nullptr;

std::string render(const std::vector<TaskInput>& inputs,
                   const DashboardOptions& options = {}) {
  std::ostringstream out;
  write_dashboard(out, inputs, options);
  return out.str();
}

TEST_F(DashboardFromEngine, PanelContractAndSelfContainment) {
  LoadedReport loaded = load_report_dir(*dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  ASSERT_EQ(loaded.inputs.size(), 2u);
  const std::string html = render(loaded.inputs);

  EXPECT_EQ(html.rfind("<!DOCTYPE html>", 0), 0u);
  EXPECT_NE(html.find("ge-dashboard-v1"), std::string::npos);
  // Self-containment: inline styles and SVG only.
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
  EXPECT_EQ(html.find("<script"), std::string::npos);
  EXPECT_NE(html.find("<svg"), std::string::npos);
  // Every panel, for both tasks, in write order.
  std::size_t pos = 0;
  for (int task = 0; task < 2; ++task) {
    for (const char* panel :
         {"summary", "gantt", "residency", "timelines", "lifecycle",
          "heatmap", "tenants", "reclaim"}) {
      const std::string id = "id=\"panel-" + std::string(panel) + "-" +
                             std::to_string(task) + "\"";
      const std::size_t at = html.find(id, pos);
      ASSERT_NE(at, std::string::npos) << id;
      pos = at;
    }
  }
}

TEST_F(DashboardFromEngine, BytesAreDeterministic) {
  LoadedReport a = load_report_dir(*dir_);
  LoadedReport b = load_report_dir(*dir_);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(render(a.inputs), render(b.inputs));
}

TEST_F(DashboardFromEngine, GanttFallsBackAboveTheSliceCap) {
  LoadedReport loaded = load_report_dir(*dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  DashboardOptions capped;
  capped.gantt_slice_cap = 1;  // force the binned fallback
  const std::string html = render(loaded.inputs, capped);
  EXPECT_NE(html.find("exceed the drawing cap"), std::string::npos);
  // The default cap draws individual slices and says nothing about binning.
  const std::string full = render(loaded.inputs);
  EXPECT_EQ(full.find("exceed the drawing cap"), std::string::npos);
}

// trace.bin stores every value exactly, so the JSONL rendering of the
// loaded tasks is the run's own --trace file, byte for byte.
TEST_F(DashboardFromEngine, LoadedTasksRenderTheRunsTraceJsonl) {
  const LoadedReport loaded = load_report_dir(*dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  std::string rendered;
  for (const ParsedTask& task : loaded.parsed) {
    append_trace_jsonl(rendered, task.info, task.buffer);
  }
  std::ifstream in(*dir_ + ".jsonl", std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream trace;
  trace << in.rdbuf();
  EXPECT_GT(rendered.size(), 0u);
  EXPECT_TRUE(rendered == trace.str());
}

TEST(LoadReportDir, MissingDirectoryIsACleanError) {
  const LoadedReport loaded = load_report_dir("definitely/not/a/report/dir");
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("not a report directory"), std::string::npos);
}

TEST(LoadReportDir, MissingReportMdIsACleanError) {
  const std::string dir = ::testing::TempDir() + "/dash_empty";
  std::filesystem::create_directories(dir);
  const LoadedReport loaded = load_report_dir(dir);
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("report.md"), std::string::npos);
}

TEST(LoadReportDir, SchemaMismatchIsACleanError) {
  const std::string dir = ::testing::TempDir() + "/dash_badschema";
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/report.md") << "# report\n\nschema: ge-report-v0\n";
  const LoadedReport loaded = load_report_dir(dir);
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("schema mismatch"), std::string::npos);
}

TEST(LoadReportDir, MissingTraceBinIsACleanError) {
  const std::string dir = ::testing::TempDir() + "/dash_notrace";
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/report.md") << "# report\n\nschema: ge-report-v2\n";
  const LoadedReport loaded = load_report_dir(dir);
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("trace.bin"), std::string::npos);
}

// A report dir written before trace.bin (schema v1, trace.jsonl) is refused
// by its schema line, before any trace is read.
TEST(LoadReportDir, V1DirectoryIsACleanError) {
  const std::string dir = ::testing::TempDir() + "/dash_v1";
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/report.md") << "# report\n\nschema: ge-report-v1 | tasks: 0\n";
  std::ofstream(dir + "/trace.jsonl") << "";
  const LoadedReport loaded = load_report_dir(dir);
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("expected ge-report-v2"), std::string::npos);
}

// A small two-task trace.bin: a ladder, a few events, one empty task.
std::string small_trace_bin() {
  TraceTaskInfo info0;
  info0.task = 0;
  info0.scheduler = "GE";
  info0.arrival_rate = 100.0;
  info0.cores = 2;
  info0.power_budget = 20.0;
  info0.ladder_units = {500.0, 1000.0};
  TraceTaskInfo info1 = info0;
  info1.task = 1;
  info1.ladder_units.clear();
  std::vector<TraceEvent> events(3);
  events[0].job = 0;
  events[1].type = TraceEventType::kExec;
  events[1].t2 = 0.5;
  events[1].core = 1;
  events[1].job = 0;
  events[2].type = TraceEventType::kServerState;
  events[2].core = 0;
  const std::vector<TraceEvent> none;
  std::ostringstream out;
  write_trace_bin(out, {{&info0, power::PowerModel(), &events},
                        {&info1, power::PowerModel(), &none}});
  return out.str();
}

// Writes a report.md (schema v2) and `bytes` as trace.bin into `dir`.
void write_dir(const std::string& dir, const std::string& bytes) {
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/report.md") << "# report\n\nschema: ge-report-v2 | tasks: 2\n";
  std::ofstream(dir + "/trace.bin", std::ios::binary) << bytes;
}

TEST(LoadReportDir, TraceBinTruncatedAtAnyByteIsACleanError) {
  const std::string bytes = small_trace_bin();
  const std::string dir = ::testing::TempDir() + "/dash_truncated_" +
                          std::to_string(::getpid());
  write_dir(dir, bytes);
  const LoadedReport whole = load_report_dir(dir);
  ASSERT_TRUE(whole.ok()) << whole.error;
  ASSERT_EQ(whole.inputs.size(), 2u);
  EXPECT_EQ(whole.parsed[0].buffer.size(), 3u);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    SCOPED_TRACE(cut);
    write_dir(dir, bytes.substr(0, cut));
    const LoadedReport loaded = load_report_dir(dir);
    EXPECT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.parsed.empty());
    EXPECT_EQ(loaded.error.find('\n'), std::string::npos);
  }
  std::filesystem::remove_all(dir);
}

TEST(LoadReportDir, CorruptTraceBinIsACleanError) {
  const std::string good = small_trace_bin();
  const std::string dir = ::testing::TempDir() + "/dash_corrupt_" +
                          std::to_string(::getpid());
  struct Case {
    const char* what;
    std::size_t offset;
    char byte;
    const char* expect;
  };
  // Offsets: magic 0-7, version 8-11; task 0's power-model a sits after
  // its index (8), name (4 + 2), rate (8), cores (8) and budget (8).
  const std::size_t model_a = 20 + 8 + 6 + 8 + 8 + 8;
  const std::size_t first_event = model_a + 24 + 8 + 16 + 8;
  for (const Case& c :
       {Case{"bad magic", 0, 'X', "bad magic"},
        Case{"next version", 8, 2, "version 2"},
        Case{"event type", first_event, 13, "event type 13"},
        Case{"power model", model_a + 7, static_cast<char>(0x80),
             "invalid power model"}}) {
    SCOPED_TRACE(c.what);
    std::string bytes = good;
    bytes[c.offset] = c.byte;
    write_dir(dir, bytes);
    const LoadedReport loaded = load_report_dir(dir);
    EXPECT_FALSE(loaded.ok());
    EXPECT_NE(loaded.error.find(c.expect), std::string::npos) << loaded.error;
  }
  write_dir(dir, good + "x");
  EXPECT_NE(load_report_dir(dir).error.find("trailing"), std::string::npos);
  std::filesystem::remove_all(dir);
}

// A well-framed trace.bin whose events name an index the task cannot have is
// refused by the loader, before any analysis indexes a table with it.
TEST(LoadReportDir, OutOfRangeEventIndexIsACleanError) {
  TraceTaskInfo info;
  info.cores = 2;
  const std::string dir = ::testing::TempDir() + "/dash_badindex_" +
                          std::to_string(::getpid());
  auto event = [](TraceEventType type, std::int32_t core, std::int64_t job,
                  double c) {
    TraceEvent ev;
    ev.type = type;
    ev.core = core;
    ev.job = job;
    ev.c = c;
    ev.t2 = 0.5;
    return ev;
  };
  struct Case {
    const char* what;
    TraceEvent ev;
    const char* expect;
  };
  for (const Case& c :
       {Case{"exec core", event(TraceEventType::kExec, 2, 0, 0.0), "core outside"},
        Case{"exec core -1", event(TraceEventType::kExec, -1, 0, 0.0), "core outside"},
        Case{"assign core", event(TraceEventType::kAssign, 7, 0, 0.0), "core outside"},
        Case{"dispatch server", event(TraceEventType::kDispatch, -1, 0, 0.0),
             "negative server"},
        Case{"lifecycle server", event(TraceEventType::kServerState, -3, -1, 0.0),
             "negative server"},
        Case{"arrival job", event(TraceEventType::kArrival, -1, -5, 0.0),
             "negative job"},
        Case{"completion job", event(TraceEventType::kCompletion, 0, -2, 1.0),
             "negative job"},
        Case{"tenant -1", event(TraceEventType::kArrival, -1, 0, -1.0), "tenant"},
        Case{"tenant 1.5", event(TraceEventType::kArrival, -1, 0, 1.5), "tenant"},
        Case{"tenant 2^40", event(TraceEventType::kArrival, -1, 0, 0x1p40), "tenant"}}) {
    SCOPED_TRACE(c.what);
    const std::vector<TraceEvent> events = {event(TraceEventType::kArrival, -1, 0, 0.0),
                                            c.ev};
    std::ostringstream out;
    write_trace_bin(out, {{&info, power::PowerModel(), &events}});
    write_dir(dir, out.str());
    const LoadedReport loaded = load_report_dir(dir);
    EXPECT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.parsed.empty());
    EXPECT_NE(loaded.error.find(c.expect), std::string::npos) << loaded.error;
    EXPECT_NE(loaded.error.find("event 1"), std::string::npos) << loaded.error;
    EXPECT_EQ(loaded.error.find('\n'), std::string::npos);
  }
  std::filesystem::remove_all(dir);
}

// The --trace JSONL loader runs the same check.
TEST(LoadTraceFile, OutOfRangeEventIndexIsACleanError) {
  TraceTaskInfo info;
  info.cores = 2;
  info.scheduler = "GE";
  info.power_model_json = power::PowerModel().describe_json();
  TraceBuffer buffer;
  TraceEvent arrival;
  arrival.job = 0;
  buffer.push(arrival);
  TraceEvent exec;
  exec.type = TraceEventType::kExec;
  exec.job = 0;
  exec.core = 1;
  exec.t2 = 0.5;
  buffer.push(exec);
  const std::string path = ::testing::TempDir() + "/trace_badindex_" +
                           std::to_string(::getpid()) + ".jsonl";
  std::string text;
  append_trace_jsonl(text, info, buffer);
  std::ofstream(path) << text;
  const LoadedReport good = load_trace_file(path);
  ASSERT_TRUE(good.ok()) << good.error;
  EXPECT_EQ(good.inputs.size(), 1u);

  exec.core = 5;
  buffer.push(exec);
  text.clear();
  append_trace_jsonl(text, info, buffer);
  std::ofstream(path) << text;
  const LoadedReport bad = load_trace_file(path);
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.inputs.empty());
  EXPECT_NE(bad.error.find("event 2"), std::string::npos) << bad.error;
  EXPECT_NE(bad.error.find("core outside"), std::string::npos) << bad.error;
  EXPECT_NE(load_trace_file(path + ".missing").error.find("cannot open"),
            std::string::npos);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace ge::obs::analysis
