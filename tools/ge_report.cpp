// ge_report: offline trace analytics.
//
// Re-derives the analysis layer's timelines, per-job spans, speed-residency
// histograms, the reclaim advisor's clairvoyant re-speed bounds and the
// residency-vs-reported energy cross-check from a --trace JSONL file (or a
// previously written report directory), without re-running the simulation:
//
//   ge_report --trace FILE [--out DIR] [--metrics FILE] [--dashboard FILE]
//             [--speed-bin GHZ] [--bins N] [--energy-tol REL]
//   ge_report --report DIR [--out DIR] [--dashboard FILE] ...
//
//   --trace FILE     JSONL trace written by any figNN binary or ge_sweep;
//                    a line that is not a well-formed trace record exits 2
//                    naming the file and line
//   --report DIR     ge-report-v2 directory to re-analyse (reads the
//                    trace.bin the report writer embeds); exactly one of
//                    --trace/--report is required.  A missing, truncated or
//                    corrupt trace.bin or a schema mismatch is a clean error
//                    (exit 2), not a crash.
//   --out DIR        report directory to write (default: report; with
//                    --dashboard the report directory is written only when
//                    --out is given explicitly)
//   --dashboard FILE self-contained HTML fleet dashboard to write
//                    (schema ge-dashboard-v1, see docs/OBSERVABILITY.md)
//   --metrics FILE   merged metrics JSON from the same run; its
//                    energy.total_j supplies the reported total the
//                    residency integration is checked against (a missing
//                    or malformed file exits 2)
//   --speed-bin GHZ  residency histogram bin width (default 0.2)
//   --bins N         timeline bin count per task (default 60)
//   --energy-tol REL energy identity verdict threshold (default 1e-6: from a
//                    --trace file every accrual term round-trips the
//                    writer's %.12g formatting, so the in-process 1e-9 does
//                    not hold; a report dir's trace.bin is exact)
//
// --speed-bin and --energy-tol must be numbers > 0 and --bins an integer
// >= 1; any other value exits 2 with a one-line message naming the flag,
// and so does any other flag, a misspelling included.
//
// Output is deterministic: report and dashboard bytes are a pure function
// of the input files and flags (schemas ge-report-v2 / ge-dashboard-v1,
// docs/OBSERVABILITY.md).  CI runs this tool on the telemetry smoke trace
// and diffs serial-vs-parallel report directories byte-for-byte.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/analysis/dashboard.h"
#include "obs/analysis/report.h"
#include "obs/analysis/trace_reader.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);

  const std::string trace_path = flags.get_string("trace", "");
  const std::string report_dir_in = flags.get_string("report", "");
  if (trace_path.empty() == report_dir_in.empty()) {
    std::fprintf(stderr,
                 "usage: ge_report (--trace FILE | --report DIR) [--out DIR] "
                 "[--dashboard FILE] [--metrics FILE]\n");
    return 2;
  }
  // A malformed value or an unknown flag exits 2 naming the flag, before
  // any input is read.
  obs::analysis::DashboardOptions options;
  options.speed_bin_ghz =
      flags.get_positive_double("speed-bin", options.speed_bin_ghz);
  options.timeline_bins = static_cast<std::size_t>(flags.get_int_at_least(
      "bins", static_cast<std::int64_t>(options.timeline_bins), 1));
  options.energy_rel_tol = flags.get_positive_double("energy-tol", 1e-6);
  const std::string metrics_path = flags.get_string("metrics", "");
  const std::string dashboard_path = flags.get_string("dashboard", "");
  const std::string out_dir = flags.get_string("out", "report");
  const bool want_report = flags.has("out") || dashboard_path.empty();
  flags.reject_unread();

  // Both input modes end in the same shape: `parsed` owns the buffers,
  // `inputs` views them.
  obs::analysis::LoadedReport loaded =
      trace_path.empty() ? obs::analysis::load_report_dir(report_dir_in)
                         : obs::analysis::load_trace_file(trace_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "ge_report: %s\n", loaded.error.c_str());
    return 2;
  }
  if (loaded.inputs.empty()) {
    std::fprintf(stderr, "ge_report: input contains no tasks\n");
    return 2;
  }

  // The merged metrics file sums energy over every task, so it pins down a
  // single task's reported energy only when the trace holds a single task;
  // for multi-task traces the summed cross-check is printed below instead.
  double metrics_energy_j = -1.0;
  if (!metrics_path.empty()) {
    std::ifstream metrics_in(metrics_path);
    obs::analysis::MetricsValues metrics;
    const std::string error =
        metrics_in.good() ? obs::analysis::read_metrics_json(metrics_in, metrics)
                          : "cannot open --metrics input file";
    if (!error.empty()) {
      std::fprintf(stderr, "ge_report: %s: %s\n", metrics_path.c_str(), error.c_str());
      return 2;
    }
    metrics_energy_j = metrics.get("energy.total_j", -1.0);
  }
  if (loaded.inputs.size() == 1 && metrics_energy_j >= 0.0) {
    loaded.inputs[0].reported_energy_j = metrics_energy_j;
  }

  obs::analysis::ReportWriter writer(options);
  for (const obs::analysis::TaskInput& input : loaded.inputs) {
    writer.add_task(input);
  }
  if (want_report) {
    writer.write_directory(out_dir);
  }
  if (!dashboard_path.empty()) {
    std::ofstream dash_out(dashboard_path, std::ios::binary);
    if (!dash_out.good()) {
      std::fprintf(stderr, "ge_report: cannot open --dashboard output file: %s\n",
                   dashboard_path.c_str());
      return 2;
    }
    obs::analysis::write_dashboard(dash_out, writer, options);
    std::printf("ge_report: dashboard -> %s\n", dashboard_path.c_str());
  }

  double integrated_j = 0.0;
  std::size_t violations = 0;
  for (const obs::analysis::TaskAnalysis& task : writer.tasks()) {
    integrated_j += task.integrated_energy_j;
    violations += task.violations.size();
  }
  if (want_report) {
    std::printf("ge_report: %zu task(s) -> %s (%zu recorded violation(s))\n",
                loaded.inputs.size(), out_dir.c_str(), violations);
  }
  std::printf("ge_report: integrated energy %.12g J\n", integrated_j);
  if (metrics_energy_j >= 0.0) {
    const double diff = integrated_j - metrics_energy_j;
    const double rel =
        metrics_energy_j != 0.0 ? std::abs(diff / metrics_energy_j)
                                : std::abs(diff);
    const bool ok = rel <= options.energy_rel_tol;
    std::printf("ge_report: metrics energy.total_j %.12g J (rel err %.12g) %s\n",
                metrics_energy_j, rel, ok ? "OK" : "MISMATCH");
    return ok ? 0 : 1;
  }
  return 0;
}
