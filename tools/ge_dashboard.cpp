// ge_dashboard: render a ge-report-v2 directory as a self-contained HTML
// fleet dashboard (schema ge-dashboard-v1).
//
//   ge_dashboard --report DIR --out FILE
//                [--speed-bin GHZ] [--bins N] [--gantt-cap N]
//
//   --report DIR     ge-report-v2 directory written by --report / ge_report
//                    (reads the trace.bin the report writer embeds)
//   --out FILE       HTML file to write (required)
//   --speed-bin GHZ  residency histogram bin width (default 0.2)
//   --bins N         timeline / heatmap bin count per task (default 60)
//   --gantt-cap N    max exec slices drawn individually in the Gantt panel
//                    before falling back to binned busy blocks (default 4000)
//
// --speed-bin must be a number > 0, --bins and --gantt-cap integers >= 1;
// any other value exits 2 with a one-line message naming the flag.
//
// The output embeds every style and chart inline (no scripts, no external
// fetches) and its bytes are a pure function of the report directory and
// flags, so CI diffs dashboards across --jobs/--shards byte-for-byte.  A
// directory without a well-formed trace.bin or with a different schema
// version is a clean error (exit 2): regenerate the report with this
// build's --report.
#include <cstdio>
#include <fstream>
#include <string>

#include "obs/analysis/dashboard.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);

  const std::string report_dir = flags.get_string("report", "");
  const std::string out_path = flags.get_string("out", "");
  if (report_dir.empty() || out_path.empty()) {
    std::fprintf(stderr, "usage: ge_dashboard --report DIR --out FILE\n");
    return 2;
  }

  // A malformed value exits 2 naming the flag, before any input is read.
  obs::analysis::DashboardOptions options;
  options.speed_bin_ghz =
      flags.get_positive_double("speed-bin", options.speed_bin_ghz);
  options.timeline_bins = static_cast<std::size_t>(flags.get_int_at_least(
      "bins", static_cast<std::int64_t>(options.timeline_bins), 1));
  options.gantt_slice_cap = static_cast<std::size_t>(flags.get_int_at_least(
      "gantt-cap", static_cast<std::int64_t>(options.gantt_slice_cap), 1));

  obs::analysis::LoadedReport loaded = obs::analysis::load_report_dir(report_dir);
  if (!loaded.ok()) {
    std::fprintf(stderr, "ge_dashboard: %s\n", loaded.error.c_str());
    return 2;
  }

  std::ofstream out(out_path, std::ios::binary);
  if (!out.good()) {
    std::fprintf(stderr, "ge_dashboard: cannot open --out output file: %s\n",
                 out_path.c_str());
    return 2;
  }
  obs::analysis::write_dashboard(out, loaded.inputs, options);
  std::printf("ge_dashboard: %zu task(s) -> %s\n", loaded.inputs.size(),
              out_path.c_str());
  return 0;
}
