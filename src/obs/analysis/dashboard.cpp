#include "obs/analysis/dashboard.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <utility>

#include "obs/analysis/trace_bin.h"
#include "obs/format.h"
#include "util/check.h"

namespace ge::obs::analysis {
namespace {

// Fixed-precision rendering: SVG coordinates use two decimals so layout
// bytes stay stable under FP noise far below a hundredth of a pixel.
std::string px(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

std::string pct(double frac) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.1f", 100.0 * frac);
  return buf;
}

std::string esc(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char ch : text) {
    switch (ch) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out.push_back(ch);
    }
  }
  return out;
}

// Cold (slow) to hot (fast) colour for a speed fraction in [0, 1].
std::string speed_color(double frac) {
  frac = std::clamp(frac, 0.0, 1.0);
  const int hue = 210 - static_cast<int>(std::lround(frac * 210.0));
  return "hsl(" + std::to_string(hue) + ",70%,45%)";
}

const char* state_color(std::int32_t state) {
  switch (state) {
    case kServerStateOnline: return "#2e7d32";
    case kServerStateDraining: return "#f9a825";
    case kServerStateOff: return "#9e9e9e";
    case kServerStateWaking: return "#1976d2";
    default: return "#000000";
  }
}

constexpr double kPlotW = 900.0;

// One task's inputs and analyses; the panels only read them.
struct TaskView {
  const TaskInput& input;
  const TaskAnalysis& analysis;
  const ReclaimAnalysis& reclaim;
  double t_max = 1.0;  // plot end: the analysis bin grid's last edge
};

double x_of(const TaskView& tv, double t) {
  return kPlotW * std::clamp(t / tv.t_max, 0.0, 1.0);
}

void open_panel(std::ostream& out, const char* name, std::size_t task,
                const std::string& title) {
  out << "<section class=\"panel\" id=\"panel-" << name << "-" << task
      << "\">\n<h3>" << title << "</h3>\n";
}

void close_panel(std::ostream& out) { out << "</section>\n"; }

// --- summary + reclaim strips ------------------------------------------------

void panel_summary(std::ostream& out, const TaskView& tv) {
  const TaskAnalysis& a = tv.analysis;
  const ReclaimAnalysis& r = tv.reclaim;
  open_panel(out, "summary", a.info.task, "summary");
  out << "<table><tr>"
      << "<th>servers</th><th>cores/server</th><th>released</th>"
      << "<th>completed</th><th>partial</th><th>dropped</th><th>missed</th>"
      << "<th>energy J</th><th>avoidable</th></tr>\n<tr>"
      << "<td>" << a.num_servers << "</td><td>" << a.info.cores << "</td><td>"
      << a.released << "</td><td>" << a.completed << "</td><td>" << a.partial
      << "</td><td>" << a.dropped << "</td><td>" << a.missed << "</td><td>"
      << fmt_g12(a.integrated_energy_j) << "</td><td class=\"headline\">"
      << pct(r.avoidable_frac) << "%</td></tr></table>\n";
  if (!a.violations.empty()) {
    out << "<p class=\"bad\">watchdog recorded " << a.violations.size()
        << " violation(s) &mdash; see the run report</p>\n";
  }
  close_panel(out);
}

void panel_reclaim(std::ostream& out, const TaskView& tv) {
  const ReclaimAnalysis& r = tv.reclaim;
  open_panel(out, "reclaim", tv.analysis.info.task, "reclaim advisor");
  out << "<p>" << pct(r.avoidable_frac)
      << "% of the realised energy was clairvoyantly avoidable "
         "(re-speeding the realised work within its deadlines)</p>\n";
  const double scale = r.realized_j > 0.0 ? r.realized_j : 1.0;
  const struct {
    const char* label;
    double value;
    const char* color;
  } bars[] = {
      {"realised", r.realized_j, "#b71c1c"},
      {"discrete ladder", r.disc_j, "#e65100"},
      {"continuous", r.cont_j, "#2e7d32"},
      {"fluid offline", r.offline_j, "#1565c0"},
  };
  out << "<svg width=\"" << px(kPlotW) << "\" height=\"92\" "
         "role=\"img\" aria-label=\"reclaim bounds\">\n";
  for (std::size_t i = 0; i < 4; ++i) {
    const double w = kPlotW * 0.72 * std::clamp(bars[i].value / scale, 0.0, 1.0);
    const double y = 4.0 + 22.0 * static_cast<double>(i);
    out << "<rect x=\"180\" y=\"" << px(y) << "\" width=\"" << px(w)
        << "\" height=\"16\" fill=\"" << bars[i].color << "\"/>"
        << "<text x=\"0\" y=\"" << px(y + 12.0) << "\">" << bars[i].label
        << "</text><text x=\"" << px(184.0 + w) << "\" y=\"" << px(y + 12.0)
        << "\">" << fmt_g12(bars[i].value) << " J</text>\n";
  }
  out << "</svg>\n";
  out << "<table><tr><th>server</th><th>realised J</th><th>reclaim J</th>"
         "<th>discrete J</th><th>avoidable</th></tr>\n";
  for (const ServerReclaim& sr : r.servers) {
    const double frac =
        sr.realized_j > 0.0 ? (sr.realized_j - sr.cont_j) / sr.realized_j : 0.0;
    out << "<tr><td>s" << sr.server << "</td><td>" << fmt_g12(sr.realized_j)
        << "</td><td>" << fmt_g12(sr.cont_j) << "</td><td>" << fmt_g12(sr.disc_j)
        << "</td><td>" << pct(frac) << "%</td></tr>\n";
  }
  out << "</table>\n";
  close_panel(out);
}

// --- gantt -------------------------------------------------------------------

struct GanttSlice {
  double t0 = 0.0;
  double t1 = 0.0;
  double speed = 0.0;
};

void panel_gantt(std::ostream& out, const TaskView& tv,
                 const DashboardOptions& options) {
  const TaskAnalysis& a = tv.analysis;
  // (server, core) -> slices, deterministic row order.
  std::map<std::pair<std::int32_t, std::int32_t>, std::vector<GanttSlice>> rows;
  std::map<std::int64_t, std::int32_t> job_server;
  for (const JobSpan& job : a.jobs) {
    job_server[job.id] = job.server;
  }
  double max_speed = 0.0;
  std::size_t slices = 0;
  for (const TraceEvent& ev : tv.input.buffer->events()) {
    if (ev.type != TraceEventType::kExec || ev.t2 <= ev.t) {
      continue;
    }
    rows[{job_server.at(ev.job), ev.core}].push_back({ev.t, ev.t2, ev.a});
    max_speed = std::max(max_speed, ev.a);
    ++slices;
  }
  if (max_speed <= 0.0) {
    max_speed = 1.0;
  }
  open_panel(out, "gantt", a.info.task, "per-core execution (speed-coloured)");
  const bool binned = slices > options.gantt_slice_cap;
  if (binned) {
    out << "<p class=\"note\">" << slices
        << " exec slices exceed the drawing cap (" << options.gantt_slice_cap
        << "); showing per-bin busy blocks at the bin's mean speed "
           "instead</p>\n";
  }
  const double row_h = 14.0;
  const double height = row_h * static_cast<double>(std::max<std::size_t>(
                                    rows.size(), 1)) +
                        4.0;
  out << "<svg width=\"" << px(kPlotW + 140.0) << "\" height=\"" << px(height)
      << "\" role=\"img\" aria-label=\"gantt\">\n";
  std::size_t row = 0;
  const std::size_t bins = a.bin_end.size();
  for (const auto& [key, row_slices] : rows) {
    const double y = 2.0 + row_h * static_cast<double>(row);
    out << "<text x=\"0\" y=\"" << px(y + 10.0) << "\">s" << key.first << "c"
        << key.second << "</text>\n";
    if (!binned) {
      for (const GanttSlice& s : row_slices) {
        const double x0 = 120.0 + x_of(tv, s.t0);
        const double w = std::max(x_of(tv, s.t1) - x_of(tv, s.t0), 0.25);
        out << "<rect x=\"" << px(x0) << "\" y=\"" << px(y) << "\" width=\""
            << px(w) << "\" height=\"" << px(row_h - 3.0) << "\" fill=\""
            << speed_color(s.speed / max_speed) << "\"/>\n";
      }
    } else {
      std::vector<double> busy(bins, 0.0);
      std::vector<double> work(bins, 0.0);
      for (const GanttSlice& s : row_slices) {
        // Only bins ending after t0 and starting before t1 overlap the slice.
        const auto first = std::upper_bound(a.bin_end.begin(), a.bin_end.end(), s.t0);
        for (auto i = static_cast<std::size_t>(first - a.bin_end.begin());
             i < bins && a.bin_end[i] - a.bin_width < s.t1; ++i) {
          const double lo = std::max(s.t0, a.bin_end[i] - a.bin_width);
          const double hi = std::min(s.t1, a.bin_end[i]);
          if (hi > lo) {
            busy[i] += hi - lo;
            work[i] += s.speed * (hi - lo);
          }
        }
      }
      for (std::size_t i = 0; i < bins; ++i) {
        if (busy[i] <= 0.0) {
          continue;
        }
        const double x0 = 120.0 + x_of(tv, a.bin_end[i] - a.bin_width);
        const double w = x_of(tv, a.bin_end[i]) -
                         x_of(tv, a.bin_end[i] - a.bin_width);
        out << "<rect x=\"" << px(x0) << "\" y=\"" << px(y) << "\" width=\""
            << px(std::max(w, 0.25)) << "\" height=\"" << px(row_h - 3.0)
            << "\" fill=\"" << speed_color(work[i] / busy[i] / max_speed)
            << "\" opacity=\"" << px(std::clamp(busy[i] / a.bin_width, 0.15, 1.0))
            << "\"/>\n";
      }
    }
    ++row;
  }
  out << "</svg>\n";
  close_panel(out);
}

// --- residency ---------------------------------------------------------------

void panel_residency(std::ostream& out, const TaskView& tv,
                     const DashboardOptions& options) {
  const TaskAnalysis& a = tv.analysis;
  std::map<std::int32_t, double> busy;
  double total = 0.0;
  for (const CoreResidency& core : a.residency) {
    for (const ResidencyBin& bin : core.bins) {
      busy[bin.bin] += bin.busy_s;
      total += bin.busy_s;
    }
  }
  open_panel(out, "residency", a.info.task, "speed-ladder residency");
  if (busy.empty()) {
    out << "<p class=\"note\">no executed slices</p>\n";
  }
  out << "<svg width=\"" << px(kPlotW) << "\" height=\""
      << px(18.0 * static_cast<double>(std::max<std::size_t>(busy.size(), 1)) +
            4.0)
      << "\" role=\"img\" aria-label=\"residency\">\n";
  std::size_t row = 0;
  for (const auto& [bin, busy_s] : busy) {
    const double frac = total > 0.0 ? busy_s / total : 0.0;
    const double y = 2.0 + 18.0 * static_cast<double>(row);
    const double lo = static_cast<double>(bin) * options.speed_bin_ghz;
    out << "<text x=\"0\" y=\"" << px(y + 12.0) << "\">" << px(lo) << "&#8211;"
        << px(lo + options.speed_bin_ghz) << " GHz</text>"
        << "<rect x=\"130\" y=\"" << px(y) << "\" width=\""
        << px((kPlotW - 260.0) * frac) << "\" height=\"14\" fill=\""
        << speed_color(total > 0.0 && a.residency.size() > 0
                           ? (lo + options.speed_bin_ghz) /
                                 (static_cast<double>(busy.rbegin()->first + 1) *
                                  options.speed_bin_ghz)
                           : 0.0)
        << "\"/><text x=\"" << px(134.0 + (kPlotW - 260.0) * frac) << "\" y=\""
        << px(y + 12.0) << "\">" << pct(frac) << "% (" << px(busy_s)
        << " core-s)</text>\n";
    ++row;
  }
  out << "</svg>\n";
  close_panel(out);
}

// --- timelines ---------------------------------------------------------------

void polyline_chart(std::ostream& out, const TaskView& tv, const char* label,
                    const std::vector<std::vector<double>>& series_per_server) {
  const TaskAnalysis& a = tv.analysis;
  const double h = 64.0;
  double y_max = 0.0;
  for (const auto& series : series_per_server) {
    for (const double v : series) {
      y_max = std::max(y_max, v);
    }
  }
  if (y_max <= 0.0) {
    y_max = 1.0;
  }
  out << "<div class=\"chart\"><span class=\"chartlabel\">" << label
      << " (max " << fmt_g12(y_max) << ")</span>"
      << "<svg width=\"" << px(kPlotW) << "\" height=\"" << px(h + 4.0)
      << "\" role=\"img\" aria-label=\"" << label << "\">\n";
  static const char* kPalette[] = {"#1565c0", "#2e7d32", "#e65100", "#6a1b9a",
                                   "#b71c1c", "#00838f", "#f9a825", "#4e342e"};
  for (std::size_t s = 0; s < series_per_server.size(); ++s) {
    const std::vector<double>& series = series_per_server[s];
    out << "<polyline fill=\"none\" stroke=\"" << kPalette[s % 8]
        << "\" points=\"";
    for (std::size_t i = 0; i < series.size(); ++i) {
      const double x = x_of(tv, a.bin_end[i] - 0.5 * a.bin_width);
      const double y = 2.0 + h * (1.0 - series[i] / y_max);
      out << (i == 0 ? "" : " ") << px(x) << "," << px(y);
    }
    out << "\"/>\n";
  }
  out << "</svg></div>\n";
}

void panel_timelines(std::ostream& out, const TaskView& tv) {
  const TaskAnalysis& a = tv.analysis;
  open_panel(out, "timelines", a.info.task,
             "timelines (one line per server)");
  auto collect = [&](auto&& member) {
    std::vector<std::vector<double>> out_series;
    out_series.reserve(a.timelines.size());
    for (const ServerTimeline& tl : a.timelines) {
      out_series.push_back(member(tl));
    }
    return out_series;
  };
  polyline_chart(out, tv, "waiting jobs",
                 collect([](const ServerTimeline& tl) { return tl.waiting; }));
  polyline_chart(
      out, tv, "in-flight jobs",
      collect([](const ServerTimeline& tl) { return tl.in_flight; }));
  polyline_chart(
      out, tv, "busy cores",
      collect([](const ServerTimeline& tl) { return tl.busy_cores; }));
  polyline_chart(out, tv, "dynamic power W",
                 collect([](const ServerTimeline& tl) { return tl.power_w; }));
  polyline_chart(out, tv, "monitored quality",
                 collect([](const ServerTimeline& tl) { return tl.quality; }));
  // SLO burn: cumulative deadline-miss fraction of settlements, per server,
  // sampled at bin ends.
  const std::size_t bins = a.bin_end.size();
  std::vector<std::vector<double>> burn(a.num_servers,
                                        std::vector<double>(bins, 0.0));
  {
    std::vector<std::vector<std::pair<double, bool>>> settled(a.num_servers);
    for (const JobSpan& job : a.jobs) {
      if (job.settled >= 0.0) {
        settled[static_cast<std::size_t>(job.server)].emplace_back(job.settled,
                                                                   job.missed);
      }
    }
    for (std::size_t s = 0; s < a.num_servers; ++s) {
      std::sort(settled[s].begin(), settled[s].end());
      std::size_t next = 0;
      double seen = 0.0;
      double missed = 0.0;
      for (std::size_t i = 0; i < bins; ++i) {
        while (next < settled[s].size() &&
               settled[s][next].first <= a.bin_end[i]) {
          seen += 1.0;
          missed += settled[s][next].second ? 1.0 : 0.0;
          ++next;
        }
        burn[s][i] = seen > 0.0 ? missed / seen : 0.0;
      }
    }
  }
  polyline_chart(out, tv, "SLO burn (miss fraction)", burn);
  close_panel(out);
}

// --- lifecycle bands ---------------------------------------------------------

void panel_lifecycle(std::ostream& out, const TaskView& tv) {
  const TaskAnalysis& a = tv.analysis;
  open_panel(out, "lifecycle", a.info.task, "server lifecycle");
  // Per-server state segments from the kServerState stream (the first event
  // per server carries the initial state at t = 0).
  std::vector<std::vector<std::pair<double, std::int32_t>>> transitions(
      a.num_servers);
  for (const TraceEvent& ev : a.server_states) {
    const auto s = static_cast<std::size_t>(ev.core);
    if (s < transitions.size()) {
      transitions[s].emplace_back(ev.t, ev.mode);
    }
  }
  if (a.server_states.empty()) {
    out << "<p class=\"note\">no lifecycle events &mdash; every server was "
           "online for the whole run</p>\n";
  }
  const double row_h = 18.0;
  out << "<svg width=\"" << px(kPlotW + 60.0) << "\" height=\""
      << px(row_h * static_cast<double>(a.num_servers) + 4.0)
      << "\" role=\"img\" aria-label=\"lifecycle\">\n";
  for (std::size_t s = 0; s < a.num_servers; ++s) {
    const double y = 2.0 + row_h * static_cast<double>(s);
    out << "<text x=\"0\" y=\"" << px(y + 12.0) << "\">s" << s << "</text>\n";
    std::vector<std::pair<double, std::int32_t>> segs = transitions[s];
    if (segs.empty() || segs.front().first > 0.0) {
      segs.insert(segs.begin(), {0.0, kServerStateOnline});
    }
    for (std::size_t i = 0; i < segs.size(); ++i) {
      const double t0 = segs[i].first;
      const double t1 = i + 1 < segs.size() ? segs[i + 1].first : tv.t_max;
      if (t1 <= t0) {
        continue;
      }
      out << "<rect x=\"" << px(50.0 + x_of(tv, t0)) << "\" y=\"" << px(y)
          << "\" width=\"" << px(std::max(x_of(tv, t1) - x_of(tv, t0), 0.25))
          << "\" height=\"" << px(row_h - 4.0) << "\" fill=\""
          << state_color(segs[i].second) << "\"><title>s" << s << " "
          << server_state_name(segs[i].second) << " " << fmt_g12(t0) << "&#8211;"
          << fmt_g12(t1) << " s</title></rect>\n";
    }
  }
  out << "</svg>\n";
  out << "<p class=\"legend\"><span style=\"color:#2e7d32\">&#9632; online"
         "</span> <span style=\"color:#f9a825\">&#9632; draining</span> "
         "<span style=\"color:#9e9e9e\">&#9632; off</span> "
         "<span style=\"color:#1976d2\">&#9632; waking</span></p>\n";
  close_panel(out);
}

// --- heatmap -----------------------------------------------------------------

void panel_heatmap(std::ostream& out, const TaskView& tv) {
  const TaskAnalysis& a = tv.analysis;
  open_panel(out, "heatmap", a.info.task,
             "cluster energy/load heatmap (servers x time)");
  const std::size_t bins = a.bin_end.size();
  double max_w = 0.0;
  for (const ServerTimeline& tl : a.timelines) {
    for (const double w : tl.power_w) {
      max_w = std::max(max_w, w);
    }
  }
  if (max_w <= 0.0) {
    max_w = 1.0;
  }
  const double row_h = 16.0;
  const double cell_w = kPlotW / static_cast<double>(bins);
  out << "<svg width=\"" << px(kPlotW + 60.0) << "\" height=\""
      << px(row_h * static_cast<double>(a.num_servers) + 4.0)
      << "\" role=\"img\" aria-label=\"heatmap\">\n";
  for (std::size_t s = 0; s < a.num_servers; ++s) {
    const double y = 2.0 + row_h * static_cast<double>(s);
    out << "<text x=\"0\" y=\"" << px(y + 12.0) << "\">s" << s << "</text>\n";
    for (std::size_t i = 0; i < bins; ++i) {
      const double frac = a.timelines[s].power_w[i] / max_w;
      const int cool =
          255 - static_cast<int>(std::lround(std::clamp(frac, 0.0, 1.0) * 200));
      out << "<rect x=\"" << px(50.0 + cell_w * static_cast<double>(i))
          << "\" y=\"" << px(y) << "\" width=\"" << px(cell_w)
          << "\" height=\"" << px(row_h - 2.0) << "\" fill=\"rgb(255,"
          << cool << "," << cool << ")\"><title>s" << s << " bin "
          << fmt_g12(a.bin_end[i]) << " s: " << fmt_g12(a.timelines[s].power_w[i])
          << " W, " << fmt_g12(a.timelines[s].busy_cores[i])
          << " busy cores</title></rect>\n";
    }
  }
  out << "</svg>\n";
  close_panel(out);
}

// --- tenants -----------------------------------------------------------------

void panel_tenants(std::ostream& out, const TaskView& tv) {
  const TaskAnalysis& a = tv.analysis;
  open_panel(out, "tenants", a.info.task, "tenants");
  if (a.tenants.empty()) {
    out << "<p class=\"note\">single-tenant run</p>\n";
  } else {
    out << "<table><tr><th>tenant</th><th>q_ge</th><th>released</th>"
           "<th>completed</th><th>partial</th><th>dropped</th><th>missed</th>"
           "<th>executed</th><th>demand</th><th>energy J</th></tr>\n";
    for (const TenantStats& ts : a.tenants) {
      out << "<tr><td>t" << ts.tenant << "</td><td>"
          << (ts.q_ge >= 0.0 ? fmt_g12(ts.q_ge) : std::string("?")) << "</td><td>"
          << ts.released << "</td><td>" << ts.completed << "</td><td>"
          << ts.partial << "</td><td>" << ts.dropped << "</td><td>"
          << ts.missed << "</td><td>" << fmt_g12(ts.executed_units) << "</td><td>"
          << fmt_g12(ts.demand_units) << "</td><td>" << fmt_g12(ts.energy_j)
          << "</td></tr>\n";
    }
    out << "</table>\n";
  }
  close_panel(out);
}

void write_head(std::ostream& out, std::size_t tasks) {
  out << "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
         "<meta charset=\"utf-8\">\n"
         "<meta name=\"generator\" content=\"ge-dashboard-v1\">\n"
         "<title>goodenough fleet dashboard</title>\n"
         "<style>\n"
         "body{font:14px/1.4 system-ui,sans-serif;margin:16px;color:#212121}\n"
         "h1{font-size:20px}h2{font-size:17px;margin-top:28px}"
         "h3{font-size:14px;margin:4px 0 6px}\n"
         ".panel{border:1px solid #ddd;border-radius:6px;padding:10px;"
         "margin:10px 0}\n"
         "table{border-collapse:collapse}td,th{border:1px solid #ccc;"
         "padding:2px 8px;text-align:right}th{background:#f5f5f5}\n"
         "svg text{font:10px system-ui,sans-serif;fill:#424242}\n"
         ".headline{font-weight:700;color:#b71c1c}\n"
         ".note{color:#757575;font-style:italic}.bad{color:#b71c1c}\n"
         ".chartlabel{display:block;color:#616161;font-size:12px}\n"
         ".legend span{margin-right:12px}\n"
         "</style>\n</head>\n<body>\n"
         "<h1>goodenough fleet dashboard</h1>\n"
         "<p>schema: ge-dashboard-v1 | tasks: "
      << tasks << "</p>\n";
}

void write_task(std::ostream& out, const TaskInput& input,
                const TaskAnalysis& analysis, const ReclaimAnalysis& reclaim,
                const DashboardOptions& options) {
  TaskView tv{input, analysis, reclaim};
  tv.t_max = analysis.bin_end.empty() ? 1.0 : analysis.bin_end.back();
  if (tv.t_max <= 0.0) {
    tv.t_max = 1.0;
  }
  out << "<h2 id=\"task-" << analysis.info.task << "\">task "
      << analysis.info.task << " &mdash; " << esc(analysis.info.scheduler)
      << " @ " << fmt_g12(analysis.info.arrival_rate) << " req/s</h2>\n";
  panel_summary(out, tv);
  panel_gantt(out, tv, options);
  panel_residency(out, tv, options);
  panel_timelines(out, tv);
  panel_lifecycle(out, tv);
  panel_heatmap(out, tv);
  panel_tenants(out, tv);
  panel_reclaim(out, tv);
}

void write_tail(std::ostream& out) { out << "</body>\n</html>\n"; }

}  // namespace

void write_dashboard(std::ostream& out, const std::vector<TaskInput>& inputs,
                     const DashboardOptions& options) {
  write_head(out, inputs.size());
  for (const TaskInput& input : inputs) {
    const TaskAnalysis analysis = analyze_task(input, options);
    write_task(out, input, analysis, analyze_reclaim(input, analysis), options);
  }
  write_tail(out);
}

void write_dashboard(std::ostream& out, const ReportWriter& writer,
                     const DashboardOptions& options) {
  GE_CHECK(options.speed_bin_ghz == writer.options().speed_bin_ghz &&
               options.timeline_bins == writer.options().timeline_bins,
           "dashboard options must bin as the ReportWriter's analyses did");
  write_head(out, writer.inputs().size());
  for (std::size_t t = 0; t < writer.inputs().size(); ++t) {
    write_task(out, writer.inputs()[t], writer.tasks()[t], writer.reclaims()[t],
               options);
  }
  write_tail(out);
}

namespace {

// Refuses the first event index its task cannot have (check_event_indices),
// else fills `loaded.inputs` with views of the parsed tasks.
LoadedReport with_inputs(LoadedReport loaded, const std::string& source) {
  for (const ParsedTask& task : loaded.parsed) {
    if (std::string error = check_event_indices(task); !error.empty()) {
      loaded.error = source + ": " + error;
      loaded.parsed.clear();
      return loaded;
    }
  }
  loaded.inputs.reserve(loaded.parsed.size());
  for (const ParsedTask& task : loaded.parsed) {
    TaskInput input;
    input.info = task.info;
    input.buffer = &task.buffer;
    input.fallback_model = task.model;
    loaded.inputs.push_back(std::move(input));
  }
  return loaded;
}

}  // namespace

LoadedReport load_report_dir(const std::string& dir) {
  LoadedReport out;
  namespace fs = std::filesystem;
  const fs::path root(dir);
  if (!fs::is_directory(root)) {
    out.error = "not a report directory: " + dir;
    return out;
  }
  {
    std::ifstream md(root / "report.md");
    if (!md.good()) {
      out.error = "missing report.md in " + dir +
                  " (not a ge-report-v2 directory?)";
      return out;
    }
    std::string line;
    bool found = false;
    bool mismatch = false;
    while (std::getline(md, line)) {
      const auto pos = line.find("schema: ");
      if (pos == std::string::npos) {
        continue;
      }
      found = true;
      mismatch = line.find("ge-report-v2", pos) == std::string::npos;
      break;
    }
    if (!found || mismatch) {
      out.error = "report schema mismatch in " + dir +
                  ": expected ge-report-v2 (regenerate the report dir with "
                  "this build's --report)";
      return out;
    }
  }
  const fs::path trace = root / "trace.bin";
  if (!fs::is_regular_file(trace)) {
    out.error = "missing trace.bin in " + dir +
                " (regenerate the report dir with this build's --report)";
    return out;
  }
  if (std::string error = read_trace_bin(trace.string(), out.parsed);
      !error.empty()) {
    out.error = std::move(error);
    return out;
  }
  return with_inputs(std::move(out), trace.string());
}

LoadedReport load_trace_file(const std::string& path) {
  LoadedReport out;
  std::ifstream in(path);
  if (!in.good()) {
    out.error = "cannot open --trace input file: " + path;
    return out;
  }
  if (std::string error = read_trace_jsonl(in, out.parsed); !error.empty()) {
    out.error = path + ": " + error;
    return out;
  }
  return with_inputs(std::move(out), path);
}

}  // namespace ge::obs::analysis
