#include "obs/analysis/report.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

#include "obs/analysis/trace_bin.h"
#include "obs/format.h"
#include "util/check.h"

namespace ge::obs::analysis {
namespace {

// Fixed-precision rendering for the human-facing Markdown tables.
std::string fixed(double v, int digits) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

void phase_row(std::ostream& out, const char* name, const PhaseStats& stats) {
  out << "| " << name << " | " << stats.count << " | " << fixed(stats.mean_ms, 2)
      << " | " << fixed(stats.p50_ms, 2) << " | " << fixed(stats.p95_ms, 2)
      << " | " << fixed(stats.p99_ms, 2) << " |\n";
}

const char* outcome_name(const JobSpan& job) {
  constexpr double kCompleteTol = 1e-6;  // matches analysis.cpp / the runner
  if (job.executed >= job.demand - kCompleteTol) {
    return "completed";
  }
  return job.executed > kCompleteTol ? "partial" : "dropped";
}

}  // namespace

ReportWriter::ReportWriter(ReportOptions options) : options_(options) {}

void ReportWriter::add_task(const TaskInput& input) {
  inputs_.push_back(input);
  tasks_.push_back(analyze_task(input, options_));
  reclaims_.push_back(analyze_reclaim(input, tasks_.back()));
}

void ReportWriter::write_markdown(std::ostream& out) const {
  out << "# goodenough run report\n\n";
  out << "schema: ge-report-v2 | tasks: " << tasks_.size() << "\n";

  for (const TaskAnalysis& task : tasks_) {
    out << "\n## task " << task.info.task << " — " << task.info.scheduler
        << " @ " << fmt_g12(task.info.arrival_rate) << " req/s\n\n";
    out << "- config: " << task.num_servers << " server(s), "
        << task.info.cores << " cores/server, budget "
        << fmt_g12(task.info.power_budget) << " W, power model "
        << task.info.power_model_json << "\n";
    out << "- jobs: " << task.released << " released = " << task.completed
        << " completed + " << task.partial << " partial + " << task.dropped
        << " dropped (" << task.missed << " deadline misses)\n";
    out << "- scheduling: " << task.rounds << " rounds, " << task.mode_switches
        << " mode switches, " << task.cuts << " cuts\n";
    out << "- energy: integrated " << fmt_g12(task.integrated_energy_j) << " J";
    if (task.reported_energy_j >= 0.0) {
      out << " vs reported " << fmt_g12(task.reported_energy_j) << " J (rel err "
          << fmt_g12(task.energy_rel_err) << ") — "
          << (task.energy_rel_err <= options_.energy_rel_tol ? "OK" : "MISMATCH")
          << "\n";
    } else {
      out << " (no reported total to cross-check)\n";
    }

    out << "\n### lifecycle (ms)\n\n";
    out << "| phase | jobs | mean | p50 | p95 | p99 |\n";
    out << "|---|---:|---:|---:|---:|---:|\n";
    phase_row(out, "wait (release -> admission)", task.wait);
    phase_row(out, "service (first slice -> settled)", task.service);
    phase_row(out, "response (release -> settled)", task.response);
    phase_row(out, "slack (settled -> deadline)", task.slack);

    // Aggregate the per-core residency over the fleet for the overview
    // table; per-core rows live in residency.csv.
    std::map<std::int32_t, ResidencyBin> fleet;
    double total_busy = 0.0;
    for (const CoreResidency& core : task.residency) {
      total_busy += core.busy_s;
      for (const ResidencyBin& bin : core.bins) {
        ResidencyBin& agg = fleet.try_emplace(bin.bin).first->second;
        agg.busy_s += bin.busy_s;
        agg.energy_j += bin.energy_j;
      }
    }
    out << "\n### speed residency (" << fmt_g12(options_.speed_bin_ghz)
        << " GHz bins, all cores)\n\n";
    out << "| GHz | busy core-s | share | energy J |\n";
    out << "|---|---:|---:|---:|\n";
    for (const auto& [bin, agg] : fleet) {
      const double lo = static_cast<double>(bin) * options_.speed_bin_ghz;
      out << "| " << fixed(lo, 2) << "–"
          << fixed(lo + options_.speed_bin_ghz, 2) << " | "
          << fixed(agg.busy_s, 3) << " | "
          << fixed(total_busy > 0.0 ? 100.0 * agg.busy_s / total_busy : 0.0, 1)
          << "% | " << fixed(agg.energy_j, 3) << " |\n";
    }

    if (!task.tenants.empty()) {
      out << "\n### tenants\n\n";
      out << "| tenant | q_ge | released | completed | partial | dropped | "
             "missed | executed units | demand units | energy J |\n";
      out << "|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n";
      for (const TenantStats& ts : task.tenants) {
        out << "| " << ts.tenant << " | "
            << (ts.q_ge >= 0.0 ? fixed(ts.q_ge, 2) : std::string("?")) << " | "
            << ts.released << " | " << ts.completed << " | " << ts.partial
            << " | " << ts.dropped << " | " << ts.missed << " | "
            << fixed(ts.executed_units, 3) << " | " << fixed(ts.demand_units, 3)
            << " | " << fixed(ts.energy_j, 3) << " |\n";
      }
    }

    if (task.num_servers > 1) {
      out << "\n### servers\n\n";
      out << "| server | dispatched | energy J |\n";
      out << "|---:|---:|---:|\n";
      for (std::size_t s = 0; s < task.num_servers; ++s) {
        out << "| " << s << " | " << task.dispatched[s] << " | "
            << fixed(task.server_energy_j[s], 3) << " |\n";
      }
    }

    const ReclaimAnalysis& reclaim = reclaims_[&task - tasks_.data()];
    out << "\n### reclaim advisor\n\n";
    out << "- realised " << fmt_g12(reclaim.realized_j) << " J >= discrete-ladder "
        << fmt_g12(reclaim.disc_j) << " J >= continuous " << fmt_g12(reclaim.cont_j)
        << " J >= fluid offline " << fmt_g12(reclaim.offline_j) << " J\n";
    out << "- clairvoyantly avoidable: "
        << fixed(100.0 * reclaim.avoidable_frac, 1)
        << "% of the realised energy\n";

    out << "\n### watchdog\n\n";
    if (task.violations.empty()) {
      out << "no violations recorded\n";
    } else {
      out << "| t | check | observed | expected |\n";
      out << "|---:|---|---:|---:|\n";
      for (const TraceEvent& ev : task.violations) {
        out << "| " << fmt_g12(ev.t) << " | " << violation_check_name(ev.mode)
            << " | " << fmt_g12(ev.a) << " | " << fmt_g12(ev.b) << " |\n";
      }
    }
  }
}

void ReportWriter::write_summary_csv(std::ostream& out) const {
  out << "task,scheduler,arrival_rate,servers,cores,released,completed,partial,"
         "dropped,missed,rounds,mode_switches,cuts,violations,"
         "integrated_energy_j,reported_energy_j,energy_rel_err,"
         "mean_response_ms,p99_response_ms,reclaim_energy_j,reclaim_disc_j,"
         "reclaim_offline_j,reclaim_frac\n";
  for (const TaskAnalysis& task : tasks_) {
    const ReclaimAnalysis& reclaim = reclaims_[&task - tasks_.data()];
    out << task.info.task << "," << task.info.scheduler << ","
        << fmt_g12(task.info.arrival_rate) << "," << task.num_servers << ","
        << task.info.cores << "," << task.released << "," << task.completed
        << "," << task.partial << "," << task.dropped << "," << task.missed
        << "," << task.rounds << "," << task.mode_switches << "," << task.cuts
        << "," << task.violations.size() << "," << fmt_g12(task.integrated_energy_j)
        << "," << fmt_g12(task.reported_energy_j) << "," << fmt_g12(task.energy_rel_err)
        << "," << fmt_g12(task.response.mean_ms) << "," << fmt_g12(task.response.p99_ms)
        << "," << fmt_g12(reclaim.cont_j) << "," << fmt_g12(reclaim.disc_j) << ","
        << fmt_g12(reclaim.offline_j) << "," << fmt_g12(reclaim.avoidable_frac)
        << "\n";
  }
}

void ReportWriter::write_jobs_csv(std::ostream& out) const {
  out << "task,job,server,core,tenant,arrival_s,assigned_s,first_exec_s,"
         "settled_s,deadline_s,demand_units,executed_units,energy_j,wait_ms,"
         "service_ms,response_ms,slack_ms,outcome,missed\n";
  for (const TaskAnalysis& task : tasks_) {
    for (const JobSpan& job : task.jobs) {
      out << task.info.task << "," << job.id << "," << job.server << ","
          << job.core << "," << job.tenant << ","
          << fmt_g12(job.arrival) << "," << fmt_g12(job.assigned)
          << "," << fmt_g12(job.first_exec) << "," << fmt_g12(job.settled) << ","
          << fmt_g12(job.deadline) << "," << fmt_g12(job.demand) << ","
          << fmt_g12(job.executed) << "," << fmt_g12(job.energy_j) << ","
          << fmt_g12(job.wait_ms()) << "," << fmt_g12(job.service_ms()) << ","
          << fmt_g12(job.response_ms()) << "," << fmt_g12(job.slack_ms()) << ","
          << outcome_name(job) << "," << (job.missed ? 1 : 0) << "\n";
    }
  }
}

void ReportWriter::write_residency_csv(std::ostream& out) const {
  out << "task,server,core,ghz_lo,ghz_hi,busy_s,energy_j\n";
  for (const TaskAnalysis& task : tasks_) {
    for (const CoreResidency& core : task.residency) {
      for (const ResidencyBin& bin : core.bins) {
        const double lo = static_cast<double>(bin.bin) * options_.speed_bin_ghz;
        out << task.info.task << "," << core.server << "," << core.core << ","
            << fmt_g12(lo) << "," << fmt_g12(lo + options_.speed_bin_ghz) << ","
            << fmt_g12(bin.busy_s) << "," << fmt_g12(bin.energy_j) << "\n";
      }
    }
  }
}

void ReportWriter::write_timeline_csv(std::ostream& out) const {
  out << "task,server,t_s,waiting,in_flight,busy_cores,power_w\n";
  for (const TaskAnalysis& task : tasks_) {
    for (const ServerTimeline& tl : task.timelines) {
      for (std::size_t i = 0; i < task.bin_end.size(); ++i) {
        out << task.info.task << "," << tl.server << "," << fmt_g12(task.bin_end[i])
            << "," << fmt_g12(tl.waiting[i]) << "," << fmt_g12(tl.in_flight[i]) << ","
            << fmt_g12(tl.busy_cores[i]) << "," << fmt_g12(tl.power_w[i]) << "\n";
      }
    }
  }
}

void ReportWriter::write_tenants_csv(std::ostream& out) const {
  out << "task,tenant,q_ge,released,completed,partial,dropped,missed,"
         "executed_units,demand_units,energy_j\n";
  for (const TaskAnalysis& task : tasks_) {
    for (const TenantStats& ts : task.tenants) {
      out << task.info.task << "," << ts.tenant << "," << fmt_g12(ts.q_ge) << ","
          << ts.released << "," << ts.completed << "," << ts.partial << ","
          << ts.dropped << "," << ts.missed << "," << fmt_g12(ts.executed_units)
          << "," << fmt_g12(ts.demand_units) << "," << fmt_g12(ts.energy_j) << "\n";
    }
  }
}

void ReportWriter::write_reclaim_csv(std::ostream& out) const {
  out << "task,server,t_s,realized_j,reclaim_j,reclaim_disc_j\n";
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    const TaskAnalysis& task = tasks_[t];
    for (const ServerReclaim& sr : reclaims_[t].servers) {
      for (std::size_t i = 0; i < task.bin_end.size(); ++i) {
        out << task.info.task << "," << sr.server << "," << fmt_g12(task.bin_end[i])
            << "," << fmt_g12(sr.realized_bin_j[i]) << "," << fmt_g12(sr.cont_bin_j[i])
            << "," << fmt_g12(sr.disc_bin_j[i]) << "\n";
      }
    }
  }
}

void ReportWriter::write_trace_bin(std::ostream& out) const {
  std::vector<TraceBinTask> tasks;
  tasks.reserve(tasks_.size());
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    tasks.push_back({&tasks_[t].info,
                     parse_power_model_json(tasks_[t].info.power_model_json),
                     &inputs_[t].buffer->events()});
  }
  analysis::write_trace_bin(out, tasks);
}

// Files an earlier report schema wrote that this one does not (ge-report-v1's
// JSONL trace).  write_directory removes them, so a directory rewritten in
// place holds one schema and no stale trace beside trace.bin.
constexpr const char* kRetiredFiles[] = {"trace.jsonl"};

void ReportWriter::write_directory(const std::string& dir) const {
  std::filesystem::create_directories(dir);
  for (const char* name : kRetiredFiles) {
    std::error_code ignored;  // absent is the usual case
    std::filesystem::remove(std::filesystem::path(dir) / name, ignored);
  }
  const auto write = [&](const char* name, auto&& render) {
    std::ofstream out(std::filesystem::path(dir) / name, std::ios::binary);
    GE_CHECK(out.good(), "cannot open report output file");
    render(out);
  };
  write("report.md", [&](std::ostream& o) { write_markdown(o); });
  write("summary.csv", [&](std::ostream& o) { write_summary_csv(o); });
  write("jobs.csv", [&](std::ostream& o) { write_jobs_csv(o); });
  write("residency.csv", [&](std::ostream& o) { write_residency_csv(o); });
  write("timeline.csv", [&](std::ostream& o) { write_timeline_csv(o); });
  write("tenants.csv", [&](std::ostream& o) { write_tenants_csv(o); });
  write("reclaim.csv", [&](std::ostream& o) { write_reclaim_csv(o); });
  write("trace.bin", [&](std::ostream& o) { write_trace_bin(o); });
}

}  // namespace ge::obs::analysis
