#include "obs/analysis/reclaim.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <unordered_map>
#include <utility>

#include "opt/yds.h"
#include "util/check.h"

namespace ge::obs::analysis {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Convex envelope of the run's DVFS ladder under a core's power model:
// piecewise-linear through (level, P(level)) for speeds above the lowest
// level, the chord through the origin below it.  f >= P everywhere (P is
// convex), f == P exactly at ladder levels, f(0) = 0, f convex.
class LadderEnvelope {
 public:
  LadderEnvelope(const std::vector<double>& ladder,
                 const power::PowerModel& pm) {
    levels_ = ladder;
    std::sort(levels_.begin(), levels_.end());
    watts_.reserve(levels_.size());
    for (const double s : levels_) {
      GE_CHECK(s > 0.0, "reclaim: ladder levels must be positive");
      watts_.push_back(pm.power(s));
    }
  }

  bool discrete() const { return !levels_.empty(); }

  double power(double s) const {
    if (s <= 0.0) {
      return 0.0;
    }
    if (s <= levels_.front()) {
      return watts_.front() / levels_.front() * s;
    }
    auto it = std::lower_bound(levels_.begin(), levels_.end(), s);
    std::size_t k = static_cast<std::size_t>(it - levels_.begin());
    if (k >= levels_.size()) {
      k = levels_.size() - 1;  // extrapolate the last chord (YDS speeds
                               // never exceed the realised maximum level)
    }
    const double s0 = levels_[k - 1];
    const double s1 = levels_[k];
    const double w0 = watts_[k - 1];
    const double w1 = watts_[k];
    return w0 + (w1 - w0) / (s1 - s0) * (s - s0);
  }

 private:
  std::vector<double> levels_;  // ascending, units/s
  std::vector<double> watts_;
};

// Realised work of one job on one core.
struct JobAgg {
  double work = 0.0;
  double first_start = kInf;
  double last_end = -kInf;
};

}  // namespace

namespace detail {

ReclaimAnalysis analyze_reclaim(const TaskInput& input,
                                const TaskAnalysis& analysis, bool yds_only,
                                ReclaimPaths* paths) {
  GE_CHECK(input.buffer != nullptr, "analyze_reclaim: null trace buffer");
  const bool exact_models = !input.models.empty();
  const std::size_t num_servers = analysis.num_servers;
  const std::size_t bins = analysis.bin_end.size();

  ReclaimAnalysis out;
  out.realized_j = analysis.integrated_energy_j;
  out.servers.resize(num_servers);
  for (std::size_t s = 0; s < num_servers; ++s) {
    out.servers[s].server = static_cast<std::int32_t>(s);
    out.servers[s].realized_j = analysis.server_energy_j[s];
    out.servers[s].realized_bin_j.assign(bins, 0.0);
    out.servers[s].cont_bin_j.assign(bins, 0.0);
    out.servers[s].disc_bin_j.assign(bins, 0.0);
  }

  std::unordered_map<std::int64_t, const JobSpan*> span_of;
  for (const JobSpan& job : analysis.jobs) {
    span_of.emplace(job.id, &job);
  }

  auto model_of = [&](std::size_t server, std::int32_t core)
      -> const power::PowerModel& {
    return exact_models ? input.models.at(server).at(
                              static_cast<std::size_t>(core))
                        : input.fallback_model;
  };
  auto bin_of = [&](double t) {
    const auto i =
        static_cast<std::size_t>(std::max(t, 0.0) / analysis.bin_width);
    return std::min(i, bins - 1);
  };
  // Spread `joules_per_s * dt` of a [t0, t1] slice across the bin grid.  The
  // boundary bins are open-ended: a re-speed schedule may stretch work up to a
  // deadline past the last traced event, and that mass must still land in a
  // bin so the per-bin columns tile the totals exactly.
  auto spread = [&](std::vector<double>& acc, double t0, double t1,
                    double watts) {
    for (std::size_t i = bin_of(t0); i <= bin_of(t1); ++i) {
      const double lo =
          i == 0 ? t0
                 : std::max(t0, analysis.bin_end[i] - analysis.bin_width);
      const double hi = i + 1 == bins ? t1 : std::min(t1, analysis.bin_end[i]);
      if (hi > lo) {
        acc[i] += watts * (hi - lo);
      }
    }
  };

  // --- gather per-(server, core) realised instances --------------------------
  // std::map keys give a deterministic server-major, core-minor, job-id
  // iteration order.
  std::map<std::pair<std::size_t, std::int32_t>, std::map<std::int64_t, JobAgg>>
      core_jobs;
  for (const TraceEvent& ev : input.buffer->events()) {
    if (ev.type != TraceEventType::kExec || ev.t2 <= ev.t) {
      continue;
    }
    const JobSpan* span = span_of.at(ev.job);
    const auto server = static_cast<std::size_t>(span->server);
    GE_CHECK(server < num_servers, "reclaim: exec names an unknown server");
    JobAgg& agg = core_jobs[{server, ev.core}][ev.job];
    agg.work += ev.a * (ev.t2 - ev.t);
    agg.first_start = std::min(agg.first_start, ev.t);
    agg.last_end = std::max(agg.last_end, ev.t2);
    spread(out.servers[server].realized_bin_j, ev.t, ev.t2,
           model_of(server, ev.core).power(ev.a));
  }

  // Each instance takes the taut-string profile, left in `profile.profile`,
  // when it is agreeable, and critical-interval YDS otherwise (or always,
  // under `yds_only`).
  opt::ProfileScratch profile;
  auto agreeable = [&](const std::vector<opt::YdsJob>& jobs) {
    const bool linear = !yds_only && opt::agreeable_profile(jobs, profile);
    if (paths != nullptr) {
      ++paths->instances;
      paths->linear += linear ? 1 : 0;
    }
    return linear;
  };

  // --- per-core clairvoyant re-speed -----------------------------------------
  std::vector<opt::YdsJob> pooled;
  std::vector<opt::YdsJob> instance;
  for (const auto& [key, jobs_on_core] : core_jobs) {
    const auto [server, core] = key;
    const power::PowerModel& pm = model_of(server, core);
    const LadderEnvelope envelope(input.info.ladder_units, pm);

    instance.clear();
    for (const auto& [job_id, agg] : jobs_on_core) {
      const JobSpan* span = span_of.at(job_id);
      opt::YdsJob j;
      // The realised slices must lie inside the window, so the instance is
      // feasible by construction (the run itself is a witness schedule).
      j.release = (span->arrival >= 0.0 && span->arrival <= agg.first_start)
                      ? span->arrival
                      : agg.first_start;
      j.deadline = std::max(span->deadline, agg.last_end);
      j.work = agg.work;
      instance.push_back(j);
      pooled.push_back(j);
    }

    ServerReclaim& sr = out.servers[server];
    auto price = [&](double t0, double t1, double speed) {
      const double cont_w = pm.power(speed);
      const double disc_w = envelope.discrete() ? envelope.power(speed) : cont_w;
      sr.cont_j += cont_w * (t1 - t0);
      sr.disc_j += disc_w * (t1 - t0);
      spread(sr.cont_bin_j, t0, t1, cont_w);
      spread(sr.disc_bin_j, t0, t1, disc_w);
    };
    if (agreeable(instance)) {
      for (const opt::SpeedSegment& seg : profile.profile) {
        price(seg.t0, seg.t1, seg.speed);
      }
      continue;
    }
    for (const opt::YdsSlice& slice : opt::yds_place(instance).slices) {
      price(slice.t0, slice.t1, slice.speed);
    }
  }
  for (const ServerReclaim& sr : out.servers) {
    out.cont_j += sr.cont_j;
    out.disc_j += sr.disc_j;
  }

  // --- pooled fluid fleet-wide lower bound -----------------------------------
  std::size_t total_cores = 0;
  double a_min = kInf;
  double beta = input.fallback_model.beta();
  double upg = input.fallback_model.units_per_ghz();
  if (exact_models) {
    for (const auto& server_models : input.models) {
      total_cores += server_models.size();
      for (const power::PowerModel& pm : server_models) {
        a_min = std::min(a_min, pm.a());
        beta = pm.beta();
        upg = pm.units_per_ghz();
      }
    }
  } else {
    // info.cores is per server; the pooled curve spans the whole fleet.
    total_cores = input.info.cores * num_servers;
    a_min = input.fallback_model.a();
  }
  total_cores = std::max<std::size_t>(total_cores, 1);
  if (!pooled.empty()) {
    const power::PowerModel fluid(
        a_min * std::pow(static_cast<double>(total_cores), 1.0 - beta), beta,
        upg);
    if (agreeable(pooled)) {
      for (const opt::SpeedSegment& seg : profile.profile) {
        out.offline_j += fluid.power(seg.speed) * (seg.t1 - seg.t0);
      }
    } else {
      out.offline_j = opt::yds_min_energy(pooled, fluid);
    }
  }

  out.avoidable_frac =
      out.realized_j > 0.0 ? (out.realized_j - out.cont_j) / out.realized_j
                           : 0.0;
  return out;
}

bool takes_linear_path(const TaskInput& input, const TaskAnalysis& analysis) {
  ReclaimPaths paths;
  (void)analyze_reclaim(input, analysis, /*yds_only=*/false, &paths);
  return paths.linear == paths.instances;
}

}  // namespace detail

ReclaimAnalysis analyze_reclaim(const TaskInput& input,
                                const TaskAnalysis& analysis) {
  return detail::analyze_reclaim(input, analysis, /*yds_only=*/false, nullptr);
}

}  // namespace ge::obs::analysis
