#include "obs/analysis/reclaim.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>

#include "opt/yds.h"
#include "util/check.h"

namespace ge::obs::analysis {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using detail::RJob;
using detail::RSlice;

// Disjoint sorted intervals with measure queries.  The cumulative measure
// M(t) (total availability at or before t) makes measure(avail cap [t1,t2])
// = M(t2) - M(t1), each an O(log n) lookup.
class Availability {
 public:
  Availability(double lo, double hi) {
    if (hi > lo) {
      ivs_.emplace_back(lo, hi);
    }
    rebuild();
  }

  bool empty() const { return ivs_.empty(); }

  // Total availability measure in (-inf, t].
  double cum_at(double t) const {
    const auto it = std::partition_point(
        ivs_.begin(), ivs_.end(), [t](const auto& iv) { return iv.second <= t; });
    const auto i = static_cast<std::size_t>(it - ivs_.begin());
    const double extra =
        i < ivs_.size() && ivs_[i].first < t ? t - ivs_[i].first : 0.0;
    return cum_[i] + extra;
  }

  // avail cap [t1, t2], as intervals.
  std::vector<std::pair<double, double>> intersect(double t1, double t2) const {
    std::vector<std::pair<double, double>> out;
    for (const auto& [a, b] : ivs_) {
      const double lo = std::max(a, t1);
      const double hi = std::min(b, t2);
      if (hi > lo) {
        out.emplace_back(lo, hi);
      }
    }
    return out;
  }

  void excise(double t1, double t2) {
    std::vector<std::pair<double, double>> next;
    for (const auto& [a, b] : ivs_) {
      if (b <= t1 || a >= t2) {
        next.emplace_back(a, b);
        continue;
      }
      if (a < t1) {
        next.emplace_back(a, t1);
      }
      if (b > t2) {
        next.emplace_back(t2, b);
      }
    }
    ivs_ = std::move(next);
    rebuild();
  }

 private:
  void rebuild() {
    cum_.assign(ivs_.size() + 1, 0.0);
    for (std::size_t i = 0; i < ivs_.size(); ++i) {
      cum_[i + 1] = cum_[i] + (ivs_[i].second - ivs_[i].first);
    }
  }

  std::vector<std::pair<double, double>> ivs_;
  std::vector<double> cum_;
};

// Preemptive EDF of `crit` (window subseteq [t1,t2], sorted by (deadline,
// idx)) at constant speed over the availability segments; appends the
// produced slices.  YDS guarantees the critical work exactly fills the
// segments, so any floating-point residue below `work_eps` is dropped.
void edf_place(const std::vector<RJob>& crit, double speed,
               const std::vector<std::pair<double, double>>& segments,
               double work_eps, std::vector<RSlice>* slices) {
  // Injection order by release; run order by (deadline, idx).
  std::vector<std::size_t> by_release(crit.size());
  for (std::size_t i = 0; i < crit.size(); ++i) {
    by_release[i] = i;
  }
  std::sort(by_release.begin(), by_release.end(),
            [&](std::size_t a, std::size_t b) {
              if (crit[a].release != crit[b].release) {
                return crit[a].release < crit[b].release;
              }
              return crit[a].idx < crit[b].idx;
            });
  std::vector<double> rem(crit.size());
  for (std::size_t i = 0; i < crit.size(); ++i) {
    rem[i] = crit[i].work;
  }
  // `ready` kept sorted by (deadline, idx): crit is already in that order,
  // so a sorted-insert of positions keeps ties deterministic.
  std::vector<std::size_t> ready;
  std::size_t next_rel = 0;
  for (std::size_t si = 0; si < segments.size(); ++si) {
    double t = segments[si].first;
    while (t < segments[si].second) {
      while (next_rel < by_release.size() &&
             crit[by_release[next_rel]].release <= t) {
        const std::size_t j = by_release[next_rel++];
        ready.insert(std::lower_bound(ready.begin(), ready.end(), j), j);
      }
      if (ready.empty()) {
        if (next_rel >= by_release.size()) {
          return;  // everything placed; trailing segment time unused (FP)
        }
        // Idle until the next release (it lands in this segment or later).
        t = std::max(t, crit[by_release[next_rel]].release);
        continue;
      }
      const std::size_t j = ready.front();
      double run_until = std::min(segments[si].second, t + rem[j] / speed);
      if (next_rel < by_release.size()) {
        run_until = std::min(run_until, crit[by_release[next_rel]].release);
      }
      if (run_until <= t) {
        // No representable progress: the residue is below FP resolution.
        rem[j] = 0.0;
        ready.erase(ready.begin());
        continue;
      }
      slices->push_back({t, run_until, speed, crit[j].idx});
      rem[j] -= speed * (run_until - t);
      t = run_until;
      if (rem[j] <= work_eps) {
        rem[j] = 0.0;
        ready.erase(ready.begin());
      }
    }
  }
}

}  // namespace

namespace detail {

Placement yds_place(std::vector<RJob> jobs) {
  Placement out;
  out.speed.assign(jobs.size(), 0.0);
  std::vector<RJob> active;
  double lo = kInf;
  double hi = -kInf;
  double total_work = 0.0;
  for (const RJob& j : jobs) {
    if (j.work <= 0.0) {
      continue;
    }
    GE_CHECK(j.deadline > j.release, "reclaim: job window must be non-empty");
    active.push_back(j);
    lo = std::min(lo, j.release);
    hi = std::max(hi, j.deadline);
    total_work += j.work;
  }
  if (active.empty()) {
    return out;
  }
  const double work_eps = 1e-9 * std::max(1.0, total_work);
  Availability avail(lo, hi);
  // Per-round scan arrays, reused across rounds.
  std::vector<double> releases;
  std::vector<std::size_t> by_deadline;
  std::vector<double> dl, rl, wk, cd;
  std::vector<char> closes;

  while (!active.empty()) {
    GE_CHECK(!avail.empty(), "reclaim: ran out of availability");
    // Candidate intervals: [release, deadline] pairs.  The scan reads the
    // round's jobs as arrays in deadline order, with the availability
    // measure up to each deadline precomputed.  For a fixed t1 the contained
    // work is accumulated over deadlines in ascending order, starting at the
    // first deadline past t1: earlier jobs have release < deadline <= t1, so
    // they add no work and close no candidate.
    const std::size_t n = active.size();
    releases.clear();
    by_deadline.clear();
    for (std::size_t i = 0; i < n; ++i) {
      releases.push_back(active[i].release);
      by_deadline.push_back(i);
    }
    std::sort(releases.begin(), releases.end());
    releases.erase(std::unique(releases.begin(), releases.end()),
                   releases.end());
    std::sort(by_deadline.begin(), by_deadline.end(),
              [&](std::size_t a, std::size_t b) {
                return active[a].deadline < active[b].deadline;
              });
    // closes[p]: no later job shares this deadline, so the candidate is
    // evaluated only once all of them are folded in.
    dl.resize(n);
    rl.resize(n);
    wk.resize(n);
    cd.resize(n);
    closes.resize(n);
    for (std::size_t p = 0; p < n; ++p) {
      const RJob& j = active[by_deadline[p]];
      dl[p] = j.deadline;
      rl[p] = j.release;
      wk[p] = j.work;
      cd[p] = avail.cum_at(j.deadline);
      closes[p] = p + 1 == n || active[by_deadline[p + 1]].deadline > j.deadline;
    }

    double best_g = -1.0;
    double best_t1 = 0.0;
    double best_t2 = 0.0;
    std::size_t first = 0;  // first deadline past t1; t1 only grows
    for (const double t1 : releases) {
      const double c1 = avail.cum_at(t1);
      while (first < n && dl[first] <= t1) {
        ++first;
      }
      double work = 0.0;
      for (std::size_t p = first; p < n; ++p) {
        if (rl[p] >= t1) {
          work += wk[p];
        }
        const double span = cd[p] - c1;
        if (!closes[p] || work <= 0.0 || span <= 0.0) {
          continue;
        }
        const double g = work / span;
        if (g > best_g) {
          best_g = g;
          best_t1 = t1;
          best_t2 = dl[p];
        }
      }
    }
    GE_CHECK(best_g > 0.0, "reclaim: no feasible critical interval");

    // Critical set: active jobs with window inside [t1, t2], EDF order.
    std::vector<RJob> crit;
    std::vector<RJob> rest;
    for (const RJob& j : active) {
      if (j.release >= best_t1 && j.deadline <= best_t2) {
        crit.push_back(j);
      } else {
        rest.push_back(j);
      }
    }
    std::sort(crit.begin(), crit.end(), [](const RJob& a, const RJob& b) {
      if (a.deadline != b.deadline) {
        return a.deadline < b.deadline;
      }
      return a.idx < b.idx;
    });
    for (const RJob& j : crit) {
      out.speed[j.idx] = best_g;
    }
    edf_place(crit, best_g, avail.intersect(best_t1, best_t2), work_eps,
              &out.slices);
    avail.excise(best_t1, best_t2);
    active = std::move(rest);
  }
  return out;
}

}  // namespace detail

namespace {

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

  // Each instance takes the taut-string profile when it is agreeable, and
  // critical-interval YDS otherwise (or always, under `yds_only`).
  auto agreeable = [&](const std::vector<opt::YdsJob>& jobs)
      -> std::optional<std::vector<opt::SpeedSegment>> {
    if (paths != nullptr) {
      ++paths->instances;
    }
    if (yds_only) {
      return std::nullopt;
    }
    std::optional<std::vector<opt::SpeedSegment>> profile =
        opt::agreeable_profile(jobs);
    if (profile && paths != nullptr) {
      ++paths->linear;
    }
    return profile;
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
    if (const auto profile = agreeable(instance)) {
      for (const opt::SpeedSegment& seg : *profile) {
        price(seg.t0, seg.t1, seg.speed);
      }
      continue;
    }
    std::vector<RJob> jobs(instance.size());
    for (std::size_t i = 0; i < instance.size(); ++i) {
      jobs[i] = {instance[i].release, instance[i].deadline, instance[i].work, i};
    }
    for (const RSlice& slice : yds_place(std::move(jobs)).slices) {
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
    if (const auto profile = agreeable(pooled)) {
      for (const opt::SpeedSegment& seg : *profile) {
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
