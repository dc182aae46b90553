#include "exp/report.h"

#include <charconv>
#include <cstdio>
#include <sstream>
#include <string_view>

namespace ge::exp {
namespace {

// Every member after a record's first: ", "key": value".
void json_field(std::ostringstream& os, const char* key, double value) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  os << ", \"" << key << "\": " << std::string_view(buf, res.ptr);
}

void json_field(std::ostringstream& os, const char* key, std::uint64_t value) {
  os << ", \"" << key << "\": " << value;
}

}  // namespace

std::string summarize(const RunResult& r, const ExperimentConfig& cfg) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "scheduler      : %s\n"
      "workload       : %.0f req/s for %.0f s (%llu requests)\n"
      "quality        : %.4f (target Q_GE = %.2f)\n"
      "energy         : %.1f J dynamic (%.1f W avg, budget %.0f W)\n"
      "outcomes       : %llu completed, %llu partial, %llu dropped\n"
      "AES-mode share : %.1f%%\n"
      "response (ms)  : mean %.1f, p50 %.1f, p95 %.1f, p99 %.1f\n"
      "busy speed     : %.2f GHz mean, %.4f GHz^2 variance\n",
      r.scheduler.c_str(), r.arrival_rate, r.duration,
      static_cast<unsigned long long>(r.released), r.quality, cfg.q_ge, r.energy,
      r.avg_power, cfg.power_budget, static_cast<unsigned long long>(r.completed),
      static_cast<unsigned long long>(r.partial),
      static_cast<unsigned long long>(r.dropped), r.aes_fraction * 100.0,
      r.mean_response_ms, r.p50_response_ms, r.p95_response_ms, r.p99_response_ms,
      r.avg_speed_ghz, r.speed_variance);
  std::string out = buf;
  if (r.num_servers > 1) {
    std::snprintf(buf, sizeof(buf),
                  "cluster        : %llu servers, %s dispatch "
                  "(energy CoV %.3f, load CoV %.3f)\n",
                  static_cast<unsigned long long>(r.num_servers),
                  r.dispatch.c_str(), r.server_energy_cov, r.server_load_cov);
    out += buf;
  }
  if (r.wakes > 0 || r.setup_energy_j > 0.0 || r.rejected > 0 ||
      r.expired_in_queue > 0) {
    std::snprintf(buf, sizeof(buf),
                  "lifecycle      : %llu wakes, %.1f J setup energy, "
                  "%llu rejected, %llu expired in queue\n",
                  static_cast<unsigned long long>(r.wakes), r.setup_energy_j,
                  static_cast<unsigned long long>(r.rejected),
                  static_cast<unsigned long long>(r.expired_in_queue));
    out += buf;
  }
  if (r.offline_energy_j >= 0.0) {
    std::snprintf(buf, sizeof(buf),
                  "offline bound  : %.1f J (clairvoyant YDS lower bound)\n",
                  r.offline_energy_j);
    out += buf;
  }
  if (r.reclaim_energy_j >= 0.0) {
    std::snprintf(buf, sizeof(buf),
                  "reclaim advisor: %.1f J continuous re-speed "
                  "(%.1f J on the ladder, fluid floor %.1f J)\n",
                  r.reclaim_energy_j, r.reclaim_disc_j, r.reclaim_offline_j);
    out += buf;
  }
  for (std::size_t t = 0; t < r.tenants.size(); ++t) {
    const TenantRunResult& tr = r.tenants[t];
    std::snprintf(buf, sizeof(buf),
                  "tenant %-8zu: quality %.4f (target %.2f, SLO burn %.2f), "
                  "%.1f J, %llu released (%llu/%llu/%llu c/p/d)\n",
                  t, tr.quality, tr.q_target, tr.slo_burn, tr.energy_j,
                  static_cast<unsigned long long>(tr.released),
                  static_cast<unsigned long long>(tr.completed),
                  static_cast<unsigned long long>(tr.partial),
                  static_cast<unsigned long long>(tr.dropped));
    out += buf;
  }
  return out;
}

std::string to_json(const RunResult& r) {
  std::ostringstream os;
  os << "{\"scheduler\": \"" << r.scheduler << '"';
  json_field(os, "arrival_rate", r.arrival_rate);
  json_field(os, "duration_s", r.duration);
  json_field(os, "quality", r.quality);
  json_field(os, "energy_j", r.energy);
  json_field(os, "static_energy_j", r.static_energy);
  json_field(os, "avg_power_w", r.avg_power);
  json_field(os, "mean_response_ms", r.mean_response_ms);
  json_field(os, "p50_response_ms", r.p50_response_ms);
  json_field(os, "p95_response_ms", r.p95_response_ms);
  json_field(os, "p99_response_ms", r.p99_response_ms);
  json_field(os, "aes_fraction", r.aes_fraction);
  json_field(os, "avg_speed_ghz", r.avg_speed_ghz);
  json_field(os, "speed_variance", r.speed_variance);
  json_field(os, "busy_fraction", r.busy_fraction);
  json_field(os, "energy_cov", r.energy_cov);
  json_field(os, "released", r.released);
  json_field(os, "completed", r.completed);
  json_field(os, "partial", r.partial);
  json_field(os, "dropped", r.dropped);
  json_field(os, "rounds", r.rounds);
  json_field(os, "wf_rounds", r.wf_rounds);
  json_field(os, "es_rounds", r.es_rounds);
  json_field(os, "num_servers", r.num_servers);
  os << ", \"dispatch\": \"" << r.dispatch << '"';
  json_field(os, "server_energy_cov", r.server_energy_cov);
  json_field(os, "server_load_cov", r.server_load_cov);
  json_field(os, "setup_energy_j", r.setup_energy_j);
  json_field(os, "wakes", r.wakes);
  json_field(os, "rejected", r.rejected);
  json_field(os, "expired_in_queue", r.expired_in_queue);
  // Sentinel -1 means "no offline reference ran"; only emit real bounds.
  if (r.offline_energy_j >= 0.0) {
    json_field(os, "offline_energy_j", r.offline_energy_j);
  }
  // Sentinel -1 means "no --report pass ran the reclaim advisor".
  if (r.reclaim_energy_j >= 0.0) {
    json_field(os, "reclaim_energy_j", r.reclaim_energy_j);
    json_field(os, "reclaim_disc_j", r.reclaim_disc_j);
    json_field(os, "reclaim_offline_j", r.reclaim_offline_j);
  }
  if (!r.tenants.empty()) {
    os << ", \"tenants\": [";
    for (std::size_t t = 0; t < r.tenants.size(); ++t) {
      const TenantRunResult& tr = r.tenants[t];
      os << (t == 0 ? "" : ", ") << "{\"tenant\": " << t;
      json_field(os, "q_target", tr.q_target);
      json_field(os, "quality", tr.quality);
      json_field(os, "slo_burn", tr.slo_burn);
      json_field(os, "energy_j", tr.energy_j);
      json_field(os, "released", tr.released);
      json_field(os, "completed", tr.completed);
      json_field(os, "partial", tr.partial);
      json_field(os, "dropped", tr.dropped);
      os << '}';
    }
    os << ']';
  }
  os << '}';
  return os.str();
}

}  // namespace ge::exp
