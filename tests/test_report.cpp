// Tests for config validation and the report helpers.
#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "exp/config.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"

namespace ge::exp {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  cfg.arrival_rate = 130.0;
  cfg.duration = 3.0;
  cfg.seed = 3;
  return cfg;
}

TEST(ConfigValidate, PaperDefaultsAreValid) {
  ExperimentConfig::paper_defaults().validate();  // must not abort
}

TEST(ConfigValidate, RejectsZeroCores) {
  ExperimentConfig cfg = small_config();
  cfg.cores = 0;
  EXPECT_DEATH(cfg.validate(), "core");
}

TEST(ConfigValidate, RejectsNegativeBudget) {
  ExperimentConfig cfg = small_config();
  cfg.power_budget = -5.0;
  EXPECT_DEATH(cfg.validate(), "budget");
}

TEST(ConfigValidate, RejectsQgeOutOfRange) {
  ExperimentConfig cfg = small_config();
  cfg.q_ge = 1.5;
  EXPECT_DEATH(cfg.validate(), "Q_GE");
}

TEST(ConfigValidate, RejectsInvertedDeadlineWindow) {
  ExperimentConfig cfg = small_config();
  cfg.deadline_interval_max = cfg.deadline_interval / 2.0;
  EXPECT_DEATH(cfg.validate(), "deadline");
}

TEST(ConfigValidate, RejectsBadPowerLawExponent) {
  ExperimentConfig cfg = small_config();
  cfg.quality_family = QualityFamily::kPowerLaw;
  cfg.quality_c = 1.5;
  EXPECT_DEATH(cfg.validate(), "power-law");
}

TEST(ConfigValidate, RejectsTooManyFailedCores) {
  ExperimentConfig cfg = small_config();
  cfg.failure_cores = cfg.cores + 1;
  EXPECT_DEATH(cfg.validate(), "fail");
}

TEST(ConfigValidate, RunnerValidatesImplicitly) {
  ExperimentConfig cfg = small_config();
  cfg.arrival_rate = -1.0;
  EXPECT_DEATH((void)run_simulation(cfg, SchedulerSpec{}), "arrival rate");
}

TEST(Report, SummaryContainsHeadlineNumbers) {
  const ExperimentConfig cfg = small_config();
  const RunResult r = run_simulation(cfg, SchedulerSpec{});
  const std::string text = summarize(r, cfg);
  EXPECT_NE(text.find("GE"), std::string::npos);
  EXPECT_NE(text.find("quality"), std::string::npos);
  EXPECT_NE(text.find("energy"), std::string::npos);
  EXPECT_NE(text.find("p99"), std::string::npos);
}

TEST(Report, JsonIsWellFormedAndComplete) {
  const ExperimentConfig cfg = small_config();
  const RunResult r = run_simulation(cfg, SchedulerSpec{});
  const std::string json = to_json(r);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* key :
       {"scheduler", "arrival_rate", "quality", "energy_j", "aes_fraction",
        "p99_response_ms", "released", "completed", "dropped", "rounds"}) {
    EXPECT_NE(json.find(std::string("\"") + key + "\""), std::string::npos) << key;
  }
  // Balanced quotes: an even count.
  EXPECT_EQ(std::count(json.begin(), json.end(), '"') % 2, 0);
}

TEST(Report, JsonValuesMatchResult) {
  const ExperimentConfig cfg = small_config();
  const RunResult r = run_simulation(cfg, SchedulerSpec{});
  const std::string json = to_json(r);
  EXPECT_NE(json.find("\"released\": " + std::to_string(r.released)),
            std::string::npos);
  EXPECT_NE(json.find("\"scheduler\": \"GE\""), std::string::npos);
}

// The numeric members of each JSON object in `json`, by key: the record
// itself first, then one map per tenant slice.
std::vector<std::map<std::string, std::string>> json_numbers(const std::string& json) {
  std::vector<std::map<std::string, std::string>> objects;
  const auto add = [&objects](const std::string& object) {
    objects.emplace_back();
    for (std::size_t at = object.find("\": "); at != std::string::npos;
         at = object.find("\": ", at + 3)) {
      const std::size_t key = object.rfind('"', at - 1) + 1;
      const std::string value =
          object.substr(at + 3, object.find_first_of(",}", at) - (at + 3));
      if (value.front() != '"') {
        objects.back()[object.substr(key, at - key)] = value;
      }
    }
  };
  add(json.substr(0, json.find("\"tenants\"")));
  for (std::size_t open = json.find('{', 1); open != std::string::npos;
       open = json.find('{', open + 1)) {
    add(json.substr(open, json.find('}', open) - open));
  }
  return objects;
}

// Each printed number parses back to exactly its field (counts are small
// enough to be exact as doubles), and nothing else was printed.
void expect_round_trips(const std::map<std::string, std::string>& printed,
                        const std::map<std::string, double>& fields) {
  EXPECT_EQ(printed.size(), fields.size());
  for (const auto& [key, value] : fields) {
    const auto it = printed.find(key);
    ASSERT_NE(it, printed.end()) << key;
    double parsed = 0.0;
    const char* end = it->second.data() + it->second.size();
    const auto [ptr, ec] = std::from_chars(it->second.data(), end, parsed);
    EXPECT_TRUE(ec == std::errc() && ptr == end) << key << ": " << it->second;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed), std::bit_cast<std::uint64_t>(value))
        << key << ": " << it->second;
  }
}

// Every number to_json prints parses back to its field bit for bit, so
// equal records mean bitwise-equal results (the golden store relies on it).
TEST(Report, JsonNumbersRoundTripBitExactly) {
  ExperimentConfig cfg = small_config();
  cfg.num_servers = 2;
  cfg.churn = 0.3;
  cfg.churn_dwell = 0.4;
  cfg.wake_latency = 0.05;
  cfg.setup_energy = 20.0;
  cfg.num_tenants = 2;
  cfg.admission = 1.5;
  RunResult r = run_simulation(cfg, SchedulerSpec{});
  ASSERT_EQ(r.tenants.size(), 2u);
  ASSERT_GT(r.wakes, 0u);
  // Values %.10g would round, at both ends of the range.
  r.offline_energy_j = 0.1 + 0.2;
  r.reclaim_energy_j = 1.0 / 3.0;
  r.reclaim_disc_j = std::numeric_limits<double>::denorm_min();
  r.reclaim_offline_j = std::numeric_limits<double>::max();

  const std::vector<std::map<std::string, std::string>> printed =
      json_numbers(to_json(r));
  ASSERT_EQ(printed.size(), 1 + r.tenants.size());
  const auto n = [](std::uint64_t count) { return static_cast<double>(count); };
  expect_round_trips(
      printed[0],
      {{"arrival_rate", r.arrival_rate}, {"duration_s", r.duration},
       {"quality", r.quality}, {"energy_j", r.energy},
       {"static_energy_j", r.static_energy}, {"avg_power_w", r.avg_power},
       {"mean_response_ms", r.mean_response_ms}, {"p50_response_ms", r.p50_response_ms},
       {"p95_response_ms", r.p95_response_ms}, {"p99_response_ms", r.p99_response_ms},
       {"aes_fraction", r.aes_fraction}, {"avg_speed_ghz", r.avg_speed_ghz},
       {"speed_variance", r.speed_variance}, {"busy_fraction", r.busy_fraction},
       {"energy_cov", r.energy_cov}, {"released", n(r.released)},
       {"completed", n(r.completed)}, {"partial", n(r.partial)},
       {"dropped", n(r.dropped)}, {"rounds", n(r.rounds)},
       {"wf_rounds", n(r.wf_rounds)}, {"es_rounds", n(r.es_rounds)},
       {"num_servers", n(r.num_servers)}, {"server_energy_cov", r.server_energy_cov},
       {"server_load_cov", r.server_load_cov}, {"setup_energy_j", r.setup_energy_j},
       {"wakes", n(r.wakes)}, {"rejected", n(r.rejected)},
       {"expired_in_queue", n(r.expired_in_queue)},
       {"offline_energy_j", r.offline_energy_j}, {"reclaim_energy_j", r.reclaim_energy_j},
       {"reclaim_disc_j", r.reclaim_disc_j}, {"reclaim_offline_j", r.reclaim_offline_j}});
  for (std::size_t t = 0; t < r.tenants.size(); ++t) {
    SCOPED_TRACE("tenant " + std::to_string(t));
    const TenantRunResult& tr = r.tenants[t];
    expect_round_trips(printed[1 + t],
                       {{"tenant", n(t)}, {"q_target", tr.q_target},
                        {"quality", tr.quality}, {"slo_burn", tr.slo_burn},
                        {"energy_j", tr.energy_j}, {"released", n(tr.released)},
                        {"completed", n(tr.completed)}, {"partial", n(tr.partial)},
                        {"dropped", n(tr.dropped)}});
  }
}

}  // namespace
}  // namespace ge::exp

// -- command-line -> config binding ------------------------------------------

#include "exp/flags_config.h"

namespace ge::exp {
namespace {

TEST(FlagsConfig, OverridesCoreFields) {
  const char* argv[] = {"prog",          "--rate",    "180", "--cores", "8",
                        "--budget",      "160",       "--qge", "0.8",
                        "--seconds",     "12",        "--seed", "9"};
  const util::Flags flags(static_cast<int>(std::size(argv)), argv);
  const ExperimentConfig cfg =
      apply_flags(ExperimentConfig::paper_defaults(), flags);
  EXPECT_DOUBLE_EQ(cfg.arrival_rate, 180.0);
  EXPECT_EQ(cfg.cores, 8u);
  EXPECT_DOUBLE_EQ(cfg.power_budget, 160.0);
  EXPECT_DOUBLE_EQ(cfg.q_ge, 0.8);
  EXPECT_DOUBLE_EQ(cfg.duration, 12.0);
  EXPECT_EQ(cfg.seed, 9u);
}

TEST(FlagsConfig, DefaultsUntouchedWithoutFlags) {
  const char* argv[] = {"prog"};
  const util::Flags flags(1, argv);
  const ExperimentConfig cfg =
      apply_flags(ExperimentConfig::paper_defaults(), flags);
  EXPECT_DOUBLE_EQ(cfg.arrival_rate, 150.0);
  EXPECT_EQ(cfg.cores, 16u);
  EXPECT_FALSE(cfg.discrete_speeds);
}

TEST(FlagsConfig, DeadlinesGivenInMilliseconds) {
  const char* argv[] = {"prog", "--deadline", "200", "--deadline-max", "600"};
  const util::Flags flags(5, argv);
  const ExperimentConfig cfg =
      apply_flags(ExperimentConfig::paper_defaults(), flags);
  EXPECT_DOUBLE_EQ(cfg.deadline_interval, 0.2);
  EXPECT_DOUBLE_EQ(cfg.deadline_interval_max, 0.6);
}

TEST(FlagsConfig, QualityFamilySelection) {
  const char* argv[] = {"prog", "--quality-family", "powerlaw", "--quality-c",
                        "0.5"};
  const util::Flags flags(5, argv);
  const ExperimentConfig cfg =
      apply_flags(ExperimentConfig::paper_defaults(), flags);
  EXPECT_EQ(cfg.quality_family, QualityFamily::kPowerLaw);
  EXPECT_DOUBLE_EQ(cfg.quality_c, 0.5);
}

// An unknown family is a usage error (exit 2 naming the flag), not an abort.
TEST(FlagsConfig, UnknownFamilyDies) {
  const char* argv[] = {"prog", "--quality-family", "cubic"};
  const util::Flags flags(3, argv);
  EXPECT_EXIT((void)apply_flags(ExperimentConfig::paper_defaults(), flags),
              ::testing::ExitedWithCode(2),
              "--quality-family must be one of exponential, linear, powerlaw");
}

TEST(FlagsConfig, FailureAndDiscreteFlags) {
  const char* argv[] = {"prog", "--discrete", "--failure-time", "5",
                        "--failure-cores", "4"};
  const util::Flags flags(6, argv);
  const ExperimentConfig cfg =
      apply_flags(ExperimentConfig::paper_defaults(), flags);
  EXPECT_TRUE(cfg.discrete_speeds);
  EXPECT_DOUBLE_EQ(cfg.failure_time, 5.0);
  EXPECT_EQ(cfg.failure_cores, 4u);
}

}  // namespace
}  // namespace ge::exp
