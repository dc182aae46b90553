// Unit and property tests for the power model, the discrete speed table,
// and the ES / WF power-distribution policies.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "power/discrete_speed.h"
#include "power/distribution.h"
#include "power/power_model.h"
#include "util/rng.h"

namespace ge::power {
namespace {

TEST(PowerModel, PaperAnchor) {
  // Sec. IV-B: a=5, beta=2; 20 W per core sustains 2 GHz (2000 units/s).
  PowerModel pm(5.0, 2.0, 1000.0);
  EXPECT_NEAR(pm.power(2000.0), 20.0, 1e-9);
  EXPECT_NEAR(pm.speed_for_power(20.0), 2000.0, 1e-9);
}

TEST(PowerModel, ZeroSpeedZeroPower) {
  PowerModel pm;
  EXPECT_DOUBLE_EQ(pm.power(0.0), 0.0);
  EXPECT_DOUBLE_EQ(pm.speed_for_power(0.0), 0.0);
}

TEST(PowerModel, RoundTrip) {
  PowerModel pm(5.0, 2.0, 1000.0);
  for (double s : {100.0, 500.0, 1500.0, 3000.0}) {
    EXPECT_NEAR(pm.speed_for_power(pm.power(s)), s, 1e-6);
  }
}

TEST(PowerModel, ConvexityInSpeed) {
  // P(s) convex: average of powers exceeds power of the average speed.
  // This is the physical root of "core speed thrashing" (Sec. III-D).
  PowerModel pm(5.0, 2.0, 1000.0);
  const double lo = 1000.0;
  const double hi = 3000.0;
  EXPECT_GT(0.5 * (pm.power(lo) + pm.power(hi)), pm.power(0.5 * (lo + hi)));
}

TEST(PowerModel, EnergyIsPowerTimesTime) {
  PowerModel pm(5.0, 2.0, 1000.0);
  EXPECT_NEAR(pm.energy(2000.0, 3.0), 60.0, 1e-9);
}

TEST(PowerModel, GhzConversions) {
  PowerModel pm(5.0, 2.0, 1000.0);
  EXPECT_DOUBLE_EQ(pm.ghz(2500.0), 2.5);
  EXPECT_DOUBLE_EQ(pm.speed_units(1.2), 1200.0);
}

class PowerModelBetaSweep : public ::testing::TestWithParam<double> {};

TEST_P(PowerModelBetaSweep, RoundTripForVariousExponents) {
  PowerModel pm(3.0, GetParam(), 1000.0);
  for (double w : {1.0, 10.0, 100.0}) {
    EXPECT_NEAR(pm.power(pm.speed_for_power(w)), w, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Betas, PowerModelBetaSweep,
                         ::testing::Values(1.5, 2.0, 2.5, 3.0));

TEST(DiscreteSpeedTable, UniformLadder) {
  const auto table = DiscreteSpeedTable::uniform_ghz(0.2, 3.2);
  EXPECT_EQ(table.levels().size(), 16u);
  EXPECT_DOUBLE_EQ(table.levels().front(), 200.0);
  EXPECT_DOUBLE_EQ(table.levels().back(), 3200.0);
}

TEST(DiscreteSpeedTable, CeilBehaviour) {
  const auto table = DiscreteSpeedTable::uniform_ghz(0.2, 3.2);
  EXPECT_DOUBLE_EQ(table.ceil(1300.0), 1400.0);
  EXPECT_DOUBLE_EQ(table.ceil(1400.0), 1400.0);  // exact level stays
  EXPECT_DOUBLE_EQ(table.ceil(50.0), 200.0);
  EXPECT_DOUBLE_EQ(table.ceil(9999.0), 3200.0);  // clamped at the top
}

TEST(DiscreteSpeedTable, FloorBehaviour) {
  const auto table = DiscreteSpeedTable::uniform_ghz(0.2, 3.2);
  EXPECT_DOUBLE_EQ(table.floor(1300.0), 1200.0);
  EXPECT_DOUBLE_EQ(table.floor(1400.0), 1400.0);
  EXPECT_DOUBLE_EQ(table.floor(50.0), 0.0);  // below the ladder: idle
  EXPECT_DOUBLE_EQ(table.floor(9999.0), 3200.0);
}

TEST(DiscreteSpeedTable, IsLevel) {
  const auto table = DiscreteSpeedTable::uniform_ghz(0.2, 3.2);
  EXPECT_TRUE(table.is_level(1400.0));
  EXPECT_FALSE(table.is_level(1300.0));
}

TEST(DiscreteSpeedTable, DeduplicatesAndSorts) {
  DiscreteSpeedTable table({300.0, 100.0, 300.0, 200.0});
  ASSERT_EQ(table.levels().size(), 3u);
  EXPECT_DOUBLE_EQ(table.levels()[0], 100.0);
  EXPECT_DOUBLE_EQ(table.levels()[2], 300.0);
}

// A one-level ladder is the degenerate-but-legal DVFS configuration (a core
// that can only be on at one speed): ceil, floor and is_level must all
// collapse onto that single operating point.
TEST(DiscreteSpeedTable, SingleLevelLadder) {
  const DiscreteSpeedTable table({1500.0});
  EXPECT_EQ(table.levels().size(), 1u);
  EXPECT_DOUBLE_EQ(table.levels().front(), 1500.0);
  EXPECT_DOUBLE_EQ(table.levels().back(), 1500.0);
  // ceil: everything at or below the level snaps up to it; above it the
  // ladder tops out at the level.
  EXPECT_DOUBLE_EQ(table.ceil(0.0), 1500.0);
  EXPECT_DOUBLE_EQ(table.ceil(900.0), 1500.0);
  EXPECT_DOUBLE_EQ(table.ceil(1500.0), 1500.0);
  EXPECT_DOUBLE_EQ(table.ceil(9999.0), 1500.0);
  // floor: at or above the level returns it; below has nothing to run at.
  EXPECT_DOUBLE_EQ(table.floor(1500.0), 1500.0);
  EXPECT_DOUBLE_EQ(table.floor(2000.0), 1500.0);
  EXPECT_LE(table.floor(900.0), 0.0);
  EXPECT_TRUE(table.is_level(1500.0));
  EXPECT_FALSE(table.is_level(1400.0));
}

TEST(DiscreteSpeedTable, EmptyLadderRefused) {
  EXPECT_DEATH(DiscreteSpeedTable({}), "level");
}

TEST(WaterFilling, AllDemandsMetWhenBudgetSuffices) {
  const std::vector<double> demands{5.0, 10.0, 15.0};
  const auto caps = water_filling(100.0, demands);
  for (std::size_t i = 0; i < demands.size(); ++i) {
    EXPECT_DOUBLE_EQ(caps[i], demands[i]);
  }
}

TEST(WaterFilling, LevelCapsHighDemands) {
  // Budget 30 over demands {5, 20, 20}: level L solves 5 + 2L = 30 -> 12.5.
  const std::vector<double> demands{5.0, 20.0, 20.0};
  const auto caps = water_filling(30.0, demands);
  EXPECT_DOUBLE_EQ(caps[0], 5.0);
  EXPECT_NEAR(caps[1], 12.5, 1e-9);
  EXPECT_NEAR(caps[2], 12.5, 1e-9);
}

TEST(WaterFilling, BudgetConservedWhenBinding) {
  const std::vector<double> demands{12.0, 7.0, 30.0, 1.0, 25.0};
  const auto caps = water_filling(40.0, demands);
  const double total = std::accumulate(caps.begin(), caps.end(), 0.0);
  EXPECT_NEAR(total, 40.0, 1e-9);
}

TEST(WaterFilling, CapsNeverExceedDemands) {
  const std::vector<double> demands{12.0, 7.0, 30.0, 1.0, 25.0};
  const auto caps = water_filling(40.0, demands);
  for (std::size_t i = 0; i < demands.size(); ++i) {
    EXPECT_LE(caps[i], demands[i] + 1e-12);
  }
}

TEST(WaterFilling, SatisfiesLowDemandsFirst) {
  const std::vector<double> demands{2.0, 50.0};
  const auto caps = water_filling(10.0, demands);
  EXPECT_DOUBLE_EQ(caps[0], 2.0);  // low demand fully met
  EXPECT_NEAR(caps[1], 8.0, 1e-9);
}

TEST(WaterFilling, ZeroBudget) {
  const std::vector<double> demands{5.0, 10.0};
  const auto caps = water_filling(0.0, demands);
  EXPECT_DOUBLE_EQ(caps[0], 0.0);
  EXPECT_DOUBLE_EQ(caps[1], 0.0);
}

TEST(WaterFilling, AllZeroDemands) {
  const std::vector<double> demands{0.0, 0.0, 0.0};
  const auto caps = water_filling(100.0, demands);
  for (double cap : caps) {
    EXPECT_DOUBLE_EQ(cap, 0.0);
  }
}

TEST(WaterLevel, InfiniteWhenBudgetCoversAll) {
  const std::vector<double> demands{1.0, 2.0};
  EXPECT_TRUE(std::isinf(water_level(10.0, demands)));
}

// Randomised property sweep: the water-filling invariants hold for any
// demand vector.
class WaterFillingProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WaterFillingProperties, Invariants) {
  util::Rng rng(GetParam());
  const std::size_t n = 1 + rng.uniform_index(20);
  std::vector<double> demands(n);
  for (double& d : demands) {
    d = rng.uniform(0.0, 50.0);
  }
  const double total_demand = std::accumulate(demands.begin(), demands.end(), 0.0);
  const double budget = rng.uniform(0.0, 1.2 * total_demand + 1.0);
  const auto caps = water_filling(budget, demands);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_GE(caps[i], -1e-12);
    ASSERT_LE(caps[i], demands[i] + 1e-9);
    total += caps[i];
  }
  ASSERT_LE(total, budget + 1e-6);
  // Budget fully used whenever demand exceeds it.
  if (total_demand > budget) {
    ASSERT_NEAR(total, budget, 1e-6);
    // Level property: all capped cores sit at a common level.
    const double level = water_level(budget, demands);
    for (std::size_t i = 0; i < n; ++i) {
      if (demands[i] > level + 1e-9) {
        ASSERT_NEAR(caps[i], level, 1e-9);
      }
    }
  } else {
    ASSERT_NEAR(total, total_demand, 1e-9);
  }
}

TEST_P(WaterFillingProperties, MonotoneInBudget) {
  util::Rng rng(GetParam() + 1000);
  const std::size_t n = 1 + rng.uniform_index(10);
  std::vector<double> demands(n);
  for (double& d : demands) {
    d = rng.uniform(0.0, 50.0);
  }
  const double b1 = rng.uniform(0.0, 100.0);
  const double b2 = b1 + rng.uniform(0.0, 50.0);
  const auto caps1 = water_filling(b1, demands);
  const auto caps2 = water_filling(b2, demands);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_GE(caps2[i], caps1[i] - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomCases, WaterFillingProperties,
                         ::testing::Range<std::uint64_t>(1, 33));

TEST(HybridResolve, SwitchesAtCriticalLoad) {
  EXPECT_EQ(resolve_hybrid(DistributionPolicy::kHybrid, 100.0, 154.0),
            DistributionPolicy::kEqualSharing);
  EXPECT_EQ(resolve_hybrid(DistributionPolicy::kHybrid, 200.0, 154.0),
            DistributionPolicy::kWaterFilling);
  EXPECT_EQ(resolve_hybrid(DistributionPolicy::kHybrid, 154.0, 154.0),
            DistributionPolicy::kEqualSharing);  // boundary: not above
}

TEST(HybridResolve, NonHybridPassesThrough) {
  EXPECT_EQ(resolve_hybrid(DistributionPolicy::kEqualSharing, 500.0, 154.0),
            DistributionPolicy::kEqualSharing);
  EXPECT_EQ(resolve_hybrid(DistributionPolicy::kWaterFilling, 0.0, 154.0),
            DistributionPolicy::kWaterFilling);
}

TEST(DistributionPolicy, Names) {
  EXPECT_STREQ(to_string(DistributionPolicy::kEqualSharing), "equal-sharing");
  EXPECT_STREQ(to_string(DistributionPolicy::kWaterFilling), "water-filling");
  EXPECT_STREQ(to_string(DistributionPolicy::kHybrid), "hybrid");
}

}  // namespace
}  // namespace ge::power
