// Unit and property tests for quality functions and the quality monitor.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "exp/config.h"
#include "quality/quality_function.h"
#include "quality/quality_monitor.h"

namespace ge::quality {
namespace {

TEST(ExponentialQuality, BoundaryValues) {
  ExponentialQuality f(0.003, 1000.0);
  EXPECT_DOUBLE_EQ(f.value(0.0), 0.0);
  EXPECT_NEAR(f.value(1000.0), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(f.xmax(), 1000.0);
}

TEST(ExponentialQuality, ClampsOutsideDomain) {
  ExponentialQuality f(0.003, 1000.0);
  EXPECT_DOUBLE_EQ(f.value(-5.0), 0.0);
  EXPECT_NEAR(f.value(5000.0), 1.0, 1e-12);
}

TEST(ExponentialQuality, MatchesClosedForm) {
  const double c = 0.003;
  const double xmax = 1000.0;
  ExponentialQuality f(c, xmax);
  for (double x : {10.0, 130.0, 192.0, 500.0, 999.0}) {
    const double expected = (1.0 - std::exp(-c * x)) / (1.0 - std::exp(-c * xmax));
    EXPECT_NEAR(f.value(x), expected, 1e-12);
  }
}

TEST(ExponentialQuality, HeadWorthMoreThanTail) {
  // Diminishing returns: the first 100 units contribute more quality than
  // the second 100 units.
  ExponentialQuality f(0.003, 1000.0);
  const double head = f.value(100.0) - f.value(0.0);
  const double tail = f.value(200.0) - f.value(100.0);
  EXPECT_GT(head, tail);
}

// Property sweep over concavity values used in Fig. 9.
class QualityFunctionProperties : public ::testing::TestWithParam<double> {};

TEST_P(QualityFunctionProperties, MonotoneNonDecreasing) {
  ExponentialQuality f(GetParam(), 1000.0);
  double prev = -1.0;
  for (double x = 0.0; x <= 1000.0; x += 10.0) {
    const double v = f.value(x);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST_P(QualityFunctionProperties, Concave) {
  ExponentialQuality f(GetParam(), 1000.0);
  for (double x = 0.0; x <= 900.0; x += 50.0) {
    const double mid = f.value(x + 50.0);
    const double chord = 0.5 * (f.value(x) + f.value(x + 100.0));
    EXPECT_GE(mid, chord - 1e-12);
  }
}

TEST_P(QualityFunctionProperties, InverseRoundTrip) {
  ExponentialQuality f(GetParam(), 1000.0);
  for (double x = 0.0; x <= 1000.0; x += 25.0) {
    EXPECT_NEAR(f.inverse(f.value(x)), x, 1e-6);
  }
}

TEST_P(QualityFunctionProperties, DerivativeMatchesFiniteDifference) {
  ExponentialQuality f(GetParam(), 1000.0);
  const double h = 1e-5;
  for (double x = 1.0; x <= 999.0; x += 111.0) {
    const double fd = (f.value(x + h) - f.value(x - h)) / (2.0 * h);
    EXPECT_NEAR(f.derivative(x), fd, 1e-6);
  }
}

TEST_P(QualityFunctionProperties, InverseDerivativeRoundTrip) {
  ExponentialQuality f(GetParam(), 1000.0);
  for (double x = 10.0; x <= 990.0; x += 49.0) {
    const double slope = f.derivative(x);
    EXPECT_NEAR(f.inverse_derivative(slope), x, 1e-6);
  }
}

TEST_P(QualityFunctionProperties, HigherConcavityGivesHigherQuality) {
  // Fig. 9b: for the same processed volume, a larger c yields more quality.
  const double c = GetParam();
  ExponentialQuality low(c, 1000.0);
  ExponentialQuality high(c * 2.0, 1000.0);
  for (double x : {100.0, 300.0, 700.0}) {
    EXPECT_GT(high.value(x), low.value(x));
  }
}

INSTANTIATE_TEST_SUITE_P(ConcavitySweep, QualityFunctionProperties,
                         ::testing::Values(0.0005, 0.001, 0.002, 0.003, 0.005, 0.009));

TEST(LinearQuality, ValueAndInverse) {
  LinearQuality f(1000.0);
  EXPECT_DOUBLE_EQ(f.value(250.0), 0.25);
  EXPECT_DOUBLE_EQ(f.inverse(0.25), 250.0);
  EXPECT_DOUBLE_EQ(f.derivative(123.0), 0.001);
}

TEST(PowerLawQuality, ConcaveAndInvertible) {
  PowerLawQuality f(0.5, 1000.0);
  EXPECT_NEAR(f.value(250.0), 0.5, 1e-12);
  EXPECT_NEAR(f.inverse(0.5), 250.0, 1e-9);
  // Concavity.
  EXPECT_GT(f.value(100.0) - f.value(0.0), f.value(200.0) - f.value(100.0));
}

TEST(PowerLawQuality, GenericInverseDerivative) {
  PowerLawQuality f(0.5, 1000.0);
  const double x = 400.0;
  EXPECT_NEAR(f.inverse_derivative(f.derivative(x)), x, 1e-4);
}

// Inverse boundary contract: inverse(0) = 0 and inverse(1) = xmax for every
// family, with out-of-range q clamped into [0, 1].  The GE cutter calls
// inverse at the closed-form step, where overshoot can push the desired
// quality to exactly 0 or 1 -- these edges must be exact, not approximate.
TEST(QualityInverseEdges, AllFamiliesExactAtZeroAndOne) {
  const ExponentialQuality expq(0.003, 1000.0);
  const LinearQuality linq(1000.0);
  const PowerLawQuality plq(0.5, 1000.0);
  const QualityFunction* fams[] = {&expq, &linq, &plq};
  for (const QualityFunction* f : fams) {
    SCOPED_TRACE(f->name());
    EXPECT_DOUBLE_EQ(f->inverse(0.0), 0.0);
    EXPECT_DOUBLE_EQ(f->inverse(1.0), f->xmax());
    // Out-of-range targets clamp instead of extrapolating.
    EXPECT_DOUBLE_EQ(f->inverse(-0.5), 0.0);
    EXPECT_DOUBLE_EQ(f->inverse(1.5), f->xmax());
    // Round trip at the boundaries.
    EXPECT_DOUBLE_EQ(f->value(f->inverse(0.0)), 0.0);
    EXPECT_NEAR(f->value(f->inverse(1.0)), 1.0, 1e-12);
  }
}

TEST(QualityInverseEdges, RoundTripAcrossTheRange) {
  const ExponentialQuality expq(0.003, 1000.0);
  const LinearQuality linq(1000.0);
  const PowerLawQuality plq(0.5, 1000.0);
  const QualityFunction* fams[] = {&expq, &linq, &plq};
  for (const QualityFunction* f : fams) {
    SCOPED_TRACE(f->name());
    for (double q = 0.05; q < 1.0; q += 0.05) {
      EXPECT_NEAR(f->value(f->inverse(q)), q, 1e-9) << "q=" << q;
    }
  }
}

TEST(QualityConstructorChecks, RejectInvalidParameters) {
  EXPECT_DEATH(ExponentialQuality(0.0, 1000.0), "positive");
  EXPECT_DEATH(ExponentialQuality(0.003, 0.0), "positive");
  EXPECT_DEATH(LinearQuality(-1.0), "positive");
  EXPECT_DEATH(PowerLawQuality(0.0, 1000.0), "exponent");
  EXPECT_DEATH(PowerLawQuality(1.0, 1000.0), "exponent");
  EXPECT_DEATH(PowerLawQuality(0.5, 0.0), "positive");
}

TEST(MakePaperQualityFunction, UsesPaperConstants) {
  auto f = exp::ExperimentConfig::paper_defaults().make_quality_function();
  EXPECT_NEAR(f->value(1000.0), 1.0, 1e-12);
  // f(192) ~ 0.46 for c = 0.003 (sanity anchor from the paper's setup).
  EXPECT_NEAR(f->value(192.0), 0.461, 0.005);
}

TEST(QualityMonitor, StartsAtPerfectQuality) {
  ExponentialQuality f(0.003, 1000.0);
  QualityMonitor monitor(f);
  EXPECT_DOUBLE_EQ(monitor.quality(), 1.0);
  EXPECT_EQ(monitor.settled_jobs(), 0u);
}

TEST(QualityMonitor, FullCompletionKeepsQualityOne) {
  ExponentialQuality f(0.003, 1000.0);
  QualityMonitor monitor(f);
  monitor.settle(400.0, 400.0);
  monitor.settle(900.0, 900.0);
  EXPECT_NEAR(monitor.quality(), 1.0, 1e-12);
}

TEST(QualityMonitor, DroppedJobLowersQuality) {
  ExponentialQuality f(0.003, 1000.0);
  QualityMonitor monitor(f);
  monitor.settle(400.0, 400.0);
  monitor.settle(0.0, 400.0);
  EXPECT_NEAR(monitor.quality(), 0.5, 1e-12);
}

TEST(QualityMonitor, MatchesPaperFormula) {
  ExponentialQuality f(0.003, 1000.0);
  QualityMonitor monitor(f);
  monitor.settle(100.0, 300.0);
  monitor.settle(250.0, 500.0);
  const double expected =
      (f.value(100.0) + f.value(250.0)) / (f.value(300.0) + f.value(500.0));
  EXPECT_NEAR(monitor.quality(), expected, 1e-12);
  EXPECT_EQ(monitor.settled_jobs(), 2u);
}

TEST(QualityMonitor, ClampsOverdelivery) {
  ExponentialQuality f(0.003, 1000.0);
  QualityMonitor monitor(f);
  monitor.settle(500.0, 400.0);  // executed > demand (rounding noise)
  EXPECT_NEAR(monitor.quality(), 1.0, 1e-12);
}

TEST(QualityMonitor, SlidingWindowForgetsOldJobs) {
  ExponentialQuality f(0.003, 1000.0);
  QualityMonitor monitor(f, /*window=*/2);
  monitor.settle(0.0, 400.0);  // dropped, will scroll out
  monitor.settle(400.0, 400.0);
  monitor.settle(400.0, 400.0);
  EXPECT_NEAR(monitor.quality(), 1.0, 1e-12);
}

TEST(QualityMonitor, CumulativeNeverForgets) {
  ExponentialQuality f(0.003, 1000.0);
  QualityMonitor monitor(f);  // window = 0
  monitor.settle(0.0, 400.0);
  for (int i = 0; i < 10; ++i) {
    monitor.settle(400.0, 400.0);
  }
  EXPECT_LT(monitor.quality(), 1.0);
}

}  // namespace
}  // namespace ge::quality
