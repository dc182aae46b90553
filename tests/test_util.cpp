// Unit tests for ge::util (RNG, statistics, tables, flags).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include "util/flags.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace ge::util {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanApproximatelyHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.uniform();
  }
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(13);
  const double rate = 4.0;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.exponential(rate);
  }
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.01);
}

TEST(Rng, UniformIndexWithinBounds) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_LT(rng.uniform_index(7), 7u);
  }
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(19);
  std::array<int, 5> counts{};
  for (int i = 0; i < 5000; ++i) {
    counts[rng.uniform_index(5)]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, 800);  // roughly uniform
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(23);
  Rng child = parent.split();
  // The child stream should not reproduce the parent's next outputs.
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next() == child.next()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 2);
}

TEST(RunningStats, KnownSample) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.0, 1e-12);
  EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesCombined) {
  RunningStats a;
  RunningStats b;
  RunningStats all;
  Rng rng(29);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-10.0, 10.0);
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_NEAR(a.min(), all.min(), 1e-12);
  EXPECT_NEAR(a.max(), all.max(), 1e-12);
}

TEST(TimeWeightedStats, PiecewiseConstantSignal) {
  TimeWeightedStats s;
  s.add(2.0, 1.0);  // 2 for 1 s
  s.add(4.0, 3.0);  // 4 for 3 s
  EXPECT_DOUBLE_EQ(s.total_time(), 4.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  // E[x^2] = (4*1 + 16*3)/4 = 13; var = 13 - 12.25 = 0.75.
  EXPECT_NEAR(s.variance(), 0.75, 1e-12);
}

TEST(TimeWeightedStats, ZeroDurationIgnored) {
  TimeWeightedStats s;
  s.add(100.0, 0.0);
  EXPECT_DOUBLE_EQ(s.total_time(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(TimeWeightedStats, ConstantSignalHasZeroVariance) {
  TimeWeightedStats s;
  for (int i = 0; i < 100; ++i) {
    s.add(2.5, 0.01);
  }
  EXPECT_NEAR(s.variance(), 0.0, 1e-9);
  EXPECT_NEAR(s.mean(), 2.5, 1e-12);
}

TEST(TimeWeightedStats, MergeAccumulates) {
  TimeWeightedStats a;
  TimeWeightedStats b;
  a.add(1.0, 2.0);
  b.add(3.0, 2.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  EXPECT_NEAR(a.variance(), 1.0, 1e-12);
}

TEST(Table, AlignedRendering) {
  Table t({"name", "value"});
  t.begin_row();
  t.add("alpha");
  t.add(1.5, 2);
  t.begin_row();
  t.add("b");
  t.add(std::uint64_t{42});
  std::ostringstream os;
  t.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("1.50"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
}

TEST(Table, CsvRendering) {
  Table t({"a", "b"});
  t.begin_row();
  t.add(1.0, 1);
  t.add(2.0, 1);
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1.0,2.0\n");
}

TEST(Table, CellAccess) {
  Table t({"x"});
  t.begin_row();
  t.add("v");
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.columns(), 1u);
  EXPECT_EQ(t.cell(0, 0), "v");
}

TEST(FormatDouble, Precision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

TEST(Flags, SpaceAndEqualsForms) {
  const char* argv[] = {"prog", "--rate", "150", "--seed=7"};
  Flags flags(4, argv);
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 0.0), 150.0);
  EXPECT_EQ(flags.get_int("seed", 0), 7);
}

TEST(Flags, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags flags(1, argv);
  EXPECT_DOUBLE_EQ(flags.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(flags.get_string("name", "dflt"), "dflt");
  EXPECT_TRUE(flags.get_bool("flag", true));
}

TEST(Flags, BooleanSwitch) {
  const char* argv[] = {"prog", "--verbose", "--quiet=false"};
  Flags flags(3, argv);
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_FALSE(flags.get_bool("quiet", true));
}

TEST(Flags, DoubleList) {
  const char* argv[] = {"prog", "--rates", "100,150,200"};
  Flags flags(3, argv);
  const auto rates = flags.get_double_list("rates", {});
  ASSERT_EQ(rates.size(), 3u);
  EXPECT_DOUBLE_EQ(rates[0], 100.0);
  EXPECT_DOUBLE_EQ(rates[2], 200.0);
}

TEST(Flags, CheckedListsAndRanges) {
  const char* argv[] = {"prog", "--rates", "100,150", "--cores", "16,8",
                        "--q", "0.5"};
  Flags flags(7, argv);
  EXPECT_EQ(flags.get_positive_double_list("rates", {}),
            (std::vector<double>{100.0, 150.0}));
  EXPECT_EQ(flags.get_int_list_at_least("cores", {}, 1),
            (std::vector<std::int64_t>{16, 8}));
  EXPECT_EQ(flags.get_int_list_at_least("absent", {4}, 1),
            (std::vector<std::int64_t>{4}));
  EXPECT_EQ(flags.get_fraction("q", 0.9), 0.5);
  const char* bad[] = {"prog", "--rates", "100,-5", "--cores", "2.7",
                       "--q", "1.5"};
  Flags bad_flags(7, bad);
  EXPECT_EXIT((void)bad_flags.get_positive_double_list("rates", {}),
              ::testing::ExitedWithCode(2),
              "--rates must be a comma-separated list of numbers > 0");
  EXPECT_EXIT((void)bad_flags.get_int_list_at_least("cores", {}, 1),
              ::testing::ExitedWithCode(2),
              "--cores must be a comma-separated list of integers >= 1");
  EXPECT_EXIT((void)bad_flags.get_fraction("q", 0.9),
              ::testing::ExitedWithCode(2), "--q must be a number in \\[0, 1\\]");
}

TEST(Flags, LastOccurrenceWins) {
  const char* argv[] = {"prog", "--x", "1", "--x", "2"};
  Flags flags(5, argv);
  EXPECT_EQ(flags.get_int("x", 0), 2);
}

TEST(Flags, IntAtLeastAcceptsWholeIntegersFromTheMinimum) {
  const char* argv[] = {"prog", "--n", "1", "--m=12"};
  Flags flags(4, argv);
  EXPECT_EQ(flags.get_int_at_least("n", 5, 1), 1);
  EXPECT_EQ(flags.get_int_at_least("m", 5, 1), 12);
  EXPECT_EQ(flags.get_int_at_least("absent", 5, 1), 5);
}

TEST(Flags, IntAtLeastExitsNamingTheFlag) {
  for (const char* bad : {"-1", "0", "abc", "2x", "1.5"}) {
    SCOPED_TRACE(bad);
    const char* argv[] = {"prog", "--n", bad};
    Flags flags(3, argv);
    EXPECT_EXIT((void)flags.get_int_at_least("n", 1, 1),
                ::testing::ExitedWithCode(2), "--n must be an integer >= 1");
  }
}

TEST(Flags, PositiveDoubleAcceptsFiniteNumbersAboveZero) {
  const char* argv[] = {"prog", "--w", "0.2", "--tol=1e-6", "--n", "3"};
  Flags flags(6, argv);
  EXPECT_EQ(flags.get_positive_double("w", 1.0), 0.2);
  EXPECT_EQ(flags.get_positive_double("tol", 1.0), 1e-6);
  EXPECT_EQ(flags.get_positive_double("n", 1.0), 3.0);
  EXPECT_EQ(flags.get_positive_double("absent", 0.5), 0.5);
}

TEST(Flags, PositiveDoubleExitsNamingTheFlag) {
  for (const char* bad : {"0", "-1", "abc", "0.2x", "inf", "nan", " 1"}) {
    SCOPED_TRACE(bad);
    const char* argv[] = {"prog", "--w", bad};
    Flags flags(3, argv);
    EXPECT_EXIT((void)flags.get_positive_double("w", 1.0),
                ::testing::ExitedWithCode(2), "--w must be a number > 0");
  }
}

TEST(Flags, NumbersMustBeWhollyFinite) {
  for (const char* bad : {"abc", "0.9x", "inf", "1e999", " 1"}) {
    SCOPED_TRACE(bad);
    const char* argv[] = {"prog", "--x", bad};
    Flags flags(3, argv);
    EXPECT_EXIT((void)flags.get_double("x", 0.0), ::testing::ExitedWithCode(2),
                "--x must be a finite number");
    EXPECT_EXIT((void)flags.get_int("x", 0), ::testing::ExitedWithCode(2),
                "--x must be an integer");
  }
  const char* argv[] = {"prog", "--xs", "100,abc", "--ys", "1,,2"};
  Flags flags(5, argv);
  EXPECT_EXIT((void)flags.get_double_list("xs", {}), ::testing::ExitedWithCode(2),
              "--xs must be a comma-separated list of finite numbers");
  EXPECT_EXIT((void)flags.get_double_list("ys", {}), ::testing::ExitedWithCode(2),
              "--ys must be a comma-separated list");
}

TEST(Flags, RejectUnreadNamesTheFirstFlagNothingRead) {
  const char* argv[] = {"prog", "--qge", "0.5", "--x=1", "--qeg", "0.7", "--y"};
  const Flags flags(7, argv);
  EXPECT_EQ(flags.get_fraction("qge", 0.9), 0.5);
  EXPECT_EQ(flags.get_int("x", 0), 1);
  // A lookup that finds nothing counts as a read of nothing.
  EXPECT_FALSE(flags.has("absent"));
  EXPECT_EXIT(flags.reject_unread(), ::testing::ExitedWithCode(2),
              "^error: unknown flag --qeg\n$");
  (void)flags.get_string("qeg", "");
  EXPECT_EXIT(flags.reject_unread(), ::testing::ExitedWithCode(2),
              "^error: unknown flag --y\n$");
  (void)flags.get_bool("y", false);
  flags.reject_unread();  // every flag read: returns

  // Every occurrence of a repeated flag is read by one lookup.
  const char* twice[] = {"prog", "--x", "1", "--x", "2"};
  const Flags repeated(5, twice);
  EXPECT_EQ(repeated.get_int("x", 0), 2);
  repeated.reject_unread();
}

TEST(Flags, PositionalArguments) {
  const char* argv[] = {"prog", "file.csv", "--x=1", "other"};
  Flags flags(4, argv);
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "file.csv");
  EXPECT_EQ(flags.positional()[1], "other");
}

}  // namespace
}  // namespace ge::util

// -- quantiles -------------------------------------------------------------

#include "util/quantiles.h"

namespace ge::util {
namespace {

TEST(QuantileCollector, MedianOfKnownSample) {
  QuantileCollector q;
  for (double x : {5.0, 1.0, 3.0, 2.0, 4.0}) {
    q.add(x);
  }
  EXPECT_DOUBLE_EQ(q.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(q.min(), 1.0);
  EXPECT_DOUBLE_EQ(q.max(), 5.0);
  EXPECT_DOUBLE_EQ(q.mean(), 3.0);
  EXPECT_EQ(q.count(), 5u);
}

TEST(QuantileCollector, InterpolatesBetweenOrderStatistics) {
  QuantileCollector q;
  q.add(0.0);
  q.add(10.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.25), 2.5);
  EXPECT_DOUBLE_EQ(q.quantile(0.75), 7.5);
}

TEST(QuantileCollector, AddAfterQueryResorts) {
  QuantileCollector q;
  q.add(2.0);
  q.add(1.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 2.0);
  q.add(0.5);
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 0.5);
}

TEST(QuantileCollector, UniformSampleQuantiles) {
  QuantileCollector q;
  Rng rng(77);
  for (int i = 0; i < 100000; ++i) {
    q.add(rng.uniform());
  }
  EXPECT_NEAR(q.quantile(0.5), 0.5, 0.01);
  EXPECT_NEAR(q.quantile(0.95), 0.95, 0.01);
  EXPECT_NEAR(q.quantile(0.99), 0.99, 0.01);
}

TEST(QuantileCollector, EmptyDies) {
  QuantileCollector q;
  EXPECT_DEATH((void)q.quantile(0.5), "empty");
}

// The collector selects in place over its blocks; a sorted copy indexed with
// the same interpolation is the reference, compared bit for bit.
constexpr std::size_t kBlock = QuantileCollector::kBlockSize;
constexpr double kQs[] = {0.0, 0.5, 0.95, 0.99, 1.0};

double sorted_quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Half the draws come from a 40-value grid, so order statistics tie often.
double draw(Rng& rng) {
  return rng.next() % 2 == 0 ? 0.25 * static_cast<double>(rng.uniform_index(40))
                             : rng.uniform(0.0, 10.0);
}

void expect_matches_reference(const QuantileCollector& q,
                              const std::vector<double>& samples) {
  ASSERT_EQ(q.count(), samples.size());
  for (double p : kQs) {
    EXPECT_EQ(bits(q.quantile(p)), bits(sorted_quantile(samples, p)))
        << "n=" << samples.size() << " q=" << p;
  }
  EXPECT_EQ(bits(q.min()), bits(sorted_quantile(samples, 0.0)));
  EXPECT_EQ(bits(q.max()), bits(sorted_quantile(samples, 1.0)));
}

TEST(QuantileCollector, MatchesSortedReferenceAcrossBlockBoundaries) {
  for (std::size_t n : {std::size_t{1}, kBlock - 1, kBlock, kBlock + 1,
                        3 * kBlock + 5}) {
    Rng rng(1000 + n);
    QuantileCollector q;
    std::vector<double> samples;
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      samples.push_back(draw(rng));
      q.add(samples.back());
      sum += samples.back();
    }
    expect_matches_reference(q, samples);
    EXPECT_EQ(bits(q.mean()), bits(sum / static_cast<double>(n)));
  }
}

TEST(QuantileCollector, AddsInterleavedWithQueriesMatchReference) {
  Rng rng(5);
  QuantileCollector q;
  std::vector<double> samples;
  // Query at sizes on and around each block boundary, and between them.
  for (std::size_t n = 1; n <= 2 * kBlock + 3; ++n) {
    samples.push_back(draw(rng));
    q.add(samples.back());
    const std::size_t r = n % kBlock;
    if (r <= 1 || r == kBlock - 1 || n % 1531 == 0) {
      expect_matches_reference(q, samples);
    }
  }
}

}  // namespace
}  // namespace ge::util
