// Streaming statistics helpers.
//
// RunningStats accumulates count/mean/variance/min/max of a sample stream
// (Welford's algorithm, numerically stable).  TimeWeightedStats accumulates
// the time-weighted mean and variance of a piecewise-constant signal, which
// is how we summarise core speeds (Fig. 6 of the paper reports the
// time-average speed and the speed variance under the WF and ES policies).
#pragma once

#include <cstdint>
#include <limits>

namespace ge::util {

class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  double mean() const noexcept { return count_ > 0 ? mean_ : 0.0; }
  // Population variance (divide by n).
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return count_ > 0 ? min_ : 0.0; }
  double max() const noexcept { return count_ > 0 ? max_ : 0.0; }
  double sum() const noexcept { return sum_; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

class TimeWeightedStats {
 public:
  // Records that the signal held `value` for `duration` units of time.
  // Zero-duration observations are ignored.
  void add(double value, double duration) noexcept;
  void merge(const TimeWeightedStats& other) noexcept;

  double total_time() const noexcept { return total_time_; }
  // Time-weighted mean; 0 when no time has been observed.
  double mean() const noexcept;
  // Time-weighted population variance: E[x^2] - E[x]^2.
  double variance() const noexcept;

 private:
  double total_time_ = 0.0;
  double sum_ = 0.0;     // integral of value dt
  double sum_sq_ = 0.0;  // integral of value^2 dt
};

}  // namespace ge::util
