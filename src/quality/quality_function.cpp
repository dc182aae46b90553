#include "quality/quality_function.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/table.h"

namespace ge::quality {
namespace {

double clamp01(double q) { return std::clamp(q, 0.0, 1.0); }

}  // namespace

double QualityFunction::inverse_derivative(double slope) const {
  // Generic bisection fallback; f' is non-increasing on [0, xmax].
  if (slope >= derivative(0.0)) {
    return 0.0;
  }
  if (slope <= derivative(xmax())) {
    return xmax();
  }
  double lo = 0.0;
  double hi = xmax();
  for (int i = 0; i < 80; ++i) {
    const double mid = 0.5 * (lo + hi);
    // mid == lo or mid == hi is a fixed point: later iterations cannot move
    // either endpoint again (same mid, same branch every time), so breaking
    // here returns the same 0.5 * (lo + hi) the full loop would.
    const bool converged = mid == lo || mid == hi;
    if (derivative(mid) > slope) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (converged) {
      break;
    }
  }
  return 0.5 * (lo + hi);
}

ExponentialQuality::ExponentialQuality(double c, double xmax) : c_(c), xmax_(xmax) {
  GE_CHECK(c > 0.0, "concavity multiplier c must be positive");
  GE_CHECK(xmax > 0.0, "xmax must be positive");
  norm_ = 1.0 - std::exp(-c_ * xmax_);
  slope_at_zero_ = derivative(0.0);
  slope_at_xmax_ = derivative(xmax_);
}

double ExponentialQuality::value(double x) const {
  x = std::clamp(x, 0.0, xmax_);
  return (1.0 - std::exp(-c_ * x)) / norm_;
}

double ExponentialQuality::derivative(double x) const {
  x = std::clamp(x, 0.0, xmax_);
  return c_ * std::exp(-c_ * x) / norm_;
}

double ExponentialQuality::inverse(double q) const {
  q = clamp01(q);
  const double arg = 1.0 - q * norm_;
  GE_CHECK(arg > 0.0, "inverse() argument out of range");
  const double x = -std::log(arg) / c_;
  return std::clamp(x, 0.0, xmax_);
}

double ExponentialQuality::inverse_derivative(double slope) const {
  if (slope >= slope_at_zero_) {
    return 0.0;
  }
  if (slope <= slope_at_xmax_) {
    return xmax_;
  }
  // f'(x) = c e^{-cx} / norm  =>  x = -ln(slope * norm / c) / c.
  const double x = -std::log(slope * norm_ / c_) / c_;
  return std::clamp(x, 0.0, xmax_);
}

std::string ExponentialQuality::name() const {
  return "exp(c=" + ge::util::format_double(c_, 4) + ")";
}

LinearQuality::LinearQuality(double xmax) : xmax_(xmax) {
  GE_CHECK(xmax > 0.0, "xmax must be positive");
}

double LinearQuality::value(double x) const {
  return std::clamp(x, 0.0, xmax_) / xmax_;
}

double LinearQuality::derivative(double x) const {
  (void)x;
  return 1.0 / xmax_;
}

double LinearQuality::inverse(double q) const { return clamp01(q) * xmax_; }

PowerLawQuality::PowerLawQuality(double gamma, double xmax)
    : gamma_(gamma),
      xmax_(xmax),
      inv_gamma_(1.0 / gamma),
      gamma_minus_one_(gamma - 1.0),
      slope_scale_(gamma / xmax) {
  GE_CHECK(gamma > 0.0 && gamma < 1.0, "power-law exponent must be in (0,1)");
  GE_CHECK(xmax > 0.0, "xmax must be positive");
}

double PowerLawQuality::value(double x) const {
  x = std::clamp(x, 0.0, xmax_);
  return std::pow(x / xmax_, gamma_);
}

double PowerLawQuality::derivative(double x) const {
  x = std::clamp(x, 0.0, xmax_);
  if (x <= 0.0) {
    // f'(0+) diverges; return a large finite slope so water-filling always
    // prefers giving the first unit of work to an untouched job.
    return 1e18;
  }
  return slope_scale_ * std::pow(x / xmax_, gamma_minus_one_);
}

double PowerLawQuality::inverse(double q) const {
  return std::pow(clamp01(q), inv_gamma_) * xmax_;
}

std::string PowerLawQuality::name() const {
  return "powerlaw(gamma=" + ge::util::format_double(gamma_, 3) + ")";
}

}  // namespace ge::quality
